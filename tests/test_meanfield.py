"""Mean-field variational family: ELBO, coordinate ascent, witness, KL.

Frozen constants come from an independent longhand oracle (Gauss-Hermite
expectation + generic Gaussian KL for the scalar ELBO; numpy.linalg.solve
for exact posterior means; a separately written coordinate-ascent loop for
the trend study).
"""

import numpy as np
import pytest

from gpadapt.basis import EigenBasis, SeriesPrior, Truncated, bench_signal, synth_signal
from gpadapt.exact import Dataset, SeriesKernel, exact_posterior, log_evidence
from gpadapt.meanfield import (
    MeanFieldPosterior,
    design_matrix,
    mf_elbo,
    mf_fit,
    mf_kl_exact,
    mf_predict,
    mf_witness,
)

BASIS = EigenBasis()


def _simulate(n, seed, sigma_sq=0.01):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 2 * np.pi, size=n)
    y = synth_signal(bench_signal(), x) + rng.normal(0.0, np.sqrt(sigma_sq), size=n)
    return Dataset(x=x, y=y, sigma_sq=sigma_sq)


def _random_instance(seed, n_max=50):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, n_max + 1))
    D = int(rng.integers(1, 9))
    sigma_sq = float(rng.uniform(0.05, 1.5))
    x = rng.uniform(0.0, 2 * np.pi, size=n)
    y = rng.normal(0.0, 1.0, size=n)
    data = Dataset(x=x, y=y, sigma_sq=sigma_sq)
    return design_matrix(BASIS, x, D), data


def _exact_weight_posterior(dm, data):
    """Independent route: dense solve, no Cholesky helpers."""
    D = dm.D
    P = D * np.eye(D) + dm.gram / data.sigma_sq
    b = dm.Phi.T @ data.y
    mu_hat = np.linalg.solve(P, b / data.sigma_sq)
    return mu_hat, np.linalg.inv(P)


class TestDesignMatrix:
    def test_d1_is_all_ones_column(self):
        dm = design_matrix(BASIS, np.array([0.1, 2.0, 5.5]), 1)
        np.testing.assert_array_equal(dm.Phi, np.ones((3, 1)))
        assert dm.gram.shape == (1, 1) and dm.gram[0, 0] == 3.0

    def test_empty_data(self):
        dm = design_matrix(BASIS, np.array([]), 4)
        assert dm.Phi.shape == (0, 4)
        np.testing.assert_array_equal(dm.gram, np.zeros((4, 4)))
        assert dm.n == 0

    def test_entries_bounded_by_sqrt2(self):
        dm = design_matrix(BASIS, np.random.default_rng(0).uniform(0, 2 * np.pi, 200), 15)
        assert np.max(np.abs(dm.Phi)) <= np.sqrt(2.0) + 1e-12

    def test_gram_is_phi_t_phi(self):
        dm = design_matrix(BASIS, np.random.default_rng(1).uniform(0, 2 * np.pi, 37), 6)
        np.testing.assert_allclose(dm.gram, dm.Phi.T @ dm.Phi, rtol=0, atol=1e-12)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            design_matrix(BASIS, np.array([0.5]), 0)

    def test_gram_concentration(self):
        # 50/50 seeds landed within 0.05 when frozen (worst dev 0.0459)
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            dm = design_matrix(BASIS, rng.uniform(0, 2 * np.pi, 5000), 10)
            hits += np.max(np.abs(dm.gram / 5000 - np.eye(10))) <= 0.05
        assert hits >= 48


class TestElbo:
    def test_no_data_elbo_is_log_mass(self):
        D = 3
        dm = design_matrix(BASIS, np.array([]), D)
        data = Dataset(x=np.array([]), y=np.array([]), sigma_sq=1.0)
        q = MeanFieldPosterior(D=D, Sigma_diag=np.full(D, 1.0 / D), mu=np.zeros(D))
        assert mf_elbo(q, dm, data, hyper_mass=1.0) == pytest.approx(0.0, abs=1e-14)
        assert mf_elbo(q, dm, data, hyper_mass=0.25) == pytest.approx(np.log(0.25), abs=1e-14)

    def test_scalar_hand_value(self):
        # frozen from the Gauss-Hermite + generic-KL oracle
        dm = design_matrix(BASIS, np.array([0.7]), 1)
        data = Dataset(x=np.array([0.7]), y=np.array([1.0]), sigma_sq=1.0)
        q = MeanFieldPosterior(D=1, Sigma_diag=np.array([0.5]), mu=np.array([0.5]))
        assert mf_elbo(q, dm, data, 1.0) == pytest.approx(-1.5155121234846454, abs=1e-12)

    def test_halved_mass_shifts_by_log_half(self):
        dm, data = _random_instance(7)
        q = mf_witness(dm, data)
        full = mf_elbo(q, dm, data, 1.0)
        assert mf_elbo(q, dm, data, 0.5) == full + np.log(0.5)

    def test_rejects_nonpositive_variance(self):
        dm, data = _random_instance(8)
        q = mf_witness(dm, data)
        bad = MeanFieldPosterior(D=q.D, Sigma_diag=q.Sigma_diag * 0.0, mu=q.mu)
        with pytest.raises(ValueError):
            mf_elbo(bad, dm, data, 1.0)

    def test_rejects_bad_mass(self):
        dm, data = _random_instance(9)
        q = mf_witness(dm, data)
        for mass in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                mf_elbo(q, dm, data, mass)

    def test_rejects_mismatched_dims(self):
        dm, data = _random_instance(10)
        q = mf_witness(dm, data)
        other = design_matrix(BASIS, data.x, dm.D + 1)
        with pytest.raises(ValueError):
            mf_elbo(q, other, data, 1.0)


class TestWitness:
    def test_formula_d1_n3(self):
        dm = design_matrix(BASIS, np.array([0.2, 1.0, 4.0]), 1)
        data = Dataset(x=np.array([0.2, 1.0, 4.0]), y=np.zeros(3), sigma_sq=1.0)
        np.testing.assert_array_equal(mf_witness(dm, data).Sigma_diag, [0.25])

    def test_mu_tied(self):
        dm, data = _random_instance(11)
        q = mf_witness(dm, data)
        np.testing.assert_allclose(
            q.mu, q.Sigma_diag * (dm.Phi.T @ data.y) / data.sigma_sq, rtol=0, atol=0
        )

    def test_scaling_mu_exact_at_power_of_two(self):
        dm, data = _random_instance(12)
        q1 = mf_witness(dm, data)
        q2 = mf_witness(dm, Dataset(x=data.x, y=2.0 * data.y, sigma_sq=data.sigma_sq))
        np.testing.assert_array_equal(q2.mu, 2.0 * q1.mu)
        np.testing.assert_array_equal(q2.Sigma_diag, q1.Sigma_diag)

    def test_scaling_mu_generic_factor(self):
        dm, data = _random_instance(13)
        q1 = mf_witness(dm, data)
        q2 = mf_witness(dm, Dataset(x=data.x, y=3.7 * data.y, sigma_sq=data.sigma_sq))
        np.testing.assert_allclose(q2.mu, 3.7 * q1.mu, rtol=1e-14)


class TestFit:
    def test_d1_hand_anchor(self):
        # one closed-form step lands exactly on the exact posterior
        x = np.array([0.3, 1.1])
        dm = design_matrix(BASIS, x, 1)
        data = Dataset(x=x, y=np.array([0.5, -0.2]), sigma_sq=0.04)
        q = mf_fit(dm, data)
        assert q.converged
        assert q.Sigma_diag[0] == pytest.approx(1.0 / 51.0, rel=1e-14)
        assert q.mu[0] == pytest.approx(0.1470588235294118, rel=1e-13)

    def test_zero_data_gives_zero_mean(self):
        x = np.random.default_rng(3).uniform(0, 2 * np.pi, 20)
        dm = design_matrix(BASIS, x, 5)
        data = Dataset(x=x, y=np.zeros(20), sigma_sq=0.5)
        q = mf_fit(dm, data)
        np.testing.assert_array_equal(q.mu, np.zeros(5))

    def test_orthogonal_design_matches_exact(self):
        # equispaced grid: discrete orthogonality makes Phi'Phi = n I
        n, D = 64, 9
        x = 2 * np.pi * np.arange(n) / n
        rng = np.random.default_rng(4)
        data = Dataset(x=x, y=rng.normal(0, 1, n), sigma_sq=0.3)
        dm = design_matrix(BASIS, x, D)
        assert np.max(np.abs(dm.gram - n * np.eye(D))) < 1e-10
        q = mf_fit(dm, data)
        mu_hat, Sigma_hat = _exact_weight_posterior(dm, data)
        np.testing.assert_allclose(q.mu, mu_hat, rtol=0, atol=1e-8)
        np.testing.assert_allclose(q.Sigma_diag, np.diag(Sigma_hat), rtol=0, atol=1e-8)
        assert mf_kl_exact(q, dm, data) < 1e-10
        # function-space agreement with the kernel-route posterior
        kern = SeriesKernel(SeriesPrior(Truncated(dim=D)), j_max=D)
        query = np.linspace(0.0, 2 * np.pi, 33)
        post = exact_posterior(kern, data, query)
        np.testing.assert_allclose(mf_predict(q, BASIS, query).mean, post.mean, atol=1e-8)

    def test_elbo_path_monotone_and_dominates_witness(self):
        for seed in range(12):
            dm, data = _random_instance(100 + seed)
            q = mf_fit(dm, data)
            assert q.converged
            assert np.all(np.diff(q.elbo_path) >= -1e-9)
            wit = mf_elbo(mf_witness(dm, data), dm, data, 1.0)
            assert q.elbo_path[-1] >= wit - 1e-9
            assert q.elbo_path[-1] == mf_elbo(q, dm, data)

    def test_duplication_equals_half_noise(self):
        # doubling every row of (x, y) must match halving sigma^2
        dm, data = _random_instance(14)
        x2 = np.concatenate([data.x, data.x])
        y2 = np.concatenate([data.y, data.y])
        dm2 = design_matrix(BASIS, x2, dm.D)
        q_dup = mf_fit(dm2, Dataset(x=x2, y=y2, sigma_sq=data.sigma_sq))
        q_half = mf_fit(dm, data.with_sigma_sq(data.sigma_sq / 2.0))
        np.testing.assert_allclose(q_dup.mu, q_half.mu, rtol=1e-8)
        np.testing.assert_allclose(q_dup.Sigma_diag, q_half.Sigma_diag, rtol=1e-8)

    def test_huge_noise_returns_prior(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 2 * np.pi, 30)
        dm = design_matrix(BASIS, x, 6)
        data = Dataset(x=x, y=rng.normal(0, 1, 30), sigma_sq=1e12)
        q = mf_fit(dm, data)
        np.testing.assert_allclose(q.Sigma_diag, np.full(6, 1.0 / 6.0), rtol=1e-6)
        assert np.max(np.abs(q.mu)) < 1e-6

    def test_small_noise_fit_stops_above_rounding(self):
        # n = 2000, D = 30, sigma^2 = 1e-4: y'y / sigma^2 is about 3e7 against
        # a bound of about -4e4, and the Gram identity rounds at eps y'y / sigma^2
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 2 * np.pi, 2000)
        y = synth_signal(bench_signal(), x) + rng.normal(0.0, 1e-2, 2000)
        data = Dataset(x=x, y=y, sigma_sq=1e-4)
        q = mf_fit(design_matrix(BASIS, x, 30), data)
        assert q.converged
        rounding = 16 * np.finfo(float).eps * float(y @ y) / data.sigma_sq
        assert np.all(np.diff(q.elbo_path) >= -rounding)

    def test_sweep_cap_warns(self, monkeypatch):
        import gpadapt.meanfield as mf

        monkeypatch.setattr(mf, "MAX_SWEEPS", 1)
        dm, data = _random_instance(15)
        with pytest.warns(RuntimeWarning):
            q = mf_fit(dm, data)
        assert not q.converged

    def test_rejects_empty_data(self):
        dm = design_matrix(BASIS, np.array([]), 2)
        with pytest.raises(ValueError):
            mf_fit(dm, Dataset(x=np.array([]), y=np.array([]), sigma_sq=1.0))


class TestKl:
    def test_nonnegative_on_random_instances(self):
        for seed in range(100):
            dm, data = _random_instance(200 + seed)
            q = mf_witness(dm, data)
            assert mf_kl_exact(q, dm, data) >= -1e-10

    def test_fit_reduces_kl(self):
        for seed in range(8):
            dm, data = _random_instance(300 + seed)
            kl_w = mf_kl_exact(mf_witness(dm, data), dm, data)
            kl_f = mf_kl_exact(mf_fit(dm, data), dm, data)
            assert kl_f <= kl_w + 1e-10

    def test_gap_identity(self):
        # log evidence - ELBO == KL(q || exact posterior), any member q
        for seed in range(30):
            dm, data = _random_instance(400 + seed)
            kern = SeriesKernel(SeriesPrior(Truncated(dim=dm.D)), j_max=dm.D)
            log_ev = log_evidence(kern, data)
            rng = np.random.default_rng(10_000 + seed)
            members = [mf_witness(dm, data), mf_fit(dm, data)]
            sig = rng.uniform(0.05, 2.0, size=dm.D)
            members.append(
                MeanFieldPosterior(D=dm.D, Sigma_diag=sig, mu=rng.normal(0, 1, dm.D))
            )
            for q in members:
                gap = log_ev - mf_elbo(q, dm, data, hyper_mass=1.0)
                assert gap == pytest.approx(mf_kl_exact(q, dm, data), abs=1e-8)

    def test_guard_on_large_n(self):
        x = np.zeros(2001)
        dm = design_matrix(BASIS, x, 2)
        data = Dataset(x=x, y=np.zeros(2001), sigma_sq=1.0)
        q = mf_witness(dm, data)
        with pytest.raises(ValueError):
            mf_kl_exact(q, dm, data)


class TestNearDiagonalConsistency:
    def test_mean_distance_shrinks_with_n(self):
        # frozen trend: 0.0120 -> 0.0056 -> 0.0029 (means over 10 seeds)
        D = 10
        means = []
        for n in (500, 2000, 8000):
            dists = []
            for seed in range(10):
                data = _simulate(n, 1000 + seed)
                dm = design_matrix(BASIS, data.x, D)
                q = mf_fit(dm, data)
                mu_hat, _ = _exact_weight_posterior(dm, data)
                dists.append(np.linalg.norm(q.mu - mu_hat) / np.linalg.norm(mu_hat))
            means.append(np.mean(dists))
        assert means[0] <= 0.05
        assert means[1] <= means[0] + 1e-12
        assert means[2] <= means[1] + 1e-12
        assert means[1] <= 0.02  # comfortably under the 5% fidelity target


class TestPredict:
    def test_mean_and_cov_shapes(self):
        dm, data = _random_instance(16)
        q = mf_fit(dm, data)
        query = np.linspace(0, 2 * np.pi, 17)
        post = mf_predict(q, BASIS, query)
        assert post.mean.shape == (17,)
        assert post.cov.shape == (17, 17)
        np.testing.assert_allclose(post.cov, post.cov.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(post.cov) > -1e-10)

    def test_mean_is_series_combination(self):
        dm, data = _random_instance(17)
        q = mf_fit(dm, data)
        query = np.array([0.1, 3.0, 6.0])
        post = mf_predict(q, BASIS, query)
        np.testing.assert_allclose(post.mean, BASIS.features(query, q.D) @ q.mu, atol=1e-14)

    def test_band_covers_mean(self):
        dm, data = _random_instance(18)
        q = mf_fit(dm, data)
        post = mf_predict(q, BASIS, np.linspace(0, 6, 9))
        lo, hi = post.band95()
        assert np.all(lo <= post.mean) and np.all(post.mean <= hi)
