"""Mean-field variational family: ELBO, coordinate ascent, witness, KL.

Frozen constants come from an independent longhand oracle (Gauss-Hermite
expectation + generic Gaussian KL for the scalar ELBO; numpy.linalg.solve
for exact posterior means; a separately written coordinate-ascent loop for
the trend study).
"""

import math
import warnings

import numpy as np
import pytest

from gpadapt.basis import BASIS, SeriesPrior, Truncated, bench_signal, synth_signal
from gpadapt.exact import Dataset, SeriesKernel, exact_posterior, log_evidence
from gpadapt.inducing import FeatureStats, feature_stats
from gpadapt.meanfield import (
    MAX_SWEEPS,
    SWEEP_RTOL,
    MeanFieldPosterior,
    _evidence_bounds,
    _mf_fit_replicates,
    design_matrix,
    mf_elbo,
    mf_fit,
    mf_fit_levels,
    mf_kl_exact,
    mf_predict,
    mf_witness,
)
from gpadapt.select import dim_grid


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
    return design_matrix(data, D), data


def _exact_weight_posterior(data, D):
    """Independent route: the feature block and a dense solve, no
    Cholesky helpers."""
    Phi = BASIS.features(data.x, D)
    P = D * np.eye(D) + Phi.T @ Phi / data.sigma_sq
    b = Phi.T @ data.y
    mu_hat = np.linalg.solve(P, b / data.sigma_sq)
    return mu_hat, np.linalg.inv(P)


def _data(x, y=None, sigma_sq=1.0):
    x = np.asarray(x, dtype=float)
    return Dataset(x=x, y=np.zeros(x.size) if y is None else y,
                   sigma_sq=sigma_sq)


class TestDesignMatrix:
    def test_d1_is_all_ones_column(self):
        # phi_1 = 1: G = n, Phi'y = sum y
        stats = design_matrix(_data([0.1, 2.0, 5.5], [1.0, 2.0, 4.0]), 1)
        assert stats.gram.shape == (1, 1) and stats.gram[0, 0] == 3.0
        np.testing.assert_array_equal(stats.colsumsq, [3.0])
        np.testing.assert_array_equal(stats.phi_y, [7.0])
        assert stats.n == 3 and stats.yty == 21.0

    def test_empty_data(self):
        stats = design_matrix(_data([]), 4)
        np.testing.assert_array_equal(stats.gram, np.zeros((4, 4)))
        np.testing.assert_array_equal(stats.phi_y, np.zeros(4))
        assert stats.n == 0 and stats.yty == 0.0

    def test_entries_bounded_by_sqrt2(self):
        # |phi_j| <= sqrt 2 bounds each column's sum of squares by 2 n and
        # each |(Phi'y)_j| by sqrt 2 sum |y_i|
        rng = np.random.default_rng(0)
        data = _data(rng.uniform(0, 2 * np.pi, 200), rng.normal(size=200))
        stats = design_matrix(data, 15)
        assert np.max(stats.colsumsq) <= 2.0 * 200 * (1 + 1e-12)
        assert np.max(np.abs(stats.phi_y)) <= (
            np.sqrt(2.0) * np.sum(np.abs(data.y)) * (1 + 1e-12))

    def test_gram_is_phi_t_phi(self):
        rng = np.random.default_rng(1)
        data = _data(rng.uniform(0, 2 * np.pi, 37), rng.normal(size=37))
        stats = design_matrix(data, 6)
        Phi = BASIS.features(data.x, 6)
        np.testing.assert_allclose(stats.gram, Phi.T @ Phi, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(stats.colsumsq, np.diag(stats.gram))
        np.testing.assert_allclose(stats.phi_y, Phi.T @ data.y, rtol=0,
                                   atol=1e-12)
        assert stats.yty == float(data.y @ data.y)

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(ValueError):
            design_matrix(_data([0.5]), 0)

    def test_gram_concentration(self):
        # 50/50 seeds landed within 0.05 when frozen (worst dev 0.0459)
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            stats = design_matrix(_data(rng.uniform(0, 2 * np.pi, 5000)), 10)
            hits += np.max(np.abs(stats.gram / 5000 - np.eye(10))) <= 0.05
        assert hits >= 48


class TestElbo:
    def test_no_data_elbo_is_log_mass(self):
        D = 3
        stats = design_matrix(_data([]), D)
        q = MeanFieldPosterior(D=D, Sigma_diag=np.full(D, 1.0 / D), mu=np.zeros(D))
        # log 1: the bound carries no model-size mass
        assert mf_elbo(q, stats, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_scalar_hand_value(self):
        # frozen from the Gauss-Hermite + generic-KL oracle
        stats = design_matrix(_data([0.7], np.array([1.0])), 1)
        q = MeanFieldPosterior(D=1, Sigma_diag=np.array([0.5]), mu=np.array([0.5]))
        assert mf_elbo(q, stats, 1.0) == pytest.approx(-1.5155121234846454, abs=1e-12)

    def test_rejects_nonpositive_variance(self):
        stats, data = _random_instance(8)
        q = mf_witness(stats, data.sigma_sq)
        bad = MeanFieldPosterior(D=q.D, Sigma_diag=q.Sigma_diag * 0.0, mu=q.mu)
        with pytest.raises(ValueError):
            mf_elbo(bad, stats, data.sigma_sq)

    def test_rejects_mismatched_dims(self):
        # q reads the leading q.D block of wider statistics, and statistics
        # narrower than q are refused
        stats, data = _random_instance(10)
        q = mf_witness(stats, data.sigma_sq)
        wider = design_matrix(data, q.D + 1)
        assert mf_elbo(q, wider, data.sigma_sq) == pytest.approx(
            mf_elbo(q, stats, data.sigma_sq), rel=1e-12)
        q_wide = mf_witness(wider, data.sigma_sq)
        with pytest.raises(ValueError):
            mf_elbo(q_wide, stats, data.sigma_sq)


class TestWitness:
    def test_formula_d1_n3(self):
        stats = design_matrix(_data([0.2, 1.0, 4.0]), 1)
        np.testing.assert_array_equal(mf_witness(stats, 1.0).Sigma_diag, [0.25])

    def test_mu_tied(self):
        stats, data = _random_instance(11)
        q = mf_witness(stats, data.sigma_sq)
        Phi = BASIS.features(data.x, q.D)
        np.testing.assert_allclose(
            q.mu, q.Sigma_diag * (Phi.T @ data.y) / data.sigma_sq, rtol=0, atol=0
        )

    def test_scaling_mu_exact_at_power_of_two(self):
        stats, data = _random_instance(12)
        q1 = mf_witness(stats, data.sigma_sq)
        q2 = mf_witness(design_matrix(_data(data.x, 2.0 * data.y), q1.D),
                        data.sigma_sq)
        np.testing.assert_array_equal(q2.mu, 2.0 * q1.mu)
        np.testing.assert_array_equal(q2.Sigma_diag, q1.Sigma_diag)

    def test_scaling_mu_generic_factor(self):
        stats, data = _random_instance(13)
        q1 = mf_witness(stats, data.sigma_sq)
        q2 = mf_witness(design_matrix(_data(data.x, 3.7 * data.y), q1.D),
                        data.sigma_sq)
        np.testing.assert_allclose(q2.mu, 3.7 * q1.mu, rtol=1e-14)


class TestFit:
    def test_d1_hand_anchor(self):
        # one closed-form step lands exactly on the exact posterior
        data = _data([0.3, 1.1], np.array([0.5, -0.2]), sigma_sq=0.04)
        q = mf_fit(design_matrix(data, 1), data.sigma_sq)
        assert q.converged
        assert q.Sigma_diag[0] == pytest.approx(1.0 / 51.0, rel=1e-14)
        assert q.mu[0] == pytest.approx(0.1470588235294118, rel=1e-13)

    def test_zero_data_gives_zero_mean(self):
        x = np.random.default_rng(3).uniform(0, 2 * np.pi, 20)
        q = mf_fit(design_matrix(_data(x), 5), 0.5)
        np.testing.assert_array_equal(q.mu, np.zeros(5))

    def test_orthogonal_design_matches_exact(self):
        # equispaced grid: discrete orthogonality makes Phi'Phi = n I
        n, D = 64, 9
        x = 2 * np.pi * np.arange(n) / n
        rng = np.random.default_rng(4)
        data = Dataset(x=x, y=rng.normal(0, 1, n), sigma_sq=0.3)
        stats = design_matrix(data, D)
        assert np.max(np.abs(stats.gram - n * np.eye(D))) < 1e-10
        q = mf_fit(stats, data.sigma_sq)
        mu_hat, Sigma_hat = _exact_weight_posterior(data, D)
        np.testing.assert_allclose(q.mu, mu_hat, rtol=0, atol=1e-8)
        np.testing.assert_allclose(q.Sigma_diag, np.diag(Sigma_hat), rtol=0, atol=1e-8)
        assert mf_kl_exact(q, stats, data.sigma_sq) < 1e-10
        # function-space agreement with the kernel-route posterior
        kern = SeriesKernel(SeriesPrior(Truncated(dim=D)), j_max=D)
        query = np.linspace(0.0, 2 * np.pi, 33)
        post = exact_posterior(kern, data, query)
        np.testing.assert_allclose(mf_predict(q, query).mean, post.mean, atol=1e-8)

    def test_elbo_path_monotone_and_dominates_witness(self):
        for seed in range(12):
            stats, data = _random_instance(100 + seed)
            s2 = data.sigma_sq
            q = mf_fit(stats, s2)
            assert q.converged
            assert np.all(np.diff(q.elbo_path) >= -1e-9)
            wit = mf_elbo(mf_witness(stats, s2), stats, s2)
            assert q.elbo_path[-1] >= wit - 1e-9
            assert q.elbo_path[-1] == mf_elbo(q, stats, s2)

    def test_duplication_equals_half_noise(self):
        # doubling every row of (x, y) must match halving sigma^2
        stats, data = _random_instance(14)
        x2 = np.concatenate([data.x, data.x])
        y2 = np.concatenate([data.y, data.y])
        stats2 = design_matrix(_data(x2, y2), stats.gram.shape[0])
        q_dup = mf_fit(stats2, data.sigma_sq)
        q_half = mf_fit(stats, data.sigma_sq / 2.0)
        np.testing.assert_allclose(q_dup.mu, q_half.mu, rtol=1e-8)
        np.testing.assert_allclose(q_dup.Sigma_diag, q_half.Sigma_diag, rtol=1e-8)

    def test_huge_noise_returns_prior(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 2 * np.pi, 30)
        q = mf_fit(design_matrix(_data(x, rng.normal(0, 1, 30)), 6), 1e12)
        np.testing.assert_allclose(q.Sigma_diag, np.full(6, 1.0 / 6.0), rtol=1e-6)
        assert np.max(np.abs(q.mu)) < 1e-6

    def test_small_noise_fit_stops_above_rounding(self):
        # n = 2000, D = 30, sigma^2 = 1e-4: y'y / sigma^2 is about 3e7 against
        # a bound of about -4e4, and the Gram identity rounds at eps y'y / sigma^2
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 2 * np.pi, 2000)
        y = synth_signal(bench_signal(), x) + rng.normal(0.0, 1e-2, 2000)
        data = Dataset(x=x, y=y, sigma_sq=1e-4)
        q = mf_fit(design_matrix(data, 30), data.sigma_sq)
        assert q.converged
        rounding = 16 * np.finfo(float).eps * float(y @ y) / data.sigma_sq
        assert np.all(np.diff(q.elbo_path) >= -rounding)

    def test_sweep_cap_warns(self, monkeypatch):
        import gpadapt.meanfield as mf

        monkeypatch.setattr(mf, "MAX_SWEEPS", 1)
        stats, data = _random_instance(15)
        D = stats.gram.shape[0]
        # the warning points at the caller, through either entry point
        for fit in (lambda: mf_fit(stats, data.sigma_sq),
                    lambda: mf_fit_levels(stats, [D], data.sigma_sq)[D]):
            with pytest.warns(RuntimeWarning) as caught:
                q = fit()
            assert not q.converged
            assert [w.filename for w in caught] == [__file__]

    def test_rejects_empty_data(self):
        stats = design_matrix(_data([]), 2)
        with pytest.raises(ValueError):
            mf_fit(stats, 1.0)


def _rel(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestLockstepLevels:
    """mf_fit_levels fits a whole truncation grid in one coordinate ascent."""

    @staticmethod
    def _sweep(n=2000, seed=8, dyadic=False):
        """The dim grid's levels, or only its powers of two {1, 2, 4, ...},
        which leave gaps between consecutive levels."""
        data = _simulate(n, seed, sigma_sq=0.25)
        grid = dim_grid(n)
        levels = [grid.m_rule(v) for v in grid.values]
        if dyadic:
            levels = [D for D in levels if D & (D - 1) == 0]
        stats = feature_stats(data.x, data.y, max(levels), max(levels))
        return stats, levels, data.sigma_sq

    @pytest.mark.parametrize("dyadic", [False, True])
    def test_each_level_matches_its_one_level_fit(self, dyadic):
        stats, levels, s2 = self._sweep(dyadic=dyadic)
        fits = mf_fit_levels(stats, levels, s2)
        assert sorted(fits) == levels
        for D in levels:
            q, one = fits[D], mf_fit_levels(stats, [D], s2)[D]
            assert q.D == D and q.converged
            # frozen on the sweep it would stop on alone, not over-iterated
            assert len(q.elbo_path) == len(one.elbo_path)
            assert _rel(q.mu, one.mu) <= 1e-12
            assert _rel(q.Sigma_diag, one.Sigma_diag) <= 1e-12
            assert abs(q.elbo_path[-1] - one.elbo_path[-1]) <= (
                1e-12 * abs(one.elbo_path[-1]))

    def test_each_level_starts_at_its_witness(self):
        # the ascent builds every level's start at once; each is the
        # witness of the statistics' leading block
        stats, levels, s2 = self._sweep()
        for D, q in mf_fit_levels(stats, levels, s2).items():
            block = FeatureStats(n=stats.n, colsumsq=stats.colsumsq[:D],
                                 gram=stats.gram[:D, :D],
                                 phi_y=stats.phi_y[:D], yty=stats.yty)
            start = mf_elbo(mf_witness(block, s2), block, s2)
            assert abs(q.elbo_path[0] - start) <= 1e-12 * abs(start)

    def test_one_level_is_mf_fit(self):
        ref_stats, data = _random_instance(19)
        D = ref_stats.gram.shape[0]
        stats = feature_stats(data.x, data.y, D, D)
        q = mf_fit_levels(stats, [D], data.sigma_sq)[D]
        ref = mf_fit(ref_stats, data.sigma_sq)
        assert len(q.elbo_path) == len(ref.elbo_path)
        np.testing.assert_allclose(q.mu, ref.mu, rtol=1e-10)
        np.testing.assert_allclose(q.Sigma_diag, ref.Sigma_diag, rtol=1e-10)

    def test_one_warning_names_the_capped_levels(self, monkeypatch):
        import gpadapt.meanfield as mf

        stats, levels, s2 = self._sweep()
        sweeps = {D: len(q.elbo_path) - 1
                  for D, q in mf_fit_levels(stats, levels, s2).items()}
        cap = sorted(sweeps.values())[len(levels) // 2]
        expect = [D for D in levels if sweeps[D] > cap]
        assert 0 < len(expect) < len(levels)
        monkeypatch.setattr(mf, "MAX_SWEEPS", cap)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fits = mf_fit_levels(stats, levels, s2)
        assert len(caught) == 1
        assert issubclass(caught[0].category, RuntimeWarning)
        assert str(caught[0].message).endswith(
            "D = " + ", ".join(map(str, expect)))
        assert [D for D in levels if not fits[D].converged] == expect
        for D in expect:
            assert len(fits[D].elbo_path) == cap + 1

    def test_each_replicate_matches_its_own_fit(self):
        # five datasets of one size in one ascent: every (replicate, level)
        # column stops on its own sweep and matches its one-dataset fit
        sweeps = [self._sweep(seed=seed) for seed in range(8, 13)]
        levels, s2 = sweeps[0][1], sweeps[0][2]
        batch = _mf_fit_replicates([st for st, _, _ in sweeps], levels, s2)
        assert len(batch) == len(sweeps)
        for (stats, _, _), fits in zip(sweeps, batch):
            alone = mf_fit_levels(stats, levels, s2)
            assert sorted(fits) == levels
            for D in levels:
                q, one = fits[D], alone[D]
                assert q.D == D and q.converged
                assert len(q.elbo_path) == len(one.elbo_path)
                assert _rel(q.mu, one.mu) <= 1e-12
                assert _rel(q.Sigma_diag, one.Sigma_diag) <= 1e-12
                assert abs(q.elbo_path[-1] - one.elbo_path[-1]) <= (
                    1e-12 * abs(one.elbo_path[-1]))

    def test_one_warning_names_the_capped_fits_of_a_batch(self,
                                                          monkeypatch):
        import gpadapt.meanfield as mf

        monkeypatch.setattr(mf, "MAX_SWEEPS", 1)
        sweeps = [self._sweep(n=300, seed=seed) for seed in (1, 2, 3)]
        levels, s2 = sweeps[0][1], sweeps[0][2]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = _mf_fit_replicates([st for st, _, _ in sweeps], levels,
                                       s2)
        assert len(caught) == 1
        assert issubclass(caught[0].category, RuntimeWarning)
        named = str(caught[0].message).split("tolerance ")[1].split("; ")
        expect = [f"in fit {r} of 3 at D = "
                  + ", ".join(str(D) for D in levels if not fits[D].converged)
                  for r, fits in enumerate(batch)
                  if not all(q.converged for q in fits.values())]
        assert named == expect and len(expect) > 0
        for fits in batch:
            assert all(len(q.elbo_path) <= 2 for q in fits.values())

    def test_rejects_bad_levels(self):
        stats, _, s2 = self._sweep(n=100)
        for levels in ([], [0, 3], [11]):
            with pytest.raises(ValueError):
                mf_fit_levels(stats, levels, s2)
        with pytest.raises(ValueError):
            mf_fit_levels(stats, [3], 0.0)
        with pytest.raises(ValueError):
            _mf_fit_replicates([], [3], s2)
        with pytest.raises(ValueError):
            _mf_fit_replicates([stats, stats], [11], s2)


def _dense_log_evidence(data, D):
    """log N(y; 0, sigma^2 I + Phi Phi' / D) from the n x n Cholesky of
    the feature block's covariance."""
    from scipy.linalg import solve_triangular

    Phi = BASIS.features(data.x, D)
    L = np.linalg.cholesky(data.sigma_sq * np.eye(data.n) + Phi @ Phi.T / D)
    a = solve_triangular(L, data.y, lower=True)
    return float(-0.5 * a @ a - np.sum(np.log(np.diag(L)))
                 - 0.5 * data.n * math.log(2 * math.pi))


class TestEvidenceBounds:
    """Closed-form upper bounds on each level's log evidence, from one
    bordered Cholesky per shift c = 1, 2, 4, ..."""

    @staticmethod
    def _design(n, seed, top, sigma_sq=0.25):
        data = _simulate(n, seed, sigma_sq=sigma_sq)
        return data, feature_stats(data.x, data.y, top, top)

    @pytest.mark.parametrize("n, seed, levels", [
        (200, 1, list(range(1, 15))),
        (900, 2, [1, 2, 3, 4, 5, 8, 11, 16, 23, 30]),
        (1500, 3, [1, 2, 4, 8, 13, 38]),
    ])
    def test_bounds_the_evidence_and_the_fitted_bound(self, n, seed, levels):
        data, stats = self._design(n, seed, max(levels))
        ub = _evidence_bounds([stats], levels, data.sigma_sq)[0]
        fits = mf_fit_levels(stats, levels, data.sigma_sq)
        for D, bound in zip(levels, ub):
            evidence = _dense_log_evidence(data, D)
            tol = 1e-10 * abs(evidence)
            if D & (D - 1) == 0:  # exact at every shift c = D
                assert abs(bound - evidence) <= tol, (D, bound, evidence)
            else:
                assert bound >= evidence - tol, (D, bound, evidence)
            assert evidence >= fits[D].elbo_path[-1] - tol
            assert fits[D].converged

    def test_replicates_bound_each_dataset_alone(self):
        designs = [self._design(600, seed, 24)[1] for seed in (4, 5, 6)]
        levels = [1, 3, 7, 12, 24]
        batch = _evidence_bounds(designs, levels, 0.25)
        for stats, row in zip(designs, batch):
            np.testing.assert_allclose(
                row, _evidence_bounds([stats], levels, 0.25)[0],
                rtol=1e-13)

    def test_non_finite_statistics_rule_nothing_out(self):
        _, stats = self._design(300, 7, 12)
        levels = list(range(1, 13))
        for field, value in (("yty", np.nan), ("yty", np.inf)):
            bad = FeatureStats(n=stats.n, colsumsq=stats.colsumsq,
                               gram=stats.gram, phi_y=stats.phi_y,
                               yty=value)
            assert np.all(_evidence_bounds([bad], levels, 0.25) == np.inf)
        for where in ("gram", "phi_y"):
            bad = FeatureStats(n=stats.n, colsumsq=stats.colsumsq,
                               gram=stats.gram.copy(),
                               phi_y=stats.phi_y.copy(), yty=stats.yty)
            getattr(bad, where)[0] = np.nan
            assert np.all(_evidence_bounds([bad], levels, 0.25) == np.inf)

    def test_failed_cholesky_rules_out_nothing_at_its_shift(self):
        # an indefinite entry at index 3 breaks the shifts whose blocks
        # reach it (c = 4, 8) and leaves levels 1..3 bounded
        _, stats = self._design(300, 8, 12)
        gram = stats.gram.copy()
        gram[3, 3] = -1e6
        bad = FeatureStats(n=stats.n, colsumsq=stats.colsumsq, gram=gram,
                           phi_y=stats.phi_y, yty=stats.yty)
        ub = _evidence_bounds([bad], list(range(1, 13)), 0.25)[0]
        assert np.all(np.isfinite(ub[:3]))
        assert np.all(ub[3:] == np.inf)

    def test_unusable_bounds_prune_nothing(self, monkeypatch):
        import gpadapt.meanfield as mf

        _, stats = self._design(2000, 9, 44)
        levels = list(range(1, 45))
        plain = mf_fit_levels(stats, levels, 0.25)
        for fill in (np.nan, np.inf):
            monkeypatch.setattr(mf, "_evidence_bounds",
                                lambda st, lv, s2: np.full((len(st), len(lv)),
                                                           fill))
            fits = _mf_fit_replicates([stats], levels, 0.25, prune=True)[0]
            for D in levels:
                assert fits[D] is not None
                assert len(fits[D].elbo_path) == len(plain[D].elbo_path)

    def test_pruning_keeps_each_replicates_best_level(self):
        designs = [self._design(2000, seed, 44)[1] for seed in range(10, 15)]
        levels = list(range(1, 45))
        pruned = _mf_fit_replicates(designs, levels, 0.25, prune=True)
        plain = _mf_fit_replicates(designs, levels, 0.25)
        for got, ref in zip(pruned, plain):
            bounds = {D: q.elbo_path[-1] for D, q in ref.items()}
            best = max(bounds, key=bounds.get)
            dropped = [D for D in levels if got[D] is None]
            assert got[best] is not None and len(dropped) > len(levels) // 2
            assert got[best].elbo_path[-1] == pytest.approx(bounds[best],
                                                            rel=1e-12)
            for D in levels:
                if got[D] is not None:
                    assert len(got[D].elbo_path) == len(ref[D].elbo_path)


def _scalar_ascent(G, b, yty, n, s2, D):
    """Longhand coordinate ascent for one level D, in Python floats.

    Fixing every other variance, the bound in t = Sigma_jj (with
    mu_j = b_j t / sigma^2) is (1/2) log t + A t + B t^2; its stationary
    point solves 4 B t^2 + 2 A t + 1 = 0, taken here by the textbook
    stable quadratic formula. The bound is summed term by term. Returns
    (Sigma, mu, bounds per sweep).
    """
    G = [[float(G[i][l]) for l in range(D)] for i in range(D)]
    b = [float(v) for v in b[:D]]
    t = [1.0 / (D + n / s2)] * D
    mu = [b[j] * t[j] / s2 for j in range(D)]

    def bound():
        quad = sum(mu[i] * G[i][l] * mu[l] for i in range(D) for l in range(D))
        rss = quad - 2.0 * sum(m * v for m, v in zip(mu, b)) + yty
        smear = sum(G[j][j] * t[j] for j in range(D))
        fit = -0.5 * n * math.log(2 * math.pi * s2) - 0.5 * (smear + rss) / s2
        kl = 0.5 * (-D * math.log(D) - sum(math.log(v) for v in t) - D
                    + D * sum(t) + D * sum(m * m for m in mu))
        return fit - kl

    path = [bound()]
    for _ in range(MAX_SWEEPS):
        for j in range(D):
            r = sum(G[j][l] * mu[l] for l in range(D) if l != j)
            A = (-G[j][j] / (2 * s2) - D / 2 + b[j] ** 2 / s2**2
                 - b[j] * r / s2**2)
            B = -(b[j] ** 2 / (2 * s2**2)) * (G[j][j] / s2 + D)
            if B == 0.0:
                t[j] = -1.0 / (2 * A)
            else:
                q = -(A + math.copysign(math.sqrt(A * A - 4 * B), A))
                t[j] = q / (4 * B) if A >= 0 else 1.0 / q
            mu[j] = b[j] * t[j] / s2
        path.append(bound())
        if path[-1] - path[-2] <= SWEEP_RTOL * (abs(path[-1]) + yty / s2):
            break
    return np.array(t), np.array(mu), np.array(path)


class TestScalarReference:
    """mf_fit_levels against a longhand ascent, one level at a time."""

    @pytest.mark.parametrize("seed", range(6))
    def test_levels_match_scalar_ascent(self, seed):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(20, 120))
        top = int(rng.integers(4, 11))
        s2 = float(rng.uniform(0.05, 1.0))
        x = rng.uniform(0.0, 2 * np.pi, size=n)
        y = np.sin(x) + rng.normal(0.0, np.sqrt(s2), size=n)
        stats = design_matrix(Dataset(x=x, y=y, sigma_sq=s2), top)
        levels = [1, 2, top // 2 + 1, top]
        fits = mf_fit_levels(stats, levels, s2)
        scale = stats.yty / s2
        for D in levels:
            Sigma, mu, path = _scalar_ascent(stats.gram, stats.phi_y,
                                             stats.yty, n, s2, D)
            q = fits[D]
            assert q.converged
            assert len(q.elbo_path) == len(path)
            assert _rel(q.Sigma_diag, Sigma) <= 1e-12
            assert _rel(q.mu, mu) <= 1e-12
            assert np.all(np.abs(q.elbo_path - path)
                          <= 1e-12 * (np.abs(path) + scale))


class TestKl:
    def test_nonnegative_on_random_instances(self):
        for seed in range(100):
            stats, data = _random_instance(200 + seed)
            q = mf_witness(stats, data.sigma_sq)
            assert mf_kl_exact(q, stats, data.sigma_sq) >= -1e-10

    def test_fit_reduces_kl(self):
        for seed in range(8):
            stats, data = _random_instance(300 + seed)
            s2 = data.sigma_sq
            kl_w = mf_kl_exact(mf_witness(stats, s2), stats, s2)
            kl_f = mf_kl_exact(mf_fit(stats, s2), stats, s2)
            assert kl_f <= kl_w + 1e-10

    def test_gap_identity(self):
        # log evidence - ELBO == KL(q || exact posterior), any member q
        for seed in range(30):
            stats, data = _random_instance(400 + seed)
            D, s2 = stats.gram.shape[0], data.sigma_sq
            kern = SeriesKernel(SeriesPrior(Truncated(dim=D)), j_max=D)
            log_ev = log_evidence(kern, data)
            rng = np.random.default_rng(10_000 + seed)
            members = [mf_witness(stats, s2), mf_fit(stats, s2)]
            sig = rng.uniform(0.05, 2.0, size=D)
            members.append(
                MeanFieldPosterior(D=D, Sigma_diag=sig, mu=rng.normal(0, 1, D))
            )
            for q in members:
                gap = log_ev - mf_elbo(q, stats, s2)
                assert gap == pytest.approx(mf_kl_exact(q, stats, s2), abs=1e-8)

    def test_guard_on_large_n(self):
        stats = design_matrix(_data(np.zeros(2001)), 2)
        q = mf_witness(stats, 1.0)
        with pytest.raises(ValueError):
            mf_kl_exact(q, stats, 1.0)


class TestNearDiagonalConsistency:
    def test_mean_distance_shrinks_with_n(self):
        # frozen trend: 0.0120 -> 0.0056 -> 0.0029 (means over 10 seeds)
        D = 10
        means = []
        for n in (500, 2000, 8000):
            dists = []
            for seed in range(10):
                data = _simulate(n, 1000 + seed)
                q = mf_fit(design_matrix(data, D), data.sigma_sq)
                mu_hat, _ = _exact_weight_posterior(data, D)
                dists.append(np.linalg.norm(q.mu - mu_hat) / np.linalg.norm(mu_hat))
            means.append(np.mean(dists))
        assert means[0] <= 0.05
        assert means[1] <= means[0] + 1e-12
        assert means[2] <= means[1] + 1e-12
        assert means[1] <= 0.02  # comfortably under the 5% fidelity target


class TestPredict:
    def test_mean_and_cov_shapes(self):
        stats, data = _random_instance(16)
        q = mf_fit(stats, data.sigma_sq)
        query = np.linspace(0, 2 * np.pi, 17)
        post = mf_predict(q, query)
        assert post.mean.shape == (17,)
        assert post.cov.shape == (17, 17)
        np.testing.assert_allclose(post.cov, post.cov.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(post.cov) > -1e-10)

    def test_mean_is_series_combination(self):
        stats, data = _random_instance(17)
        q = mf_fit(stats, data.sigma_sq)
        query = np.array([0.1, 3.0, 6.0])
        post = mf_predict(q, query)
        np.testing.assert_allclose(post.mean, BASIS.features(query, q.D) @ q.mu, atol=1e-14)

    def test_band_covers_mean(self):
        stats, data = _random_instance(18)
        q = mf_fit(stats, data.sigma_sq)
        post = mf_predict(q, np.linspace(0, 6, 9))
        lo, hi = post.band95()
        assert np.all(lo <= post.mean) and np.all(post.mean <= hi)
