"""Tests for the inducing-variable variational approximation."""

import numpy as np
import pytest

from gpadapt.basis import EigenBasis, ExpDecay, PolyDecay, SeriesPrior, Truncated
from gpadapt.errors import ConditioningError
from gpadapt.exact import (
    Dataset,
    SeriesKernel,
    SquaredExponential,
    exact_posterior,
    kernel_cross,
    kernel_matrix,
    log_evidence,
)
from gpadapt.inducing import (
    elbo_at,
    elbo_lambda,
    elbo_profile,
    feature_stats,
    kl_to_posterior,
    population_candidate,
    population_features,
    predict,
    sample_features,
    titsias_fit,
)
from gpadapt.meanfield import design_matrix, mf_fit, mf_predict

BASIS = EigenBasis()


def _random_series_instance(seed, n_max=40, flavor="population"):
    """Matched (model, kernel, data) triple describing one truncated prior."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, n_max + 1))
    alpha = float(rng.uniform(0.35, 0.7))
    prior = SeriesPrior(PolyDecay(alpha))
    J = 300
    kern = SeriesKernel(prior, j_max=J)
    m = int(rng.integers(1, max(2, n // 3) + 1))
    x = rng.uniform(0, 2 * np.pi, size=n)
    sigma_sq = float(rng.uniform(0.3, 1.0))
    f = kernel_matrix(kern, x) @ rng.standard_normal(n) * 0.1
    y = f + np.sqrt(sigma_sq) * rng.standard_normal(n)
    data = Dataset(x, y, sigma_sq)
    if flavor == "population":
        model = population_features(prior, x, m, j_cutoff=J,
                                    tail_mode="truncate")
    else:
        model = sample_features(kernel_matrix(kern, x), m, kernel=kern, x=x)
    return model, kern, data


def _gaussian_kl(mean0, cov0, mean1, cov1):
    """Closed-form KL between two dense Gaussians (oracle helper)."""
    k = mean0.size
    s1, ld1 = np.linalg.slogdet(cov1)
    s0, ld0 = np.linalg.slogdet(cov0)
    assert s0 > 0 and s1 > 0
    diff = mean1 - mean0
    return 0.5 * (
        np.trace(np.linalg.solve(cov1, cov0))
        + diff @ np.linalg.solve(cov1, diff)
        - k + ld1 - ld0
    )


def direct_kl_oracle(q, data, kern):
    """KL(q-process || exact posterior), from scratch in dense form.

    For population features the joint Gaussian of (inducing weights, f at
    the design) is compared against the exact conditional joint. For sample
    features the inducing variables are deterministic functions of f at the
    design, so the KL reduces to the n-dimensional laws of f itself.
    """
    model = q.model
    n = data.n
    Kff = kernel_matrix(kern, data.x)
    S = Kff + data.sigma_sq * np.eye(n)
    if model.flavor == "sample":
        mean0 = model.V @ q.mu
        cov0 = (Kff - (model.V * model.eigvals) @ model.V.T
                + model.V @ q.Sigma @ model.V.T)
        mean1 = Kff @ np.linalg.solve(S, data.y)
        cov1 = Kff - Kff @ np.linalg.solve(S, Kff)
        return _gaussian_kl(mean0, cov0, mean1, cov1)
    m = model.m
    P = np.linalg.solve(model.K_uu, model.K_uf).T  # n x m
    R = Kff - P @ model.K_uf
    mean0 = np.concatenate([q.mu, P @ q.mu])
    cov0 = np.block([
        [q.Sigma, q.Sigma @ P.T],
        [P @ q.Sigma, R + P @ q.Sigma @ P.T],
    ])
    Cz = np.block([[model.K_uu, model.K_uf], [model.K_uf.T, Kff]])
    gain = np.linalg.solve(S, Cz[m:, :])
    cov1 = Cz - Cz[:, m:] @ gain
    mean1 = Cz[:, m:] @ np.linalg.solve(S, data.y)
    return _gaussian_kl(mean0, cov0, mean1, cov1)


class TestPopulationFeatures:
    def test_feature_covariances(self):
        prior = SeriesPrior(PolyDecay(1.0))
        x = np.array([0.5, 2.0])
        model = population_features(prior, x, m=3)
        js = np.arange(1, 4)
        s2 = prior.spectrum(js) ** 2
        np.testing.assert_allclose(np.diag(model.K_uu), s2)
        for j in js:
            np.testing.assert_allclose(
                model.K_uf[j - 1],
                prior.spectrum(j) ** 2 * BASIS.eval(j, x), atol=1e-14)

    def test_kff_diag_covers_feature_variance(self):
        # trace(K_ff - Q_ff) must be non-negative entry by entry
        prior = SeriesPrior(PolyDecay(0.6))
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 2 * np.pi, 30)
        model = population_features(prior, x, m=10)
        q_diag = np.einsum(
            "ji,jk,ki->i", model.K_uf,
            np.linalg.inv(model.K_uu), model.K_uf)
        assert np.all(model.kff_diag - q_diag >= -1e-12)

    def test_truncated_prior_support_guard(self):
        prior = SeriesPrior(Truncated(dim=5))
        with pytest.raises(ValueError):
            population_features(prior, np.array([0.1]), m=6)

    def test_tail_mode_mean_adds_exact_tail(self):
        prior = SeriesPrior(PolyDecay(0.8))
        x = np.array([1.0, 4.0])
        a = population_features(prior, x, m=2, j_cutoff=100,
                                tail_mode="truncate")
        b = population_features(prior, x, m=2, j_cutoff=100, tail_mode="mean")
        np.testing.assert_allclose(
            b.kff_diag - a.kff_diag, prior.tail_variance(100), rtol=1e-12)


class TestSampleFeatures:
    def test_full_rank_reconstruction(self):
        # m = n on a random PSD matrix: Q_ff equals K_ff within 1e-8
        rng = np.random.default_rng(5)
        B = rng.standard_normal((40, 40))
        K = B @ B.T / 40 + 0.5 * np.eye(40)
        model = sample_features(K, m=40)
        Q = (model.V * model.eigvals) @ model.V.T
        np.testing.assert_allclose(Q, K, atol=1e-8)

    def test_descending_eigenvalues(self):
        rng = np.random.default_rng(6)
        B = rng.standard_normal((25, 25))
        K = B @ B.T / 25
        model = sample_features(K, m=10)
        assert np.all(np.diff(model.eigvals) <= 0)

    def test_rank_degenerate_drops_with_warning(self):
        v = np.array([[1.0, 0.5], [0.5, 0.25]])  # rank one
        with pytest.warns(RuntimeWarning):
            model = sample_features(v, m=2)
        assert model.m == 1

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError):
            sample_features(np.array([[1.0, 0.2], [0.0, 1.0]]), m=1)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ConditioningError):
            sample_features(np.zeros((3, 3)), m=2)


class TestTitsiasFit:
    def test_huge_noise_returns_prior_over_features(self):
        model, kern, data = _random_series_instance(1)
        q = titsias_fit(model, data.with_sigma_sq(1e12))
        assert np.max(np.abs(q.mu)) < 1e-9
        np.testing.assert_allclose(q.Sigma, model.K_uu, atol=1e-9)

    def test_exact_recovery_at_full_rank(self):
        # m = n sample features reproduce the exact posterior
        rng = np.random.default_rng(3)
        n = 50
        x = rng.uniform(0, 2 * np.pi, n)
        y = np.sin(x) + 0.3 * rng.standard_normal(n)
        data = Dataset(x, y, 0.1)
        kern = SquaredExponential(1.2, 1.4)
        model = sample_features(kernel_matrix(kern, x), n, kernel=kern, x=x)
        q = titsias_fit(model, data)
        grid = np.linspace(0, 2 * np.pi, 64)
        approx = predict(q, grid)
        exact = exact_posterior(kern, data, grid)
        rel = (np.linalg.norm(approx.mean - exact.mean)
               / np.linalg.norm(exact.mean))
        assert rel < 1e-6
        np.testing.assert_allclose(np.diag(approx.cov), np.diag(exact.cov),
                                   atol=1e-6)

    def test_collapsed_matches_explicit_objective(self):
        # the fitted q attains the collapsed bound
        for seed in range(5):
            model, kern, data = _random_series_instance(seed)
            q = titsias_fit(model, data)
            assert elbo_at(q, data) == pytest.approx(
                elbo_lambda(model, data), abs=1e-8)


class TestElbo:
    def test_scalar_hand_computation(self):
        prior = SeriesPrior(PolyDecay(1.0))
        x = np.array([1.3])
        yv, s2 = 0.7, 0.25
        model = population_features(prior, x, m=1, j_cutoff=50,
                                    tail_mode="truncate")
        js = np.arange(1, 51)
        k_here = float(
            (prior.spectrum(js) ** 2 * BASIS.eval(js, 1.3) ** 2).sum())
        q_here = 1.0  # s_1^2 phi_1^2 = 1
        want = (-0.5 * np.log(2 * np.pi * (q_here + s2))
                - yv**2 / (2 * (q_here + s2))
                - (k_here - q_here) / (2 * s2))
        got = elbo_lambda(model, Dataset(x, [yv], s2))
        assert got == pytest.approx(want, rel=1e-12)

    def test_full_rank_equals_evidence(self):
        rng = np.random.default_rng(9)
        n = 30
        x = rng.uniform(0, 2 * np.pi, n)
        y = rng.standard_normal(n)
        data = Dataset(x, y, 0.4)
        kern = SquaredExponential(1.0, 1.1)
        model = sample_features(kernel_matrix(kern, x), n, kernel=kern, x=x)
        assert elbo_lambda(model, data) == pytest.approx(
            log_evidence(kern, data), abs=1e-8)

    def test_truncated_prior_at_support_equals_evidence(self):
        # m = D: the feature set carries the whole prior
        rng = np.random.default_rng(12)
        n = 30
        x = rng.uniform(0, 2 * np.pi, n)
        y = rng.standard_normal(n)
        data = Dataset(x, y, 0.3)
        prior = SeriesPrior(Truncated(dim=7))
        kern = SeriesKernel(prior, j_max=7)
        model = population_features(prior, x, m=7)
        assert elbo_lambda(model, data) == pytest.approx(
            log_evidence(kern, data), abs=1e-8)

    @pytest.mark.parametrize("seed", range(25))
    def test_evidence_dominance(self, seed):
        flavor = "population" if seed % 2 == 0 else "sample"
        model, kern, data = _random_series_instance(seed, flavor=flavor)
        assert log_evidence(kern, data) + 1e-9 >= elbo_lambda(model, data)

    def test_monotone_in_feature_count(self):
        rng = np.random.default_rng(17)
        n = 30
        B = rng.standard_normal((n, n))
        K = B @ B.T / n
        y = rng.standard_normal(n)
        data = Dataset(np.linspace(0, 2 * np.pi, n), y, 0.2)
        vals = []
        for m in range(1, n + 1, 3):
            model = sample_features(K, m)
            vals.append(elbo_lambda(model, data))
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_profile_matches_direct_evaluation(self):
        model, kern, data = _random_series_instance(23)
        prof = elbo_profile(model, data.y)
        for s2 in (0.05, 0.3, 2.0):
            assert prof(s2) == pytest.approx(
                elbo_lambda(model, data.with_sigma_sq(s2)), rel=1e-12)


class TestNystromResidual:
    @pytest.mark.parametrize("seed", range(6))
    def test_residual_psd(self, seed):
        model, kern, data = _random_series_instance(seed)
        Kff = kernel_matrix(kern, data.x)
        P = np.linalg.solve(model.K_uu, model.K_uf).T
        R = Kff - P @ model.K_uf
        w = np.linalg.eigvalsh(0.5 * (R + R.T))
        assert w.min() > -1e-10 * max(1.0, w.max())

    @pytest.mark.parametrize("seed", range(6))
    def test_variance_never_expands(self, seed):
        model, kern, data = _random_series_instance(seed)
        q = titsias_fit(model, data)
        grid = np.linspace(0, 2 * np.pi, 41)
        post = predict(q, grid)
        prior_var = np.diag(
            kernel_matrix(SeriesKernel(model.prior, model.feature_cutoff),
                          grid))
        assert np.all(np.diag(post.cov) <= prior_var + 1e-10)


class TestKLToPosterior:
    @pytest.mark.parametrize("seed", range(8))
    def test_gap_is_nonnegative(self, seed):
        flavor = "population" if seed % 2 == 0 else "sample"
        model, kern, data = _random_series_instance(seed, flavor=flavor)
        q = titsias_fit(model, data)
        assert kl_to_posterior(q, data, kern) >= -1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_gap_equals_direct_gaussian_kl(self, seed):
        flavor = "population" if seed % 2 == 0 else "sample"
        model, kern, data = _random_series_instance(seed, n_max=30,
                                                    flavor=flavor)
        q = titsias_fit(model, data)
        gap = kl_to_posterior(q, data, kern)
        assert gap == pytest.approx(direct_kl_oracle(q, data, kern),
                                    abs=1e-8)

    def test_perturbed_q_raises_the_gap(self):
        model, kern, data = _random_series_instance(2)
        q = titsias_fit(model, data)
        base = kl_to_posterior(q, data, kern)
        q.mu = q.mu + 0.3
        assert kl_to_posterior(q, data, kern) > base

    def test_reference_scale_guard(self):
        model, kern, data = _random_series_instance(4)
        q = titsias_fit(model, data)
        big = Dataset(np.zeros(501), np.zeros(501), 1.0)
        with pytest.raises(ValueError):
            kl_to_posterior(q, big, kern)


class TestPredictiveLaw:
    """``predict`` against the dense law built with ``np.linalg.solve``.

    Mean K_xu K_uu^{-1} mu and covariance
    k(x, x') - K_xu K_uu^{-1} (K_uu - Sigma) K_uu^{-1} K_ux', on two grids
    that share three points, so a dropped-tail mean added anywhere but on
    coinciding points shows.
    """

    XS = np.linspace(0.2, 6.0, 9)
    YS = np.concatenate([XS[[1, 4, 8]], [0.35, 2.9, 5.1]])

    @staticmethod
    def _fit(seed, n=40):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 2 * np.pi, size=n)
        y = np.sin(x) + 0.3 * rng.standard_normal(n)
        return x, Dataset(x, y, 0.09)

    @staticmethod
    def _close(got, ref):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def _check(self, q, cross, k):
        """Compare ``q``'s rules with cross(x) = K_xu and k(x, x')."""
        K_uu = q.model.K_uu
        w = np.linalg.solve(K_uu, q.mu)
        C = np.linalg.solve(K_uu, np.linalg.solve(K_uu, K_uu - q.Sigma).T)
        xs, ys = self.XS, self.YS
        post = predict(q, xs)
        for a, b in ((xs, xs), (xs, ys), (ys, xs)):
            self._close(post.cov_fn(a, b), k(a, b) - cross(a) @ C @ cross(b).T)
        for a in (xs, ys):
            self._close(post.mean_fn(a), cross(a) @ w)
        self._close(post.mean, cross(xs) @ w)
        np.testing.assert_array_equal(post.cov, post.cov_fn(xs, xs))

    @staticmethod
    def _series(prior, J, tail):
        s2 = prior.spectrum(np.arange(1, J + 1)) ** 2

        def k(a, b):
            out = (BASIS.features(a, J) * s2) @ BASIS.features(b, J).T
            return out + tail * (a[:, None] == b[None, :])

        def cross(m):
            return lambda a: BASIS.features(a, m) * s2[:m]

        return k, cross

    @pytest.mark.parametrize("tail_mode", ["mean", "truncate"])
    def test_population_features(self, tail_mode):
        prior = SeriesPrior(PolyDecay(0.5))
        x, data = self._fit(1)
        m, J = 8, 60
        model = population_features(prior, x, m, j_cutoff=J,
                                    tail_mode=tail_mode)
        tail = prior.tail_variance(J) if tail_mode == "mean" else 0.0
        if tail_mode == "mean":
            assert tail > 1e-3  # large enough to show where it lands
        k, cross = self._series(prior, J, tail)
        self._check(titsias_fit(model, data), cross(m), k)

    def test_population_candidate(self):
        prior = SeriesPrior(PolyDecay(0.6))
        x, data = self._fit(2)
        m = 10
        model, _, fit = population_candidate(
            prior, feature_stats(BASIS, x, data.y, 1000, m), m)
        assert model.feature_cutoff == 1000
        k, cross = self._series(prior, 1000, prior.tail_variance(1000))
        self._check(fit(data.sigma_sq), cross(m), k)

    def test_sample_features(self):
        kern = SquaredExponential(1.3, 0.8)
        x, data = self._fit(3, n=30)
        model = sample_features(kernel_matrix(kern, x), 12, kernel=kern, x=x)
        self._check(titsias_fit(model, data),
                    lambda a: kernel_cross(kern, a, x) @ model.V,
                    lambda a, b: kernel_cross(kern, a, b))

    def test_mean_field_cross_covariance(self):
        x, data = self._fit(4)
        q = mf_fit(design_matrix(BASIS, x, 7), data)
        post = mf_predict(q, BASIS, self.XS)
        Fa = BASIS.features(self.XS, q.D)
        Fb = BASIS.features(self.YS, q.D)
        np.testing.assert_allclose(post.cov_fn(self.XS, self.YS),
                                   (Fa * q.Sigma_diag) @ Fb.T,
                                   rtol=1e-12, atol=1e-15)
