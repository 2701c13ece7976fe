"""Tests for the inducing-variable variational approximation."""

import warnings

import numpy as np
import pytest
import scipy.linalg

import gpadapt.exact as exact_mod
import gpadapt.inducing as inducing_mod
from gpadapt import _linalg
from gpadapt.basis import BASIS, EigenBasis, ExpDecay, PolyDecay, SeriesPrior, Truncated
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
    _EigenFactor,
    elbo_at,
    elbo_lambda,
    elbo_profile,
    feature_cutoff,
    feature_stats,
    kl_to_posterior,
    population_candidate,
    population_features,
    predict,
    sample_features,
    titsias_fit,
)
from gpadapt.meanfield import design_matrix, mf_fit, mf_predict


def _se_factor_case(n, span, tau, seed=3):
    """An SE draw's design and response, its unit-variance kernel matrix and
    a pivoted-Cholesky factor of that kernel (residual trace <= n^2 eps)."""
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, span, n))
    K = kernel_matrix(SquaredExponential(1.0, tau), x)
    y = (np.linalg.cholesky(2.0 * K + 1e-10 * np.eye(n))
         @ rng.standard_normal(n) + rng.standard_normal(n))
    xs = x / tau
    L, _ = _linalg.pivoted_cholesky(
        lambda i: np.exp(-np.square(xs - xs[i])), np.ones(n),
        n * n * np.finfo(float).eps)
    return x, y, K, L.T


def _kernel_bound(K, m, x, y, sigma):
    """The collapsed bound of the top-m eigenpairs of the kernel matrix K
    itself: the n x n reference route."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = sample_features(K, m, x)
    return elbo_lambda(model, Dataset(x, y, sigma * sigma))


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
        model = population_features(prior, m, j_cutoff=J,
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


def _design_terms(model, x):
    """Dense K_uu = diag(d) and K_uf = diag(d) F(x)' at design ``x``."""
    d = model.kuu_diag
    return np.diag(d), (model.features(x) * d).T


def direct_kl_oracle(q, data, kern, flavor):
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
    K_uu, K_uf = _design_terms(model, data.x)
    if flavor == "sample":
        V = model.features(data.x)
        mean0 = V @ q.mu
        cov0 = Kff - (V * model.kuu_diag) @ V.T + V @ q.Sigma @ V.T
        mean1 = Kff @ np.linalg.solve(S, data.y)
        cov1 = Kff - Kff @ np.linalg.solve(S, Kff)
        return _gaussian_kl(mean0, cov0, mean1, cov1)
    m = model.m
    P = np.linalg.solve(K_uu, K_uf).T  # n x m
    R = Kff - P @ K_uf
    mean0 = np.concatenate([q.mu, P @ q.mu])
    cov0 = np.block([
        [q.Sigma, q.Sigma @ P.T],
        [P @ q.Sigma, R + P @ q.Sigma @ P.T],
    ])
    Cz = np.block([[K_uu, K_uf], [K_uf.T, Kff]])
    gain = np.linalg.solve(S, Cz[m:, :])
    cov1 = Cz - Cz[:, m:] @ gain
    mean1 = Cz[:, m:] @ np.linalg.solve(S, data.y)
    return _gaussian_kl(mean0, cov0, mean1, cov1)


class TestPopulationFeatures:
    def test_feature_covariances(self):
        prior = SeriesPrior(PolyDecay(1.0))
        x = np.array([0.5, 2.0])
        model = population_features(prior, m=3)
        js = np.arange(1, 4)
        s2 = prior.spectrum(js) ** 2
        np.testing.assert_allclose(model.kuu_diag, s2)
        _, K_uf = _design_terms(model, x)
        for j in js:
            np.testing.assert_allclose(
                K_uf[j - 1],
                prior.spectrum(j) ** 2 * BASIS.eval(j, x), atol=1e-14)

    def test_kff_diag_covers_feature_variance(self):
        # trace(K_ff - Q_ff) must be non-negative entry by entry
        prior = SeriesPrior(PolyDecay(0.6))
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 2 * np.pi, 30)
        model = population_features(prior, m=10)
        K_uu, K_uf = _design_terms(model, x)
        q_diag = np.einsum("ji,jk,ki->i", K_uf, np.linalg.inv(K_uu), K_uf)
        assert np.all(model.prior_var(x) - q_diag >= -1e-12)

    def test_underflowed_prior_variances_add_nothing(self):
        # s_j^2 = exp(-j) underflows to zero beyond j = 745: those features
        # carry no prior mass, and the fit and bound match the statistics
        # route, which never divides by s_j
        prior = SeriesPrior(ExpDecay(1.0))
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 2 * np.pi, 50)
        data = Dataset(x, np.sin(x) + 0.1 * rng.standard_normal(50), 0.01)
        m = 800
        model = population_features(prior, m)
        assert np.count_nonzero(model.kuu_diag == 0) > 0
        _, profile, fit = population_candidate(
            prior, feature_stats(x, data.y, feature_cutoff(prior, m), m),
            m)
        q, q_ref = titsias_fit(model, data), fit(data.sigma_sq)
        assert elbo_lambda(model, data) == pytest.approx(
            profile(data.sigma_sq), rel=1e-10)
        np.testing.assert_allclose(q.mu, q_ref.mu, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(q.Sigma, q_ref.Sigma, rtol=1e-10,
                                   atol=1e-14)
        assert np.all(np.isfinite(predict(q, np.linspace(0, 6, 5)).cov))

    @pytest.mark.parametrize("tail_mode", ["mean", "truncate"])
    @pytest.mark.parametrize("kind, m, J", [
        (PolyDecay(0.6), 1, 1), (PolyDecay(0.6), 2, 2), (PolyDecay(0.6), 3, 7),
        (PolyDecay(0.6), 8, 8), (PolyDecay(0.6), 10, 1000),
        (Truncated(dim=7), 4, 50),
    ])
    def test_kff_diag_is_the_series_diagonal(self, kind, m, J, tail_mode,
                                             monkeypatch):
        # the J-term sum comes from the cosine series: no feature block
        prior = SeriesPrior(kind)
        x = np.r_[0.0, np.random.default_rng(J).uniform(0, 2 * np.pi, 40),
                  2 * np.pi]
        J_eff = min(J, prior.support)
        s2 = prior.spectrum(np.arange(1, J_eff + 1)) ** 2
        want = (BASIS.features(x, J_eff) ** 2) @ s2
        if tail_mode == "mean":
            want += prior.tail_variance(J_eff)
        widths = []
        features = EigenBasis.features

        def spy(self, pts, J):
            widths.append(J)
            return features(self, pts, J)

        monkeypatch.setattr(EigenBasis, "features", spy)
        model = population_features(prior, m, j_cutoff=J,
                                    tail_mode=tail_mode)
        np.testing.assert_allclose(model.prior_var(x), want, rtol=1e-12,
                                   atol=0)
        assert widths == []

    def test_truncated_prior_support_guard(self):
        prior = SeriesPrior(Truncated(dim=5))
        with pytest.raises(ValueError):
            population_features(prior, m=6)

    def test_tail_mode_mean_adds_exact_tail(self):
        prior = SeriesPrior(PolyDecay(0.8))
        x = np.array([1.0, 4.0])
        a = population_features(prior, m=2, j_cutoff=100,
                                tail_mode="truncate")
        b = population_features(prior, m=2, j_cutoff=100, tail_mode="mean")
        np.testing.assert_allclose(
            b.prior_var(x) - a.prior_var(x), prior.tail_variance(100),
            rtol=1e-12)


class TestSampleFeatures:
    def test_full_rank_reconstruction(self):
        # m = n on a random PSD matrix: Q_ff equals K_ff within 1e-8
        rng = np.random.default_rng(5)
        B = rng.standard_normal((40, 40))
        K = B @ B.T / 40 + 0.5 * np.eye(40)
        x = np.arange(40.0)
        model = sample_features(K, 40, x)
        V = model.features(x)
        Q = (V * model.kuu_diag) @ V.T
        np.testing.assert_allclose(Q, K, atol=1e-8)

    def test_descending_eigenvalues(self):
        rng = np.random.default_rng(6)
        B = rng.standard_normal((25, 25))
        K = B @ B.T / 25
        model = sample_features(K, 10, np.arange(25.0))
        assert np.all(np.diff(model.kuu_diag) <= 0)

    def test_rank_degenerate_drops_with_warning(self):
        v = np.array([[1.0, 0.5], [0.5, 0.25]])  # rank one
        with pytest.warns(RuntimeWarning):
            model = sample_features(v, 2, np.arange(2.0))
        assert model.m == 1

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError):
            sample_features(np.array([[1.0, 0.2], [0.0, 1.0]]), 1,
                            np.arange(2.0))

    def test_zero_matrix_rejected(self):
        with pytest.raises(ConditioningError):
            sample_features(np.zeros((3, 3)), 2, np.arange(3.0))

    def test_mismatched_design_rejected(self):
        # a design of another length than K_ff's order fails at construction
        kern = SquaredExponential(1.0, 0.8)
        x = np.linspace(0.0, 6.0, 30)
        with pytest.raises(ValueError, match=r"\b20\b.*\b30\b"):
            sample_features(kernel_matrix(kern, x), 5, kernel=kern, x=x[:20])

    def test_features_at_the_design_are_the_eigenvectors(self):
        # V itself at the design, k(x, X) V diag(d)^{-1} elsewhere, and a
        # model without a kernel refuses other points
        kern = SquaredExponential(1.0, 0.8)
        x = np.linspace(0.0, 6.0, 30)
        K = kernel_matrix(kern, x)
        V = np.linalg.eigh(0.5 * (K + K.T))[1][:, ::-1][:, :5]
        model = sample_features(K, 5, x, kernel=kern)
        np.testing.assert_array_equal(model.features(x), V)
        np.testing.assert_array_equal(model.prior_var(x), np.diag(K))
        xs = np.array([0.3, 2.2])
        np.testing.assert_array_equal(
            model.features(xs),
            kernel_cross(kern, xs, x) @ model.features(x) / model.kuu_diag)
        bare = sample_features(K, 5, x)
        np.testing.assert_array_equal(bare.features(x), model.features(x))
        for rule in (bare.features, bare.prior_var):
            with pytest.raises(ValueError, match="needs the kernel"):
                rule(xs)


class TestSampleFeatureSolver:
    """numpy's one full eigh gives the top-m eigenpairs of scipy's subset
    eigh, the reference. ``full`` marks the cases with m at least n/8, where
    the package once took the full solve and below which it took the
    subset one; the cases cover both sides of that share."""

    @staticmethod
    def _spd(n, seed):
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (Q * np.geomspace(10.0, 1e-3, n)) @ Q.T

    @pytest.mark.parametrize("n,m,full", [
        (300, 150, True), (160, 20, True), (161, 20, False),
        (300, 20, False), (30, 30, True),
    ])
    def test_matches_subset_solve(self, n, m, full):
        assert (8 * m >= n) == full
        K = self._spd(n, n + m)
        x = np.arange(float(n))
        model = sample_features(K, m, x)
        vals, vecs = scipy.linalg.eigh(0.5 * (K + K.T),
                                       subset_by_index=[n - m, n - 1])
        assert model.m == m
        np.testing.assert_allclose(model.kuu_diag, vals[::-1], rtol=0,
                                   atol=1e-10)
        V = model.features(x)
        np.testing.assert_allclose(V @ V.T, vecs @ vecs.T, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("n,full", [(40, True), (200, False)])
    def test_rank_deficit_warning_on_both_solvers(self, n, full):
        assert (8 * 10 >= n) == full
        G = np.random.default_rng(n).standard_normal((n, 3))
        with pytest.warns(RuntimeWarning,
                          match="dropping 7 non-positive eigenvalues"):
            model = sample_features(G @ G.T, 10, np.arange(float(n)))
        assert model.m == 3
        assert model.features(np.arange(float(n))).shape == (n, 3)


class TestTitsiasFit:
    def test_huge_noise_returns_prior_over_features(self):
        model, kern, data = _random_series_instance(1)
        q = titsias_fit(model, data.with_sigma_sq(1e12))
        assert np.max(np.abs(q.mu)) < 1e-9
        np.testing.assert_allclose(q.Sigma, np.diag(model.kuu_diag),
                                   atol=1e-9)

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

    def test_explicit_objective_with_underflowed_prior_variances(self):
        # exp(-j) spectrum at m = 800: 55 prior variances are exactly zero
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 6, 200)
        data = Dataset(x, np.sin(x) + 0.1 * rng.standard_normal(200), 0.01)
        model = population_features(SeriesPrior(ExpDecay(1.0)), 800)
        assert np.sum(model.kuu_diag == 0.0) == 55
        assert elbo_at(titsias_fit(model, data), data) == pytest.approx(
            elbo_lambda(model, data), rel=1e-8)

    @pytest.mark.parametrize("flavor", ["population", "sample"])
    def test_matches_textbook_form(self, flavor):
        # Sigma = K_uu A^{-1} K_uu, mu = K_uu A^{-1} K_uf y / sigma^2 with
        # A = K_uu + K_uf K_fu / sigma^2, solved densely
        for seed in range(4):
            model, _, data = _random_series_instance(seed, flavor=flavor)
            q = titsias_fit(model, data)
            K_uu, K_uf = _design_terms(model, data.x)
            A = K_uu + K_uf @ K_uf.T / data.sigma_sq
            Sigma = K_uu @ np.linalg.solve(A, K_uu)
            mu = K_uu @ np.linalg.solve(A, K_uf @ data.y) / data.sigma_sq
            np.testing.assert_allclose(q.Sigma, Sigma, rtol=1e-9,
                                       atol=1e-12 * np.max(np.abs(Sigma)))
            np.testing.assert_allclose(q.mu, mu, rtol=1e-9,
                                       atol=1e-12 * np.max(np.abs(mu)))
            np.testing.assert_array_equal(q.Sigma, q.Sigma.T)


class TestDiagonalInducingCovariance:
    """Every builder's K_uu is diagonal, held as its diagonal, so a fit
    eigen-factors one m x m matrix (G, shared with the bound) and
    prediction none."""

    @staticmethod
    def _routes():
        rng = np.random.default_rng(31)
        x = rng.uniform(0, 2 * np.pi, 40)
        data = Dataset(x, np.sin(x) + 0.3 * rng.standard_normal(40), 0.09)
        prior = SeriesPrior(PolyDecay(0.6))
        model, _, fit = population_candidate(
            prior, feature_stats(x, data.y, 1000, 10), 10)
        yield "population_candidate", model, lambda: fit(data.sigma_sq)
        model = population_features(prior, 10)
        yield "population_features", model, lambda: titsias_fit(model, data)
        kern = SquaredExponential(1.3, 0.8)
        sample = sample_features(kernel_matrix(kern, x), 12, kernel=kern, x=x)
        yield "sample_features", sample, lambda: titsias_fit(sample, data)

    def test_every_builder_returns_diagonal_K_uu(self):
        for name, model, _ in self._routes():
            assert model.kuu_diag.shape == (model.m,), name
            assert np.all(model.kuu_diag > 0), name

    def test_one_factorization_per_fit_none_per_prediction(self,
                                                           monkeypatch):
        calls = []
        eigh_psd = _linalg.eigh_psd

        def spy(mat):
            calls.append(mat.shape)
            return eigh_psd(mat)

        monkeypatch.setattr(_linalg, "eigh_psd", spy)
        grid = np.linspace(0.1, 6.0, 7)
        for name, model, fit in self._routes():
            # counted from the route's build on: population_candidate
            # factors G as it is built, and its fit and bound share that
            q = fit()
            assert calls == [(model.m, model.m)], name
            calls.clear()
            post = predict(q, grid)
            mean = post.mean_fn(grid)
            assert calls == [], name
            np.testing.assert_allclose(mean, post.mean, rtol=1e-12,
                                       atol=1e-14)


class TestReferenceRoutesOnEveryBuilder:
    """Models scored from statistics or from an eigen-factor run the
    reference routes on the dataset they came from, and agree with them."""

    @staticmethod
    def _close(got, ref):
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def _check(self, data, model, profile, q):
        ref = elbo_profile(model, data)
        for s2 in (0.5 * data.sigma_sq, data.sigma_sq, 4.0 * data.sigma_sq):
            assert ref(s2) == pytest.approx(profile(s2), rel=1e-10)
        assert elbo_lambda(model, data) == pytest.approx(
            profile(data.sigma_sq), rel=1e-10)
        assert elbo_at(q, data) == pytest.approx(
            profile(data.sigma_sq), rel=1e-10)
        q_ref = titsias_fit(model, data)
        self._close(q.mu, q_ref.mu)
        self._close(q.Sigma, q_ref.Sigma)

    def test_candidate_and_eigen_factor_match_the_reference_routes(self):
        rng = np.random.default_rng(41)
        x = rng.uniform(0, 2 * np.pi, 50)
        data = Dataset(x, np.sin(x) + 0.3 * rng.standard_normal(50), 0.09)
        prior, m = SeriesPrior(PolyDecay(0.6)), 10
        model, profile, fit = population_candidate(
            prior, feature_stats(x, data.y, feature_cutoff(prior, m), m), m)
        self._check(data, model, profile, fit(data.sigma_sq))
        # a tall pivoted factor of an SE kernel (r < n) and the wide exact
        # factor of a 200-term series kernel (r > n)
        nu, tau = 1.7, 0.8
        xs = x / tau
        tall, _ = _linalg.pivoted_cholesky(
            lambda i: np.exp(-np.square(xs - xs[i])), np.ones(x.size),
            x.size ** 2 * np.finfo(float).eps)
        series = SeriesKernel(prior, j_max=200)
        _, wide = exact_mod._series_factor(series, x)
        for L, trace, kern, scale in (
                (tall.T, float(x.size), SquaredExponential(nu, tau), nu),
                (wide, float(np.vdot(wide, wide)), series, 1.0)):
            fac = _EigenFactor.from_factor(L, data.y, 12, trace)
            assert (L.shape[1] > x.size) == (kern is series)
            q = fac.fit(data.sigma_sq, scale, kern, x)
            self._check(data, q.model, fac.profile(scale), q)
            assert fac.bound(0.3, scale) == pytest.approx(
                elbo_lambda(q.model, data), rel=1e-10)


class TestElbo:
    def test_scalar_hand_computation(self):
        prior = SeriesPrior(PolyDecay(1.0))
        x = np.array([1.3])
        yv, s2 = 0.7, 0.25
        model = population_features(prior, m=1, j_cutoff=50,
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
        model = population_features(prior, m=7)
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
            model = sample_features(K, m, data.x)
            vals.append(elbo_lambda(model, data))
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_profile_matches_direct_evaluation(self):
        model, kern, data = _random_series_instance(23)
        prof = elbo_profile(model, data)
        for s2 in (0.05, 0.3, 2.0):
            assert prof(s2) == pytest.approx(
                elbo_lambda(model, data.with_sigma_sq(s2)), rel=1e-12)


class TestNystromResidual:
    @pytest.mark.parametrize("seed", range(6))
    def test_residual_psd(self, seed):
        model, kern, data = _random_series_instance(seed)
        Kff = kernel_matrix(kern, data.x)
        K_uu, K_uf = _design_terms(model, data.x)
        P = np.linalg.solve(K_uu, K_uf).T
        R = Kff - P @ K_uf
        w = np.linalg.eigvalsh(0.5 * (R + R.T))
        assert w.min() > -1e-10 * max(1.0, w.max())

    @pytest.mark.parametrize("seed", range(6))
    def test_variance_never_expands(self, seed):
        model, kern, data = _random_series_instance(seed)
        q = titsias_fit(model, data)
        grid = np.linspace(0, 2 * np.pi, 41)
        post = predict(q, grid)
        prior_var = np.diag(kernel_matrix(kern, grid))
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
        assert gap == pytest.approx(direct_kl_oracle(q, data, kern, flavor),
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


def _assert_band_reads_cov_diagonal(post):
    """band95 against the band from sqrt(diag(cov_fn(query, query)))."""
    q = post.query
    sd = np.sqrt(np.clip(np.diag(post.cov_fn(q, q)), 0.0, None))
    lo, hi = post.band95()
    np.testing.assert_allclose(lo, post.mean - 1.96 * sd, rtol=0, atol=1e-12)
    np.testing.assert_allclose(hi, post.mean + 1.96 * sd, rtol=0, atol=1e-12)


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
        K_uu = np.diag(q.model.kuu_diag)
        w = np.linalg.solve(K_uu, q.mu)
        C = np.linalg.solve(K_uu, np.linalg.solve(K_uu, K_uu - q.Sigma).T)
        xs, ys = self.XS, self.YS
        post = predict(q, xs)
        for a, b in ((xs, xs), (xs, ys), (ys, xs)):
            self._close(post.cov_fn(a, b), k(a, b) - cross(a) @ C @ cross(b).T)
        for a in (xs, ys):
            self._close(post.mean_fn(a), cross(a) @ w)
        self._close(post.mean, cross(xs) @ w)
        _assert_band_reads_cov_diagonal(post)
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
        model = population_features(prior, m, j_cutoff=J,
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
            prior, feature_stats(x, data.y, 1000, m), m)
        k, cross = self._series(prior, 1000, prior.tail_variance(1000))
        self._check(fit(data.sigma_sq), cross(m), k)

    def test_sample_features(self):
        kern = SquaredExponential(1.3, 0.8)
        x, data = self._fit(3, n=30)
        model = sample_features(kernel_matrix(kern, x), 12, kernel=kern, x=x)
        self._check(titsias_fit(model, data),
                    lambda a: kernel_cross(kern, a, x) @ model.features(x),
                    lambda a, b: kernel_cross(kern, a, b))

    def test_mean_field_cross_covariance(self):
        x, data = self._fit(4)
        q = mf_fit(design_matrix(data, 7), data.sigma_sq)
        post = mf_predict(q, self.XS)
        Fa = BASIS.features(self.XS, q.D)
        Fb = BASIS.features(self.YS, q.D)
        np.testing.assert_allclose(post.cov_fn(self.XS, self.YS),
                                   (Fa * q.Sigma_diag) @ Fb.T,
                                   rtol=1e-12, atol=1e-15)
        _assert_band_reads_cov_diagonal(post)

    def test_population_band_builds_no_query_feature_block(self,
                                                           monkeypatch):
        prior = SeriesPrior(PolyDecay(0.6))
        x, data = self._fit(5)
        m, J = 6, 1000
        fits = [
            titsias_fit(population_features(prior, m, j_cutoff=J), data),
            population_candidate(prior, feature_stats(x, data.y, J, m),
                                 m)[2](data.sigma_sq),
        ]

        def spy(*args):
            raise AssertionError("the band built a kernel_cross block")

        monkeypatch.setattr(inducing_mod, "kernel_cross", spy)
        monkeypatch.setattr(exact_mod, "kernel_cross", spy)
        for q in fits:
            lo, hi = predict(q, self.XS).band95()
            assert np.all(lo < hi)


class TestFromFactor:
    """The low-rank constructor scores and fits as the n x n one."""

    def test_below_rank_matches_kernel_route(self):
        x, y, K, L = _se_factor_case(150, 15.0, 0.8)
        m = 30
        low = _EigenFactor.from_factor(L, y, m, float(x.size))
        assert low.rank == L.shape[1] > m
        assert low.dropped == 0
        for sigma, nu in ((0.5, 1.0), (1.0, 2.0), (0.2, 0.5)):
            assert low.bound(sigma, nu) == pytest.approx(
                _kernel_bound(nu * K, m, x, y, sigma), rel=1e-10)
        nu, s2 = 2.0, 0.8
        kern = SquaredExponential(nu, 0.8)
        full = sample_features(nu * K, m, x, kernel=kern)
        assert full.m == m
        query = np.linspace(-1.0, 16.0, 101)
        got = predict(low.fit(s2, nu, kern, x), query)
        want = predict(titsias_fit(full, Dataset(x, y, s2)), query)
        for a, b in ((got.mean, want.mean), (got.var, want.var)):
            np.testing.assert_allclose(a, b, rtol=1e-8,
                                       atol=1e-8 * np.max(np.abs(b)))

    @pytest.mark.parametrize("m", [1, 7, 60])
    def test_fit_is_the_identity_eigen_form_bit_for_bit(self, m):
        # the whitened Gram of nu K is diag(nu lam): the elementwise fit
        # equals the weight posterior taken through Q = I
        x, y, _, L = _se_factor_case(150, 15.0, 0.8)
        fac = _EigenFactor.from_factor(L, y, m, float(x.size))
        nu, s2 = 1.7, 0.3
        q = fac.fit(s2, nu, SquaredExponential(nu, 0.8), x)
        g = nu * fac.lam
        mu, Sigma = exact_mod._weight_posterior(
            np.sqrt(g), g, np.eye(g.size), np.sqrt(g) * fac.p, s2)
        assert np.array_equal(q.mu, mu)
        assert np.array_equal(q.Sigma, Sigma)

    @pytest.mark.parametrize("tau, m", [(0.8, 30), (4.0, 40)])
    def test_p_without_the_eigenvectors_is_v_transpose_y(self, tau, m):
        # p = diag(lam)^(-1/2) Q'(L'y) never forms V; V comes from the
        # kept L, on demand
        x, y, _, L = _se_factor_case(150, 15.0, tau)
        low = _EigenFactor.from_factor(L, y, m, float(x.size))
        V = low.vectors()
        assert V.shape == (x.size, low.lam.size)
        np.testing.assert_allclose(low.p, V.T @ y, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(low.p)))
        np.testing.assert_allclose(V.T @ V, np.eye(low.lam.size),
                                   atol=1e-8)

    def test_above_rank_drops_as_kernel_route(self):
        # the n x n route drops every eigenvalue past the numerical rank;
        # the factor offers only its rank, 19, and the drop rule keeps all
        x, y, K, L = _se_factor_case(150, 15.0, 4.0)
        m = 40
        low = _EigenFactor.from_factor(L, y, m, float(x.size))
        with pytest.warns(RuntimeWarning, match="dropping"):
            model = sample_features(K, m, x)
        assert low.rank == L.shape[1] < m
        assert low.dropped == 0 and low.lam.size == low.rank
        assert (m - low.rank) + low.dropped == m - model.m > 0
        assert low.lam.size == model.m
        for sigma, nu in ((0.5, 1.0), (1.0, 2.0)):
            assert low.bound(sigma, nu) == pytest.approx(
                _kernel_bound(nu * K, m, x, y, sigma), rel=1e-10)

    def test_all_features_give_log_evidence(self):
        x, y, _, L = _se_factor_case(90, 9.0, 0.6)
        low = _EigenFactor.from_factor(L, y, x.size, float(x.size))
        for sigma, nu in ((0.7, 1.5), (1.2, 3.0)):
            evidence = log_evidence(SquaredExponential(nu, 0.6),
                                    Dataset(x, y, sigma * sigma))
            assert low.bound(sigma, nu) == pytest.approx(evidence, rel=1e-8)
