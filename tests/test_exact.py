"""Tests for exact GP conditioning, evidence, and evidence-weighted mixing."""

import numpy as np
import pytest

import gpadapt.exact as exact_mod
from gpadapt.basis import (
    BASIS,
    EigenBasis,
    ExpDecay,
    PolyDecay,
    SeriesPrior,
    SignalSpec,
    Truncated,
    synth_signal,
)
from gpadapt.exact import (
    Dataset,
    SeriesKernel,
    SquaredExponential,
    exact_posterior,
    hierarchical_posterior,
    kernel_cross,
    kernel_diag,
    kernel_matrix,
    log_evidence,
    lse_weights,
    mmle_select,
)


def _beta_one_signal(j_max=500):
    return SignalSpec(coefficients=lambda j: np.asarray(j, float) ** -1.5,
                      j_max=j_max)


def _simulate(spec, n, sigma_sq, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 2 * np.pi, size=n)
    f = synth_signal(spec, x)
    y = f + np.sqrt(sigma_sq) * rng.standard_normal(n)
    return Dataset(x, y, sigma_sq)


class TestDataset:
    @pytest.mark.parametrize("name,bad", [
        ("y", np.nan), ("y", np.inf), ("x", -np.inf), ("x", np.nan)])
    def test_rejects_non_finite_values_by_name_and_index(self, name, bad):
        arrays = {"x": np.linspace(0.0, 1.0, 8), "y": np.ones(8)}
        arrays[name][3] = bad
        arrays[name][6] = bad
        with pytest.raises(ValueError,
                           match=rf"^{name} must be finite: {name}\[3\]"):
            Dataset(arrays["x"], arrays["y"], 0.1)

    @pytest.mark.parametrize("sigma_sq", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_noise_variance_outside_the_positive_reals(self,
                                                               sigma_sq):
        with pytest.raises(ValueError,
                           match="^sigma_sq must be positive and finite"):
            Dataset(np.linspace(0.0, 1.0, 4), np.ones(4), sigma_sq)

    def test_with_sigma_sq_checks_the_new_value(self):
        data = Dataset(np.linspace(0.0, 1.0, 4), np.ones(4), 0.1)
        with pytest.raises(ValueError, match="sigma_sq"):
            data.with_sigma_sq(np.inf)


class TestKernels:
    def test_squared_exponential_value(self):
        k = kernel_matrix(SquaredExponential(nu=2.0, tau=1.0),
                          np.array([0.0, 1.0]))
        assert k[0, 0] == pytest.approx(2.0)
        assert k[0, 1] == pytest.approx(2.0 * np.exp(-1.0))

    def test_series_kernel_truncated_is_gram_of_weights(self):
        prior = SeriesPrior(Truncated(dim=6))
        pts = np.array([0.1, 2.0, 4.5])
        K = kernel_matrix(SeriesKernel(prior, j_max=50), pts)
        F = BASIS.features(pts, 6)
        np.testing.assert_allclose(K, F @ F.T / 6, atol=1e-12)

    def test_series_kernel_diag(self):
        kern = SeriesKernel(SeriesPrior(PolyDecay(1.0)), j_max=200)
        pts = np.linspace(0, 2 * np.pi, 9)
        np.testing.assert_allclose(kernel_diag(kern, pts),
                                   np.diag(kernel_matrix(kern, pts)),
                                   atol=1e-12)

    @pytest.mark.parametrize("kind, J", [
        *[(PolyDecay(0.7), J) for J in (1, 2, 7, 8, 1000)],
        (ExpDecay(0.3), 7),
        (Truncated(dim=5), 8),
        (Truncated(dim=8), 1000),
    ])
    def test_series_diag_equals_feature_sum(self, kind, J):
        kern = SeriesKernel(SeriesPrior(kind), j_max=J)
        pts = np.r_[0.0, np.random.default_rng(J).uniform(0, 2 * np.pi, 60),
                    np.pi, 2 * np.pi]
        J_eff = kern.j_eff
        s2 = kern.prior.spectrum(np.arange(1, J_eff + 1)) ** 2
        want = (BASIS.features(pts, J_eff) ** 2) @ s2
        np.testing.assert_allclose(kernel_diag(kern, pts), want, rtol=1e-12,
                                   atol=0)

    def test_series_diag_rejects_points_outside_the_domain(self):
        kern = SeriesKernel(SeriesPrior(PolyDecay(1.0)), j_max=20)
        with pytest.raises(ValueError, match="outside the domain"):
            kernel_diag(kern, np.array([1.0, 2 * np.pi + 1e-6]))

    @pytest.mark.parametrize("kern", [
        SquaredExponential(1.5, 0.7),
        SeriesKernel(SeriesPrior(PolyDecay(0.8)), j_max=300),
    ])
    def test_kernel_matrix_is_psd(self, kern):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 2 * np.pi, size=40)
        K = kernel_matrix(kern, pts)
        w = np.linalg.eigvalsh(K)
        assert w.min() > -1e-10 * max(w.max(), 1.0)


class TestSeriesCrossReuse:
    def test_identical_points_build_the_features_once(self, monkeypatch):
        kern = SeriesKernel(SeriesPrior(PolyDecay(1.1)), j_max=300)
        pts = np.random.default_rng(8).uniform(0, 2 * np.pi, size=57)
        s2 = kern.prior.spectrum(np.arange(1, 301)) ** 2
        # the two-block product as it is written without the reuse
        want = (BASIS.features(pts, 300) * s2) @ BASIS.features(pts, 300).T
        features = EigenBasis.features
        calls = []

        def counted(self, x, J):
            calls.append(J)
            return features(self, x, J)

        monkeypatch.setattr(EigenBasis, "features", counted)
        for other in (pts, pts.copy()):
            calls.clear()
            got = kernel_cross(kern, pts, other)
            assert calls == [300]
            np.testing.assert_array_equal(got, want)
        calls.clear()
        kernel_cross(kern, pts, pts[:-1])
        assert calls == [300, 300]


class TestExactPosterior:
    def test_single_point_closed_form(self):
        # one observation: posterior mean at the datum is nu*y/(nu+sigma^2)
        nu, s2, yv = 2.0, 0.3, 1.2
        data = Dataset([0.5], [yv], s2)
        post = exact_posterior(SquaredExponential(nu, 1.0), data, [0.5])
        assert post.mean[0] == pytest.approx(nu * yv / (nu + s2), rel=1e-12)
        assert post.cov[0, 0] == pytest.approx(nu - nu**2 / (nu + s2),
                                               rel=1e-12)

    def test_huge_noise_returns_prior(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 2 * np.pi, 30)
        data = Dataset(x, rng.standard_normal(30), sigma_sq=1e12)
        kern = SquaredExponential(2.0, 1.0)
        post = exact_posterior(kern, data, x)
        assert np.max(np.abs(post.mean)) < 1e-9
        np.testing.assert_allclose(post.cov, kernel_matrix(kern, x), atol=1e-9)

    def test_series_and_kernel_routes_agree(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 2 * np.pi, 50)
        y = rng.standard_normal(50)
        data = Dataset(x, y, 0.2)
        kern = SeriesKernel(SeriesPrior(Truncated(dim=8)), j_max=8)
        q = np.linspace(0, 2 * np.pi, 33)
        a = exact_mod._posterior_series_form(kern, data, q)
        b = exact_mod._posterior_kernel_form(kern, data, q)
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-8)
        np.testing.assert_allclose(a.cov, b.cov, atol=1e-8)

    def test_auto_uses_series_route_for_truncated(self):
        data = Dataset([0.3, 1.0], [1.0, -1.0], 0.5)
        kern = SeriesKernel(SeriesPrior(Truncated(dim=3)), j_max=3)
        post = exact_posterior(kern, data, [0.7])
        ref = exact_mod._posterior_kernel_form(kern, data, [0.7])
        assert post.mean[0] == pytest.approx(ref.mean[0], abs=1e-10)

    def test_band_width_matches_cov_diagonal(self):
        data = _simulate(_beta_one_signal(), 40, 0.1, seed=5)
        post = exact_posterior(SquaredExponential(1.0, 1.0), data,
                               np.linspace(0, 2 * np.pi, 11))
        lo, hi = post.band95()
        np.testing.assert_allclose(
            hi - lo, 2 * 1.96 * np.sqrt(np.diag(post.cov)), atol=1e-12)

    # with n = 40: J = 120 > n conditions on the kernel matrix, J = 30 and
    # the flat spectrum take the weight-space form
    @pytest.mark.parametrize("kern", [
        SeriesKernel(SeriesPrior(PolyDecay(1.0)), j_max=120),
        SeriesKernel(SeriesPrior(PolyDecay(1.0)), j_max=30),
        SeriesKernel(SeriesPrior(Truncated(dim=8)), j_max=8),
    ], ids=["series-kernel", "series-weights", "flat-series"])
    def test_band_matches_cov_diagonal(self, kern):
        data = _simulate(_beta_one_signal(), 40, 0.1, seed=5)
        query = np.linspace(0, 2 * np.pi, 11)
        post = exact_posterior(kern, data, query)
        sd = np.sqrt(np.clip(np.diag(post.cov_fn(query, query)), 0, None))
        lo, hi = post.band95()
        np.testing.assert_allclose(lo, post.mean - 1.96 * sd, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(hi, post.mean + 1.96 * sd, rtol=0,
                                   atol=1e-12)

    def test_empty_dataset_rejected(self):
        data = Dataset(np.empty(0), np.empty(0), 1.0)
        with pytest.raises(ValueError):
            exact_posterior(SquaredExponential(1.0, 1.0), data, [0.1])


class TestLogEvidence:
    def test_single_point_closed_form(self):
        nu, s2, yv = 1.3, 0.4, -0.7
        got = log_evidence(SquaredExponential(nu, 1.0),
                           Dataset([2.0], [yv], s2))
        want = -0.5 * np.log(2 * np.pi * (nu + s2)) - yv**2 / (2 * (nu + s2))
        assert got == pytest.approx(want, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 2 * np.pi, 30)
        y = rng.standard_normal(30)
        data = Dataset(x, y, 0.3)
        kern = SquaredExponential(1.0, 0.8)
        base = log_evidence(kern, data)
        perm = rng.permutation(30)
        assert log_evidence(kern, Dataset(x[perm], y[perm], 0.3)) == \
            pytest.approx(base, abs=1e-10)

    def test_evidence_prefers_sane_scale(self):
        # data of unit scale: a kernel inflated by 1e6 loses badly
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 2 * np.pi, 20)
        y = np.sin(x) + 0.1 * rng.standard_normal(20)
        data = Dataset(x, y, 0.01)
        sane = log_evidence(SquaredExponential(1.0, 1.0), data)
        inflated = log_evidence(SquaredExponential(1e6, 1.0), data)
        assert sane > inflated


class TestMMLESelect:
    def test_picks_unscaled_spectrum(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 2 * np.pi, 25)
        y = np.cos(x) + 0.2 * rng.standard_normal(25)
        kernels = {"unit": SquaredExponential(1.0, 1.0),
                   "huge": SquaredExponential(1e6, 1.0)}
        assert mmle_select(kernels, Dataset(x, y, 0.05)) == "unit"

    def test_tie_breaks_to_first_key(self):
        data = Dataset([0.1, 1.4], [0.4, -0.2], 0.5)
        k = SquaredExponential(1.0, 1.0)
        assert mmle_select({"b": k, "a": k}, data) == "b"

    def test_failure_excluded_with_warning(self):
        # negative-variance impostor: kernel matrix factorization must fail
        class BadKernel:
            pass

        data = Dataset([0.1, 0.9], [1.0, 0.3], 0.2)

        import gpadapt.exact as exact_mod

        def fake_evidence(kern, d, _orig=log_evidence):
            if isinstance(kern, BadKernel):
                raise exact_mod.ConditioningError("boom")
            return _orig(kern, d)

        good = SquaredExponential(1.0, 1.0)
        orig = exact_mod.log_evidence
        exact_mod.log_evidence = fake_evidence
        try:
            with pytest.warns(RuntimeWarning):
                got = mmle_select({"bad": BadKernel(), "ok": good}, data)
        finally:
            exact_mod.log_evidence = orig
        assert got == "ok"


class TestHierarchicalPosterior:
    def test_single_candidate_gets_unit_weight(self):
        data = Dataset([0.2, 1.1, 3.0], [1.0, 0.5, -0.3], 0.4)
        hier = hierarchical_posterior(
            {"a": SquaredExponential(1.0, 1.0)}, {"a": 1.0}, data, [0.5])
        assert hier.weights["a"] == 1.0

    def test_identical_candidates_split_evenly(self):
        data = Dataset([0.2, 1.1], [1.0, 0.5], 0.4)
        k = SquaredExponential(1.0, 1.0)
        hier = hierarchical_posterior(
            {"a": k, "b": k}, {"a": 0.5, "b": 0.5}, data, [0.5])
        assert hier.weights["a"] == pytest.approx(0.5, abs=1e-15)
        assert hier.weights["b"] == pytest.approx(0.5, abs=1e-15)

    def test_masses_validated(self):
        data = Dataset([0.2], [1.0], 0.4)
        k = SquaredExponential(1.0, 1.0)
        with pytest.raises(ValueError):
            hierarchical_posterior({"a": k, "b": k}, {"a": 0.7, "b": 0.4},
                                   data, [0.5])
        with pytest.raises(ValueError):
            hierarchical_posterior({"a": k, "b": k}, {"a": 1.0, "b": -0.0},
                                   data, [0.5])

    def test_map_component_matches_eb_choice(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 2 * np.pi, 40)
        y = np.sin(2 * x) + 0.1 * rng.standard_normal(40)
        data = Dataset(x, y, 0.01)
        kernels = {a: SeriesKernel(SeriesPrior(PolyDecay(a)), 300)
                   for a in (0.5, 1.0, 2.0)}
        hyper = {a: 1 / 3 for a in kernels}
        hier = hierarchical_posterior(kernels, hyper, data,
                                      np.linspace(0, 2 * np.pi, 7))
        chosen = mmle_select(kernels, data)
        top = max(hier.weights, key=lambda k: hier.weights[k])
        assert top == chosen
        np.testing.assert_array_equal(hier.map_component().mean,
                                      hier.components[chosen].mean)

    def test_weight_concentration_near_true_smoothness(self):
        # n = 100 draws of a boundary-smoothness-one signal: mass on
        # alpha within 0.5 of 1 exceeds 0.9 (checked per seed, 20 seeds)
        spec = _beta_one_signal()
        step = 1 / np.log(100)
        grid = [0.5 + k * step for k in range(7)]  # 0.5 .. 1.80
        near = [a for a in grid if abs(a - 1.0) <= 0.5]
        kernels = {a: SeriesKernel(SeriesPrior(PolyDecay(a)), 500)
                   for a in grid}
        hyper = {a: 1 / len(grid) for a in grid}
        hits = 0
        for seed in range(20):
            data = _simulate(spec, 100, 0.01, seed)
            hier = hierarchical_posterior(kernels, hyper, data, [np.pi])
            mass = sum(hier.weights.get(a, 0.0) for a in near)
            hits += mass > 0.9
        assert hits >= 18


class TestLogSumExpWeights:
    def test_normalized(self):
        w = lse_weights(np.array([-1000.0, -1001.0, -999.5]))
        assert w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_shift_invariance_is_exact(self):
        # dyadic values keep v + c exactly representable, so the stabilized
        # subtraction sees identical real differences and the weights match
        # bit for bit
        rng = np.random.default_rng(21)
        for _ in range(25):
            v = rng.integers(-60_000, 60_000, size=6) / 1024.0
            for c in (1e3, -777.25, 2.0**20):
                np.testing.assert_array_equal(lse_weights(v),
                                              lse_weights(v + c))


def _dense_log_evidence(kern, data):
    # log N(y; 0, Phi S^2 Phi' + sigma^2 I) straight from the definition
    J = kern.j_eff
    F = BASIS.features(data.x, J) * kern.prior.spectrum(np.arange(1, J + 1))
    K = F @ F.T + data.sigma_sq * np.eye(data.n)
    sign, logdet = np.linalg.slogdet(K)
    assert sign > 0
    return -0.5 * (data.y @ np.linalg.solve(K, data.y) + logdet
                   + data.n * np.log(2 * np.pi))


class TestWeightSpaceRoute:
    """A J-term series kernel with J <= n is solved in its J weights."""

    # ExpDecay(1) at J = 800: s_j^2 underflows to zero beyond j = 745
    CASES = [
        pytest.param(PolyDecay(1.0), 200, 300, id="poly"),
        pytest.param(ExpDecay(1.0), 800, 900, id="exp-underflow"),
        pytest.param(Truncated(dim=8), 8, 50, id="truncated"),
    ]

    @staticmethod
    def _case(kind, J, n):
        kern = SeriesKernel(SeriesPrior(kind), j_max=J)
        assert kern.j_eff == J
        data = _simulate(_beta_one_signal(), n, 0.05, seed=J + n)
        return kern, data

    @pytest.mark.parametrize("kind, J, n", CASES)
    def test_posterior_matches_kernel_route(self, kind, J, n):
        kern, data = self._case(kind, J, n)
        q = np.linspace(0, 2 * np.pi, 41)
        a = exact_posterior(kern, data, q)
        b = exact_mod._posterior_kernel_form(kern, data, q)
        np.testing.assert_allclose(a.mean, b.mean, rtol=0, atol=1e-8)
        np.testing.assert_allclose(a.cov, b.cov, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("kind, J, n", CASES)
    def test_evidence_matches_dense_definition(self, kind, J, n):
        kern, data = self._case(kind, J, n)
        assert log_evidence(kern, data) == pytest.approx(
            _dense_log_evidence(kern, data), rel=0, abs=1e-8)

    @pytest.mark.parametrize("J, n, builds", [
        (200, 300, 0), (300, 300, 0), (300, 100, 1)])
    def test_kernel_matrix_built_only_when_J_exceeds_n(self, J, n, builds,
                                                       monkeypatch):
        kern = SeriesKernel(SeriesPrior(PolyDecay(1.0)), j_max=J)
        data = _simulate(_beta_one_signal(), n, 0.05, seed=1)
        shapes = []
        build = exact_mod.kernel_matrix

        def spy(kernel, points):
            K = build(kernel, points)
            shapes.append(K.shape)
            return K

        monkeypatch.setattr(exact_mod, "kernel_matrix", spy)
        exact_posterior(kern, data, np.linspace(0, 2 * np.pi, 9))
        assert shapes == [(n, n)] * builds
        shapes.clear()
        log_evidence(kern, data)
        assert shapes == [(n, n)] * builds


class TestKernelSolveCap:
    """The n x n reference refuses a design past its cap before forming K."""

    @pytest.mark.parametrize("route", ["evidence", "posterior", "series"])
    def test_refuses_n_past_the_cap(self, route):
        import tracemalloc

        n = exact_mod.KERNEL_SOLVE_MAX_N + 1
        assert n == 5001
        x = np.linspace(0.0, 2 * np.pi, n)
        data = Dataset(x, np.sin(x), 0.1)
        # a series kernel with J > n takes the kernel form too
        kern = (SeriesKernel(SeriesPrior(PolyDecay(1.0)), j_max=n + 1)
                if route == "series" else SquaredExponential(1.0, 0.5))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="n must be <= 5000, "
                               "got n = 5001"):
                if route == "posterior":
                    exact_posterior(kern, data, [0.5])
                else:
                    log_evidence(kern, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the kernel matrix alone would be 200 MB
        assert peak < 1_000_000, peak

    def test_a_design_at_the_cap_is_served(self, monkeypatch):
        monkeypatch.setattr(exact_mod, "KERNEL_SOLVE_MAX_N", 300)
        kern = SquaredExponential(1.0, 0.5)
        x = np.linspace(0.0, 2 * np.pi, 301)
        assert np.isfinite(log_evidence(kern, Dataset(x[:300], x[:300],
                                                      0.1)))
        with pytest.raises(ValueError, match="n must be <= 300"):
            log_evidence(kern, Dataset(x, x, 0.1))


class TestContractionSanity:
    def test_mse_decreases_with_sample_size(self):
        # average posterior-mean MSE against the truth drops across
        # n = 250 -> 1000 -> 4000 (10 seeds, fixed alpha = 1 kernel)
        spec = _beta_one_signal()
        grid = np.linspace(0, 2 * np.pi, 256)
        truth = synth_signal(spec, grid)
        kern = SeriesKernel(SeriesPrior(PolyDecay(1.0)), j_max=800)
        mse = {}
        for n in (250, 1000, 4000):
            errs = []
            for seed in range(10):
                data = _simulate(spec, n, 0.01, seed=100 + seed)
                post = exact_posterior(kern, data, grid)
                errs.append(np.mean((post.mean - truth) ** 2))
            mse[n] = np.mean(errs)
        assert mse[1000] < mse[250]
        assert mse[4000] < mse[1000]
