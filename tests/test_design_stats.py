"""Grid sweeps scored from design statistics built once per dataset.

Each statistics path is checked against the per-candidate construction it
replaces: population candidates against ``population_features`` plus
``elbo_profile``/``titsias_fit``, truncation levels against the statistics
of a fresh ``design_matrix``, and whole sweeps against a fitter built that
way.
"""

import math
import tracemalloc

import numpy as np
import pytest

from gpadapt import basis, inducing
from gpadapt.basis import (
    BASIS,
    EigenBasis,
    ExpDecay,
    PolyDecay,
    SeriesPrior,
    SignalSpec,
    _trig_moments,
    synth_signal,
)
from gpadapt.exact import MEAN_BLOCK, Dataset, GaussianPosterior
from gpadapt.experiments import (
    ExperimentConfig,
    _make_fitter,
    _profile_noise,
    simulate_poly,
)
from gpadapt.inducing import (
    elbo_lambda,
    elbo_profile,
    feature_cutoff,
    feature_stats,
    population_candidate,
    population_features,
    predict,
    titsias_fit,
)
from gpadapt.meanfield import design_matrix, mf_elbo, mf_fit
from gpadapt.select import dim_grid, exp_grid, poly_grid, select_discrete

RTOL = 1e-10


def _rel(a, b) -> float:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def _one_shot(x, y, J, m):
    Phi = BASIS.features(x, J)
    return ((Phi * Phi).sum(axis=0), Phi[:, :m].T @ Phi[:, :m],
            Phi[:, :m].T @ y)


class TestFeatureStats:
    def test_chunks_sum_to_one_shot_build(self):
        # the statistics are sums over the design: two chunks of the data,
        # each on its own grid nodes, add up to the one-shot build
        data, _ = simulate_poly(1000, seed=3)
        J, m = 700, 40
        parts = [feature_stats(data.x[rows], data.y[rows], J, m)
                 for rows in (slice(0, 300), slice(300, None))]
        colsumsq, gram, phi_y = _one_shot(data.x, data.y, J, m)
        assert _rel(sum(p.colsumsq for p in parts), colsumsq) <= 1e-12
        assert _rel(sum(p.gram for p in parts), gram) <= 1e-12
        assert _rel(sum(p.phi_y for p in parts), phi_y) <= 1e-12

    def test_grid_route_sums_to_one_shot_build(self):
        data, _ = simulate_poly(1000, seed=3)
        J, m = 700, 40
        stats = feature_stats(data.x, data.y, J, m)
        colsumsq, gram, phi_y = _one_shot(data.x, data.y, J, m)
        assert stats.n == 1000
        assert _rel(stats.colsumsq, colsumsq) <= 1e-12
        assert _rel(stats.gram, gram) <= 1e-12
        assert _rel(stats.phi_y, phi_y) <= 1e-12
        assert stats.yty == pytest.approx(float(data.y @ data.y), rel=1e-15)

    def test_exp_sweep_memory_stays_below_the_feature_block(self):
        # the exp grid's widest candidate: tau = e^-2, m = 428, J = 4280
        n = 2000
        grid = exp_grid(1.0, n)
        ms = [grid.m_rule(t) for t in grid.values]
        J = max(feature_cutoff(SeriesPrior(ExpDecay(t)), m)
                for t, m in zip(grid.values, ms))
        m = max(ms)
        data, _ = simulate_poly(n, seed=11)
        block_bytes = n * J * 8
        tracemalloc.start()
        try:
            got = feature_stats(data.x, data.y, J, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block_bytes / 4, (peak, block_bytes)
        colsumsq, gram, phi_y = _one_shot(data.x, data.y, J, m)
        assert _rel(got.colsumsq, colsumsq) <= 1e-12
        assert _rel(got.gram, gram) <= 1e-12
        assert _rel(got.phi_y, phi_y) <= 1e-12

    @pytest.mark.parametrize("h", [0, 1, 7, 30])
    def test_gram_blocks_equal_scipy_toeplitz_and_hankel(self, h):
        import scipy.linalg

        x = np.random.default_rng(h).uniform(0.0, 2.0 * np.pi, 200)
        M = _trig_moments(x, np.ones((1, x.size)), [2 * h + 5])[0]
        T, H = inducing._toeplitz_hankel(M, h)
        assert np.array_equal(T, scipy.linalg.toeplitz(M[:h + 1]))
        assert np.array_equal(H, scipy.linalg.hankel(M[:h + 1],
                                                     M[h:2 * h + 1]))

    def test_rejects_bad_shapes(self):
        x = np.linspace(0.0, 6.0, 10)
        with pytest.raises(ValueError):
            feature_stats(x, x[:-1], 20, 5)
        with pytest.raises(ValueError):
            feature_stats(x, x, 5, 6)


class TestMomentStatistics:
    """FeatureStats read off trigonometric moments (Toeplitz + Hankel Gram)
    against the feature block built in one shot."""

    ORDERS = pytest.mark.parametrize("J,m", [
        (700, 40), (701, 41), (700, 41), (701, 40), (1, 1), (50, 1),
        (2, 2), (37, 37), (64, 64),
    ])

    @ORDERS
    def test_equal_one_shot_build(self, J, m):
        # every point half a node step from the moments' grid, the widest
        # offset that the Taylor correction covers
        N, _ = basis._grid_plan(J + 1)
        rng = np.random.default_rng(J + 1000 * m)
        x = (rng.integers(0, N, size=517) + 0.5) * (2 * np.pi / N)
        self._check_one_shot_build(J, m, x, rng)

    @ORDERS
    def test_grid_route_equals_one_shot_build(self, J, m):
        rng = np.random.default_rng(J + 1000 * m)
        x = rng.uniform(0.0, 2 * np.pi, size=517)
        x[:2] = 0.0, 2 * np.pi
        self._check_one_shot_build(J, m, x, rng)

    @staticmethod
    def _check_one_shot_build(J, m, x, rng):
        y = rng.normal(size=x.size)
        stats = feature_stats(x, y, J, m)
        refs = [_one_shot(x, y, J, m)]
        if J == m:  # the mean-field layer's reference statistics too
            ref = design_matrix(Dataset(x=x, y=y, sigma_sq=1.0), J)
            assert ref.n == stats.n and ref.yty == stats.yty
            refs.append((ref.colsumsq, ref.gram, ref.phi_y))
        assert stats.colsumsq.shape == (J,)
        assert stats.gram.shape == (m, m)
        assert stats.phi_y.shape == (m,)
        for colsumsq, gram, phi_y in refs:
            assert _rel(stats.colsumsq, colsumsq) <= 1e-12
            assert _rel(stats.gram, gram) <= 1e-12
            assert _rel(stats.phi_y, phi_y) <= 1e-12

    @pytest.mark.parametrize("bad", [-1e-9, 2 * np.pi + 1e-9, 7.0])
    def test_rejects_points_outside_the_domain(self, bad):
        x = np.linspace(0.0, 6.0, 10)
        x[4] = bad
        with pytest.raises(ValueError, match="point outside the domain"):
            feature_stats(x, np.ones(10), 20, 5)

    def test_rejects_bad_orders_and_shapes(self):
        x = np.linspace(0.0, 6.0, 10)
        for J, m in [(5, 6), (5, 0), (0, 0)]:
            with pytest.raises(ValueError, match="need 1 <= m <= J"):
                feature_stats(x, x, J, m)
        with pytest.raises(ValueError, match="matching length"):
            feature_stats(x, x[:-1], 20, 5)


class TestPopulationCandidate:
    @pytest.mark.parametrize("prior,m", [
        (SeriesPrior(PolyDecay(1.3)), 12),
        (SeriesPrior(ExpDecay(math.exp(-1.0))), 60),
    ])
    def test_bound_and_fit_match_population_features(self, prior, m):
        data, _ = simulate_poly(600, seed=5)
        J = feature_cutoff(prior, m)
        stats = feature_stats(data.x, data.y, J + 50, m + 7)
        _, profile, fit = population_candidate(prior, stats, m)
        model = population_features(prior, m)
        ref = elbo_profile(model, data)
        for s2 in (0.003, 0.01, 0.4):
            assert profile(s2) == pytest.approx(ref(s2), rel=RTOL)
            q = fit(s2)
            q_ref = titsias_fit(model, data.with_sigma_sq(s2))
            assert _rel(q.mu, q_ref.mu) <= RTOL
            assert _rel(q.Sigma, q_ref.Sigma) <= RTOL
        query = np.linspace(0.0, 2.0 * np.pi, 33)
        a = predict(fit(0.01), query)
        b = predict(titsias_fit(model, data.with_sigma_sq(0.01)), query)
        assert _rel(a.mean, b.mean) <= RTOL
        assert _rel(a.cov, b.cov) <= RTOL

    def test_statistics_must_cover_the_candidate(self):
        data, _ = simulate_poly(100, seed=2)
        stats = feature_stats(data.x, data.y, 500, 10)
        with pytest.raises(ValueError, match="statistics cover"):
            population_candidate(SeriesPrior(PolyDecay(1.0)), stats, 11)
        with pytest.raises(ValueError, match="statistics cover"):
            population_candidate(SeriesPrior(PolyDecay(1.0)), stats, 10)

    def test_scored_model_refits_on_its_data(self):
        # the model holds no design, so the reference fit on the dataset
        # the statistics came from reproduces the candidate's q(u)
        data, _ = simulate_poly(100, seed=2)
        stats = feature_stats(data.x, data.y, 1000, 5)
        model, _, fit = population_candidate(SeriesPrior(PolyDecay(1.0)),
                                             stats, 5)
        q, q_ref = fit(data.sigma_sq), titsias_fit(model, data)
        assert _rel(q.mu, q_ref.mu) <= RTOL
        assert _rel(q.Sigma, q_ref.Sigma) <= RTOL
        with pytest.raises(ValueError, match="sigma_sq"):
            fit(0.0)

    @pytest.mark.parametrize("size", [257, MEAN_BLOCK + 3])
    def test_query_features_are_built_once(self, size):
        # a query of one mean block reads its mean off the variance's F
        m = 9
        s2 = SeriesPrior(PolyDecay(1.2)).spectrum(np.arange(1, m + 1)) ** 2
        w = np.random.default_rng(2).standard_normal(m)
        calls = []

        def features(x):
            calls.append(x.size)
            return BASIS.features(x, m) * s2

        xs = np.linspace(0.0, 2.0 * np.pi, size)
        post = GaussianPosterior.from_features(xs, features, w, np.ones(m))
        assert calls == ([size] if size <= MEAN_BLOCK
                         else [size, MEAN_BLOCK, 3])
        np.testing.assert_array_equal(post.mean, post.mean_fn(xs))

    def test_mean_rule_stays_below_the_feature_block(self):
        # the quadrature grid against a wide candidate: m = 400 features
        # over 10^4 points would be a 32 MB block
        prior, m = SeriesPrior(PolyDecay(1.0)), 400
        data, _ = simulate_poly(600, seed=4)
        stats = feature_stats(data.x, data.y, feature_cutoff(prior, m),
                              m)
        q = population_candidate(prior, stats, m)[2](0.01)
        s2 = prior.spectrum(np.arange(1, m + 1)) ** 2
        w = q.mu / s2
        xs = np.linspace(0.0, 2.0 * np.pi, 10_000)
        mean_fn = GaussianPosterior.from_features(
            xs[:3], lambda x: BASIS.features(x, m) * s2, w,
            np.ones(m)).mean_fn
        block_bytes = xs.size * m * 8
        tracemalloc.start()
        try:
            got = mean_fn(xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block_bytes / 2, (peak, block_bytes)
        ref = (BASIS.features(xs, m) * s2) @ w
        assert _rel(got, ref) <= 1e-12


def _smooth_data(n, seed, sigma_sq=0.25):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 2.0 * np.pi, size=n)
    spec = SignalSpec(coefficients=lambda js: np.asarray(js, float) ** -1.5,
                      j_max=2000)
    y = synth_signal(spec, x) + rng.normal(0.0, math.sqrt(sigma_sq), size=n)
    return Dataset(x=x, y=y, sigma_sq=sigma_sq)


class TestDimensionStats:
    def test_dim_sweep_evaluates_no_features(self, monkeypatch):
        calls = []
        features = EigenBasis.features

        def counted(self, x, J):
            calls.append(J)
            return features(self, x, J)

        monkeypatch.setattr(EigenBasis, "features", counted)
        data = _smooth_data(500, seed=21)
        config = ExperimentConfig(n=500, prior="dim", sigma_sq=0.25)
        grid = dim_grid(data.n)
        fitter, _ = _make_fitter(config, grid, data)
        select_discrete(grid, fitter)
        assert calls == []


def _per_candidate_fitter(config, grid, data):
    """The sweep as it was: one population_features block per candidate."""
    def fitter(lam):
        model = population_features(SeriesPrior(PolyDecay(lam)),
                                    grid.m_rule(lam))
        if config.estimate_noise:
            s2, bound, _ = _profile_noise(elbo_profile(model, data))
            return titsias_fit(model, data.with_sigma_sq(s2)), bound
        return titsias_fit(model, data), elbo_lambda(model, data)

    return fitter


class TestSweepSelection:
    @pytest.mark.parametrize("sigma_sq", [0.01, "estimate"])
    def test_same_choice_as_per_candidate_fitter(self, sigma_sq):
        data, _ = simulate_poly(1500, seed=13)
        config = ExperimentConfig(n=1500, prior="poly", sigma_sq=sigma_sq)
        grid = poly_grid(config.beta_minus, config.beta_plus, data.n)
        fitter, _ = _make_fitter(config, grid, data)
        new = select_discrete(grid, fitter)
        old = select_discrete(grid,
                              _per_candidate_fitter(config, grid, data))
        assert new.chosen == old.chosen
        for a, b in zip(new.records, old.records):
            assert a.m == b.m
            assert a.elbo_lambda == pytest.approx(b.elbo_lambda, rel=1e-8)
        assert _rel(new.posterior.mu, old.posterior.mu) <= 1e-6

    def test_dim_sweep_matches_fresh_design_per_level(self):
        data = _smooth_data(2000, seed=8)
        config = ExperimentConfig(n=2000, prior="dim", sigma_sq=0.25)
        grid = dim_grid(data.n)
        fitter, _ = _make_fitter(config, grid, data)

        def fresh(lam):
            stats = design_matrix(data, int(round(lam)))
            q = mf_fit(stats, data.sigma_sq)
            return q, mf_elbo(q, stats, data.sigma_sq)

        new = select_discrete(grid, fitter)
        old = select_discrete(grid, fresh)
        assert new.chosen == old.chosen
        for a, b in zip(new.records, old.records):
            assert a.elbo_lambda == pytest.approx(b.elbo_lambda, rel=RTOL)
        assert _rel(new.posterior.mu, old.posterior.mu) <= RTOL
