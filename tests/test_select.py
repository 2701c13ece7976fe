"""Grids, discrete selection, and continuous tuning.

The grid examples are recomputed longhand in the comments; statistical
fixtures carry the values frozen from seeded calibration runs.
"""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import gpadapt.select as select_module
from gpadapt.basis import BASIS, PolyDecay, SeriesPrior
from gpadapt.errors import ConditioningError
from gpadapt.exact import (
    Dataset,
    GaussianPosterior,
    SquaredExponential,
    exact_posterior,
    kernel_matrix,
    log_evidence,
)
from gpadapt.inducing import (
    VariationalGP,
    _EigenFactor,
    elbo_lambda,
    population_features,
    predict,
    sample_features,
    titsias_fit,
)
from gpadapt.select import (
    COARSE_TAUS,
    HyperGrid,
    coarse_init,
    dim_grid,
    exp_grid,
    poly_grid,
    select_discrete,
    tune_continuous,
)


class TestPolyGrid:
    def test_example_values(self):
        # step 1/log(100) = 0.217147...; three points fit below 1.0
        grid = poly_grid(0.5, 1.0, 100)
        np.testing.assert_allclose(grid.values, [0.5, 0.7171472, 0.9342945],
                                   atol=1e-4)
        np.testing.assert_allclose(grid.masses, [1 / 3] * 3)

    def test_m_rule_at_unit_smoothness(self):
        # ceil(10000^(1/3)) = 22; doubled constant gives ceil(43.089) = 44
        assert poly_grid(0.5, 1.5, 10_000).m_rule(1.0) == 22
        assert poly_grid(0.5, 1.5, 10_000, c_m=2.0).m_rule(1.0) == 44

    def test_values_stay_in_band(self):
        grid = poly_grid(0.3, 2.7, 517)
        assert grid.values[0] == 0.3
        assert np.all(grid.values <= 2.7 + 1e-15)

    def test_size_nondecreasing_in_n(self):
        sizes = [len(poly_grid(0.5, 1.5, n)) for n in (10, 100, 1000, 10_000)]
        assert sizes == sorted(sizes)

    def test_validation(self):
        with pytest.raises(ValueError):
            poly_grid(1.0, 0.5, 100)
        with pytest.raises(ValueError):
            poly_grid(0.0, 1.0, 100)
        with pytest.raises(ValueError):
            poly_grid(0.5, 1.0, 2)
        with pytest.raises(ValueError):
            poly_grid(0.5, 1.0, 100, c_m=0.0)


class TestExpGrid:
    def test_example_values(self):
        # floor(log(22027)/5) = 2 -> {e^-2, e^-1}; 22026 sits just below
        # 10.0 in log and keeps only one point
        grid = exp_grid(2.0, 22_027)
        np.testing.assert_allclose(grid.values, [np.exp(-2.0), np.exp(-1.0)])
        assert len(exp_grid(2.0, 22_026)) == 1

    def test_m_rule(self):
        # ceil(e^2 * log(1e4)^2) = 627
        assert exp_grid(0.5, 10_000).m_rule(np.exp(-2.0)) == 627

    def test_values_in_unit_interval(self):
        grid = exp_grid(0.5, 10_000)
        assert np.all(grid.values > 0)
        assert np.all(grid.values <= np.exp(-1.0) + 1e-15)

    def test_too_small_n_raises(self):
        with pytest.raises(ValueError):
            exp_grid(2.0, 100)  # floor(log(100)/5) = 0

    def test_validation(self):
        with pytest.raises(ValueError):
            exp_grid(0.0, 10_000)


class TestDimGrid:
    def test_full_grid(self):
        grid = dim_grid(100)
        np.testing.assert_array_equal(grid.values, np.arange(1, 11))
        np.testing.assert_allclose(grid.masses, np.full(10, 0.1))
        assert grid.m_rule(7.0) == 7

    def test_tiny_n(self):
        assert list(dim_grid(1).values) == [1.0]
        with pytest.raises(ValueError):
            dim_grid(0)


class TestHyperGridValidation:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            HyperGrid([1.0, 0.5], [0.5, 0.5], lambda lam: 1)

    def test_rejects_bad_masses(self):
        with pytest.raises(ValueError):
            HyperGrid([0.5, 1.0], [0.6, 0.6], lambda lam: 1)
        with pytest.raises(ValueError):
            HyperGrid([0.5, 1.0], [1.2, -0.2], lambda lam: 1)

    def test_rejects_zero_feature_rule(self):
        with pytest.raises(ValueError):
            HyperGrid([0.5, 1.0], [0.5, 0.5], lambda lam: 0)


def _stub_grid(values, masses):
    return HyperGrid(values, masses, lambda lam: 5)


def _stub_fitter(table):
    return lambda lam: (("fit", lam), table[lam])


class TestSelectDiscrete:
    def test_uniform_masses_pick_larger_bound(self):
        grid = _stub_grid([1.0, 2.0], [0.5, 0.5])
        report = select_discrete(grid, _stub_fitter({1.0: 5.0, 2.0: 7.0}))
        assert report.chosen == 2.0
        assert report.posterior == ("fit", 2.0)

    def test_mass_weighting_flips_choice(self):
        # 5 + log(0.9) = 4.894639 beats 7 + log(0.1) = 4.697415
        grid = _stub_grid([1.0, 2.0], [0.9, 0.1])
        report = select_discrete(grid, _stub_fitter({1.0: 5.0, 2.0: 7.0}))
        assert report.chosen == 1.0
        assert report.record_for(1.0).elbo == pytest.approx(4.894639484342174)
        assert report.record_for(2.0).elbo == pytest.approx(4.697414907005955)

    def test_shift_identity_rows_exact(self):
        rng = np.random.default_rng(0)
        values = np.sort(rng.uniform(0.2, 3.0, 6))
        masses = rng.dirichlet(np.ones(6))
        masses = masses / masses.sum()
        table = dict(zip(values, rng.normal(0, 10, 6)))
        report = select_discrete(_stub_grid(values, masses),
                                 _stub_fitter(table))
        for rec in report.records:
            assert rec.elbo == rec.elbo_lambda + rec.log_mass

    def test_skipped_values_leave_no_record(self):
        # a fitter's None skips its value: no record, never chosen
        grid = _stub_grid([1.0, 2.0, 3.0], [0.2, 0.5, 0.3])
        table = {1.0: 9.0, 2.0: None, 3.0: 4.0}
        report = select_discrete(
            grid, lambda lam: None if table[lam] is None
            else (("fit", lam), table[lam]))
        assert [rec.lam for rec in report.records] == [1.0, 3.0]
        assert report.chosen == 1.0
        with pytest.raises(ConditioningError):
            select_discrete(grid, lambda lam: None)

    def test_tie_goes_to_smaller(self):
        grid = _stub_grid([1.0, 2.0, 3.0], [1 / 3] * 3)
        report = select_discrete(grid,
                                 _stub_fitter({1.0: 4.0, 2.0: 9.0, 3.0: 9.0}))
        assert report.chosen == 2.0

    def test_failed_value_excluded_and_recorded(self):
        def fitter(lam):
            if lam == 1.0:
                raise ConditioningError("boom")
            return ("fit", lam), 3.0

        grid = _stub_grid([1.0, 2.0], [0.5, 0.5])
        report = select_discrete(grid, fitter)
        assert report.chosen == 2.0
        rec = report.record_for(1.0)
        assert rec.error is not None and "boom" in rec.error
        assert rec.elbo is None

    def test_all_failures_raise(self):
        def fitter(lam):
            raise ConditioningError("nope")

        with pytest.raises(ConditioningError):
            select_discrete(_stub_grid([1.0, 2.0], [0.5, 0.5]), fitter)

    def test_uniform_equivalence_on_random_grids(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            k = int(rng.integers(2, 9))
            values = np.sort(rng.uniform(0.1, 5.0, k))
            while np.any(np.diff(values) <= 0):
                values = np.sort(rng.uniform(0.1, 5.0, k))
            bounds = rng.normal(0, 50, k)
            table = dict(zip(values, bounds))
            report = select_discrete(
                _stub_grid(values, np.full(k, 1.0 / k)),
                _stub_fitter(table))
            assert report.chosen == values[int(np.argmax(bounds))]

    def test_real_selection_records_model_size(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 2 * np.pi, 80)
        y = np.sin(x) + rng.normal(0, 0.3, 80)
        data = Dataset(x=x, y=y, sigma_sq=0.09)
        grid = poly_grid(0.6, 1.4, 80)

        def fitter(alpha):
            model = population_features(SeriesPrior(PolyDecay(alpha=alpha)),
                                        grid.m_rule(alpha))
            return titsias_fit(model, data), elbo_lambda(model, data)

        report = select_discrete(grid, fitter)
        assert isinstance(report.posterior, VariationalGP)
        assert report.chosen in grid.values
        for rec in report.records:
            assert rec.error is None
            assert rec.m == grid.m_rule(rec.lam)
            assert rec.wall_time >= 0.0

    def test_record_for_missing_key(self):
        report = select_discrete(_stub_grid([1.0], [1.0]),
                                 _stub_fitter({1.0: 2.0}))
        with pytest.raises(KeyError):
            report.record_for(9.9)


class TestSelectorConsistency:
    def test_smoothness_recovered_near_one(self):
        # calibration: 9/10 seeds chose 0.9843, one chose 1.1291
        chosen = []
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            n = 1000
            x = rng.uniform(0.0, 2 * np.pi, n)
            js = np.arange(1, 2001)
            y = BASIS.features(x, 2000) @ js**-1.5 + rng.normal(0, 0.1, n)
            data = Dataset(x=x, y=y, sigma_sq=0.01)
            grid = poly_grid(0.55, 2.05, n)

            def fitter(alpha):
                model = population_features(
                    SeriesPrior(PolyDecay(alpha=alpha)), grid.m_rule(alpha))
                return None, elbo_lambda(model, data)

            chosen.append(select_discrete(grid, fitter).chosen)
        assert abs(np.median(chosen) - 1.0) <= 0.3


def _se_dataset(seed, n=1000, sigma=1.0, nu=2.0, tau=0.5, span=20.0):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, span, size=n))
    K = nu * np.exp(-((x[:, None] - x[None, :]) / tau) ** 2)
    L = np.linalg.cholesky(K + 1e-10 * np.eye(n))
    y = L @ rng.normal(size=n) + sigma * rng.normal(size=n)
    return Dataset(x=x, y=y, sigma_sq=sigma**2)


TUNE_BOUNDS = [(0.05, 20.0), (0.05, 200.0), (0.02, 10.0)]


class TestTuneContinuous:
    def test_validation(self):
        data = _se_dataset(0, n=40)
        with pytest.raises(ValueError):
            tune_continuous(data, 10, 1, TUNE_BOUNDS, objective="x")
        with pytest.raises(ValueError):  # init is a length-scale alone
            tune_continuous(data, 10, (1, 1, 1), TUNE_BOUNDS)
        with pytest.raises(ValueError):
            tune_continuous(data, 10, 1, [(1, 1)] * 3)
        with pytest.raises(ValueError):  # init off a pinned tau
            tune_continuous(data, 10, 1, TUNE_BOUNDS[:2] + [(2, 2)])
        with pytest.raises(ValueError):
            tune_continuous(data, 10, -1, TUNE_BOUNDS)
        with pytest.raises(ValueError):
            tune_continuous(data, 10, 1,
                            [(0.1, 10), (0.1, np.inf), (0.1, 10)])
        with pytest.raises(ValueError):  # init on tau's bound
            tune_continuous(data, 10, 0.02, TUNE_BOUNDS)
        with pytest.raises(ValueError):
            tune_continuous(data, 10, np.nan, TUNE_BOUNDS)

    def test_sigma_only_recovers_noise_level(self):
        # calibration medians 0.00981 (all ten in [0.0086, 0.0112])
        s_hats = []
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            x = np.sort(rng.uniform(0.0, 20.0, size=400))
            y = rng.normal(0.0, 0.1, size=400)
            data = Dataset(x=x, y=y, sigma_sq=0.01)
            rep = tune_continuous(
                data, m=30, init=10.0,
                bounds=[(0.01, 10.0), (2.0, 2.0), (10.0, 10.0)],
                maxiter=60)
            s_hats.append(rep.chosen[0] ** 2)
        assert 0.008 <= np.median(s_hats) <= 0.012

    def test_boundary_pin_warns(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0.0, 10.0, size=60))
        data = Dataset(x=x, y=rng.normal(0, 0.1, 60), sigma_sq=0.01)
        with pytest.warns(RuntimeWarning, match="pinned"):
            rep = tune_continuous(
                data, m=10, init=5.0,
                bounds=[(3.0, 5.0), (2.0, 2.0), (5.0, 5.0)], maxiter=80)
        assert rep.chosen[0] == pytest.approx(3.0, rel=1e-3)

    def test_pin_warning_names_the_caller(self):
        # the warning points past the tuner's own frames, at this file
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0.0, 10.0, size=60))
        data = Dataset(x=x, y=rng.normal(0, 0.1, 60), sigma_sq=0.01)
        with pytest.warns(RuntimeWarning, match="pinned") as caught:
            tune_continuous(data, m=10, init=5.0,
                            bounds=[(3.0, 5.0), (2.0, 2.0), (5.0, 5.0)],
                            maxiter=80)
        assert [w.filename for w in caught
                if "pinned" in str(w.message)] == [__file__]

    def test_full_rank_objectives_agree(self):
        # m = n makes the collapsed bound equal the evidence, so both
        # objectives walk the same surface from the same start
        data = _se_dataset(11, n=80, span=8.0)
        kwargs = dict(init=0.6, bounds=TUNE_BOUNDS, maxiter=60)
        rep_elbo = tune_continuous(data, m=80, objective="elbo", **kwargs)
        rep_ev = tune_continuous(data, m=80, objective="evidence", **kwargs)
        np.testing.assert_allclose(rep_elbo.chosen, rep_ev.chosen, rtol=1e-6)

    def test_report_shape(self):
        data = _se_dataset(12, n=60, span=6.0)
        rep = tune_continuous(data, m=20, init=0.7,
                              bounds=TUNE_BOUNDS, maxiter=30)
        assert len(rep.records) == 1
        assert rep.records[0].m == 20
        assert {"iterations", "evaluations", "failures", "converged"} <= set(
            rep.diagnostics)
        post = rep.posterior(np.linspace(0, 6, 11))
        assert isinstance(post, GaussianPosterior)
        assert post.mean.shape == (11,)
        ev = tune_continuous(data, m=20, init=0.7,
                             bounds=TUNE_BOUNDS, maxiter=30,
                             objective="evidence")
        # the evidence reports from the factor at m = n: its kept eigenpairs
        kept = select_module._factor(data, data.n, ev.chosen[2]).lam.size
        assert ev.records[0].m == kept
        assert ev.posterior(np.linspace(0, 6, 7)).mean.shape == (7,)

    def test_coarse_init_interior(self):
        data = _se_dataset(13, n=60, span=6.0)
        lo, hi = TUNE_BOUNDS[2]
        assert lo < coarse_init(data, m=15, bounds=TUNE_BOUNDS) < hi

    @pytest.mark.slow
    def test_truth_recovery_median(self):
        # span-16 calibration: medians (1.0138, 2.0065, 0.5046), i.e.
        # per-coordinate errors of the median (1.4%, 0.3%, 0.9%); single
        # seeds scatter far wider on nu, which is why the contract is on
        # the median
        ests = []
        for seed in range(10):
            data = _se_dataset(seed, span=16.0)
            init = coarse_init(data, m=50, bounds=TUNE_BOUNDS)
            rep = tune_continuous(data, m=50, init=init, bounds=TUNE_BOUNDS,
                                  maxiter=200)
            ests.append(rep.chosen)
        med = np.median(np.asarray(ests), axis=0)
        np.testing.assert_allclose(med, [1.0, 2.0, 0.5], rtol=0.15)


class TestEvidenceFromTheFactor:
    """The evidence tune reports from the factor it searched; the exact
    n x n route stays the reference it is checked against."""

    @staticmethod
    def _rel(got, ref):
        return np.linalg.norm(got - ref) / np.linalg.norm(ref)

    @pytest.mark.parametrize("seed, n, span", [(11, 80, 8.0), (12, 60, 6.0),
                                               (31, 120, 12.0)])
    def test_report_matches_the_exact_route(self, seed, n, span):
        data = _se_dataset(seed, n=n, span=span)
        rep = tune_continuous(data, m=10, init=0.7, bounds=TUNE_BOUNDS,
                              objective="evidence", maxiter=60)
        sigma, nu, tau = rep.chosen
        kern = SquaredExponential(nu, tau)
        shifted = data.with_sigma_sq(sigma * sigma)
        assert rep.records[0].elbo == pytest.approx(
            log_evidence(kern, shifted), rel=1e-10)
        query = np.linspace(data.x.min(), data.x.max(), 101)
        got, ref = rep.posterior(query), exact_posterior(kern, shifted, query)
        assert self._rel(got.mean, ref.mean) <= 1e-8
        assert self._rel(got.var, ref.var) <= 1e-8

    @pytest.mark.parametrize("objective", ["elbo", "evidence"])
    def test_no_exact_route_is_taken(self, monkeypatch, objective):
        from gpadapt import _linalg
        import gpadapt.exact as exact_module

        def refuse(name):
            def called(*args, **kwargs):
                raise AssertionError(f"{name} called")
            return called

        monkeypatch.setattr(exact_module, "exact_posterior",
                            refuse("exact_posterior"))
        monkeypatch.setattr(exact_module, "log_evidence",
                            refuse("log_evidence"))
        monkeypatch.setattr(_linalg, "chol_solve", refuse("chol_solve"))
        data = _se_dataset(12, n=60, span=6.0)
        rep = tune_continuous(data, m=20, init=None, bounds=TUNE_BOUNDS,
                              objective=objective, maxiter=30)
        post = rep.posterior(np.linspace(0.0, 6.0, 11))
        assert np.all(np.isfinite(post.mean)) and np.all(np.isfinite(post.var))


class TestFeatureCountAtTheBoundary:
    """m is checked against n before any factorization, for both
    objectives and for the coarse scan."""

    @pytest.fixture
    def factorizations(self, monkeypatch):
        calls = _count_factorizations(monkeypatch)
        real = select_module.pivoted_cholesky

        def counted(*args):
            calls.append("pivoted_cholesky")
            return real(*args)

        monkeypatch.setattr(select_module, "pivoted_cholesky", counted)
        return calls

    @pytest.mark.parametrize("objective", ["elbo", "evidence"])
    @pytest.mark.parametrize("m", [0, -3, 81, 100, 2.5, 20.0, True])
    def test_bad_m_fails_before_factorizing(self, factorizations, objective,
                                            m):
        data = _se_dataset(0, n=80, span=8.0)
        message = re.escape(f"1..n = 80, got m = {m!r}")
        with pytest.raises(ValueError, match=message):
            tune_continuous(data, m, None, TUNE_BOUNDS, objective)
        with pytest.raises(ValueError, match=message):
            tune_continuous(data, m, 0.7, TUNE_BOUNDS, objective)
        with pytest.raises(ValueError, match=message):
            coarse_init(data, m, TUNE_BOUNDS, objective)
        # a pinned tau needs no factorization, but m is still checked
        with pytest.raises(ValueError, match=message):
            coarse_init(data, m, TUNE_BOUNDS[:2] + [(0.7, 0.7)], objective)
        assert factorizations == []

    def test_every_m_in_range_is_accepted(self, factorizations):
        data = _se_dataset(0, n=40, span=4.0)
        for m in (1, np.int64(7), 40):
            rep = tune_continuous(data, m, 0.7, TUNE_BOUNDS, maxiter=3)
            assert rep.records[0].m <= m
        assert factorizations


def _standard_bound(data, m, sigma, nu, tau):
    """Collapsed bound through a fresh kernel matrix and eigendecomposition."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = sample_features(
            kernel_matrix(SquaredExponential(nu, tau), data.x), m, data.x)
    return elbo_lambda(model, data.with_sigma_sq(sigma * sigma))


def _dropping_dataset():
    rng = np.random.default_rng(105)
    x = np.sort(rng.uniform(0.0, 20.0, size=200))
    return Dataset(x=x, y=rng.normal(0.0, 0.1, size=200), sigma_sq=0.01)


def _random_triples(seed, count):
    rng = np.random.default_rng(seed)
    lo, hi = np.log([0.4, 0.3, 0.15]), np.log([2.5, 5.0, 2.0])
    return [tuple(np.exp(rng.uniform(lo, hi))) for _ in range(count)]


class TestPerTauFactor:
    """One kernel factorization per tau scores every (sigma, nu) exactly."""

    def test_bound_equals_fresh_factorization(self):
        data = _se_dataset(21, n=90, span=9.0)
        for sigma, nu, tau in _random_triples(1, 5):
            fac = select_module._factor(data, 25, tau)
            assert fac.bound(sigma, nu) == pytest.approx(
                _standard_bound(data, 25, sigma, nu, tau), rel=1e-10)

    def test_full_rank_bound_equals_log_evidence(self):
        data = _se_dataset(22, n=70, span=7.0)
        for sigma, nu, tau in _random_triples(2, 5):
            fac = select_module._factor(data, data.n, tau)
            evidence = log_evidence(SquaredExponential(nu, tau),
                                    data.with_sigma_sq(sigma * sigma))
            assert fac.bound(sigma, nu) == pytest.approx(evidence,
                                                         rel=1e-8)

    @pytest.mark.parametrize("tau", [0.4, 3.0])
    def test_bound_equals_whole_kernel_route(self, monkeypatch, tau):
        # tau = 0.4 needs a rank near n, tau = 3.0 a low one; both are
        # one pivoted factor, scored as the n x n eigendecomposition
        data = _se_dataset(21, n=90, span=9.0)
        calls = _count_factorizations(monkeypatch)
        fac = select_module._factor(data, 25, tau)
        assert calls == [(data.n, fac.rank)]
        for sigma, nu, _ in _random_triples(4, 3):
            assert fac.bound(sigma, nu) == pytest.approx(
                _standard_bound(data, 25, sigma, nu, tau), rel=1e-10)

    def test_memory_grows_with_the_rank(self):
        # a long design at a low rank: the factor's rows, not n x n
        n = 100_000
        x = np.linspace(0.0, 2.0 * np.pi, n)
        data = Dataset(x=x, y=np.sin(x), sigma_sq=1.0)
        tracemalloc.start()
        try:
            fac = select_module._factor(data, 10, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fac.rank < 40
        assert peak <= 4 * fac.rank * n * 8

    def test_coarse_init_matches_brute_force_lattice(self):
        # the lattice tau whose factor, profiled over (sigma, nu), is best
        data = _se_dataset(13, n=60, span=6.0)
        lo, hi = TUNE_BOUNDS[2]
        taus = np.exp(np.linspace(np.log(lo), np.log(hi), 5))[1:-1]
        log_lo, log_hi = np.log(np.array(TUNE_BOUNDS[:2])).T
        best = max((float(t) for t in taus),
                   key=lambda t: select_module._solve_sigma_nu(
                       select_module._factor(data, 15, t), log_lo,
                       log_hi)[0])
        assert coarse_init(data, m=15, bounds=TUNE_BOUNDS) == best
        assert coarse_init(data, m=15,
                           bounds=TUNE_BOUNDS[:2] + [(0.7, 0.7)]) == 0.7


def _count_factorizations(monkeypatch) -> list[tuple[int, int]]:
    """Record the shape of every factor made."""
    calls = []
    real = _EigenFactor.from_factor

    def counted(cls, L, *args, **kwargs):
        calls.append(L.shape)
        return real(L, *args, **kwargs)

    monkeypatch.setattr(_EigenFactor, "from_factor", classmethod(counted))
    return calls


class TestTunerFactorizations:
    """The tuner's cost is counted in kernel factorizations, one per tau."""

    @pytest.fixture
    def factorizations(self, monkeypatch):
        return _count_factorizations(monkeypatch)

    def test_pinned_tau_factorizes_once(self, factorizations):
        data = _se_dataset(12, n=60, span=6.0)
        rep = tune_continuous(data, m=20, init=0.7,
                              bounds=TUNE_BOUNDS[:2] + [(0.7, 0.7)])
        assert len(factorizations) == 1
        assert rep.diagnostics["evaluations"] == 1
        assert rep.chosen[2] == 0.7

    def test_scan_of_a_pinned_tau_factorizes_once(self, factorizations):
        # with no start given, the scan of a pinned tau is that tau alone
        data = _se_dataset(12, n=60, span=6.0)
        rep = tune_continuous(data, m=20, init=None,
                              bounds=TUNE_BOUNDS[:2] + [(0.7, 0.7)])
        assert len(factorizations) == 1
        assert rep.diagnostics["evaluations"] == 1
        assert rep.chosen[2] == 0.7

    @pytest.mark.parametrize("maxiter", [3, 8, 200])
    def test_free_tau_factorizes_at_most_maxiter_plus_two(
            self, factorizations, maxiter):
        data = _se_dataset(12, n=60, span=6.0)
        rep = tune_continuous(data, m=20, init=0.7,
                              bounds=TUNE_BOUNDS, maxiter=maxiter)
        assert 1 < len(factorizations) <= maxiter + 2
        assert rep.diagnostics["evaluations"] == len(factorizations)
        assert rep.diagnostics["iterations"] <= maxiter
        assert all(r <= n == data.n for n, r in factorizations)

    def test_scan_taus_are_the_first_probes(self, factorizations):
        # each lattice tau is factorized once, as a probe of the search,
        # which then runs from the best of them: coarse_init's tau
        data = _se_dataset(12, n=60, span=6.0)
        taus = select_module._coarse_taus(*TUNE_BOUNDS[2])
        assert len(taus) == COARSE_TAUS
        rep = tune_continuous(data, m=20, init=None, bounds=TUNE_BOUNDS)
        assert len(factorizations) == rep.diagnostics["evaluations"]
        init = coarse_init(data, m=20, bounds=TUNE_BOUNDS)
        assert init in taus
        factorizations.clear()
        ref = tune_continuous(data, m=20, init=init, bounds=TUNE_BOUNDS)
        assert len(factorizations) == ref.diagnostics["evaluations"]
        assert (rep.diagnostics["evaluations"]
                == ref.diagnostics["evaluations"] + COARSE_TAUS - 1)
        assert rep.chosen == ref.chosen
        assert rep.records[0].elbo == ref.records[0].elbo

    def test_no_worse_than_start(self):
        data = _se_dataset(14, n=80, span=8.0)
        rep = tune_continuous(data, m=20, init=1.3, bounds=TUNE_BOUNDS,
                              maxiter=6)
        bound = rep.records[0].elbo_lambda
        assert bound >= _standard_bound(data, 20, 1.6, 0.7, 1.3)
        # the reported bound is the chosen tau's factorization at the
        # chosen (sigma, nu), which the standard path matches to roundoff
        sigma, nu, tau = rep.chosen
        assert bound == select_module._factor(data, 20, tau).bound(sigma, nu)
        assert bound == pytest.approx(_standard_bound(data, 20, *rep.chosen),
                                      rel=1e-10)

    def test_one_eigendecomposition_per_factorization(self, monkeypatch):
        # the fit at the chosen tau reads that tau's factorization: no
        # second n x n solve and no m x m whitened solve
        # (_linalg.eigh_psd), which would also reach np.linalg.eigh
        import scipy.linalg

        from gpadapt import _linalg

        calls = {"eigh": 0, "eigh_psd": 0}

        def spy(module, name, key):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        spy(np.linalg, "eigh", "eigh")
        spy(scipy.linalg, "eigh", "eigh")
        spy(_linalg, "eigh_psd", "eigh_psd")
        data = _se_dataset(12, n=60, span=6.0)
        rep = tune_continuous(data, m=20, init=0.7,
                              bounds=TUNE_BOUNDS, objective="elbo")
        assert rep.diagnostics["evaluations"] > 1
        assert calls == {"eigh": rep.diagnostics["evaluations"],
                         "eigh_psd": 0}

    def test_eigenvectors_formed_once_per_tune(self, monkeypatch,
                                               factorizations):
        # every probe's factor keeps its L, so the chosen tau's V needs no
        # second Cholesky: exactly one per factorization
        data = _se_dataset(12, n=300, span=30.0)
        choleskies = []
        real = select_module.pivoted_cholesky

        def counted(*args):
            choleskies.append(args)
            return real(*args)

        monkeypatch.setattr(select_module, "pivoted_cholesky", counted)
        rep = tune_continuous(data, m=150, init=0.7,
                              bounds=TUNE_BOUNDS)
        assert rep.diagnostics["factor_rank"] < data.n
        assert all(r < n == data.n for n, r in factorizations)
        assert len(choleskies) == len(factorizations)

    def test_diagnostics_record_pins_and_drops(self):
        # tau = 10 on a span of 20 leaves fewer than 30 positive
        # eigenvalues, and the noise bound sits above the true 0.1
        data = _dropping_dataset()
        with pytest.warns(RuntimeWarning, match="pinned at bounds: sigma"):
            rep = tune_continuous(
                data, m=30, init=10.0,
                bounds=[(0.3, 10.0), (2.0, 2.0), (10.0, 10.0)])
        # the factor's rank, 13, falls 17 short of m; the drop rule then
        # keeps every eigenvalue the factor offers
        assert rep.diagnostics["pinned"] == ["sigma"]
        assert rep.diagnostics["factor_rank"] == rep.records[0].m == 13
        assert rep.diagnostics["dropped_eigenvalues"] == 0


class TestFactorFit:
    """The factor's q(u) predicts as the standard sample-feature path.

    Predictions, not mu, are compared: eigenvector signs may differ.
    """

    @pytest.mark.parametrize("case", ["drops", "keeps"])
    def test_predictions_match_titsias_fit(self, case):
        # tau = 10 on a span of 20 leaves 13 of 30 eigenvalues: the n x n
        # route drops 17, the factor's rank falls 17 short
        data, m, nu, tau, s2 = {
            "drops": (_dropping_dataset(), 30, 2.0, 10.0, 0.25),
            "keeps": (_se_dataset(21, n=90, span=9.0), 25, 1.5, 0.7, 0.64),
        }[case]
        fac = select_module._factor(data, m, tau)
        kern = SquaredExponential(nu, tau)
        q = fac.fit(s2, nu, kern, data.x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = sample_features(
                nu * kernel_matrix(SquaredExponential(1.0, tau), data.x), m,
                kernel=kern, x=data.x)
        ref = titsias_fit(model, data.with_sigma_sq(s2))
        assert q.model.m == model.m == min(m, fac.rank) - fac.dropped
        assert fac.dropped == 0
        assert m - model.m == {"drops": 17, "keeps": 0}[case]
        assert (fac.rank < m) == (case == "drops")
        query = np.linspace(data.x.min() - 1.0, data.x.max() + 1.0, 101)
        got, want = predict(q, query), predict(ref, query)
        for a, b in ((got.mean, want.mean), (got.var, want.var)):
            np.testing.assert_allclose(a, b, rtol=1e-10,
                                       atol=1e-10 * np.max(np.abs(b)))


def _lbfgsb_sigma_nu(fac, start, free, lo, hi):
    """The (sigma, nu) solve as L-BFGS-B with the analytic gradient in
    (log sigma, log nu): the reference for the profiled search."""
    from scipy.optimize import minimize

    z = start.copy()

    def negative(z_free):
        z[free] = z_free
        sigma, nu = np.exp(z)
        s, g = sigma * sigma, nu * fac.lam
        d = s + g
        qd = fac.p * fac.p / d / d
        resid = (fac.rest + nu * fac.gap) / s
        m = fac.lam.size
        grad = np.array([
            -(s * np.sum(1.0 / d) + (fac.n - m) - s * np.sum(qd) - resid),
            -0.5 * (np.sum(g / d) - g @ qd + nu * fac.gap / s)])
        return -fac.bound(sigma, nu), -grad[free]

    result = minimize(negative, start[free], jac=True, method="L-BFGS-B",
                      bounds=list(zip(lo[free], hi[free])),
                      options={"ftol": 1e-15, "gtol": 1e-9, "maxiter": 500})
    z[free] = result.x
    return -float(result.fun), z


def _pinned(z, free, lo, hi):
    return [name for name, hit in zip(("sigma", "nu"), free & (
        (z - lo < 1e-6) | (hi - z < 1e-6))) if hit]


class TestSigmaNuSolve:
    """The profiled (sigma, nu) search reaches at least what L-BFGS-B does."""

    def test_ratio_bound_equals_the_bound_at_its_point(self):
        lo, hi = np.log(np.array([(0.05, 20.0), (0.05, 200.0)])).T
        for seed, tau in ((31, 0.4), (32, 0.7), (33, 1.3)):
            data = _se_dataset(seed, n=120, span=12.0)
            fac = select_module._factor(data, 40, tau)
            at = select_module._ratio_bound(fac, lo, hi)
            # log ratios across the box, clamps on both sides included
            for t in np.linspace(lo[1] - 2.0 * hi[0], hi[1] - 2.0 * lo[0],
                                 41):
                value, z = at(t)
                assert np.all((lo <= z + 1e-12) & (z <= hi + 1e-12))
                assert z[1] - 2.0 * z[0] == pytest.approx(t, abs=1e-12)
                assert value == pytest.approx(fac.bound(*np.exp(z)),
                                              rel=1e-12)

    @pytest.mark.parametrize("free", [(True, True), (True, False),
                                      (False, True)])
    @pytest.mark.parametrize("bounds", [
        [(0.05, 20.0), (0.05, 200.0)],
        [(0.05, 0.5), (0.05, 200.0)],   # sigma on its upper bound
        [(0.05, 20.0), (0.05, 0.5)],    # nu on its upper bound
        [(1.5, 20.0), (5.0, 200.0)],    # both on their lower bounds
    ], ids=["interior", "sigma-hi", "nu-hi", "both-lo"])
    def test_matches_lbfgsb(self, free, bounds):
        free = np.array(free)
        lo, hi = np.log(np.array(bounds)).T
        start = 0.5 * (lo + hi)
        # a coordinate that is not free is pinned at start by equal bounds
        lo, hi = np.where(free, lo, start), np.where(free, hi, start)
        for seed, tau in ((31, 0.4), (32, 0.7), (33, 1.3)):
            data = _se_dataset(seed, n=120, span=12.0)
            fac = select_module._factor(data, 40, tau)
            value, z = select_module._solve_sigma_nu(fac, lo, hi)
            ref, z_ref = _lbfgsb_sigma_nu(fac, start, free, lo, hi)
            assert value == pytest.approx(fac.bound(*np.exp(z)), abs=1e-12)
            assert value >= ref - 1e-9
            assert np.all(z[~free] == start[~free])
            assert _pinned(z, free, lo, hi) == _pinned(z_ref, free, lo, hi)


class TestLengthScaleSearch:
    """Brent from the walk's probes, stopped by its own short step."""

    def test_meets_a_tight_search_in_fewer_factorizations(self,
                                                          monkeypatch):
        from gpadapt._linalg import brent_bounded
        from gpadapt.experiments import _continuous_bounds

        calls = _count_factorizations(monkeypatch)

        def closing(func, lo, hi, points, xatol, maxiter):
            # the bracket-closing search: Brent from a golden-section point
            x, f, nfev, converged = brent_bounded(func, lo, hi, xatol,
                                                  maxiter)
            return x, f, nfev, "bracket" if converged else "maxiter"

        def tune(data, bounds):
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                rep = tune_continuous(data, 150, None, bounds, "elbo", 200)
            return rep, len(calls)

        for seed in range(1, 11):
            data = _se_dataset(seed, n=300, span=30.0)
            bounds = _continuous_bounds(data)
            rep, count = tune(data, bounds)
            with monkeypatch.context() as patch:
                patch.setattr(select_module, "LOG_TAU_XATOL", 1e-11)
                tight, _ = tune(data, bounds)
            with monkeypatch.context() as patch:
                patch.setattr(select_module, "brent_from_points", closing)
                _, closing_count = tune(data, bounds)
            assert rep.diagnostics["tau_stop"] in ("step", "bracket")
            assert abs(math.log(rep.chosen[2] / tight.chosen[2])) \
                <= select_module.LOG_TAU_XATOL
            assert count <= closing_count
