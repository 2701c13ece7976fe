"""Grids, discrete selection, and continuous tuning.

The grid examples are recomputed longhand in the comments; statistical
fixtures carry the values frozen from seeded calibration runs.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

import gpadapt.select as select_module
from gpadapt.basis import EigenBasis, PolyDecay, SeriesPrior
from gpadapt.errors import ConditioningError
from gpadapt.exact import (
    Dataset,
    GaussianPosterior,
    SquaredExponential,
    kernel_matrix,
    log_evidence,
)
from gpadapt.inducing import (
    VariationalGP,
    elbo_lambda,
    population_features,
    sample_features,
    titsias_fit,
)
from gpadapt.select import (
    HyperGrid,
    coarse_init,
    dim_grid,
    exp_grid,
    poly_grid,
    select_discrete,
    tune_continuous,
)

BASIS = EigenBasis()


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
        grid = exp_grid(2.0, 1, 22_027)
        np.testing.assert_allclose(grid.values, [np.exp(-2.0), np.exp(-1.0)])
        assert len(exp_grid(2.0, 1, 22_026)) == 1

    def test_m_rule(self):
        # ceil(e^2 * log(1e4)^2) = 627
        assert exp_grid(0.5, 1, 10_000).m_rule(np.exp(-2.0)) == 627

    def test_values_in_unit_interval(self):
        grid = exp_grid(0.5, 1, 10_000)
        assert np.all(grid.values > 0)
        assert np.all(grid.values <= np.exp(-1.0) + 1e-15)

    def test_too_small_n_raises(self):
        with pytest.raises(ValueError):
            exp_grid(2.0, 1, 100)  # floor(log(100)/5) = 0

    def test_validation(self):
        with pytest.raises(ValueError):
            exp_grid(0.0, 1, 10_000)
        with pytest.raises(ValueError):
            exp_grid(1.0, 0, 10_000)


class TestDimGrid:
    def test_full_grid(self):
        grid = dim_grid(100)
        np.testing.assert_array_equal(grid.values, np.arange(1, 11))
        np.testing.assert_allclose(grid.masses, np.full(10, 0.1))
        assert grid.m_rule(7.0) == 7

    def test_powers_of_two(self):
        np.testing.assert_array_equal(dim_grid(100, powers_of_two=True).values,
                                      [1, 2, 4, 8])

    def test_tiny_n(self):
        assert list(dim_grid(1).values) == [1.0]
        with pytest.raises(ValueError):
            dim_grid(0)


class TestHyperGridValidation:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            HyperGrid("poly", [1.0, 0.5], [0.5, 0.5], lambda lam: 1)

    def test_rejects_bad_masses(self):
        with pytest.raises(ValueError):
            HyperGrid("poly", [0.5, 1.0], [0.6, 0.6], lambda lam: 1)
        with pytest.raises(ValueError):
            HyperGrid("poly", [0.5, 1.0], [1.2, -0.2], lambda lam: 1)

    def test_rejects_zero_feature_rule(self):
        with pytest.raises(ValueError):
            HyperGrid("poly", [0.5, 1.0], [0.5, 0.5], lambda lam: 0)


def _stub_grid(values, masses):
    return HyperGrid("poly", values, masses, lambda lam: 5)


def _stub_fitter(table):
    return lambda lam: (("fit", lam), table[lam])


class TestSelectDiscrete:
    def test_uniform_masses_pick_larger_bound(self):
        grid = _stub_grid([1.0, 2.0], [0.5, 0.5])
        report = select_discrete(grid, None, _stub_fitter({1.0: 5.0, 2.0: 7.0}))
        assert report.chosen == 2.0
        assert report.posterior == ("fit", 2.0)

    def test_mass_weighting_flips_choice(self):
        # 5 + log(0.9) = 4.894639 beats 7 + log(0.1) = 4.697415
        grid = _stub_grid([1.0, 2.0], [0.9, 0.1])
        report = select_discrete(grid, None, _stub_fitter({1.0: 5.0, 2.0: 7.0}))
        assert report.chosen == 1.0
        assert report.record_for(1.0).elbo == pytest.approx(4.894639484342174)
        assert report.record_for(2.0).elbo == pytest.approx(4.697414907005955)

    def test_shift_identity_rows_exact(self):
        rng = np.random.default_rng(0)
        values = np.sort(rng.uniform(0.2, 3.0, 6))
        masses = rng.dirichlet(np.ones(6))
        masses = masses / masses.sum()
        table = dict(zip(values, rng.normal(0, 10, 6)))
        report = select_discrete(_stub_grid(values, masses), None,
                                 _stub_fitter(table))
        for rec in report.records:
            assert rec.elbo == rec.elbo_lambda + rec.log_mass

    def test_tie_goes_to_smaller(self):
        grid = _stub_grid([1.0, 2.0, 3.0], [1 / 3] * 3)
        report = select_discrete(grid, None,
                                 _stub_fitter({1.0: 4.0, 2.0: 9.0, 3.0: 9.0}))
        assert report.chosen == 2.0

    def test_failed_value_excluded_and_recorded(self):
        def fitter(lam):
            if lam == 1.0:
                raise ConditioningError("boom")
            return ("fit", lam), 3.0

        grid = _stub_grid([1.0, 2.0], [0.5, 0.5])
        report = select_discrete(grid, None, fitter)
        assert report.chosen == 2.0
        rec = report.record_for(1.0)
        assert rec.error is not None and "boom" in rec.error
        assert rec.elbo is None

    def test_all_failures_raise(self):
        def fitter(lam):
            raise ConditioningError("nope")

        with pytest.raises(ConditioningError):
            select_discrete(_stub_grid([1.0, 2.0], [0.5, 0.5]), None, fitter)

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
                _stub_grid(values, np.full(k, 1.0 / k)), None,
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
                                        data.x, grid.m_rule(alpha))
            return titsias_fit(model, data), elbo_lambda(model, data)

        report = select_discrete(grid, data, fitter)
        assert isinstance(report.posterior, VariationalGP)
        assert report.chosen in grid.values
        for rec in report.records:
            assert rec.error is None
            assert rec.m == grid.m_rule(rec.lam)
            assert rec.wall_time >= 0.0

    def test_record_for_missing_key(self):
        report = select_discrete(_stub_grid([1.0], [1.0]), None,
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
                    SeriesPrior(PolyDecay(alpha=alpha)), data.x,
                    grid.m_rule(alpha))
                return None, elbo_lambda(model, data)

            chosen.append(select_discrete(grid, data, fitter).chosen)
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
            tune_continuous(data, 10, (1, 1, 1), TUNE_BOUNDS, objective="x")
        with pytest.raises(ValueError):
            tune_continuous(data, 10, (1, 1), TUNE_BOUNDS)
        with pytest.raises(ValueError):
            tune_continuous(data, 10, (1, 1, 1), TUNE_BOUNDS,
                            free=(False, False, False))
        with pytest.raises(ValueError):
            tune_continuous(data, 10, (-1, 1, 1), TUNE_BOUNDS)
        with pytest.raises(ValueError):
            tune_continuous(data, 10, (1, 1, 1),
                            [(0.1, 10), (0.1, np.inf), (0.1, 10)])
        with pytest.raises(ValueError):
            tune_continuous(data, 10, (0.05, 1, 1), TUNE_BOUNDS)

    def test_sigma_only_recovers_noise_level(self):
        # calibration medians 0.00981 (all ten in [0.0086, 0.0112])
        s_hats = []
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            x = np.sort(rng.uniform(0.0, 20.0, size=400))
            y = rng.normal(0.0, 0.1, size=400)
            data = Dataset(x=x, y=y, sigma_sq=0.01)
            rep = tune_continuous(
                data, m=30, init=(0.5, 2.0, 10.0),
                bounds=[(0.01, 10.0), (0.1, 100.0), (0.05, 50.0)],
                free=(True, False, False), maxiter=60)
            s_hats.append(rep.chosen[0] ** 2)
        assert 0.008 <= np.median(s_hats) <= 0.012

    def test_boundary_pin_warns(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0.0, 10.0, size=60))
        data = Dataset(x=x, y=rng.normal(0, 0.1, 60), sigma_sq=0.01)
        with pytest.warns(RuntimeWarning, match="pinned"):
            rep = tune_continuous(
                data, m=10, init=(4.0, 2.0, 5.0),
                bounds=[(3.0, 5.0), (0.1, 10.0), (1.0, 20.0)],
                free=(True, False, False), maxiter=80)
        assert rep.chosen[0] == pytest.approx(3.0, rel=1e-3)

    def test_full_rank_objectives_agree(self):
        # m = n makes the collapsed bound equal the evidence, so both
        # objectives walk the same surface from the same start
        data = _se_dataset(11, n=80, span=8.0)
        kwargs = dict(init=(0.7, 1.5, 0.6), bounds=TUNE_BOUNDS, maxiter=60)
        rep_elbo = tune_continuous(data, m=80, objective="elbo", **kwargs)
        rep_ev = tune_continuous(data, m=80, objective="evidence", **kwargs)
        np.testing.assert_allclose(rep_elbo.chosen, rep_ev.chosen, rtol=1e-6)

    def test_report_shape(self):
        data = _se_dataset(12, n=60, span=6.0)
        rep = tune_continuous(data, m=20, init=(0.8, 1.5, 0.7),
                              bounds=TUNE_BOUNDS, maxiter=30)
        assert len(rep.records) == 1
        assert rep.records[0].m == 20
        assert {"iterations", "evaluations", "failures", "converged"} <= set(
            rep.diagnostics)
        post = rep.posterior(np.linspace(0, 6, 11))
        assert isinstance(post, GaussianPosterior)
        assert post.mean.shape == (11,)
        ev = tune_continuous(data, m=20, init=(0.8, 1.5, 0.7),
                             bounds=TUNE_BOUNDS, maxiter=30,
                             objective="evidence")
        assert ev.records[0].m is None
        assert ev.posterior(np.linspace(0, 6, 7)).mean.shape == (7,)

    def test_coarse_init_interior(self):
        data = _se_dataset(13, n=60, span=6.0)
        init = coarse_init(data, m=15, bounds=TUNE_BOUNDS)
        for v, (lo, hi) in zip(init, TUNE_BOUNDS):
            assert lo < v < hi

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


def _standard_bound(data, m, sigma, nu, tau):
    """Collapsed bound through a fresh kernel matrix and eigendecomposition."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = sample_features(
            kernel_matrix(SquaredExponential(nu, tau), data.x), m)
    return elbo_lambda(model, data.with_sigma_sq(sigma * sigma))


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
            assert fac.bound(sigma, nu)[0] == pytest.approx(
                _standard_bound(data, 25, sigma, nu, tau), rel=1e-10)

    def test_full_rank_bound_equals_log_evidence(self):
        data = _se_dataset(22, n=70, span=7.0)
        for sigma, nu, tau in _random_triples(2, 5):
            fac = select_module._factor(data, data.n, tau)
            evidence = log_evidence(SquaredExponential(nu, tau),
                                    data.with_sigma_sq(sigma * sigma))
            assert fac.bound(sigma, nu)[0] == pytest.approx(evidence,
                                                            rel=1e-8)

    def test_gradient_matches_central_differences(self):
        data = _se_dataset(23, n=60, span=6.0)
        h = 1e-6
        for sigma, nu, tau in _random_triples(3, 3):
            fac = select_module._factor(data, 20, tau)
            grad = fac.bound(sigma, nu)[1]
            e = math.exp(h)
            d_sigma = (fac.bound(sigma * e, nu)[0]
                       - fac.bound(sigma / e, nu)[0]) / (2 * h)
            d_nu = (fac.bound(sigma, nu * e)[0]
                    - fac.bound(sigma, nu / e)[0]) / (2 * h)
            np.testing.assert_allclose(grad, [d_sigma, d_nu], rtol=1e-6,
                                       atol=1e-6)

    def test_coarse_init_matches_brute_force_lattice(self):
        data = _se_dataset(13, n=60, span=6.0)
        axes = [np.exp(np.linspace(np.log(lo), np.log(hi), 5))[1:-1]
                for lo, hi in TUNE_BOUNDS]
        lattice = [tuple(float(v) for v in t)
                   for t in itertools.product(*axes)]
        best = max(lattice, key=lambda t: _standard_bound(data, 15, *t))
        assert coarse_init(data, m=15, bounds=TUNE_BOUNDS) == best


class TestTunerFactorizations:
    """The tuner's cost is counted in kernel factorizations, one per tau."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        real = select_module.kernel_matrix

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(select_module, "kernel_matrix", counted)
        return calls

    def test_pinned_tau_factorizes_once(self, kernel_calls):
        data = _se_dataset(12, n=60, span=6.0)
        rep = tune_continuous(data, m=20, init=(0.8, 1.5, 0.7),
                              bounds=TUNE_BOUNDS, free=(True, True, False))
        assert len(kernel_calls) == 1
        assert rep.diagnostics["evaluations"] == 1
        assert rep.chosen[2] == pytest.approx(0.7, rel=1e-15)

    @pytest.mark.parametrize("maxiter", [3, 8, 200])
    def test_free_tau_factorizes_at_most_maxiter_plus_two(self, kernel_calls,
                                                          maxiter):
        data = _se_dataset(12, n=60, span=6.0)
        rep = tune_continuous(data, m=20, init=(0.8, 1.5, 0.7),
                              bounds=TUNE_BOUNDS, maxiter=maxiter)
        assert 1 < len(kernel_calls) <= maxiter + 2
        assert rep.diagnostics["evaluations"] == len(kernel_calls)
        assert rep.diagnostics["iterations"] <= maxiter

    def test_no_worse_than_start(self):
        data = _se_dataset(14, n=80, span=8.0)
        init = (1.6, 0.7, 1.3)
        rep = tune_continuous(data, m=20, init=init, bounds=TUNE_BOUNDS,
                              maxiter=6)
        bound = rep.records[0].elbo_lambda
        assert bound >= _standard_bound(data, 20, *init)
        # the reported bound is the standard path's at the chosen triple
        assert bound == _standard_bound(data, 20, *rep.chosen)

    def test_diagnostics_record_pins_and_drops(self):
        # tau = 10 on a span of 20 leaves fewer than 30 positive
        # eigenvalues, and the noise bound sits above the true 0.1
        rng = np.random.default_rng(105)
        x = np.sort(rng.uniform(0.0, 20.0, size=200))
        data = Dataset(x=x, y=rng.normal(0.0, 0.1, size=200), sigma_sq=0.01)
        with pytest.warns(RuntimeWarning, match="pinned at bounds: sigma"):
            rep = tune_continuous(
                data, m=30, init=(0.5, 2.0, 10.0),
                bounds=[(0.3, 10.0), (0.1, 100.0), (0.05, 50.0)],
                free=(True, False, False))
        assert rep.diagnostics["pinned"] == ["sigma"]
        assert rep.diagnostics["dropped_eigenvalues"] == 30 - rep.records[0].m
        assert rep.diagnostics["dropped_eigenvalues"] > 0
