"""Tests for the trigonometric eigenbasis, spectra, and series utilities."""

import math
import tracemalloc

import numpy as np
import pytest

from gpadapt.basis import (
    BASIS,
    ExpDecay,
    PolyDecay,
    SeriesPrior,
    SignalSpec,
    Truncated,
    _hurwitz_zeta,
    _grid_plan,
    _grid_tables,
    _midpoint_signal,
    _series_phasors,
    _trig_moments,
    _trig_sum,
    bench_signal,
    sample_prior,
    sobolev_norm_sq,
    synth_signal,
)
from gpadapt.experiments import _smooth_signal


class TestEvalBasis:
    def test_constant_function(self):
        assert BASIS.eval(1, 0.3) == 1.0
        assert BASIS.eval(1, 5.9) == 1.0

    def test_first_cosine_at_zero(self):
        assert BASIS.eval(2, 0.0) == pytest.approx(np.sqrt(2.0))

    def test_first_sine_quarter_period(self):
        assert BASIS.eval(3, np.pi / 2) == pytest.approx(np.sqrt(2.0))

    @pytest.mark.parametrize("j", [2, 3, 4, 5, 17, 64])
    def test_frequency_pairing(self, j):
        # index 2k evaluates cos(kx), index 2k+1 evaluates sin(kx)
        x = np.linspace(0, 2 * np.pi, 101)
        k = j // 2
        want = np.sqrt(2) * (np.cos(k * x) if j % 2 == 0 else np.sin(k * x))
        np.testing.assert_allclose(BASIS.eval(j, x), want, atol=1e-14)

    def test_sup_norm_bound(self):
        x = np.linspace(0, 2 * np.pi, 4001)
        for j in range(1, 40):
            assert np.max(np.abs(BASIS.eval(j, x))) <= np.sqrt(2) + 1e-12

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            BASIS.eval(0, 1.0)

    def test_point_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            BASIS.eval(2, -0.1)
        with pytest.raises(ValueError):
            BASIS.eval(2, 2 * np.pi + 1e-6)

    def test_features_agree_with_eval(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 2 * np.pi, size=37)
        F = BASIS.features(x, 23)
        for j in range(1, 24):
            np.testing.assert_allclose(F[:, j - 1], BASIS.eval(j, x),
                                       atol=1e-14)

    def test_quadrature_orthonormality(self):
        # Gram matrix of the first 64 functions under a 1e5-point midpoint
        # rule for the uniform design measure; exact for trig polynomials
        # of this degree, so everything beyond float error is a bug.
        N = 100_000
        xq = (np.arange(N) + 0.5) * (2 * np.pi / N)
        F = BASIS.features(xq, 64)
        G = F.T @ F / N
        assert np.max(np.abs(G - np.eye(64))) < 1e-6


class TestSpectrum:
    def test_poly_decay_value(self):
        prior = SeriesPrior(PolyDecay(alpha=1.0))
        assert prior.spectrum(1) == 1.0
        assert prior.spectrum(4) == pytest.approx(4.0**-1.5)

    def test_exp_decay_value(self):
        prior = SeriesPrior(ExpDecay(tau=0.5))
        want = np.sqrt(0.5 * np.exp(-0.5 * 3))
        assert prior.spectrum(3) == pytest.approx(want)

    def test_truncated_support(self):
        prior = SeriesPrior(Truncated(dim=4))
        assert prior.spectrum(4) == pytest.approx(0.5)
        assert prior.spectrum(5) == 0.0
        assert prior.support == 4

    @pytest.mark.parametrize(
        "prior",
        [
            SeriesPrior(PolyDecay(0.31)),
            SeriesPrior(PolyDecay(2.5)),
            SeriesPrior(ExpDecay(0.17)),
            SeriesPrior(ExpDecay(1.0)),
            SeriesPrior(Truncated(57)),
        ],
    )
    def test_monotone_nonincreasing(self, prior):
        js = np.arange(1, 10_001)
        s = prior.spectrum(js)
        assert np.all(np.diff(s) <= 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PolyDecay(0.0)
        with pytest.raises(ValueError):
            ExpDecay(1.5)
        with pytest.raises(ValueError):
            Truncated(0)

    @pytest.mark.parametrize("d", [0, 2, 3])
    def test_prior_refuses_other_dimensions(self, d):
        # the basis is one-dimensional, so the prior has no d to set: a
        # d = 2 prior would silently take the spectrum of alpha / 2 on it
        with pytest.raises(TypeError, match="'d'"):
            SeriesPrior(PolyDecay(1.0), d=d)

    @pytest.mark.parametrize(
        "prior",
        [SeriesPrior(PolyDecay(0.7)), SeriesPrior(ExpDecay(0.4)),
         SeriesPrior(Truncated(200))],
    )
    def test_tail_variance_matches_brute_force(self, prior):
        J = 50
        js = np.arange(J + 1, 2_000_001)
        brute = float(np.sum(prior.spectrum(js) ** 2))
        assert prior.tail_variance(J) == pytest.approx(brute, rel=1e-6)

    def test_hurwitz_zeta_matches_scipy(self):
        from scipy.special import zeta

        for s in np.linspace(1.05, 8.0, 40):
            for a in np.unique(np.r_[np.geomspace(1, 20001, 30).round(),
                                     20001]).astype(int):
                got = _hurwitz_zeta(float(s), int(a))
                assert abs(got / zeta(s, a) - 1.0) <= 1e-14, (s, a)


class TestSobolevNorm:
    def test_zero_sequence(self):
        assert sobolev_norm_sq(lambda j: np.zeros_like(j, dtype=float),
                               beta=1.0, J=100) == 0.0

    def test_single_coefficient(self):
        # c_2 = 3 alone: 2^(2 beta) * 9
        c = np.array([0.0, 3.0, 0.0])
        assert sobolev_norm_sq(c, beta=1.0, J=3) == pytest.approx(36.0)

    def test_monotone_in_J(self):
        sig = bench_signal()
        vals = [sobolev_norm_sq(sig.coefficients, 0.59, J)
                for J in (10, 100, 1000, 10_000)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_partial_sums_frozen_below_critical_smoothness(self):
        # Oracle (brute partial sums, scratch run): the summand exponent at
        # beta = 0.59 is -1.02, so the series converges but the partial sums
        # still move by ~0.6 between J = 1e5 and 1e6.
        sig = bench_signal()
        s5 = sobolev_norm_sq(sig.coefficients, 0.59, 10**5)
        s6 = sobolev_norm_sq(sig.coefficients, 0.59, 10**6)
        assert s5 == pytest.approx(4.108475, abs=1e-5)
        assert s6 == pytest.approx(4.704315, abs=1e-5)
        assert s6 - s5 == pytest.approx(0.595841, abs=1e-5)

    def test_partial_sums_frozen_above_critical_smoothness(self):
        # At beta = 0.61 the summand exponent is -0.98: divergent, with
        # partial sums growing like J^0.02 (oracle ratio 1.901 over 1e3->1e6).
        sig = bench_signal()
        s3 = sobolev_norm_sq(sig.coefficients, 0.61, 10**3)
        s6 = sobolev_norm_sq(sig.coefficients, 0.61, 10**6)
        assert s3 == pytest.approx(3.144780, abs=1e-5)
        assert s6 == pytest.approx(5.979259, abs=1e-5)
        assert s6 / s3 == pytest.approx(1.901328, abs=1e-4)

    def test_short_coefficient_array_rejected(self):
        with pytest.raises(ValueError):
            sobolev_norm_sq(np.ones(5), beta=1.0, J=10)


class TestSynthSignal:
    def test_frozen_point_values(self):
        # anchors computed by an independent longhand script
        sig = bench_signal()
        assert synth_signal(sig, 0.0) == pytest.approx(1.2354563599156776,
                                                       abs=1e-12)
        assert synth_signal(sig, 1.0) == pytest.approx(0.7215401502262934,
                                                       abs=1e-12)
        assert synth_signal(sig, np.pi / 2) == pytest.approx(
            0.8674783611528513, abs=1e-12)

    @pytest.mark.parametrize("spec", [
        bench_signal(),
        SignalSpec(coefficients=lambda j: np.asarray(j, float) ** -1.5,
                   j_max=2001, shift=0.3),
    ], ids=["two-thirds-zero", "dense"])
    def test_equals_dense_feature_sum(self, spec):
        # the nonzero-frequency sum against every feature column times c
        x = np.linspace(-1.0, 7.5, 257)
        z = np.mod(x - spec.shift, 2 * np.pi)
        dense = BASIS.features(z, spec.j_max) @ spec.coeff_array()
        np.testing.assert_allclose(synth_signal(spec, x), dense, rtol=0,
                                   atol=1e-12)

    def test_truncation_gap_on_grid(self):
        # Oracle-measured sup over a 200-point grid between the 1e3- and
        # 1e4-term partial sums: 4.00e-2 (slow convergence near x = pi).
        grid = np.linspace(0, 2 * np.pi, 200)
        lo = synth_signal(bench_signal(j_max=10**3), grid)
        hi = synth_signal(bench_signal(j_max=10**4), grid)
        gap = np.max(np.abs(lo - hi))
        assert gap == pytest.approx(0.0399866, abs=1e-4)

    def test_truncation_slowest_at_center(self):
        # at x = pi the active cosine terms align, oracle gap 0.2426
        d = abs(synth_signal(bench_signal(j_max=10**3), np.pi)
                - synth_signal(bench_signal(j_max=10**4), np.pi))
        assert d == pytest.approx(0.242636, abs=1e-4)

    def test_unshifted_generic_spec(self):
        # single active coefficient: the signal is that basis function
        spec = SignalSpec(
            coefficients=lambda j: np.where(j == 4, 2.0, 0.0), j_max=10)
        x = np.linspace(0, 2 * np.pi, 50)
        np.testing.assert_allclose(
            synth_signal(spec, x), 2 * np.sqrt(2) * np.cos(2 * x), atol=1e-13)

    def test_shift_wraps_periodically(self):
        spec = SignalSpec(
            coefficients=lambda j: np.where(j == 2, 1.0, 0.0),
            j_max=5, shift=np.pi)
        # cos(x - pi) = -cos(x)
        np.testing.assert_allclose(
            synth_signal(spec, np.array([0.0, 1.0, 6.0])),
            -np.sqrt(2) * np.cos(np.array([0.0, 1.0, 6.0])), atol=1e-13)


class TestSamplePrior:
    def test_deterministic_given_seed(self):
        prior = SeriesPrior(PolyDecay(1.0))
        a = sample_prior(prior, 50, seed=123)
        b = sample_prior(prior, 50, seed=123)
        np.testing.assert_array_equal(a, b)

    def test_respects_truncation(self):
        prior = SeriesPrior(Truncated(dim=3))
        draw = sample_prior(prior, 10, seed=0)
        assert np.all(draw[3:] == 0.0)
        assert np.any(draw[:3] != 0.0)

    def test_marginal_variance_matches_spectrum(self):
        # 10^4 draws of coefficient 2: sample variance within 5 percent
        prior = SeriesPrior(PolyDecay(1.0))
        draws = np.array([sample_prior(prior, 4, seed=s)[1]
                          for s in range(10_000)])
        want = prior.spectrum(2) ** 2
        assert np.var(draws) == pytest.approx(want, rel=0.05)

    def test_generator_state_is_caller_owned(self):
        rng = np.random.default_rng(7)
        a = sample_prior(SeriesPrior(PolyDecay(1.0)), 5, rng)
        b = sample_prior(SeriesPrior(PolyDecay(1.0)), 5, rng)
        assert not np.array_equal(a, b)


class TestEmpiricalGramConcentration:
    def test_near_identity_with_high_frequency(self):
        # n = 5000 uniform draws, D = 20: the empirical Gram deviates from
        # the identity by < 0.1 in at least 95 percent of 50 seeds.
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            x = rng.uniform(0, 2 * np.pi, size=5000)
            F = BASIS.features(x, 20)
            G = F.T @ F / 5000
            if np.max(np.abs(G - np.eye(20))) < 0.1:
                hits += 1
        assert hits >= 48


def _longhand(spec, x):
    """c_1 + sum_j c_j phi_j(x - shift), one basis function at a time."""
    return _longhand_at(spec, np.mod(np.asarray(x, dtype=float) - spec.shift,
                                     2 * np.pi))


def _longhand_at(spec, z):
    """The series at basis argument z, unshifted and unwrapped."""
    c = spec.coeff_array()
    out = np.full(z.shape, c[0])
    for j in range(2, spec.j_max + 1):
        k = j // 2
        wave = np.cos(k * z) if j % 2 == 0 else np.sin(k * z)
        out += c[j - 1] * math.sqrt(2.0) * wave
    return out


#: the trigonometric kernel on the FFT grid, from coefficients c
SUM_ROUTES = {"grid": lambda z, c: _trig_sum(z, _grid_tables(c))}
MOMENT_ROUTES = {"grid": _trig_moments}


class TestBlockTrigKernel:
    """synth_signal sums its frequencies on an FFT grid with a Taylor
    correction; check the sums and moments term by term at frequency
    counts K = j_max // 2 + 1 of every shape."""

    POINTS = np.r_[-3.0, -1e-9, np.linspace(0.0, 2 * np.pi, 61),
                   2 * np.pi + 1e-9, 9.0, 20.0]

    SPECS = pytest.mark.parametrize("spec", [
        bench_signal(),
        SignalSpec(coefficients=lambda j: np.asarray(j, float) ** -1.5,
                   j_max=2001, shift=0.3),
        SignalSpec(coefficients=lambda j: np.full(np.shape(j), 0.7), j_max=1),
        SignalSpec(coefficients=lambda j: 1.0 / np.asarray(j, float),
                   j_max=3, shift=-0.4),
        SignalSpec(coefficients=lambda j: np.cos(np.asarray(j, float)),
                   j_max=201, shift=1.0),
        SignalSpec(coefficients=lambda j: np.asarray(j, float) ** -0.8,
                   j_max=286),
    ], ids=["bench", "dense", "K=1", "K=2", "prime-K=101", "square-K=144"])

    @SPECS
    def test_equals_longhand_sum(self, spec):
        np.testing.assert_allclose(synth_signal(spec, self.POINTS),
                                   _longhand(spec, self.POINTS), rtol=0,
                                   atol=1e-12)
        got = synth_signal(spec, 7.0)
        assert isinstance(got, float)
        assert got == pytest.approx(float(_longhand(spec, 7.0)), abs=1e-12)
        empty = synth_signal(spec, np.array([]))
        assert empty.shape == (0,)

    def test_memory_stays_below_a_quarter_frequency_block(self):
        spec = bench_signal()
        K = spec.j_max // 2 + 1
        x = np.random.default_rng(4).uniform(0.0, 2 * np.pi, size=10_000)
        tracemalloc.start()
        try:
            synth_signal(spec, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_bytes = 2048 * (K / 4) * 8
        assert peak < block_bytes, (peak, block_bytes)

    @SPECS
    @pytest.mark.parametrize("route", SUM_ROUTES)
    def test_route_equals_longhand_sum(self, spec, route):
        # every wrapped point, and the domain's ends 0 and 2 pi unwrapped
        z = np.r_[np.mod(self.POINTS - spec.shift, 2 * np.pi), 0.0, 2 * np.pi]
        got = SUM_ROUTES[route](z, _series_phasors(spec))
        np.testing.assert_allclose(got, _longhand_at(spec, z), rtol=0,
                                   atol=1e-12)

    @SPECS
    @pytest.mark.parametrize("route", MOMENT_ROUTES)
    def test_route_equals_longhand_moments(self, spec, route):
        K = spec.j_max // 2 + 1
        x = np.r_[0.0, np.linspace(0.0, 2 * np.pi, 61)[1:-1], 2 * np.pi]
        W = np.stack([np.ones(x.size),
                      np.random.default_rng(K).standard_normal(x.size)])
        orders = (K, max(K // 3, 1))
        for got, w, k in zip(MOMENT_ROUTES[route](x, W, orders), W, orders):
            ref_re, ref_im = _longdouble_moments(x, w, k)
            err = max(np.max(np.abs(got.real - ref_re)),
                      np.max(np.abs(got.imag - ref_im)))
            assert got.shape == (k,)
            assert err <= 1e-13 * np.sum(np.abs(w)), float(err)

    @pytest.mark.parametrize("n", [3000, 9000])
    def test_shared_tables_sum_bit_identically(self, n):
        # tables held by one spec serve every draw, each value bit-equal
        # to a sum on a fresh spec that builds its own
        spec = _smooth_signal(1.0)
        synth_signal(spec, 1.0)
        held = spec.grid_tables
        assert len(held) == _grid_plan(spec.j_max // 2 + 1)[1]
        for seed in range(3):
            x = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size=n)
            np.testing.assert_array_equal(
                synth_signal(spec, x), synth_signal(_smooth_signal(1.0), x))
        assert spec.grid_tables is held

    def test_grid_route_memory_is_linear_in_grid_and_points(self):
        # O(N + n): no points x sqrt(K) block, no Taylor term kept
        a = _series_phasors(bench_signal())
        N, _ = _grid_plan(a.size)
        x = np.random.default_rng(4).uniform(0.0, 2 * np.pi, size=10_000)
        bound = 64 * (N + x.size)
        for run in (lambda: _trig_sum(x, _grid_tables(a)),
                    lambda: _trig_moments(x, np.ones((1, x.size)),
                                          [a.size])):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, (peak, bound)


class TestRoute:
    """The grid of N points and R Taylor terms that the sums and moments
    use for K frequencies."""

    @pytest.mark.parametrize("K", [1, 2, 3, 90, 1001, 4096, 5001])
    def test_plan(self, K):
        N, R = _grid_plan(K)
        assert N & (N - 1) == 0 and 2 * K <= N < max(4 * K, 4)
        rho = math.pi * K / N
        assert rho**R / math.factorial(R) < 2.0**-60
        assert rho**(R - 1) / math.factorial(R - 1) >= 2.0**-60
        assert R <= 25


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="needs an extended-precision long double")
def _longdouble_signal(spec, x):
    """The signal at float64 points x, summed term by term in long double."""
    z = np.mod(x - spec.shift, 2 * np.pi).astype(np.longdouble)
    c = spec.coeff_array().astype(np.longdouble)
    ref = np.full(z.shape, c[0])
    r2 = np.sqrt(np.longdouble(2.0))
    for j in np.flatnonzero(c[1:]) + 2:
        wave = np.cos(j // 2 * z) if j % 2 == 0 else np.sin(j // 2 * z)
        ref += c[j - 1] * r2 * wave
    return ref


def _longdouble_moments(x, w, K):
    """Re and Im of sum_i w_i exp(i k x_i), k < K, summed in long double
    at the same float64 points."""
    ang = np.outer(np.arange(K).astype(np.longdouble), x.astype(np.longdouble))
    wl = w.astype(np.longdouble)
    return np.cos(ang) @ wl, np.sin(ang) @ wl


class TestPhaseRecurrence:
    """The grid sum's phases are exact node phases times a Taylor series in
    the offset; check the sums and moments against term-by-term sums in
    long double at the same float64 points."""

    def test_grid_route_bench_signal_to_extended_precision(self):
        spec = bench_signal()
        x = np.random.default_rng(31).uniform(0.0, 2 * np.pi, size=300)
        got = synth_signal(spec, x)
        err = np.max(np.abs(got.astype(np.longdouble)
                            - _longdouble_signal(spec, x)))
        assert err <= 1e-13, float(err)

    def test_grid_route_moments_no_worse_than_direct_exponentials(self):
        n, K = 500, 3000
        rng = np.random.default_rng(32)
        x = rng.uniform(0.0, 2 * np.pi, size=n)
        w = rng.standard_normal(n)
        ref_re, ref_im = _longdouble_moments(x, w, K)
        direct = np.exp(1j * np.outer(np.arange(K), x)) @ w

        def err(M):
            return max(np.max(np.abs(M.real.astype(np.longdouble) - ref_re)),
                       np.max(np.abs(M.imag.astype(np.longdouble) - ref_im)))

        got = err(_trig_moments(x, w[None], [K])[0])
        assert got <= err(direct), (float(got), float(err(direct)))

    @pytest.mark.parametrize("orders", [(1001, 51), (90, 45), (7, 7),
                                        (2, 300), (1, 1)])
    def test_stacked_weights_equal_separate_calls(self, orders):
        # one grid pass at the largest order serves every row; a row of
        # lower order reads its own leading moments
        rng = np.random.default_rng(33)
        x = rng.uniform(0.0, 2 * np.pi, size=700)
        W = np.stack([np.ones(x.size), rng.standard_normal(x.size)])
        stacked = _trig_moments(x, W, orders)
        for got, w, K in zip(stacked, W, orders):
            alone = _trig_moments(x, w[None], [K])[0]
            assert got.shape == alone.shape == (K,)
            tol = 64 * np.finfo(float).eps * np.sum(np.abs(w))
            assert np.max(np.abs(got - alone)) <= tol


def _midpoints(N):
    return (2 * np.pi / N) * (np.arange(N) + 0.5)


class TestMidpointSignal:
    """The signal on the midpoint grid by one inverse FFT agrees with the
    grid sum of synth_signal at the same float64 nodes and with long
    double."""

    @pytest.mark.parametrize("spec, N", [
        (bench_signal(), 10_000),
        (_smooth_signal(1.0), 10_000),
        (SignalSpec(coefficients=bench_signal().coefficients, shift=0.3),
         10_000),
        (bench_signal(), 999),
        (bench_signal(10_000), 1000),
    ], ids=["bench", "shift-0", "shift-0.3", "odd-N", "K>N"])
    def test_equals_block_sum(self, spec, N):
        got = _midpoint_signal(spec, N)
        assert got.shape == (N,)
        err = np.max(np.abs(got - synth_signal(spec, _midpoints(N))))
        assert err <= 1e-12, err

    def test_bench_signal_to_extended_precision(self):
        spec, N = bench_signal(), 10_000
        idx = np.linspace(0, N - 1, 101).astype(int)
        ref = _longdouble_signal(spec, _midpoints(N)[idx])
        got = _midpoint_signal(spec, N)[idx].astype(np.longdouble)
        err = np.max(np.abs(got - ref))
        assert err <= 1e-12, float(err)
