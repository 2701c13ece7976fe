"""Tests for the trigonometric eigenbasis, spectra, and series utilities."""

import numpy as np
import pytest

from gpadapt.basis import (
    EigenBasis,
    ExpDecay,
    PolyDecay,
    SeriesPrior,
    SignalSpec,
    Truncated,
    eval_basis,
    bench_signal,
    sample_prior,
    sobolev_norm_sq,
    spectrum,
    synth_signal,
)

BASIS = EigenBasis()


class TestEvalBasis:
    def test_constant_function(self):
        assert eval_basis(BASIS, 1, 0.3) == 1.0
        assert eval_basis(BASIS, 1, 5.9) == 1.0

    def test_first_cosine_at_zero(self):
        assert eval_basis(BASIS, 2, 0.0) == pytest.approx(np.sqrt(2.0))

    def test_first_sine_quarter_period(self):
        assert eval_basis(BASIS, 3, np.pi / 2) == pytest.approx(np.sqrt(2.0))

    @pytest.mark.parametrize("j", [2, 3, 4, 5, 17, 64])
    def test_frequency_pairing(self, j):
        # index 2k evaluates cos(kx), index 2k+1 evaluates sin(kx)
        x = np.linspace(0, 2 * np.pi, 101)
        k = j // 2
        want = np.sqrt(2) * (np.cos(k * x) if j % 2 == 0 else np.sin(k * x))
        np.testing.assert_allclose(eval_basis(BASIS, j, x), want, atol=1e-14)

    def test_sup_norm_bound(self):
        x = np.linspace(0, 2 * np.pi, 4001)
        for j in range(1, 40):
            assert np.max(np.abs(eval_basis(BASIS, j, x))) <= np.sqrt(2) + 1e-12

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            eval_basis(BASIS, 0, 1.0)

    def test_point_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            eval_basis(BASIS, 2, -0.1)
        with pytest.raises(ValueError):
            eval_basis(BASIS, 2, 2 * np.pi + 1e-6)

    def test_features_agree_with_eval(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 2 * np.pi, size=37)
        F = BASIS.features(x, 23)
        for j in range(1, 24):
            np.testing.assert_allclose(F[:, j - 1], eval_basis(BASIS, j, x),
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
        assert spectrum(prior, 1) == 1.0
        assert spectrum(prior, 4) == pytest.approx(4.0**-1.5)

    def test_exp_decay_value(self):
        prior = SeriesPrior(ExpDecay(tau=0.5))
        want = np.sqrt(0.5 * np.exp(-0.5 * 3))
        assert spectrum(prior, 3) == pytest.approx(want)

    def test_truncated_support(self):
        prior = SeriesPrior(Truncated(dim=4))
        assert spectrum(prior, 4) == pytest.approx(0.5)
        assert spectrum(prior, 5) == 0.0
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
        s = spectrum(prior, js)
        assert np.all(np.diff(s) <= 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PolyDecay(0.0)
        with pytest.raises(ValueError):
            ExpDecay(1.5)
        with pytest.raises(ValueError):
            Truncated(0)

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
        want = spectrum(prior, 2) ** 2
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
