"""The package's own numerical kernels against their scipy references.

``brent_bounded`` ports ``scipy.optimize.minimize_scalar(method="bounded")``
and must evaluate the same points, so its ``x``, ``f`` and call count are
compared for exact equality. scipy is imported here as the reference only.
``brent_from_points`` is the same search started from evaluated points.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gpadapt import _linalg
from gpadapt._linalg import brent_bounded, brent_from_points
from gpadapt.errors import ConditioningError


def _scipy_bounded(func, lo, hi, xatol, maxiter):
    res = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                          options={"xatol": xatol, "maxiter": maxiter})
    return float(res.x), float(res.fun), int(res.nfev), bool(res.success)


CASES = {
    "smooth": (lambda t: (t - 0.3) ** 2 * (1.0 + math.exp(t)) + math.sin(t),
               -3.0, 4.0, 1e-7, 500),
    "kink": (lambda t: abs(t - 1.234567), -2.0, 5.0, 1e-9, 500),
    "optimum-on-lower-bound": (lambda t: math.exp(t), -1.5, 2.0, 1e-7, 500),
    "optimum-on-upper-bound": (lambda t: -t * t, 0.5, 3.0, 1e-5, 500),
    "capped-by-maxiter": (lambda t: math.cos(3.0 * t) + 0.1 * t * t, -4.0,
                          4.0, 1e-12, 6),
    "plateau": (lambda t: min(abs(t) - 1.0, 0.0) + 0.01 * t * t, -4.0, 4.0,
                1e-9, 500),
    "multimodal": (lambda t: math.sin(5.0 * t) + 0.3 * t, -3.0, 3.0, 1e-9,
                   500),
    "flat": (lambda t: 1.0, 0.0, 1.0, 1e-5, 500),
    "degenerate-interval": (lambda t: t * t, 0.7, 0.7, 1e-5, 500),
}


@pytest.mark.parametrize("name", list(CASES))
def test_brent_matches_scipy_bit_for_bit(name):
    func, lo, hi, xatol, maxiter = CASES[name]
    calls = []

    def recorded(t):
        calls.append(t)
        return func(t)

    x, f, nfev, converged = brent_bounded(recorded, lo, hi, xatol, maxiter)
    ref = _scipy_bounded(func, lo, hi, xatol, maxiter)
    assert (x, f, nfev, converged) == ref
    assert nfev == len(calls)


def test_brent_reports_the_cap():
    func, lo, hi, xatol, maxiter = CASES["capped-by-maxiter"]
    _, _, nfev, converged = brent_bounded(func, lo, hi, xatol, maxiter)
    assert nfev == maxiter and not converged


def test_brent_rejects_bad_intervals():
    with pytest.raises(ValueError):
        brent_bounded(abs, 1.0, 0.0)
    with pytest.raises(ValueError):
        brent_bounded(abs, 0.0, math.inf)


def _walk_points(func, lo, hi):
    """Three points of ``func`` that bracket its minimum on [lo, hi]."""
    ts = (lo, lo + 0.4 * (hi - lo), hi)
    return [(t, func(t)) for t in ts]


@pytest.mark.parametrize("name", ["smooth", "kink", "multimodal"])
def test_brent_from_points_meets_the_bracket_search(name):
    func, lo, hi, xatol, _ = CASES[name]
    lo, hi = {"smooth": (-3.0, 4.0), "kink": (-2.0, 5.0),
              "multimodal": (-1.5, -0.5)}[name]
    points = _walk_points(func, lo, hi)
    calls = []

    def recorded(t):
        calls.append(t)
        return func(t)

    x, f, nfev, stop = brent_from_points(recorded, lo, hi, points, xatol)
    ref, f_ref, _, converged = brent_bounded(func, lo, hi, 1e-12)
    assert converged and stop in ("step", "bracket")
    assert nfev == len(calls)
    assert not set(calls) & {t for t, _ in points}
    assert f == func(x) == min([f for _, f in points]
                               + [func(t) for t in calls])
    assert abs(x - ref) <= xatol + 1e-7 * abs(ref)
    assert f <= f_ref + 1e-9


def test_brent_from_points_stops_on_a_short_parabolic_step():
    # three points on a parabola: the first step lands on its vertex and
    # the next parabola moves it by less than the tolerance
    func = lambda t: (t - 0.3) ** 2  # noqa: E731
    x, f, nfev, stop = brent_from_points(func, -1.0, 2.0,
                                         _walk_points(func, -1.0, 2.0), 1e-6)
    assert stop == "step" and nfev == 1
    assert x == pytest.approx(0.3, abs=1e-12)


def test_brent_from_points_reports_the_cap_and_needs_a_point():
    func, lo, hi, xatol, _ = CASES["multimodal"]
    _, _, nfev, stop = brent_from_points(func, lo, hi,
                                         _walk_points(func, lo, hi),
                                         1e-12, maxiter=3)
    assert nfev == 3 and stop == "maxiter"
    with pytest.raises(ValueError):
        brent_from_points(abs, 0.0, 1.0, [])


def test_eigh_psd_clips_and_rejects_non_finite():
    v = np.array([1.0, -1.0]) / math.sqrt(2.0)
    mat = np.outer(v, v) * 3.0
    lam, Q = _linalg.eigh_psd(mat)
    assert np.all(lam >= 0.0)
    np.testing.assert_allclose((Q * lam) @ Q.T, mat, atol=1e-14)
    with pytest.raises(ConditioningError):
        _linalg.eigh_psd(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def _se_columns(n, tau, seed=0):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 10.0, n)) / tau
    K = np.exp(-np.square(x[:, None] - x))
    return K, lambda i: np.exp(-np.square(x - x[i]))


@pytest.mark.parametrize("tau", [0.3, 1.0, 4.0])
def test_pivoted_cholesky_meets_its_tolerance(tau):
    n = 120
    K, column = _se_columns(n, tau)
    tol = n * n * np.finfo(float).eps
    L, residual = _linalg.pivoted_cholesky(column, np.ones(n), tol)
    assert L.shape[1] == n and L.shape[0] < n
    assert residual <= tol
    assert residual == pytest.approx(np.trace(K - L.T @ L), abs=1e-12)
    # the residual is PSD, so no entry exceeds its trace
    assert np.max(np.abs(K - L.T @ L)) <= tol


def test_pivoted_cholesky_raises_short_of_its_tolerance():
    # a diagonal above the columns' own leaves 1.5 per row after all n rows
    n = 12
    with pytest.raises(ConditioningError, match="after all 12 rows"):
        _linalg.pivoted_cholesky(lambda i: np.eye(n)[:, i], np.full(n, 2.0),
                                 1e-9)
