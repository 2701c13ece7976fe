"""The package's own numerical kernels against their scipy references.

``brent_bounded`` ports ``scipy.optimize.minimize_scalar(method="bounded")``
and must evaluate the same points, so its ``x``, ``f`` and call count are
compared for exact equality. scipy is imported here as the reference only.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gpadapt import _linalg
from gpadapt._linalg import brent_bounded
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
    L, residual = _linalg.pivoted_cholesky(column, np.ones(n), tol, n)
    assert L.shape[1] == n and L.shape[0] < n
    assert residual <= tol
    assert residual == pytest.approx(np.trace(K - L.T @ L), abs=1e-12)
    # the residual is PSD, so no entry exceeds its trace
    assert np.max(np.abs(K - L.T @ L)) <= tol


def test_pivoted_cholesky_gives_up_at_its_cap():
    n = 80
    _, column = _se_columns(n, 0.3)
    L, _ = _linalg.pivoted_cholesky(column, np.ones(n), 1e-9, n)
    assert _linalg.pivoted_cholesky(column, np.ones(n), 1e-9,
                                    L.shape[0] - 1) is None
    again, _ = _linalg.pivoted_cholesky(column, np.ones(n), 1e-9,
                                        L.shape[0])
    assert np.array_equal(again, L)
