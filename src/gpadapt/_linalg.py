"""Numerical kernels on numpy alone: factorizations and a bounded 1-D search.

Cholesky policy, used wherever a factorization might meet a semidefinite
matrix: start at 1e-10 * mean(diag), escalate by factors of 10 up to
1e-4 * mean(diag), then give up with :class:`ConditioningError`. The
whitened m x m solves factor G = W W' by :func:`eigh_psd` instead, so every
noise variance costs O(m) after one eigendecomposition.
:func:`pivoted_cholesky` factors a kernel of low numerical rank from its
columns alone. :func:`brent_bounded` is the one bounded 1-D search of the
package; :func:`brent_from_points` is the same search started from points
already evaluated. :func:`chol_solve` serves the reference solves only.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConditioningError

_JITTER_START = 1e-10
_JITTER_CAP = 1e-4


def chol_jitter(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``mat``, jittering the diagonal if needed.

    Returns ``(L, jitter)`` with ``L @ L.T`` equal to ``mat + jitter * I``.
    Raises :class:`ConditioningError` once the jitter cap is exceeded.
    """
    mat = np.asarray(mat, dtype=float)
    if not np.isfinite(mat).all():
        raise ConditioningError("matrix has non-finite entries; cannot factor")
    n = mat.shape[0]
    scale = float(np.trace(mat)) / max(n, 1)
    try:
        return np.linalg.cholesky(mat), 0.0
    except np.linalg.LinAlgError:
        pass
    jitter = _JITTER_START * scale
    cap = _JITTER_CAP * scale
    while jitter <= cap * (1 + 1e-12):
        try:
            return np.linalg.cholesky(mat + jitter * np.eye(n)), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise ConditioningError(
        f"Cholesky failed for {n}x{n} matrix even with jitter {cap:.3e}"
    )


def eigh_psd(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, clipped at 0) and eigenvectors of a symmetric
    positive semidefinite ``mat``.

    Raises :class:`ConditioningError` on non-finite entries.
    """
    mat = np.asarray(mat, dtype=float)
    if not np.isfinite(mat).all():
        raise ConditioningError("matrix has non-finite entries; cannot factor")
    lam, vecs = np.linalg.eigh(mat)
    return np.clip(lam, 0.0, None), vecs


def pivoted_cholesky(column: Callable[[int], np.ndarray], diag: np.ndarray,
                     tol: float) -> tuple[np.ndarray, float]:
    """Greedy pivoted Cholesky of a positive semidefinite n x n matrix K.

    ``column(i)`` returns the fresh column K[:, i] (it may be overwritten)
    and ``diag`` is the diagonal of K. Each step pivots on the largest
    residual diagonal entry, builds that one column and updates it against
    the rows found so far in O(n k), so K itself is never formed
    (Harbrecht, Peters & Schneider 2012). The row block doubles as the
    rank grows, so memory is O(k n). Returns ``(L, residual)`` with L of
    shape (k, n), K ~ L'L, and the residual trace tr(K - L'L) <= ``tol``.
    Raises :class:`ConditioningError` when n rows do not reach ``tol``.
    """
    d = np.array(diag, dtype=float)
    n = d.size
    L = np.empty((min(n, 8), n))
    residual = float(d.sum())
    k = 0
    while residual > tol:
        if k == n:
            raise ConditioningError(
                f"pivoted Cholesky left a residual trace of {residual:.3e} "
                f"after all {n} rows, above the tolerance {tol:.3e}")
        if k == L.shape[0]:
            grown = np.empty((min(n, 2 * k), n))
            grown[:k] = L
            L = grown
        i = int(d.argmax())
        row = column(i)
        row -= L[:k, i] @ L[:k]
        row *= 1.0 / math.sqrt(d[i])
        L[k] = row
        row *= row
        d -= row
        residual = float(d.sum())
        k += 1
    return L[:k], residual


def chol_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L L^T) z = b`` given the lower factor ``L``.

    Two ``np.linalg.solve`` calls, one per triangle: numpy has no
    triangular solver, so each costs an O(n^3) LU. Only the n x n kernel
    references and :func:`~gpadapt.meanfield.mf_kl_exact` call it.
    """
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def logdet_from_chol(L: np.ndarray) -> float:
    """log det of the factored matrix, i.e. 2 * sum(log diag(L))."""
    return 2.0 * float(np.sum(np.log(np.diag(L))))


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_STEP = 0.5 * (3.0 - math.sqrt(5.0))


def brent_bounded(func: Callable[[float], float], lo: float, hi: float,
                  xatol: float = 1e-5, maxiter: int = 500
                  ) -> tuple[float, float, int, bool]:
    """Minimize ``func`` on [lo, hi] by Brent's bounded method.

    Golden-section steps safeguarded by parabolic interpolation (Brent
    1973, ch. 5), with the arithmetic of
    ``scipy.optimize.minimize_scalar(method="bounded")``: the same points
    are evaluated, so ``x``, ``f`` and the call count agree bit for bit.
    Stops once x is known within ``xatol`` (plus sqrt(eps) |x|) or after
    ``maxiter`` calls. Returns ``(x, f, nfev, converged)``; ``converged`` is
    False when the call cap stopped the search or a value was NaN.
    """
    x, f, nfev, stop = _brent(func, lo, hi, (), xatol, maxiter)
    return x, f, nfev, stop == "bracket"


def brent_from_points(func: Callable[[float], float], lo: float, hi: float,
                      points: Sequence[tuple[float, float]],
                      xatol: float = 1e-5, maxiter: int = 500
                      ) -> tuple[float, float, int, str]:
    """:func:`brent_bounded` started from ``points``, (x, func(x)) pairs in
    [lo, hi] already evaluated, instead of a golden-section point.

    The best three points are Brent's state, so the first step may already
    be parabolic, and the search stops on the first accepted parabolic step
    shorter than the tolerance (``"step"``) as well as once the bracket
    closes (``"bracket"``): that step says the best point is within the
    tolerance of the parabola's vertex, which the closing probes would only
    confirm. ``nfev`` counts new calls alone. Returns
    ``(x, f, nfev, stop)``, x the best point evaluated and ``stop`` one of
    ``"step"``, ``"bracket"``, ``"maxiter"`` or ``"nan"``.
    """
    if not points:
        raise ValueError("brent_from_points needs at least one point")
    return _brent(func, lo, hi, points, xatol, maxiter)


def _brent(func: Callable[[float], float], lo: float, hi: float,
           points: Sequence[tuple[float, float]], xatol: float, maxiter: int
           ) -> tuple[float, float, int, str]:
    """The loop of both Brent searches; see :func:`brent_from_points`."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("search bounds must be finite")
    if lo > hi:
        raise ValueError("the lower bound exceeds the upper bound")
    a, b = float(lo), float(hi)
    if points:
        ranked = sorted(points, key=lambda point: point[1])
        (xf, fx), (nfc, fnfc), (fulc, ffulc) = (ranked + ranked[-1:] * 2)[:3]
        rat = e = b - a  # the first parabolic step may span half the bracket
        num = 0
    else:
        fulc = a + _GOLDEN_STEP * (b - a)
        nfc = xf = fulc
        rat = e = 0.0
        fx = float(func(xf))
        num = 1
        ffulc = fnfc = fx
    fu = math.inf
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    stop = "bracket"
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                if points and abs(rat) < tol1:
                    stop = "step"
                    break
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0 else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN_STEP * e
        x = xf + (1.0 if rat >= 0 else -1.0) * max(abs(rat), tol1)
        fu = float(func(x))
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxiter:
            stop = "maxiter"
            break
    if math.isnan(xf) or math.isnan(fx) or math.isnan(fu):
        stop = "nan"
    return xf, fx, num, stop
