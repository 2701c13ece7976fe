"""Hyperparameter grids, discrete ELBO selection, and continuous tuning.

The discrete selector scores each grid value lambda by

    score(lambda) = collapsed_bound(lambda) + log mass(lambda)

and keeps the argmax, which coincides with the argmax of the collapsed
bound alone whenever the masses are uniform.

The continuous tuner fits (sigma, nu, tau) of the squared-exponential
kernel nu exp(-(x - x')^2 / tau^2). Its eigenvectors depend on tau alone
and nu only scales its eigenvalues, so the unit-variance kernel is
factorized once per tau; in that eigenbasis the collapsed bound at any
(sigma, nu) is a closed form costing O(m). The factorization is a greedy
pivoted Cholesky factor of rank r, built one kernel column at a time, and
the r x r eigenproblem behind it, O(n r^2 + r^3), which yields the bound's
terms without the n x m eigenvectors; a kernel whose rank passes a cap
fitted to timings of both routes is factorized whole, by one n x n
eigendecomposition, instead. A 1-D search over log tau calls that
factorization: an uphill walk from the start brackets the optimum, and
Brent's method continues from the walk's probes in the bracket, stopping
at its first parabolic step shorter than its tolerance, so it ends on a
tau already factorized. At each tau (sigma, nu) are solved within their
bounds by one more bounded 1-D search over nu / sigma^2, with the noise
profiled out in closed form; a coordinate whose two bounds are equal is
pinned there, so a known noise is the box (sigma, sigma). The coarse
scan scores a few lattice taus the same way, as the search's first
probes: the search runs from the best of them, each counted and none
factorized twice, and its start is a length-scale alone. The bound, the
eigenvectors and q(u) reported come from the factorization at the chosen
tau. The exact evidence is the same bound at m = n. Every search is the
package's own Brent search (:mod:`gpadapt._linalg`), so this module needs
numpy alone.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._linalg import brent_bounded, brent_from_points, pivoted_cholesky
from .errors import ConditioningError, _caller_level
from .exact import (_LOG_2PI, Dataset, SquaredExponential, exact_posterior,
                    kernel_matrix, log_evidence)
from .inducing import _EigenFactor, predict

__all__ = [
    "HyperGrid",
    "SelectionRecord",
    "SelectionReport",
    "poly_grid",
    "exp_grid",
    "dim_grid",
    "select_discrete",
    "coarse_init",
    "tune_continuous",
]

_FAIL = (ConditioningError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class HyperGrid:
    """Finite hyperparameter grid with its mass function and feature rule;
    ``sizes`` holds the rule's feature count at every value."""

    family: str
    values: np.ndarray
    masses: np.ndarray
    m_rule: Callable[[float], int]
    sizes: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "masses", masses)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("grid needs at least one value")
        if np.any(np.diff(values) <= 0):
            raise ValueError("grid values must be strictly increasing")
        if masses.shape != values.shape:
            raise ValueError("masses must align with values")
        if np.any(masses <= 0) or abs(float(masses.sum()) - 1.0) > 1e-12:
            raise ValueError("masses must be a probability vector")
        sizes = tuple(self.m_rule(lam) for lam in values)
        for lam, m in zip(values, sizes):
            if m < 1:
                raise ValueError(f"m_rule must be >= 1 (violated at {lam})")
        object.__setattr__(self, "sizes", sizes)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass
class SelectionRecord:
    lam: float
    log_mass: float
    wall_time: float
    elbo_lambda: float | None = None
    elbo: float | None = None
    m: int | None = None
    error: str | None = None


@dataclass
class SelectionReport:
    chosen: object
    posterior: object
    records: list[SelectionRecord]
    diagnostics: dict = field(default_factory=dict)

    def record_for(self, lam) -> SelectionRecord:
        for rec in self.records:
            if rec.lam == lam:
                return rec
        raise KeyError(lam)


def poly_grid(beta_minus: float, beta_plus: float, n: int,
              c_m: float = 1.0) -> HyperGrid:
    """Smoothness grid with spacing 1/log n on [beta_minus, beta_plus].

    The feature rule is ceil(c_m * n^(1/(1+2*alpha))).
    """
    if not (0.0 < beta_minus < beta_plus):
        raise ValueError("need 0 < beta_minus < beta_plus")
    if n < 3:
        raise ValueError("n must be at least 3")
    if c_m <= 0:
        raise ValueError("c_m must be positive")
    step = 1.0 / math.log(n)
    k_max = int(math.floor((beta_plus - beta_minus) / step + 1e-12))
    values = beta_minus + step * np.arange(k_max + 1)

    def m_rule(alpha: float) -> int:
        return max(1, math.ceil(c_m * n ** (1 / (1 + 2.0 * alpha))))

    return HyperGrid("poly", values, np.full(values.size, 1.0 / values.size),
                     m_rule)


def exp_grid(beta_minus: float, n: int) -> HyperGrid:
    """Scale grid {e^-j} for the exponentially decaying spectrum.

    j runs to floor(log n / (1 + 2*beta_minus)); the feature rule is
    ceil(tau^-1 * (log n)^2).
    """
    if beta_minus <= 0:
        raise ValueError("beta_minus must be positive")
    j_max = int(math.floor(math.log(n) / (1 + 2.0 * beta_minus)))
    if j_max < 1:
        raise ValueError(f"n={n} is too small for beta_minus={beta_minus}")
    values = np.exp(-np.arange(j_max, 0, -1, dtype=float))
    log_n = math.log(n)

    def m_rule(tau: float) -> int:
        return max(1, math.ceil(tau ** -1 * log_n ** 2))

    return HyperGrid("exp", values, np.full(values.size, 1.0 / values.size),
                     m_rule)


def dim_grid(n: int) -> HyperGrid:
    """Truncation-level grid {1, ..., floor(sqrt n)}."""
    if n < 1:
        raise ValueError("n must be positive")
    values = np.arange(1, math.isqrt(n) + 1, dtype=float)

    def m_rule(dim: float) -> int:
        return int(round(dim))

    return HyperGrid("dim", values, np.full(values.size, 1.0 / values.size),
                     m_rule)


def select_discrete(grid: HyperGrid,
                    fitter: Callable[[float], tuple]) -> SelectionReport:
    """Fit every grid value and keep the best mass-weighted bound.

    ``fitter(lam)`` must return ``(fit, collapsed_bound)``. Conditioning
    failures exclude that value with the error recorded; ties resolve to
    the smaller lambda. Raises once every value has failed.
    """
    records: list[SelectionRecord] = []
    best = None  # (score, lam, fit)
    for lam, mass, size in zip(grid.values, grid.masses, grid.sizes):
        log_mass = float(np.log(mass))
        t0 = time.perf_counter()
        try:
            fit, bound = fitter(lam)
        except _FAIL as exc:
            records.append(SelectionRecord(
                lam=float(lam), log_mass=log_mass,
                wall_time=time.perf_counter() - t0,
                error=f"{type(exc).__name__}: {exc}"))
            continue
        score = bound + log_mass
        model = getattr(fit, "model", None)
        m = int(model.m) if model is not None else size
        records.append(SelectionRecord(
            lam=float(lam), log_mass=log_mass,
            wall_time=time.perf_counter() - t0,
            elbo_lambda=float(bound), elbo=float(score), m=m))
        if best is None or score > best[0]:
            best = (score, float(lam), fit)
    if best is None:
        failures = "; ".join(f"{r.lam:g} -> {r.error}" for r in records)
        raise ConditioningError(f"every grid value failed: {failures}")
    return SelectionReport(chosen=best[1], posterior=best[2], records=records)


#: length-scales in :func:`coarse_init`'s scan
COARSE_TAUS = 3
#: absolute tolerance on log tau at which the length-scale search stops
LOG_TAU_XATOL = 1e-6
#: first stride of the length-scale search away from its start, in log tau
_LOG_TAU_STRIDE = 0.25
_GOLDEN = 0.5 * (1.0 + math.sqrt(5.0))
_NAMES = ("sigma", "nu", "tau")


#: cost model of :func:`_pivot_cap`, in multiply-adds: the Python and numpy
#: calls of one pivoted step, the r x r eigenproblem per r^3, the kernel
#: matrix per entry and the n x n eigendecomposition per n^3; fitted to
#: timings of both routes over n from 100 to 1000 and ranks from 0.06 n to
#: 0.95 n (the n x n route at ranks above 0.6 n, near the crossover)
_STEP_OPS = 60_000
_GRAM_EIG_OPS = 1.0
_KERNEL_OPS = 430
_EIG_OPS = 0.48


def _pivot_cap(n: int) -> int:
    """Most pivoted-Cholesky steps :func:`_factor` takes for n points.

    At rank r the pivoted route (the steps, then the r x r eigenproblem of
    :meth:`_EigenFactor.from_factor`) costs about
    ``_STEP_OPS`` r + n r^2 + ``_GRAM_EIG_OPS`` r^3 multiply-adds, the
    n x n route (kernel and eigendecomposition) about
    ``_KERNEL_OPS`` n^2 + ``_EIG_OPS`` n^3; the cap is the largest r at
    which the first is no dearer, and below n, so that rank n marks a
    factor of the whole kernel.
    """
    r = np.arange(n + 1.0)
    pivoted = r * (_STEP_OPS + r * (n + _GRAM_EIG_OPS * r))
    cap = np.count_nonzero(pivoted <= n * n * (_KERNEL_OPS + _EIG_OPS * n))
    return min(int(cap) - 1, n - 1)


def _factor(data: Dataset, rank: int, tau: float) -> _EigenFactor:
    """The one factorization at ``tau``, of the unit-variance kernel.

    Greedy pivoted Cholesky down to a residual trace of n^2 eps, about what
    the drop rule discards, then :meth:`_EigenFactor.from_factor`; the
    factor keeps no eigenvectors and runs the same Cholesky again should a
    fit ask for them. A kernel whose rank passes :func:`_pivot_cap` is
    factorized whole instead (:meth:`_EigenFactor.from_kernel`).
    """
    n = data.n
    xs = data.x / tau

    def cholesky():
        return pivoted_cholesky(lambda i: np.exp(-np.square(xs - xs[i])),
                                np.ones(n), n * n * np.finfo(float).eps,
                                _pivot_cap(n))

    piv = cholesky()
    if piv is None:
        return _EigenFactor.from_kernel(
            kernel_matrix(SquaredExponential(1.0, tau), data.x), data.y, rank)
    return _EigenFactor.from_factor(piv[0].T, data.y, rank, float(n),
                                    lambda: cholesky()[0].T)


def _rank(objective: str, m: int, n: int) -> int:
    """Features behind the objective: m for the bound, all n for the evidence.

    At m = n the collapsed bound is the log evidence (its trace term
    vanishes), so both objectives share one code path.
    """
    if objective not in ("elbo", "evidence"):
        raise ValueError("objective must be 'elbo' or 'evidence'")
    return m if objective == "elbo" else n


def _coarse_taus(lo: float, hi: float) -> list[float]:
    """:func:`coarse_init`'s lattice: ``COARSE_TAUS`` log-spaced taus
    interior to [lo, hi], or lo alone when lo = hi."""
    taus = np.exp(np.linspace(np.log(lo), np.log(hi), COARSE_TAUS + 2))
    return [float(lo)] if lo == hi else [float(t) for t in taus[1:-1]]


class _TauProfile:
    """The objective at a length-scale tau, maximized over (sigma, nu):
    one :func:`_factor` and :func:`_solve_sigma_nu` within the log bounds
    ``lo``, ``hi`` of (sigma, nu). Counts the taus factorized, failed and
    factorized whole, and keeps the best tau's (value, log (sigma, nu),
    tau, factor); a losing factor goes before the next is built."""

    def __init__(self, data: Dataset, rank: int, lo: np.ndarray,
                 hi: np.ndarray):
        self.data, self.rank, self.lo, self.hi = data, rank, lo, hi
        self.evals = self.fails = self.full = 0
        self.best = None

    def __call__(self, tau: float) -> float:
        self.evals += 1
        try:
            fac = _factor(self.data, self.rank, tau)
        except _FAIL:
            self.fails += 1
            return -np.inf
        self.full += fac.rank == self.data.n
        value, z = _solve_sigma_nu(fac, self.lo, self.hi)
        if self.best is None or value > self.best[0]:
            self.best = (value, z, tau, fac)
        return value


def coarse_init(data: Dataset, m: int, bounds: Sequence[tuple],
                objective: str = "elbo") -> float:
    """Pick the starting length-scale of :func:`tune_continuous`.

    Scores ``COARSE_TAUS`` log-spaced taus interior to tau's bounds as the
    tuner scores every tau (:class:`_TauProfile`: one factorization, then
    (sigma, nu) solved within their bounds) and returns the best; a tau
    pinned by equal bounds is returned as is, unfactorized. Taus whose
    factorization fails are skipped; raises if every one fails.
    """
    lo, hi = bounds[2]
    if lo == hi:
        return float(lo)
    log_lo, log_hi = np.log(np.asarray(bounds[:2], dtype=float)).T
    profile = _TauProfile(data, _rank(objective, m, data.n), log_lo, log_hi)
    for tau in _coarse_taus(lo, hi):
        profile(tau)
    if profile.best is None:
        raise ConditioningError("every coarse-grid evaluation failed")
    return profile.best[2]


#: absolute tolerance of the (sigma, nu) search at one tau, in log units
_SIGMA_NU_XATOL = 1e-10


def _ratio_bound(fac: _EigenFactor, lo: np.ndarray, hi: np.ndarray
                 ) -> Callable[[float], tuple[float, np.ndarray]]:
    """``fac``'s bound over log ratio t = log(nu / sigma^2), with sigma^2
    profiled out and clamped to the box of log bounds ``lo``, ``hi``.

    At ratio r = e^t and noise s^2 the bound reads

        -(n log 2 pi + n log s^2 + sum log(1 + r lam)
          + Q(r) / s^2 + r gap) / 2,   Q(r) = rest + sum p^2 / (1 + r lam),

    so each t costs two O(m) sums. Returns t -> (value, (log sigma,
    log nu)).
    """
    lam, p2, n = fac.lam, fac.p * fac.p, fac.n
    s2_lo, s2_hi = math.exp(2.0 * lo[0]), math.exp(2.0 * hi[0])
    nu_lo, nu_hi = math.exp(lo[1]), math.exp(hi[1])
    const = n * _LOG_2PI

    def at(t: float) -> tuple[float, np.ndarray]:
        r = math.exp(t)
        d = 1.0 + r * lam
        quad = fac.rest + float(np.sum(p2 / d))
        s2 = min(max(quad / n, s2_lo, nu_lo / r), s2_hi, nu_hi / r)
        value = -0.5 * (const + n * math.log(s2) + float(np.sum(np.log(d)))
                        + quad / s2 + r * fac.gap)
        return value, np.array([0.5 * math.log(s2), math.log(r * s2)])

    return at


def _solve_sigma_nu(fac: _EigenFactor, lo: np.ndarray, hi: np.ndarray
                    ) -> tuple[float, np.ndarray]:
    """Maximize ``fac``'s bound over (log sigma, log nu) in the box of log
    bounds ``lo``, ``hi``; a pinned coordinate has lo = hi.

    Write nu = r sigma^2: at fixed r the bound is

        -(n log sigma^2 + Q(r) / sigma^2) / 2 + c(r),
        Q(r) = rest + sum p^2 / (1 + r lam),

    unimodal in log sigma^2, so sigma^2 = Q(r) / n clamped to the sigma
    bounds and to the nu bounds over r is the exact optimum at that r, and
    one bounded search over log r remains (:func:`_ratio_bound`). A pinned
    coordinate is held by that clamp, so the same search serves every
    pinning. Its kinks are the r of the box corners (sigma, nu) at (lo, lo)
    and (hi, hi), where the clamp changes sides, and the search only
    approaches them and its ends within its tolerance, so the best of the
    search and those four points is kept. Returns the maximum, as
    :meth:`_EigenFactor.bound` reads it, and the log parameters reaching
    it, a pinned one exactly its bound.
    """
    at = _ratio_bound(fac, lo, hi)
    a, b = lo[1] - 2.0 * hi[0], hi[1] - 2.0 * lo[0]
    t, f, _, _ = brent_bounded(lambda t: -at(t)[0], a, b,
                               xatol=_SIGMA_NU_XATOL)
    corners = (a, b, lo[1] - 2.0 * lo[0], hi[1] - 2.0 * hi[0])
    _, t = max([(-f, t)] + [(at(c)[0], c) for c in corners])
    z = np.where(lo == hi, lo, at(t)[1])
    return fac.bound(*np.exp(z)), z


def _search_log_tau(h: Callable[[float], float], t0: float, f0: float,
                    lo: float, hi: float, maxiter: int) -> tuple[int, str]:
    """Maximize ``h`` over [lo, hi] from ``t0``, where h is ``f0``, in at
    most ``maxiter`` steps.

    Walks uphill from t0 with a stride growing by the golden ratio until h
    falls or a bound is reached, then runs Brent inside that bracket to
    ``LOG_TAU_XATOL``, started from the walk's probes that lie in it
    (:func:`~gpadapt._linalg.brent_from_points`). Every step is one call
    of h, which keeps the best point itself; t0 costs none, its value is
    the caller's. Returns the steps taken and how the search ended:
    ``"step"`` or ``"bracket"`` (Brent's stops, the tolerance met),
    ``"maxiter"`` or ``"nan"``.
    """
    probes = [(t0, f0)]  # every (t, h(t)) so far

    def probe(t):
        f = h(t)
        probes.append((t, f))
        return f

    if maxiter < 1:
        return 0, "maxiter"
    stride = _LOG_TAU_STRIDE
    cur = min(t0 + stride, hi)
    f_cur = probe(cur)
    direction = 1.0
    if f_cur <= f0:
        if len(probes) - 1 == maxiter:
            return maxiter, "maxiter"
        left = max(t0 - stride, lo)
        f_left = probe(left)
        if f_left <= f0:
            bracket = (left, cur)
            cur = None
        else:
            direction, cur, f_cur = -1.0, left, f_left
    prev = t0
    while cur is not None:
        if cur in (lo, hi):
            bracket = (prev, cur)
            break
        if len(probes) - 1 == maxiter:
            return maxiter, "maxiter"
        stride *= _GOLDEN
        nxt = min(max(cur + direction * stride, lo), hi)
        f_nxt = probe(nxt)
        if f_nxt <= f_cur:
            bracket = (prev, nxt)
            break
        prev, cur, f_cur = cur, nxt, f_nxt
    steps = len(probes) - 1
    if steps == maxiter:
        return steps, "maxiter"
    a, b = min(bracket), max(bracket)
    _, _, nfev, stop = brent_from_points(
        lambda t: -h(t), a, b, [(t, -f) for t, f in probes if a <= t <= b],
        xatol=LOG_TAU_XATOL, maxiter=maxiter - steps)
    return steps + nfev, stop


def tune_continuous(data: Dataset, m: int, init: float,
                    bounds: Sequence[tuple], objective: str = "elbo",
                    maxiter: int = 200) -> SelectionReport:
    """Tune (sigma, nu, tau) of the squared-exponential kernel.

    ``objective="elbo"`` maximizes the collapsed bound of an m-feature
    sample-spectral model; ``objective="evidence"`` maximizes the exact
    marginal likelihood (the empirical-Bayes reference), which is the same
    bound at m = n. The kernel is factorized once per length-scale tau
    (:func:`_factor`): a bounded 1-D search over log tau starts at the
    length-scale ``init`` (such as :func:`coarse_init`'s) and takes at
    most ``maxiter`` steps, and at each tau (sigma, nu) are solved within
    the bounds in O(m) per evaluation, so they need no start. A coordinate
    whose two bounds are equal is pinned there and reported exactly at
    that value; a pinned tau, which ``init`` must equal, is factorized once.
    The report's posterior is a callable mapping query points to a
    Gaussian law; for ``"elbo"``, it and the bound come from the
    factorization at the chosen tau. Its diagnostics hold the tau steps
    (``iterations``), the taus factorized (``evaluations``, init's
    included) and how many failed, whether the tau search met its
    tolerance, the names of unpinned coordinates ending at a bound
    (``pinned``), the eigenvalues dropped at the chosen tau, the rank of
    that tau's factor (``factor_rank``, n when it was factorized whole),
    how many taus were factorized whole (``full_factorizations``) and how
    the tau search ended (``tau_stop``: ``"step"``, ``"bracket"``,
    ``"maxiter"``, or None for a pinned tau).
    """
    return _tune(data, m, [init], bounds, objective, maxiter)


def _tune(data: Dataset, m: int, starts: Sequence[float],
          bounds: Sequence[tuple], objective: str,
          maxiter: int) -> SelectionReport:
    """:func:`tune_continuous` from the best of the length-scales
    ``starts``, each factorized once and counted in ``evaluations``."""
    rank = _rank(objective, m, data.n)
    lo = np.asarray([b[0] for b in bounds], dtype=float)
    hi = np.asarray([b[1] for b in bounds], dtype=float)
    if lo.shape != (3,) or np.any(lo <= 0) or not np.all(np.isfinite(hi)):
        raise ValueError("bounds must be three finite positive intervals")
    fixed = lo == hi
    if fixed.all():
        raise ValueError("at least one coordinate must be free")
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 1 or starts.size == 0:
        raise ValueError("init must be one length-scale")
    if not np.all(starts == lo[2] if fixed[2]
                  else (lo[2] < starts) & (starts < hi[2])):
        raise ValueError("init must be interior to tau's bounds, or equal "
                         "to a pinned tau")

    log_lo, log_hi = np.log(lo), np.log(hi)
    profile = _TauProfile(data, rank, log_lo[:2], log_hi[:2])
    t0 = time.perf_counter()
    values = [profile(float(tau)) for tau in starts]
    if fixed[2]:
        iterations, tau_stop = 0, None
    else:
        best = int(np.argmax(values))
        iterations, tau_stop = _search_log_tau(
            lambda t: profile(math.exp(t)), np.log(starts)[best],
            values[best], log_lo[2], log_hi[2], maxiter)
    wall = time.perf_counter() - t0
    if profile.best is None:
        raise ConditioningError(
            f"continuous tuning failed on all {profile.evals} evaluations")

    _, z, tau, fac = profile.best
    z = np.append(z, math.log(tau))
    at_bound = ~fixed & ((z - log_lo < 1e-6) | (log_hi - z < 1e-6))
    pinned = [name for name, hit in zip(_NAMES, at_bound) if hit]
    if pinned:
        warnings.warn("tuned value pinned at bounds: " + ", ".join(pinned),
                      RuntimeWarning, stacklevel=_caller_level())

    sigma, nu = (float(v) for v in np.where(fixed[:2], lo[:2],
                                            np.exp(z[:2])))
    kern = SquaredExponential(nu, tau)
    if objective == "elbo":
        q = fac.fit(sigma * sigma, nu, kern, data.x)
        bound, m_used = fac.bound(sigma, nu), q.model.m
        handle = lambda query: predict(q, query)  # noqa: E731
    else:
        shifted = data.with_sigma_sq(sigma * sigma)
        bound = log_evidence(kern, shifted)
        handle = lambda query: exact_posterior(kern, shifted, query)  # noqa: E731
        m_used = None
    record = SelectionRecord(lam=float("nan"), log_mass=0.0, wall_time=wall,
                             elbo_lambda=float(bound), elbo=float(bound),
                             m=m_used)
    return SelectionReport(
        chosen=(sigma, nu, kern.tau), posterior=handle, records=[record],
        diagnostics={"iterations": iterations, "evaluations": profile.evals,
                     "failures": profile.fails,
                     "converged": tau_stop in (None, "step", "bracket"),
                     "tau_stop": tau_stop, "pinned": pinned,
                     "dropped_eigenvalues": fac.dropped,
                     "factor_rank": fac.rank,
                     "full_factorizations": profile.full})
