"""Hyperparameter grids, discrete ELBO selection, and continuous tuning.

The discrete selector scores each grid value lambda by

    score(lambda) = collapsed_bound(lambda) + log mass(lambda)

and keeps the argmax, which coincides with the argmax of the collapsed
bound alone whenever the masses are uniform.

The continuous tuner fits (sigma, nu, tau) of the squared-exponential
kernel nu exp(-(x - x')^2 / tau^2). Its eigenvectors depend on tau alone
and nu only scales its eigenvalues, so the unit-variance kernel is
factorized once per tau; in that eigenbasis the collapsed bound at any
(sigma, nu) is a closed form costing O(m). A bounded 1-D search over
log tau calls that factorization, and at each tau the free (sigma, nu)
are solved within their bounds. The exact evidence is the same bound at
m = n.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.optimize

from .errors import ConditioningError
from .exact import Dataset, SquaredExponential, exact_posterior, kernel_matrix, log_evidence
from .inducing import elbo_lambda, predict, sample_features, titsias_fit

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
    """Finite hyperparameter grid with its mass function and feature rule."""

    family: str
    values: np.ndarray
    masses: np.ndarray
    m_rule: Callable[[float], int]

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
        for lam in values:
            if self.m_rule(lam) < 1:
                raise ValueError(f"m_rule must be >= 1 (violated at {lam})")

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
              c_m: float = 1.0, d: int = 1) -> HyperGrid:
    """Smoothness grid with spacing 1/log n on [beta_minus, beta_plus].

    The feature rule is ceil(c_m * n^(d/(d+2*alpha))).
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
        return max(1, math.ceil(c_m * n ** (d / (d + 2.0 * alpha))))

    return HyperGrid("poly", values, np.full(values.size, 1.0 / values.size),
                     m_rule)


def exp_grid(beta_minus: float, d: int, n: int) -> HyperGrid:
    """Scale grid {e^-j} for the exponentially decaying spectrum.

    j runs to floor(log n / (d + 2*beta_minus)); the feature rule is
    ceil(tau^-d * (log n)^(d+1)).
    """
    if beta_minus <= 0:
        raise ValueError("beta_minus must be positive")
    if d < 1:
        raise ValueError("d must be a positive integer")
    j_max = int(math.floor(math.log(n) / (d + 2.0 * beta_minus)))
    if j_max < 1:
        raise ValueError(f"n={n} is too small for beta_minus={beta_minus}")
    values = np.exp(-np.arange(j_max, 0, -1, dtype=float))
    log_n = math.log(n)

    def m_rule(tau: float) -> int:
        return max(1, math.ceil(tau ** (-d) * log_n ** (d + 1)))

    return HyperGrid("exp", values, np.full(values.size, 1.0 / values.size),
                     m_rule)


def dim_grid(n: int, powers_of_two: bool = False) -> HyperGrid:
    """Truncation-level grid {1, ..., floor(sqrt n)}, optionally dyadic."""
    if n < 1:
        raise ValueError("n must be positive")
    cap = math.isqrt(n)
    if powers_of_two:
        values = [1]
        while values[-1] * 2 <= cap:
            values.append(values[-1] * 2)
        values = np.asarray(values, dtype=float)
    else:
        values = np.arange(1, cap + 1, dtype=float)

    def m_rule(dim: float) -> int:
        return int(round(dim))

    return HyperGrid("dim", values, np.full(values.size, 1.0 / values.size),
                     m_rule)


def select_discrete(grid: HyperGrid, data: Dataset,
                    fitter: Callable[[float], tuple]) -> SelectionReport:
    """Fit every grid value and keep the best mass-weighted bound.

    ``fitter(lam)`` must return ``(fit, collapsed_bound)``. Conditioning
    failures exclude that value with the error recorded; ties resolve to
    the smaller lambda. Raises once every value has failed.
    """
    records: list[SelectionRecord] = []
    best = None  # (score, lam, fit)
    for lam, mass in zip(grid.values, grid.masses):
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
        m = int(model.m) if model is not None else grid.m_rule(lam)
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


#: absolute tolerance on log tau at which the length-scale search stops
LOG_TAU_XATOL = 1e-6
#: first stride of the length-scale search away from its start, in log tau
_LOG_TAU_STRIDE = 0.25
_GOLDEN = 0.5 * (1.0 + math.sqrt(5.0))
_LOG_2PI = math.log(2.0 * math.pi)
_NAMES = ("sigma", "nu", "tau")


def _top_features(K: np.ndarray, m: int, **kwargs):
    """:func:`sample_features` without its dropped-eigenvalue warning.

    The tuner records the number dropped at the chosen tau in its
    diagnostics instead.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return sample_features(K, m, **kwargs)


@dataclass(frozen=True)
class _EigenFactor:
    """Unit-variance squared-exponential kernel at one tau, in its eigenbasis.

    ``K1`` is ``kernel_matrix(SquaredExponential(1, tau), x)``, ``lam`` its
    top eigenvalues kept by :func:`sample_features` and ``p = V'y`` the
    data in the matching eigenvectors. The kernel of variance nu is nu K1
    with the same eigenvectors, so every (sigma, nu) is scored from these
    without touching the design.
    """

    tau: float
    K1: np.ndarray
    lam: np.ndarray
    p: np.ndarray
    rest: float  # y'y - p'p: energy of y outside the kept eigenvectors
    gap: float  # tr K1 - sum(lam): trace term per unit of nu
    n: int
    dropped: int

    def bound(self, sigma: float, nu: float) -> tuple[float, np.ndarray]:
        """Collapsed bound at (sigma, nu, tau) and its gradient.

        The value equals ``_collapsed_profile`` with G = nu diag(lam),
        W y = sqrt(nu lam) * p and tr K_ff = nu tr K1 at sigma^2. G is
        diagonal, so with d = sigma^2 + nu lam it is the closed form

            -(n log 2 pi + sum log d + (n - m) log sigma^2
              + sum p^2 / d + (rest + nu gap) / sigma^2) / 2

        in O(m). The gradient is taken in (log sigma, log nu).
        """
        s = sigma * sigma
        g = nu * self.lam
        d = s + g
        q = self.p * self.p / d
        qd = q / d
        resid = (self.rest + nu * self.gap) / s
        m = self.lam.size
        value = -0.5 * (self.n * _LOG_2PI + float(np.sum(np.log(d)))
                        + (self.n - m) * math.log(s) + float(np.sum(q))
                        + resid)
        d_log_sigma = -(s * float(np.sum(1.0 / d)) + (self.n - m)
                        - s * float(np.sum(qd)) - resid)
        d_log_nu = -0.5 * (float(np.sum(g / d)) - float(g @ qd)
                           + nu * self.gap / s)
        return value, np.array([d_log_sigma, d_log_nu])


def _factor(data: Dataset, rank: int, tau: float) -> _EigenFactor:
    """The one factorization at ``tau``: top-``rank`` eigenpairs of K1."""
    K1 = kernel_matrix(SquaredExponential(1.0, tau), data.x)
    model = _top_features(K1, rank)
    p = model.V.T @ data.y
    return _EigenFactor(
        tau=tau, K1=K1, lam=model.eigvals, p=p,
        rest=float(data.y @ data.y) - float(p @ p),
        gap=float(np.trace(K1)) - float(np.sum(model.eigvals)),
        n=data.n, dropped=rank - model.m)


def _rank(objective: str, m: int, n: int) -> int:
    """Features behind the objective: m for the bound, all n for the evidence.

    At m = n the collapsed bound is the log evidence (its trace term
    vanishes), so both objectives share one code path.
    """
    if objective not in ("elbo", "evidence"):
        raise ValueError("objective must be 'elbo' or 'evidence'")
    return m if objective == "elbo" else n


def coarse_init(data: Dataset, m: int, bounds: Sequence[tuple],
                objective: str = "elbo",
                points_per_axis: int = 3) -> tuple:
    """Pick a starting triple for :func:`tune_continuous` by grid scan.

    Scores the objective on a log-spaced lattice interior to the bounds and
    returns the best (sigma, nu, tau). The kernel is factorized once per
    lattice tau (:class:`_EigenFactor`); each (sigma, nu) point then costs
    O(m). Lattice taus whose factorization fails are skipped; raises if
    every one fails.
    """
    rank = _rank(objective, m, data.n)
    sigmas, nus, taus = (
        np.exp(np.linspace(np.log(lo), np.log(hi), points_per_axis + 2))[1:-1]
        for lo, hi in bounds)
    best = None
    for tau in taus:
        try:
            fac = _factor(data, rank, float(tau))
        except _FAIL:
            continue
        for sigma in sigmas:
            for nu in nus:
                val = fac.bound(sigma, nu)[0]
                if best is None or val > best[0]:
                    best = (val, (float(sigma), float(nu), float(tau)))
    if best is None:
        raise ConditioningError("every coarse-grid evaluation failed")
    return best[1]


def _solve_sigma_nu(fac: _EigenFactor, start: np.ndarray, free: np.ndarray,
                    lo: np.ndarray, hi: np.ndarray
                    ) -> tuple[float, np.ndarray]:
    """Maximize ``fac``'s bound over the free entries of (log sigma, log nu).

    L-BFGS-B within the log bounds from ``start``, with the analytic
    gradient; pinned entries stay at ``start``. Returns the maximum and the
    log parameters reaching it.
    """
    z = start.copy()
    if not free.any():
        return fac.bound(*np.exp(z))[0], z

    def negative(z_free):
        z[free] = z_free
        value, grad = fac.bound(*np.exp(z))
        return -value, -grad[free]

    result = scipy.optimize.minimize(
        negative, start[free], jac=True, method="L-BFGS-B",
        bounds=list(zip(lo[free], hi[free])),
        options={"ftol": 1e-15, "gtol": 1e-9, "maxiter": 500})
    z[free] = result.x
    return -float(result.fun), z


def _search_log_tau(h: Callable[[float], float], t0: float, lo: float,
                    hi: float, maxiter: int) -> tuple[int, bool]:
    """Maximize ``h`` over [lo, hi] from ``t0`` in at most ``maxiter`` steps.

    Walks uphill from t0 with a stride growing by the golden ratio until h
    falls or a bound is reached, then runs bounded Brent inside that bracket
    to ``LOG_TAU_XATOL``. Every step is one call of h, which keeps the best
    point itself. Returns the steps taken and whether the tolerance was met.
    """
    steps = 0
    f0 = h(t0)

    def probe(t):
        nonlocal steps
        steps += 1
        return h(t)

    if maxiter < 1:
        return 0, False
    stride = _LOG_TAU_STRIDE
    cur = min(t0 + stride, hi)
    f_cur = probe(cur)
    direction = 1.0
    if f_cur <= f0:
        if steps == maxiter:
            return steps, False
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
        if steps == maxiter:
            return steps, False
        stride *= _GOLDEN
        nxt = min(max(cur + direction * stride, lo), hi)
        f_nxt = probe(nxt)
        if f_nxt <= f_cur:
            bracket = (prev, nxt)
            break
        prev, cur, f_cur = cur, nxt, f_nxt
    if maxiter - steps < 2:  # bounded Brent makes at least two calls
        return steps, False
    result = scipy.optimize.minimize_scalar(
        lambda t: -h(t), bounds=(min(bracket), max(bracket)),
        method="bounded",
        options={"xatol": LOG_TAU_XATOL, "maxiter": maxiter - steps})
    return steps + int(result.nfev), bool(result.success)


def tune_continuous(data: Dataset, m: int,
                    init: Sequence[float], bounds: Sequence[tuple],
                    free: Sequence[bool] = (True, True, True),
                    objective: str = "elbo",
                    maxiter: int = 200) -> SelectionReport:
    """Tune (sigma, nu, tau) of the squared-exponential kernel.

    ``objective="elbo"`` maximizes the collapsed bound of an m-feature
    sample-spectral model; ``objective="evidence"`` maximizes the exact
    marginal likelihood (the empirical-Bayes reference), which is the same
    bound at m = n. The kernel is factorized once per length-scale tau
    (:class:`_EigenFactor`): a bounded 1-D search over log tau starts at
    ``init`` and takes at most ``maxiter`` steps, and at each tau the free
    (sigma, nu) are solved within the bounds in O(m) per evaluation.
    ``free`` pins coordinates (False entries stay at ``init``); a pinned tau
    makes one factorization. The report's posterior is a callable mapping
    query points to a Gaussian law. Its diagnostics hold the tau steps
    (``iterations``), the factorizations (``evaluations``) and how many
    failed, whether the tau search met its tolerance, the names ``pinned``
    at bounds and the eigenvalues dropped at the chosen tau.
    """
    rank = _rank(objective, m, data.n)
    init = np.asarray(init, dtype=float)
    free = np.asarray(free, dtype=bool)
    if init.shape != (3,) or free.shape != (3,):
        raise ValueError("init and free must have length 3 (sigma, nu, tau)")
    if not free.any():
        raise ValueError("at least one coordinate must be free")
    if np.any(init <= 0):
        raise ValueError("init must be positive")
    lo = np.asarray([b[0] for b in bounds], dtype=float)
    hi = np.asarray([b[1] for b in bounds], dtype=float)
    if lo.shape != (3,) or np.any(lo <= 0) or not np.all(np.isfinite(hi)):
        raise ValueError("bounds must be three finite positive intervals")
    if np.any(init <= lo) or np.any(init >= hi):
        raise ValueError("init must be interior to bounds")

    log_init = np.log(init)
    log_lo, log_hi = np.log(lo), np.log(hi)
    n_evals = 0
    n_fails = 0
    best = None  # (bound, log (sigma, nu, tau), factor)

    def profile(t: float) -> float:
        """Best bound over the free (sigma, nu) at tau = e^t."""
        nonlocal n_evals, n_fails, best
        n_evals += 1
        try:
            fac = _factor(data, rank, math.exp(t))
        except _FAIL:
            n_fails += 1
            return -np.inf
        start = log_init[:2] if best is None else best[1][:2]
        value, z = _solve_sigma_nu(fac, start, free[:2], log_lo[:2],
                                   log_hi[:2])
        if best is None or value > best[0]:
            best = (value, np.append(z, t), fac)
        return value

    t0 = time.perf_counter()
    if free[2]:
        iterations, converged = _search_log_tau(
            profile, log_init[2], log_lo[2], log_hi[2], maxiter)
    else:
        profile(log_init[2])
        iterations, converged = 0, True
    wall = time.perf_counter() - t0
    if best is None:
        raise ConditioningError(
            f"continuous tuning failed on all {n_evals} evaluations")

    _, z, fac = best
    at_bound = free & ((z - log_lo < 1e-6) | (log_hi - z < 1e-6))
    pinned = [name for name, hit in zip(_NAMES, at_bound) if hit]
    if pinned:
        warnings.warn("tuned value pinned at bounds: " + ", ".join(pinned),
                      RuntimeWarning, stacklevel=2)

    sigma, nu = (float(v) for v in np.exp(z[:2]))
    tau = fac.tau
    shifted = data.with_sigma_sq(sigma * sigma)
    kern = SquaredExponential(nu, tau)
    if objective == "elbo":
        # nu K1 is kernel_matrix(kern, x) exactly: no second kernel build
        model = _top_features(nu * fac.K1, m, kernel=kern, x=data.x)
        q = titsias_fit(model, shifted)
        bound = elbo_lambda(model, shifted)
        handle = lambda query: predict(q, query)  # noqa: E731
        m_used = model.m
    else:
        bound = log_evidence(kern, shifted)
        handle = lambda query: exact_posterior(kern, shifted, query)  # noqa: E731
        m_used = None
    record = SelectionRecord(lam=float("nan"), log_mass=0.0, wall_time=wall,
                             elbo_lambda=float(bound), elbo=float(bound),
                             m=m_used)
    return SelectionReport(
        chosen=(sigma, nu, tau), posterior=handle, records=[record],
        diagnostics={"iterations": iterations, "evaluations": n_evals,
                     "failures": n_fails, "converged": converged,
                     "pinned": pinned, "dropped_eigenvalues": fac.dropped})
