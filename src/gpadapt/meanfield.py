"""Mean-field variational inference for the flat truncated series prior.

With D active basis weights under the flat spectrum s_j^2 = 1/D, the exact
posterior over weights is Gaussian with a dense covariance. The mean-field
family restricts to diagonal covariance Sigma with the mean TIED to it,

    mu = sigma^{-2} Sigma Phi' y,

mirroring the exact posterior's mean map; only the D positive variances are
free. The evidence lower bound then has the explicit form

    -(n/2) log(2 pi sigma^2)
    - [tr(Phi Sigma Phi') + |Phi mu - y|^2] / (2 sigma^2)
    - (1/2) [ -log|D Sigma| - D + tr(D Sigma) + D mu'mu ]
    + log pi(D),

maximized by coordinate ascent with an exact per-coordinate update: fixing
the other coordinates, the objective in one variance t is

    (1/2) log t + A t + B t^2,    B <= 0,

strictly concave on t > 0 with a quadratic-formula maximizer, so every
sweep increases the bound by construction.

Fit and bound read the data only through G = Phi'Phi, b = Phi'y, y'y, n
and sigma^2 (the residual by |Phi mu - y|^2 = mu'G mu - 2 mu'b + y'y), so a
sweep over truncation levels reads the leading blocks of one
``inducing.feature_stats``, and :func:`mf_fit_levels` fits all its levels
in lockstep: one coordinate ascent over a D_max x levels matrix, each
coordinate one vector step over the levels that own it, its couplings one
matrix-vector product. A level's zero padding changes its iterates only
by rounding, so each level matches its own one-level fit to rounding.
:func:`mf_fit` is the one-level case, and its last bound equals
:func:`mf_elbo` at its iterate exactly, both from one bound function.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _linalg
from .basis import BASIS
from .exact import Dataset, GaussianPosterior
from .inducing import FeatureStats

__all__ = [
    "DesignMatrix",
    "MeanFieldPosterior",
    "design_matrix",
    "mf_elbo",
    "mf_fit",
    "mf_fit_levels",
    "mf_witness",
    "mf_kl_exact",
    "mf_predict",
]

MAX_SWEEPS = 500
#: a fit stops once a sweep gains at most SWEEP_RTOL (|bound| + y'y / sigma^2):
#: above the rounding of the Gram identity's terms, of size y'y / sigma^2
SWEEP_RTOL = 1e-14


@dataclass
class DesignMatrix:
    """Basis evaluations at the design plus the cached Gram matrix."""

    Phi: np.ndarray
    gram: np.ndarray
    D: int

    @property
    def n(self) -> int:
        return self.Phi.shape[0]


@dataclass
class MeanFieldPosterior:
    """Diagonal-covariance weight posterior with the tied mean."""

    D: int
    Sigma_diag: np.ndarray
    mu: np.ndarray
    converged: bool = True
    elbo_path: np.ndarray = field(default_factory=lambda: np.empty(0))


def design_matrix(x: np.ndarray, D: int) -> DesignMatrix:
    """Evaluate the first D basis functions at x and cache Phi'Phi."""
    if D < 1:
        raise ValueError("D must be a positive integer")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size == 0:
        Phi = np.zeros((0, D))
    else:
        Phi = BASIS.features(x, D)
    return DesignMatrix(Phi=Phi, gram=Phi.T @ Phi, D=D)


def _bound(S: np.ndarray, M: np.ndarray, G: np.ndarray, b: np.ndarray,
           yty: float, n: int, sigma_sq: float, D: np.ndarray) -> np.ndarray:
    """Bounds without the model-size mass, one per column, from the design
    statistics. Column c holds level D[c]'s variances S and means M (a
    coordinates x levels array), zero beyond D[c]. The residual reads
    mu'G mu = mu'(G - diag G) mu + sum_j G_jj mu_j^2, the coupling term
    from the same off-diagonal product that a coordinate step reads."""
    g = np.diag(G)[:, None]
    R = (G - np.diag(np.diag(G))) @ M
    rss = (M * (R + g * M)).sum(axis=0) - 2.0 * (b @ M) + yty
    tr_smear = (S * g).sum(axis=0)
    fit = (
        -0.5 * n * np.log(2.0 * np.pi * sigma_sq)
        - 0.5 * (tr_smear + rss) / sigma_sq
    )
    log_S = np.log(S, out=np.zeros_like(S), where=S > 0)
    log_det = D * np.log(D) + log_S.sum(axis=0)
    kl = 0.5 * (-log_det - D + D * S.sum(axis=0) + D * (M * M).sum(axis=0))
    return fit - kl


def mf_elbo(q: MeanFieldPosterior, dm: DesignMatrix, data: Dataset
            ) -> float:
    """Explicit bound value at q, without the prior mass of D, which grid
    selection adds separately."""
    if np.any(q.Sigma_diag <= 0):
        raise ValueError("variational variances must be positive")
    if dm.D != q.D:
        raise ValueError("design matrix and posterior disagree on D")
    if dm.n != data.n:
        raise ValueError("design matrix was built for a different dataset")
    return float(_bound(q.Sigma_diag[:, None], q.mu[:, None], dm.gram,
                        dm.Phi.T @ data.y, float(data.y @ data.y), data.n,
                        data.sigma_sq, np.array([float(q.D)]))[0])


def mf_witness(dm: DesignMatrix, data: Dataset) -> MeanFieldPosterior:
    """Constant-variance member Sigma_jj = (D + n / sigma^2)^{-1}.

    This is the exact posterior's variance under a perfectly balanced
    design, and the initializer for :func:`mf_fit`.
    """
    if dm.n != data.n:
        raise ValueError("design matrix was built for a different dataset")
    Sigma = np.full(dm.D, 1.0 / (dm.D + data.n / data.sigma_sq))
    return MeanFieldPosterior(D=dm.D, Sigma_diag=Sigma,
                              mu=Sigma * (dm.Phi.T @ data.y) / data.sigma_sq)


def _ascent(G: np.ndarray, b: np.ndarray, yty: float, n: int, s2: float,
            levels: list[int]) -> list[MeanFieldPosterior]:
    """Coordinate ascent for the distinct ascending ``levels`` in lockstep.

    Level D reads the leading D x D block of G = Phi'Phi and the first D
    entries of b = Phi'y. Columns of S and M hold one level each, zero
    beyond its D, so the levels that own coordinate j are a suffix of the
    columns. One step updates them all: their couplings
    r_j = sum_{l != j} G_jl mu_l are one matvec of row j of G - diag G
    with the current iterate, which holds this sweep's values below j and
    the last sweep's above (Gauss-Seidel order). A level leaves the batch,
    frozen, on the sweep that gains at most SWEEP_RTOL (|bound| +
    y'y / sigma^2).
    """
    top = levels[-1]
    G, b = G[:top, :top], b[:top]
    g = np.diag(G)
    off = G - np.diag(g)
    Dv = np.asarray(levels, dtype=float)
    S = np.where(np.arange(top)[:, None] < Dv, 1.0 / (Dv + n / s2), 0.0)
    M = S * b[:, None] / s2
    # the coordinate update maximizes (1/2) log t + A t + B t^2 with
    # A = A0 - b_j r_j / sigma^4 and B = -B4 / 4 <= 0; A0 and B4 depend
    # on the level, not on the iterate
    A0 = (-g / (2 * s2))[:, None] - 0.5 * Dv + (b**2 / s2**2)[:, None]
    B4 = 4.0 * ((b**2 / (2 * s2**2))[:, None] * ((g / s2)[:, None] + Dv))
    curved = (b**2 / (2 * s2**2) > 0.0).tolist()
    b_s4, b_s2 = (b / s2**2).tolist(), (b / s2).tolist()
    scale = yty / s2
    cols = list(range(len(levels)))
    last = _bound(S, M, G, b, yty, n, s2, Dv)
    paths = [[v] for v in last.tolist()]
    fits: list[MeanFieldPosterior | None] = [None] * len(levels)

    def freeze(i, col, converged):
        D = levels[i]
        fits[i] = MeanFieldPosterior(
            D=D, Sigma_diag=S[:D, col].copy(), mu=M[:D, col].copy(),
            converged=converged, elbo_path=np.asarray(paths[i]))

    for _ in range(MAX_SWEEPS):
        starts = np.searchsorted(Dv, np.arange(top), side="right").tolist()
        for j in range(top):
            k = starts[j]
            A = A0[j, k:] - b_s4[j] * (off[j] @ M[:, k:])
            if curved[j]:
                # positive root of -(B4/2) t^2 + A t + 1/2, written so
                # neither branch subtracts nearly equal quantities; both
                # are finite everywhere (w > 0, B4 > 0), so np.where can
                # evaluate both without floating-point warnings
                B4j = B4[j, k:]
                w = np.sqrt(A * A + B4j) + np.abs(A)
                t = np.where(A < 0.0, 1.0 / w, w / B4j)
            else:
                # b_j = 0: maximizer of (1/2) log t + A t with A < 0
                t = -0.5 / A
            S[j, k:] = t
            M[j, k:] = b_s2[j] * t
        val = _bound(S, M, G, b, yty, n, s2, Dv)
        done = val - last <= SWEEP_RTOL * (np.abs(val) + scale)
        for col, i in enumerate(cols):
            paths[i].append(float(val[col]))
            if done[col]:
                freeze(i, col, True)
        if done.all():
            break
        keep = ~done
        cols = [i for i, d in zip(cols, done) if not d]
        Dv, last = Dv[keep], val[keep]
        top = int(Dv[-1])
        G, b, off = G[:top, :top], b[:top], off[:top, :top]
        S, M = S[:top, keep], M[:top, keep]
        A0, B4 = A0[:top, keep], B4[:top, keep]
    else:
        for col, i in enumerate(cols):
            freeze(i, col, False)
        capped = ", ".join(str(levels[i]) for i in cols)
        warnings.warn("coordinate ascent hit the sweep cap before the "
                      f"per-sweep tolerance at D = {capped}", RuntimeWarning,
                      stacklevel=3)
    return fits


def mf_fit(dm: DesignMatrix, data: Dataset) -> MeanFieldPosterior:
    """Coordinate ascent over the D variances with exact 1-D updates.

    Starts from the witness and reads the data only through G = Phi'Phi,
    Phi'y, y'y, n and sigma^2. Sweeps until one sweep raises the bound by
    at most ``SWEEP_RTOL`` (|bound| + y'y / sigma^2), or 500 sweeps elapse;
    non-convergence returns the last iterate with ``converged=False`` and a
    warning. ``elbo_path[-1]`` is the bound at the returned iterate, equal
    to :func:`mf_elbo` there.
    """
    if data.n < 1:
        raise ValueError("need at least one observation")
    if dm.n != data.n:
        raise ValueError("design matrix was built for a different dataset")
    return _ascent(dm.gram, dm.Phi.T @ data.y, float(data.y @ data.y),
                   data.n, data.sigma_sq, [dm.D])[0]


def mf_fit_levels(stats: FeatureStats, levels: Sequence[int],
                  sigma_sq: float) -> dict[int, MeanFieldPosterior]:
    """:func:`mf_fit` for every truncation level in ``levels`` at once.

    ``stats`` holds Phi'Phi and Phi'y over at least max(levels) features,
    and level D reads their leading D x D block. All levels are fitted
    in lockstep, one vector step per coordinate, and each stops on the
    same rule as :func:`mf_fit`. One warning names the levels that hit the
    sweep cap. Returns the posteriors keyed by level.
    """
    levels = sorted({int(D) for D in levels})
    if not levels or levels[0] < 1:
        raise ValueError("levels must be positive integers")
    if levels[-1] > stats.gram.shape[0]:
        raise ValueError(f"level {levels[-1]} exceeds the "
                         f"{stats.gram.shape[0]} features in the statistics")
    if stats.n < 1:
        raise ValueError("need at least one observation")
    if not sigma_sq > 0:
        raise ValueError("sigma_sq must be positive")
    fits = _ascent(stats.gram, stats.phi_y, stats.yty, stats.n, sigma_sq,
                   levels)
    return dict(zip(levels, fits))


def mf_kl_exact(q: MeanFieldPosterior, dm: DesignMatrix, data: Dataset
                ) -> float:
    """KL(q || exact weight posterior) in closed form.

    The exact posterior for the flat D-dimensional prior is
    N(mu_hat, Sigma_hat) with Sigma_hat = (D I + Phi'Phi / sigma^2)^{-1}
    and mu_hat = sigma^{-2} Sigma_hat Phi' y. Reference-scale helper
    (n <= 2000).
    """
    if data.n > 2000:
        raise ValueError("mf_kl_exact is a reference path; n must be <= 2000")
    if dm.D != q.D:
        raise ValueError("design matrix and posterior disagree on D")
    s2 = data.sigma_sq
    D = dm.D
    P_hat = D * np.eye(D) + dm.gram / s2  # Sigma_hat^{-1}
    L, _ = _linalg.chol_jitter(P_hat)
    b = dm.Phi.T @ data.y
    mu_hat = _linalg.chol_solve(L, b) / s2
    diff = q.mu - mu_hat
    logdet_Sigma_hat = -_linalg.logdet_from_chol(L)
    return 0.5 * (
        logdet_Sigma_hat - float(np.sum(np.log(q.Sigma_diag)))
        - D
        + float(np.diag(P_hat) @ q.Sigma_diag)
        + float(diff @ (P_hat @ diff))
    )


def mf_predict(q: MeanFieldPosterior, query: np.ndarray) -> GaussianPosterior:
    """Gaussian law of the fitted series on a query grid: weights mu with
    diagonal covariance Sigma through the features ``BASIS.features(x, D)``."""
    return GaussianPosterior.from_features(
        query, lambda xs: BASIS.features(xs, q.D), q.mu, q.Sigma_diag)
