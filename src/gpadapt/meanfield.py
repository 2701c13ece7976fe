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

Fit, bound, witness and KL read the data only through an
``inducing.FeatureStats``: G = Phi'Phi, b = Phi'y, y'y and n, with sigma^2
passed beside it (the residual by |Phi mu - y|^2 = mu'G mu - 2 mu'b + y'y).
Level D reads the leading D x D block of G and the first D entries of b, so
one ``inducing.feature_stats`` serves a whole sweep over truncation levels,
and :func:`mf_fit_levels` fits all its levels in lockstep: one coordinate
ascent over a D_max x levels matrix, each coordinate one vector step over
the levels that own it, its couplings one matrix-vector product. The
ascent takes a replicate axis too: R datasets at the same levels share it
as an R x D_max x levels state, with one stacked matrix product per
coordinate (``_mf_fit_replicates``, which the contraction study runs once
per sample size, pruning: :func:`_evidence_bounds` bounds each level's
log evidence in closed form, and a level that cannot be its dataset's
best stops early). A column's zero padding, and which other columns share
the state, change its iterates only by rounding, so each (dataset, level)
matches its own one-level fit to rounding. :func:`mf_fit` is the one-level
case of :func:`mf_fit_levels`, itself the one-dataset case of
``_mf_fit_replicates``, and its last bound equals :func:`mf_elbo` at
its iterate exactly, both from one bound function. :func:`design_matrix` forms
the n x D feature block directly and returns its statistics, the reference
for ``inducing.feature_stats``, which forms no block.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _linalg
from .basis import BASIS
from .errors import _caller_level
from .exact import Dataset, GaussianPosterior
from .inducing import FeatureStats

__all__ = [
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
#: a pruning ascent drops a level whose evidence bound falls below its
#: fit's best current bound by more than PRUNE_RTOL (|best| + y'y / sigma^2):
#: far above the rounding of either, far below the gaps between levels
PRUNE_RTOL = 1e-9


@dataclass
class MeanFieldPosterior:
    """Diagonal-covariance weight posterior with the tied mean."""

    D: int
    Sigma_diag: np.ndarray
    mu: np.ndarray
    converged: bool = True
    elbo_path: np.ndarray = field(default_factory=lambda: np.empty(0))


def design_matrix(data: Dataset, D: int) -> FeatureStats:
    """The statistics of the first D basis functions at ``data.x``, from
    the feature block ``BASIS.features(data.x, D)`` formed directly and
    then dropped: the reference for ``inducing.feature_stats`` at
    J = m = D, which forms no block."""
    if D < 1:
        raise ValueError("D must be a positive integer")
    Phi = BASIS.features(data.x, D)
    gram = Phi.T @ Phi
    return FeatureStats(n=data.n, colsumsq=np.diag(gram).copy(), gram=gram,
                        phi_y=Phi.T @ data.y, yty=float(data.y @ data.y))


def _bound(S: np.ndarray, M: np.ndarray, off: np.ndarray, g: np.ndarray,
           b: np.ndarray, yty: np.ndarray, n: np.ndarray, sigma_sq: float,
           D: np.ndarray) -> np.ndarray:
    """Bounds without the model-size mass, fits x levels, from the design
    statistics of a stack of fits. Fit r's column c holds level D[c]'s
    variances S[r, :, c] and means M[r, :, c], zero beyond D[c]; off[r] is
    its Gram matrix with the diagonal g[r] set to zero. The residual reads
    mu'G mu = mu'(G - diag G) mu + sum_j G_jj mu_j^2, the coupling term
    from the same off-diagonal product that a coordinate step reads."""
    # two state-sized buffers, each product formed in place
    gc = g[:, :, None]
    quad, work = off @ M, np.multiply(gc, M)
    quad += work
    quad *= M
    rss = (quad.sum(axis=1) - 2.0 * (b[:, None, :] @ M)[:, 0]
           + yty[:, None])
    del quad
    tr_smear = np.multiply(S, gc, out=work).sum(axis=1)
    fit = (
        -0.5 * n[:, None] * np.log(2.0 * np.pi * sigma_sq)
        - 0.5 * (tr_smear + rss) / sigma_sq
    )
    work.fill(0.0)
    log_det = D * np.log(D) + np.log(S, out=work, where=S > 0).sum(axis=1)
    mu_sq = np.multiply(M, M, out=work).sum(axis=1)
    kl = 0.5 * (-log_det - D + D * S.sum(axis=1) + D * mu_sq)
    return fit - kl


def _evidence_bounds(stats: Sequence[FeatureStats], levels: list[int],
                     s2: float) -> np.ndarray:
    """Upper bounds on each level's log evidence, fits x levels.

    Level D's evidence is log N(y; 0, sigma^2 I + Phi_D Phi_D' / D)
    = -(n/2) log 2 pi sigma^2 - y'y / (2 sigma^2) + (1/2) z'P^{-1} z
    - (1/2) log|P| + (D/2) log D, with P = D I + G_D / sigma^2 and
    z = Phi_D'y / sigma^2. Replacing D I by c I with c <= D lowers P, so
    raises the quadratic term and lowers the log determinant: an upper
    bound, exact at D = c. For every shift c = 1, 2, 4, ... one batched
    Cholesky over the fits, of the bordered matrix
    [[c I + G_k / sigma^2, z_k], [z_k', |z_k|^2 / c + 1]] with k the
    largest level in [c, 2c), bounds all those levels at once: the
    factor's last row is w = L^{-1} z_k and the leading D x D block of L
    factors the leading block of P, so the bound at D reads
    (1/2) sum_{i <= D} w_i^2 - sum_{i <= D} log L_ii. The border's corner
    exceeds |w|^2 by at least 1, so the bordered matrix is positive
    definite whenever its leading block is. O(R D_max^3) in all. A shift
    whose Cholesky fails, and every non-finite bound, reads +inf: it
    rules nothing out. Every level's mean-field bound lies below its
    evidence, so below this bound.
    """
    top = levels[-1]
    Dv = np.asarray(levels, dtype=float)
    base = np.array([-0.5 * st.n * np.log(2.0 * np.pi * s2)
                     - 0.5 * st.yty / s2 for st in stats])
    out = np.full((len(stats), len(levels)), np.inf)
    for c in (1 << p for p in range(top.bit_length())):
        at = [i for i, D in enumerate(levels) if c <= D < 2 * c]
        if not at:
            continue
        k = levels[at[-1]]
        A = np.empty((len(stats), k + 1, k + 1))
        for r, st in enumerate(stats):
            A[r, :k, :k] = st.gram[:k, :k]
            A[r, :k, k] = st.phi_y[:k]
        A /= s2
        z = A[:, :k, k]
        A[:, k, :k] = z
        A[:, k, k] = np.einsum("ri,ri->r", z, z) / c + 1.0
        np.einsum("rjj->rj", A)[:, :k] += c
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            continue
        w = L[:, k, :k]
        cum = np.cumsum(0.5 * w * w - np.log(
            np.diagonal(L, axis1=1, axis2=2)[:, :k]), axis=1)
        D = Dv[at]
        out[:, at] = (base[:, None] + cum[:, D.astype(int) - 1]
                      + 0.5 * D * np.log(D))
    out[~np.isfinite(out)] = np.inf
    return out


def _split_gram(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A stack of Gram matrices as (G - diag G, diag G), the first in place
    of G."""
    g = np.diagonal(G, axis1=1, axis2=2).copy()
    np.einsum("rjj->rj", G)[...] = 0.0
    return G, g


def mf_elbo(q: MeanFieldPosterior, stats: FeatureStats, sigma_sq: float
            ) -> float:
    """Explicit bound value at q, from the leading q.D block of ``stats``,
    without the prior mass of D, which grid selection adds separately."""
    D = _check_levels(stats, [q.D], sigma_sq)[0]
    if np.any(q.Sigma_diag <= 0):
        raise ValueError("variational variances must be positive")
    off, g = _split_gram(stats.gram[None, :D, :D].copy())
    return float(_bound(q.Sigma_diag[None, :, None], q.mu[None, :, None],
                        off, g, stats.phi_y[None, :D],
                        np.array([stats.yty]), np.array([stats.n]),
                        sigma_sq, np.array([float(D)]))[0, 0])


def mf_witness(stats: FeatureStats, sigma_sq: float) -> MeanFieldPosterior:
    """Constant-variance member Sigma_jj = (D + n / sigma^2)^{-1}, at the
    D = ``stats.gram.shape[0]`` features of the statistics.

    This is the exact posterior's variance under a perfectly balanced
    design, and the start of :func:`mf_fit`: the ascent builds this member
    for every level at once, each from its leading block.
    """
    D = _check_levels(stats, [stats.gram.shape[0]], sigma_sq)[0]
    Sigma = np.full(D, 1.0 / (D + stats.n / sigma_sq))
    return MeanFieldPosterior(D=D, Sigma_diag=Sigma,
                              mu=Sigma * stats.phi_y / sigma_sq)


def _sweep(views: list[tuple]) -> None:
    """One Gauss-Seidel pass: the coordinate steps of :func:`_ascent` in
    order, each on the views of what it reads and writes."""
    for off_j, M_k, A0_j, B4_j, S_j, M_j, b_s4_j, b_s2_j in views:
        A = A0_j - b_s4_j * (off_j @ M_k)
        # positive root of -(B4/2) t^2 + A t + 1/2, written so neither
        # branch subtracts nearly equal quantities; B4 = 0 (b_j = 0) only
        # with A < 0, where the root is -1 / (2 A) = 1 / w
        w = np.sqrt(A * A + B4_j) + np.abs(A)
        t = 1.0 / w
        np.divide(w, B4_j, out=t, where=A >= 0.0)
        S_j[...] = t
        M_j[...] = b_s2_j * t


def _ascent(stats: Sequence[FeatureStats], levels: list[int], s2: float,
            prune: bool = False) -> list[list[MeanFieldPosterior | None]]:
    """Coordinate ascent for R datasets at the distinct ascending
    ``levels``, all in lockstep.

    Fit (r, D) reads the leading D x D block of G = Phi'Phi and the first
    D entries of b = Phi'y from ``stats[r]``. The state is fits x
    coordinates x levels; column c of fit r holds level D_c, zero beyond
    it, so the levels that own coordinate j are a suffix of the columns.
    One step updates them all: their couplings r_j = sum_{l != j} G_jl mu_l
    are one stacked matmul of row j of each fit's G - diag G with its
    current iterate, which holds this sweep's values below j and the last
    sweep's above (Gauss-Seidel order). A fit stops, frozen, on the sweep
    that gains at most SWEEP_RTOL (|bound| + y'y / sigma^2); a level leaves
    the state once all R of its fits have stopped, and until then its
    stopped columns keep iterating unread. One warning names the fits that
    hit the sweep cap. Returns ``fits[r][i]``, dataset r at ``levels[i]``.

    With ``prune``, for levels of equal prior mass, a fit also stops where
    it cannot be the best level of its dataset: at the witness and after
    every sweep, a live fit whose :func:`_evidence_bounds` value (taken
    before the state is allocated) falls below the best current bound of
    its dataset's fits by more than PRUNE_RTOL (|best| + y'y / sigma^2)
    stops unfrozen and comes back None. Its mean-field bound lies below
    its evidence, so below that best, at convergence too: the level with
    the best final bound is never pruned.
    """
    ub = _evidence_bounds(stats, levels, s2) if prune else None
    top = levels[-1]
    off, g = _split_gram(np.stack([st.gram[:top, :top] for st in stats]))
    b = np.stack([st.phi_y[:top] for st in stats])
    yty = np.array([st.yty for st in stats])
    nv = np.array([float(st.n) for st in stats])
    Dv = np.asarray(levels, dtype=float)
    S = np.where(np.arange(top)[:, None] < Dv,
                 (1.0 / (Dv + nv[:, None] / s2))[:, None, :], 0.0)
    M = S * b[:, :, None]
    M /= s2
    # the coordinate update maximizes (1/2) log t + A t + B t^2 with
    # A = A0 - b_j r_j / sigma^4 and B = -B4 / 4 <= 0; A0 and B4 depend
    # on the level, not on the iterate (each built in place)
    A0 = (-g / (2 * s2))[:, :, None] - 0.5 * Dv
    A0 += (b**2 / s2**2)[:, :, None]
    B4 = (g / s2)[:, :, None] + Dv
    B4 *= (b**2 / (2 * s2**2))[:, :, None]
    B4 *= 4.0
    b_s4, b_s2 = (b / s2**2)[:, :, None], (b / s2)[:, :, None]
    scale = (yty / s2)[:, None]
    R, L = len(stats), len(levels)
    cols = np.arange(L)  # the level index of each column
    live = np.ones((R, L), dtype=bool)  # fits not yet stopped
    last = _bound(S, M, off, g, b, yty, nv, s2, Dv)
    history = [last]  # bounds per sweep, fits x levels
    stop = np.full((R, L), -1)  # sweep each fit stopped on
    fits: list[list] = [[None] * L for _ in range(R)]
    best = np.full(R, -np.inf)  # each dataset's best bound so far

    def freeze(r, c, converged):
        i, D = cols[c], levels[cols[c]]
        stop[r, i] = len(history) - 1
        fits[r][i] = MeanFieldPosterior(
            D=D, Sigma_diag=S[r, :D, c].copy(), mu=M[r, :D, c].copy(),
            converged=converged)

    def pruned(val):
        """The live fits that cannot be their dataset's best level, once
        the live fits' bounds ``val`` count towards the best."""
        np.fmax(best, np.where(live, val, -np.inf).max(axis=1), out=best)
        floor = best - PRUNE_RTOL * (np.abs(best) + scale[:, 0])
        return live & (ub[:, cols] < floor[:, None])

    def steps():
        """Per coordinate j, views of what its step reads and writes: row j
        of every fit's G - diag G, the iterate's columns that own j, and
        their rows j of A0, B4, S and M."""
        starts = np.searchsorted(Dv, np.arange(top), side="right").tolist()
        # one dataset: 2-D views, each step a plain vector-matrix product
        r = 0 if R == 1 else slice(None)
        return [(off[r, j:j + 1], M[r, :, k:], A0[r, j:j + 1, k:],
                 B4[r, j:j + 1, k:], S[r, j:j + 1, k:], M[r, j:j + 1, k:],
                 b_s4[r, j:j + 1], b_s2[r, j:j + 1])
                for j, k in enumerate(starts)]

    if prune:
        live &= ~pruned(last)
    views = None
    for _ in range(MAX_SWEEPS):
        keep = live.any(axis=0)
        if not keep.any():
            break
        if not keep.all():
            cols, Dv = cols[keep], Dv[keep]
            live, last = live[:, keep], last[:, keep]
            top = int(Dv[-1])
            off, g, b = off[:, :top, :top], g[:, :top], b[:, :top]
            b_s4, b_s2 = b_s4[:, :top], b_s2[:, :top]
            # the views pin the old state: drop them, then replace one
            # array at a time
            views = None
            S = S[:, :top, keep]
            M = M[:, :top, keep]
            A0 = A0[:, :top, keep]
            B4 = B4[:, :top, keep]
        if views is None:
            views = steps()
        _sweep(views)
        val = _bound(S, M, off, g, b, yty, nv, s2, Dv)
        full = np.full((R, L), np.nan)
        full[:, cols] = val
        history.append(full)
        done = live & (val - last <= SWEEP_RTOL * (np.abs(val) + scale))
        for r, c in zip(*np.nonzero(done)):
            freeze(r, c, True)
        if prune:
            done |= pruned(val)
        live &= ~done
        last = val
    if live.any():
        capped = [(r, [levels[cols[c]] for c in np.flatnonzero(row)])
                  for r, row in enumerate(live) if row.any()]
        for r, c in zip(*np.nonzero(live)):
            freeze(r, c, False)
        named = "; ".join(
            ("" if R == 1 else f"in fit {r} of {R} ")
            + "at D = " + ", ".join(map(str, Ds)) for r, Ds in capped)
        warnings.warn("coordinate ascent hit the sweep cap before the "
                      f"per-sweep tolerance {named}", RuntimeWarning,
                      stacklevel=_caller_level())
    paths = np.stack(history)
    for r, row in enumerate(fits):
        for i, q in enumerate(row):
            if q is not None:
                q.elbo_path = paths[:stop[r, i] + 1, r, i].copy()
    return fits


def mf_fit(stats: FeatureStats, sigma_sq: float) -> MeanFieldPosterior:
    """Coordinate ascent over the D = ``stats.gram.shape[0]`` variances
    with exact 1-D updates.

    Starts from the witness. Sweeps until one sweep raises the bound by
    at most ``SWEEP_RTOL`` (|bound| + y'y / sigma^2), or 500 sweeps elapse;
    non-convergence returns the last iterate with ``converged=False`` and a
    warning. ``elbo_path[-1]`` is the bound at the returned iterate, equal
    to :func:`mf_elbo` there. This is the one-level case of
    :func:`mf_fit_levels`.
    """
    D = stats.gram.shape[0]
    return mf_fit_levels(stats, [D], sigma_sq)[D]


def _check_levels(stats: FeatureStats, levels: Sequence[int],
                  sigma_sq: float) -> list[int]:
    """The distinct ``levels`` in ascending order, once ``stats`` holds
    them all and ``sigma_sq`` is positive."""
    levels = sorted({int(D) for D in levels})
    if not levels or levels[0] < 1:
        raise ValueError("levels must be positive integers")
    if levels[-1] > stats.gram.shape[0]:
        raise ValueError(f"level {levels[-1]} exceeds the "
                         f"{stats.gram.shape[0]} features in the statistics")
    if not sigma_sq > 0:
        raise ValueError("sigma_sq must be positive")
    return levels


def mf_fit_levels(stats: FeatureStats, levels: Sequence[int],
                  sigma_sq: float) -> dict[int, MeanFieldPosterior]:
    """:func:`mf_fit` for every truncation level in ``levels`` at once.

    ``stats`` holds Phi'Phi and Phi'y over at least max(levels) features,
    and level D reads their leading D x D block. All levels are fitted
    in lockstep, one vector step per coordinate, and each stops on the
    same rule as :func:`mf_fit`. One warning names the levels that hit the
    sweep cap. Returns the posteriors keyed by level. This is the
    one-dataset case of :func:`_mf_fit_replicates`.
    """
    return _mf_fit_replicates([stats], levels, sigma_sq)[0]


def _mf_fit_replicates(stats: Sequence[FeatureStats], levels: Sequence[int],
                       sigma_sq: float, prune: bool = False
                       ) -> list[dict[int, MeanFieldPosterior | None]]:
    """:func:`mf_fit_levels` for several datasets at the same levels, all
    in one lockstep ascent; one warning names the fits that hit the sweep
    cap. Returns one dict of posteriors per dataset.

    ``prune`` is for levels of equal prior mass, where only each dataset's
    best level matters: a level whose closed-form evidence bound
    (:func:`_evidence_bounds`) falls below the best current bound of its
    dataset by more than PRUNE_RTOL (|best| + y'y / sigma^2) stops early
    and maps to None (see :func:`_ascent`). The best level's fit is the
    one an unpruned ascent returns, up to rounding."""
    if not stats:
        raise ValueError("need at least one dataset")
    for st in stats:
        if st.n < 1:
            raise ValueError("need at least one observation")
        checked = _check_levels(st, levels, sigma_sq)
    return [dict(zip(checked, row))
            for row in _ascent(stats, checked, sigma_sq, prune)]


def mf_kl_exact(q: MeanFieldPosterior, stats: FeatureStats, sigma_sq: float
                ) -> float:
    """KL(q || exact weight posterior) in closed form, from the leading
    q.D block of ``stats``.

    The exact posterior for the flat D-dimensional prior is
    N(mu_hat, Sigma_hat) with Sigma_hat = (D I + Phi'Phi / sigma^2)^{-1}
    and mu_hat = sigma^{-2} Sigma_hat Phi' y. Reference-scale helper
    (n <= 2000).
    """
    if stats.n > 2000:
        raise ValueError("mf_kl_exact is a reference path; n must be <= 2000")
    D = _check_levels(stats, [q.D], sigma_sq)[0]
    P_hat = D * np.eye(D) + stats.gram[:D, :D] / sigma_sq  # Sigma_hat^{-1}
    L, _ = _linalg.chol_jitter(P_hat)
    mu_hat = _linalg.chol_solve(L, stats.phi_y[:D]) / sigma_sq
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
