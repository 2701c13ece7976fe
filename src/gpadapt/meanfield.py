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
sweep over truncation levels fits each from the leading blocks of one
``inducing.feature_stats``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from .basis import EigenBasis
from .exact import Dataset, GaussianPosterior

__all__ = [
    "DesignMatrix",
    "MeanFieldPosterior",
    "design_matrix",
    "mf_elbo",
    "mf_fit",
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


def design_matrix(basis: EigenBasis, x: np.ndarray, D: int) -> DesignMatrix:
    """Evaluate the first D basis functions at x and cache Phi'Phi."""
    if D < 1:
        raise ValueError("D must be a positive integer")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size == 0:
        Phi = np.zeros((0, D))
    else:
        Phi = basis.features(x, D)
    return DesignMatrix(Phi=Phi, gram=Phi.T @ Phi, D=D)


def _bound(Sigma: np.ndarray, mu: np.ndarray, G: np.ndarray, b: np.ndarray,
           yty: float, n: int, sigma_sq: float) -> float:
    """Bound without the model-size mass, from the design statistics."""
    D = mu.size
    rss = float(mu @ (G @ mu)) - 2.0 * float(mu @ b) + yty
    tr_smear = float(np.diag(G) @ Sigma)
    fit = (
        -0.5 * n * np.log(2.0 * np.pi * sigma_sq)
        - 0.5 * (tr_smear + rss) / sigma_sq
    )
    log_det = D * np.log(D) + float(np.sum(np.log(Sigma)))
    kl = 0.5 * (-log_det - D + D * float(np.sum(Sigma)) + D * float(mu @ mu))
    return fit - kl


def mf_elbo(q: MeanFieldPosterior, dm: DesignMatrix, data: Dataset,
            hyper_mass: float = 1.0) -> float:
    """Explicit bound value at q; ``hyper_mass`` is the prior mass of D.

    Pass ``hyper_mass=1.0`` to get the bare fit term without the model-size
    mass, which is what grid selection adds back separately.
    """
    if not (0.0 < hyper_mass <= 1.0):
        raise ValueError("hyper_mass must lie in (0, 1]")
    if np.any(q.Sigma_diag <= 0):
        raise ValueError("variational variances must be positive")
    if dm.D != q.D:
        raise ValueError("design matrix and posterior disagree on D")
    if dm.n != data.n:
        raise ValueError("design matrix was built for a different dataset")
    return _bound(q.Sigma_diag, q.mu, dm.gram, dm.Phi.T @ data.y,
                  float(data.y @ data.y), data.n, data.sigma_sq
                  ) + float(np.log(hyper_mass))


def _witness(b: np.ndarray, n: int, sigma_sq: float) -> MeanFieldPosterior:
    Sigma = np.full(b.size, 1.0 / (b.size + n / sigma_sq))
    return MeanFieldPosterior(D=b.size, Sigma_diag=Sigma,
                              mu=Sigma * b / sigma_sq)


def mf_witness(dm: DesignMatrix, data: Dataset) -> MeanFieldPosterior:
    """Constant-variance member Sigma_jj = (D + n / sigma^2)^{-1}.

    This is the exact posterior's variance under a perfectly balanced
    design, and the initializer for :func:`mf_fit`.
    """
    if dm.n != data.n:
        raise ValueError("design matrix was built for a different dataset")
    return _witness(dm.Phi.T @ data.y, data.n, data.sigma_sq)


def _ascent(G: np.ndarray, b: np.ndarray, yty: float, n: int, s2: float
            ) -> MeanFieldPosterior:
    """Coordinate ascent from the statistics G = Phi'Phi, b = Phi'y and y'y."""
    D = b.size
    g = np.diag(G).copy()
    q = _witness(b, n, s2)
    Sigma, mu = q.Sigma_diag, q.mu
    last = _bound(Sigma, mu, G, b, yty, n, s2)
    path = [last]
    scale = yty / s2
    converged = False
    for _ in range(MAX_SWEEPS):
        for j in range(D):
            r_j = float(G[j] @ mu) - g[j] * mu[j]
            bj = b[j]
            A = -g[j] / (2 * s2) - 0.5 * D + bj**2 / s2**2 - bj * r_j / s2**2
            B = -(bj**2 / (2 * s2**2)) * (g[j] / s2 + D)
            if B < 0.0:
                # positive root of 2B t^2 + A t + 1/2, written so neither
                # branch subtracts nearly equal quantities
                root = np.sqrt(A**2 - 4.0 * B)
                t = 1.0 / (root - A) if A < 0.0 else (A + root) / (-4.0 * B)
            else:
                # b_j = 0: maximizer of (1/2) log t + A t with A < 0
                t = -0.5 / A
            Sigma[j] = t
            mu[j] = t * bj / s2
        val = _bound(Sigma, mu, G, b, yty, n, s2)
        path.append(val)
        if val - last <= SWEEP_RTOL * (abs(val) + scale):
            converged = True
            break
        last = val
    if not converged:
        warnings.warn("coordinate ascent hit the sweep cap before the "
                      "per-sweep tolerance", RuntimeWarning, stacklevel=3)
    return MeanFieldPosterior(D=D, Sigma_diag=Sigma, mu=mu,
                              converged=converged,
                              elbo_path=np.asarray(path))


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
                   data.n, data.sigma_sq)


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


def mf_predict(q: MeanFieldPosterior, basis: EigenBasis, query: np.ndarray
               ) -> GaussianPosterior:
    """Gaussian law of the fitted series on a query grid: weights mu with
    diagonal covariance Sigma through the features ``basis.features(x, D)``."""
    return GaussianPosterior.from_features(
        query, lambda xs: basis.features(xs, q.D), q.mu, q.Sigma_diag)
