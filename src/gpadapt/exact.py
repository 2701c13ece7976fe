"""Exact GP regression: conditioning, evidence, and evidence-weighted mixing.

The model is

    y_i = f(x_i) + eps_i,   eps_i ~ N(0, sigma^2) iid,

with a mean-zero Gaussian prior on f given by a kernel. Two kernel families
are supported: a squared-exponential kernel and the J-term series kernel
induced by a :class:`~gpadapt.basis.SeriesPrior`.

A J-term series kernel is a Bayesian linear model in J basis weights
w_j ~ N(0, s_j^2). With the whitened terms G = (Phi S)'(Phi S) and
W y = (Phi S)'y (S = diag(s)), one eigendecomposition of G
(:func:`_eigen_terms`) gives the weight posterior (:func:`_weight_posterior`)
and the log evidence (:func:`_collapsed_profile`, whose trace penalty is zero
when every feature is kept) in O(J^2 n + J^3), and then each noise variance
in O(J) for the evidence. This is the inducing-variable algebra of
:mod:`gpadapt.inducing` at m = J. Posteriors and the evidence take it
whenever J <= n, and posteriors under a flat truncated spectrum at any J.
Otherwise, and for the squared-exponential kernel, conditioning goes
through the n x n kernel matrix in O(n^3); that route also stays
available as the reference, for n up to ``KERNEL_SOLVE_MAX_N``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Union

import numpy as np

from . import _linalg
from .basis import (BASIS, SeriesPrior, Truncated, _check_domain, _grid_tables,
                    _trig_sum, _wrap)
from .errors import ConditioningError, _caller_level

__all__ = [
    "Dataset",
    "SquaredExponential",
    "SeriesKernel",
    "KernelSpec",
    "GaussianPosterior",
    "HierarchicalPosterior",
    "kernel_matrix",
    "kernel_cross",
    "kernel_diag",
    "exact_posterior",
    "log_evidence",
    "mmle_select",
    "hierarchical_posterior",
]


@dataclass
class Dataset:
    """Observed design points, responses, and the noise variance in play."""

    x: np.ndarray
    y: np.ndarray
    sigma_sq: float

    def __post_init__(self) -> None:
        self.x = np.atleast_1d(np.asarray(self.x, dtype=float))
        self.y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if self.x.shape != self.y.shape:
            raise ValueError("x and y must have matching length")
        for name, values in (("x", self.x), ("y", self.y)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                i = int(bad[0])
                raise ValueError(f"{name} must be finite: {name}[{i}] = "
                                 f"{float(values[i])}")
        if not (self.sigma_sq > 0 and math.isfinite(self.sigma_sq)):
            raise ValueError("sigma_sq must be positive and finite, "
                             f"got {self.sigma_sq}")

    @property
    def n(self) -> int:
        return self.x.size

    def with_sigma_sq(self, sigma_sq: float) -> "Dataset":
        return Dataset(self.x, self.y, sigma_sq)


@dataclass(frozen=True)
class SquaredExponential:
    """k(x, y) = nu * exp(-(x - y)^2 / tau^2)."""

    nu: float
    tau: float

    def __post_init__(self) -> None:
        if not (self.nu > 0 and self.tau > 0):
            raise ValueError("nu and tau must be positive")


@dataclass(frozen=True)
class SeriesKernel:
    """k(x, y) = sum_{j <= j_max} s_j^2 phi_j(x) phi_j(y)."""

    prior: SeriesPrior
    j_max: int = 1000

    def __post_init__(self) -> None:
        if self.j_max < 1:
            raise ValueError("j_max must be at least 1")

    @property
    def j_eff(self) -> int:
        return int(min(self.j_max, self.prior.support))


KernelSpec = Union[SquaredExponential, SeriesKernel]

_LOG_2PI = math.log(2.0 * math.pi)

#: query rows per block when a mean rule evaluates F(x) w; at least the
#: 512-point query grid, so that grid is one block
MEAN_BLOCK = 1024


def _block_mean(features: Callable[[np.ndarray], np.ndarray],
                xs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """F(xs) w over blocks of ``MEAN_BLOCK`` rows of F."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.empty(xs.size)
    for i in range(0, xs.size, MEAN_BLOCK):
        out[i:i + MEAN_BLOCK] = features(xs[i:i + MEAN_BLOCK]) @ weights
    return out


def kernel_cross(kernel: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-covariance matrix k(a_i, b_j)."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if isinstance(kernel, SquaredExponential):
        diff = a[:, None] - b[None, :]
        return kernel.nu * np.exp(-(diff**2) / kernel.tau**2)
    J = kernel.j_eff
    prior = kernel.prior
    s2 = prior.spectrum(np.arange(1, J + 1)) ** 2
    Fa = BASIS.features(a, J)
    Fb = Fa if b is a or np.array_equal(a, b) else BASIS.features(b, J)
    return (Fa * s2) @ Fb.T


def kernel_matrix(kernel: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Symmetric kernel matrix at ``points`` (PSD by construction)."""
    K = kernel_cross(kernel, points, points)
    return 0.5 * (K + K.T)


def kernel_diag(kernel: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Diagonal k(x_i, x_i) without forming the full matrix.

    A J-term series kernel's diagonal is one cosine series: with
    phi_2k^2 = 1 + cos 2kx and phi_2k+1^2 = 1 - cos 2kx,

        k(x, x) = sum_j s_j^2 + sum_k (s_2k^2 - s_2k+1^2) cos(2 k x),

    evaluated at z = 2x by the grid trigonometric sum
    (:func:`~gpadapt.basis._trig_sum`): O(R (J log J + n)) time, R about
    20, and no n x J feature block.
    """
    points = np.atleast_1d(np.asarray(points, dtype=float))
    if isinstance(kernel, SquaredExponential):
        return np.full(points.size, kernel.nu)
    _check_domain(points)
    J = kernel.j_eff
    s2 = kernel.prior.spectrum(np.arange(1, J + 1)) ** 2
    c = np.zeros(J // 2 + 1)
    c[0] = s2.sum()
    c[1:] = s2[1::2]
    c[1:(J + 1) // 2] -= s2[2::2]
    return _trig_sum(_wrap(2.0 * points), _grid_tables(c))


@dataclass
class GaussianPosterior:
    """Gaussian law for f, summarized on a query grid plus callable rules.

    ``var`` is the pointwise variance on the query grid, which is all
    :meth:`band95` reads. The query covariance ``cov`` is formed from
    ``cov_fn`` on first access.
    """

    query: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    mean_fn: Callable[[np.ndarray], np.ndarray]
    cov_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    @cached_property
    def cov(self) -> np.ndarray:
        return self.cov_fn(self.query, self.query)

    @classmethod
    def from_features(cls, query: np.ndarray,
                      features: Callable[[np.ndarray], np.ndarray],
                      weights: np.ndarray, weight_cov: np.ndarray,
                      prior_cov: Callable[[np.ndarray, np.ndarray],
                                          np.ndarray] | None = None,
                      prior_var: Callable[[np.ndarray], np.ndarray]
                      | None = None) -> "GaussianPosterior":
        """Law of f = F w + g with basis weights w ~ N(weights, weight_cov).

        ``features`` maps points to the rows F(x); ``weight_cov`` C is a
        vector (a diagonal) or a matrix; g is independent of w, mean zero,
        with covariance ``prior_cov`` k0 and variance ``prior_var``
        x -> k0(x, x) (both zero when None). Mean rule x -> F(x) w,
        evaluated over blocks of ``MEAN_BLOCK`` points, covariance rule
        (x, x') -> k0(x, x') + F(x) C F(x')', and query variance
        k0(x, x) + the row sums of (F C) * F. A query of at most
        ``MEAN_BLOCK`` points reads its mean off the F built for its
        variance, as the one block the mean rule would build.
        """
        if (prior_cov is None) != (prior_var is None):
            raise ValueError("prior_cov and prior_var go together")
        C = np.asarray(weight_cov, dtype=float)

        def mean_fn(xs):
            return _block_mean(features, xs, weights)

        def times_C(F):
            return F * C if C.ndim == 1 else F @ C

        def cov_fn(xs, ys):
            xs = np.atleast_1d(np.asarray(xs, dtype=float))
            ys = np.atleast_1d(np.asarray(ys, dtype=float))
            # k0 first, the feature term added into it: this order peaks lowest
            out = None if prior_cov is None else prior_cov(xs, ys)
            Fa = features(xs)
            Fb = Fa if ys is xs else features(ys)
            term = times_C(Fa) @ Fb.T
            return term if out is None else np.add(out, term, out=out)

        query = np.atleast_1d(np.asarray(query, dtype=float))
        F = features(query)
        var = np.einsum("ij,ij->i", times_C(F), F)
        if prior_var is not None:
            var += prior_var(query)
        mean = F @ weights if query.size <= MEAN_BLOCK else mean_fn(query)
        return cls(query, mean, var, mean_fn, cov_fn)

    def band95(self) -> tuple[np.ndarray, np.ndarray]:
        """Pointwise central 95 percent band on the query grid."""
        sd = np.sqrt(np.clip(self.var, 0.0, None))
        return self.mean - 1.96 * sd, self.mean + 1.96 * sd


def _eigen_terms(G: np.ndarray, wy: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One eigendecomposition of the whitened Gram: G = Q diag(lam) Q'.

    Returns lam (clipped at 0), Q and p = Q' W y. G does not depend on the
    noise variance, so :func:`_collapsed_profile` and
    :func:`_weight_posterior` read these at every sigma^2 in O(m) and
    O(m^2). Non-finite G raises :class:`ConditioningError`.
    """
    lam, Q = _linalg.eigh_psd(G)
    return lam, Q, Q.T @ wy


def _weight_posterior(r: np.ndarray, lam: np.ndarray, Q: np.ndarray,
                      p: np.ndarray, sigma_sq: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Posterior of weights u = r * v, v ~ N(0, I), seen through y = W'v + eps.

    From the eigen-form G = Q diag(lam) Q' and p = Q' W y of
    :func:`_eigen_terms`, with d = sigma^2 + lam, M = sigma^2 I + G has
    inverse Q diag(1/d) Q': the mean is r * Q (p / d) and the covariance
    sigma^2 diag(r) M^{-1} diag(r). A zero scale r_j pins u_j at zero.
    """
    if not sigma_sq > 0:
        raise ValueError("sigma_sq must be positive")
    d = sigma_sq + lam
    B = Q * np.sqrt(sigma_sq / d)
    # scale by r only after the product: underflowing prior scales would
    # otherwise meet in subnormal partial sums
    Sigma = r[:, None] * (B @ B.T * r)
    return r * (Q @ (p / d)), 0.5 * (Sigma + Sigma.T)


def _collapsed_profile(lam: np.ndarray, p: np.ndarray, yty: float,
                       gap: float, n: int) -> Callable[[float], float]:
    """Collapsed objective as a function of sigma^2, from the eigen-form.

    With W = K_uu^{-1/2} K_uf, G = W W' = Q diag(lam) Q' and p = Q' W y
    (:func:`_eigen_terms`), y'y, the trace gap tr K_ff - tr G and n, the
    value at sigma^2 with d = sigma^2 + lam is

        -(n log 2 pi + sum log d + (n - m) log sigma^2
          + (y'y - sum p^2 / d) / sigma^2) / 2 - gap / (2 sigma^2),

    O(m) per call.
    """
    m = lam.size

    def value(sigma_sq: float) -> float:
        if not sigma_sq > 0:
            raise ValueError("sigma_sq must be positive")
        d = sigma_sq + lam
        quad = (yty - float(np.sum(p * p / d))) / sigma_sq
        logdet = float(np.sum(np.log(d))) + (n - m) * math.log(sigma_sq)
        fit = -0.5 * (n * _LOG_2PI + logdet + quad)
        return fit - 0.5 * gap / sigma_sq

    return value


def _series_factor(kernel: SeriesKernel, x: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Scales s of the J-term series and its exact factor Phi_J S at x.

    The n x J factor L = Phi_J diag(s) from the direct basis features
    gives the kernel matrix as L L', in O(n J) time and memory.
    """
    J = kernel.j_eff
    s = kernel.prior.spectrum(np.arange(1, J + 1))
    return s, BASIS.features(x, J) * s


def _series_terms(kernel: SeriesKernel, x: np.ndarray, y: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scales s of the J-term series and its whitened G and W y at (x, y).

    W = (Phi_J S)' from :func:`_series_factor`, so G = (Phi S)'(Phi S)
    and W y = (Phi S)'y; O(J^2 n) time and an n x J block.
    """
    s, L = _series_factor(kernel, x)
    return s, L.T @ L, L.T @ y


def _weight_space(kernel: KernelSpec, data: Dataset) -> bool:
    """Whether the J x J weight-space form is the smaller problem."""
    return isinstance(kernel, SeriesKernel) and kernel.j_eff <= data.n


#: largest design the n x n kernel-form reference solves
KERNEL_SOLVE_MAX_N = 5000


def _kernel_solve(kernel: KernelSpec, data: Dataset
                  ) -> tuple[np.ndarray, np.ndarray]:
    """L = chol(K + sigma^2 I) on the design and (K + sigma^2 I)^{-1} y;
    refuses n > ``KERNEL_SOLVE_MAX_N`` before forming K."""
    if data.n > KERNEL_SOLVE_MAX_N:
        raise ValueError(
            "the n x n kernel solve is a reference path; n must be <= "
            f"{KERNEL_SOLVE_MAX_N}, got n = {data.n}")
    K = kernel_matrix(kernel, data.x)
    L, _ = _linalg.chol_jitter(K + data.sigma_sq * np.eye(data.n))
    return L, _linalg.chol_solve(L, data.y)


def _posterior_kernel_form(kernel: KernelSpec, data: Dataset,
                           query: np.ndarray) -> GaussianPosterior:
    L, alpha = _kernel_solve(kernel, data)

    def mean_fn(xs):
        return kernel_cross(kernel, xs, data.x) @ alpha

    def cov_fn(xs, ys):
        Ka = kernel_cross(kernel, xs, data.x)
        Kb = kernel_cross(kernel, ys, data.x)
        W = _linalg.chol_solve(L, Kb.T)
        return kernel_cross(kernel, xs, ys) - Ka @ W

    query = np.atleast_1d(np.asarray(query, dtype=float))
    Kq = kernel_cross(kernel, query, data.x)
    var = (kernel_diag(kernel, query)
           - np.einsum("ij,ji->i", Kq, _linalg.chol_solve(L, Kq.T)))
    return GaussianPosterior(query, Kq @ alpha, var, mean_fn, cov_fn)


def _posterior_series_form(kernel: SeriesKernel, data: Dataset,
                           query: np.ndarray) -> GaussianPosterior:
    """Any J-term series kernel as a Bayesian linear model in J weights.

    :func:`_weight_posterior` on the whitened terms of
    :func:`_series_terms` gives the weight mean and covariance, pushed
    through the first J basis features; nothing of the prior is left
    outside them. O(J^2 n + J^3).
    """
    J = kernel.j_eff
    s, G, wy = _series_terms(kernel, data.x, data.y)
    w, C = _weight_posterior(s, *_eigen_terms(G, wy), data.sigma_sq)
    return GaussianPosterior.from_features(
        query, lambda xs: BASIS.features(xs, J), w, C)


def exact_posterior(kernel: KernelSpec, data: Dataset, query: np.ndarray
                    ) -> GaussianPosterior:
    """Exact GP posterior given ``data``, summarized at ``query``.

    The weight-space form (:func:`_posterior_series_form`) serves a flat
    truncated spectrum and any series kernel with J <= n; otherwise the
    posterior conditions on the n x n kernel matrix
    (:func:`_posterior_kernel_form`, also the reference for the first).
    """
    if data.n < 1:
        raise ValueError("need at least one observation")
    flat = isinstance(kernel, SeriesKernel) and isinstance(
        kernel.prior.kind, Truncated)
    if flat or _weight_space(kernel, data):
        return _posterior_series_form(kernel, data, query)
    return _posterior_kernel_form(kernel, data, query)


def log_evidence(kernel: KernelSpec, data: Dataset) -> float:
    """log N(y; 0, K + sigma^2 I).

    For a series kernel with J <= n this is the collapsed bound with all J
    features (tr(K_ff - Q_ff) = 0) from :func:`_series_terms`, through one
    eigendecomposition of G in O(J^2 n + J^3); otherwise one Cholesky of
    the n x n matrix.
    """
    if data.n < 1:
        raise ValueError("need at least one observation")
    if _weight_space(kernel, data):
        _, G, wy = _series_terms(kernel, data.x, data.y)
        lam, _, p = _eigen_terms(G, wy)
        return _collapsed_profile(lam, p, float(data.y @ data.y), 0.0,
                                  data.n)(data.sigma_sq)
    L, alpha = _kernel_solve(kernel, data)
    return float(
        -0.5 * data.y @ alpha
        - 0.5 * _linalg.logdet_from_chol(L)
        - 0.5 * data.n * np.log(2.0 * np.pi)
    )


def _evidence_table(kernels: Mapping, data: Dataset) -> tuple[dict, dict]:
    scores: dict = {}
    failures: dict = {}
    for lam, kern in kernels.items():
        try:
            scores[lam] = log_evidence(kern, data)
        except (ConditioningError, np.linalg.LinAlgError) as exc:
            failures[lam] = str(exc)
    if failures:
        warnings.warn(
            "evidence failed for "
            + ", ".join(f"{lam!r} ({msg})" for lam, msg in failures.items()),
            RuntimeWarning,
            stacklevel=_caller_level(),
        )
    if not scores:
        raise ConditioningError("evidence failed for every candidate")
    return scores, failures


def mmle_select(kernels: Mapping, data: Dataset):
    """Maximum-marginal-likelihood choice over a finite candidate map.

    Returns the key with the largest evidence; exact ties go to the earliest
    key in the map's iteration order. Candidates whose evidence computation
    fails are excluded (with a warning); if all fail, a hard error is raised.
    """
    scores, _ = _evidence_table(kernels, data)
    best = None
    best_val = -np.inf
    for lam in kernels:
        if lam in scores and scores[lam] > best_val:
            best, best_val = lam, scores[lam]
    return best


@dataclass
class HierarchicalPosterior:
    """Evidence-weighted mixture of exact posteriors over candidates."""

    weights: dict
    components: dict

    def map_component(self) -> GaussianPosterior:
        lam = max(self.weights, key=lambda k: self.weights[k])
        return self.components[lam]


def lse_weights(log_scores: np.ndarray) -> np.ndarray:
    """Normalized exp of log-scores, stabilized by subtracting the max.

    Invariant under adding a common constant to every score (exactly, in
    floating point, because the shift cancels inside the subtraction).
    """
    log_scores = np.asarray(log_scores, dtype=float)
    shifted = log_scores - np.max(log_scores)
    w = np.exp(shifted)
    return w / np.sum(w)


def hierarchical_posterior(kernels: Mapping, hyper_prior: Mapping,
                           data: Dataset, query: np.ndarray
                           ) -> HierarchicalPosterior:
    """Full-Bayes mixture: weights proportional to prior mass times evidence.

    ``hyper_prior`` maps each candidate to a positive mass; masses must sum
    to one within 1e-12. Candidates whose evidence fails are dropped with a
    warning and the remaining weights renormalized; if every candidate
    fails, the error propagates.
    """
    masses = np.array([hyper_prior[lam] for lam in kernels], dtype=float)
    if np.any(masses <= 0):
        raise ValueError("hyper-prior masses must be positive")
    if abs(masses.sum() - 1.0) > 1e-12:
        raise ValueError("hyper-prior masses must sum to one")
    scores, _ = _evidence_table(kernels, data)
    lams = [lam for lam in kernels if lam in scores]
    logw = np.array([np.log(hyper_prior[lam]) + scores[lam] for lam in lams])
    weights = lse_weights(logw)
    components = {lam: exact_posterior(kernels[lam], data, query)
                  for lam in lams}
    return HierarchicalPosterior(
        weights={lam: float(w) for lam, w in zip(lams, weights)},
        components=components,
    )
