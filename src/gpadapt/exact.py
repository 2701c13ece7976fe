"""Exact GP regression: conditioning, evidence, and evidence-weighted mixing.

The model is

    y_i = f(x_i) + eps_i,   eps_i ~ N(0, sigma^2) iid,

with a mean-zero Gaussian prior on f given by a kernel. Two kernel families
are supported: a squared-exponential kernel and the J-term series kernel
induced by a :class:`~gpadapt.basis.SeriesPrior`.

A J-term series kernel is a Bayesian linear model in J basis weights
w_j ~ N(0, s_j^2). With the whitened terms G = (Phi S)'(Phi S) and
W y = (Phi S)'y (S = diag(s)), one factorization of M = sigma^2 I + G gives
the weight posterior (:func:`_weight_posterior`) and the log evidence
(:func:`_collapsed_profile`, whose trace penalty is zero when every feature
is kept) in O(J^2 n + J^3). This is the inducing-variable algebra of
:mod:`gpadapt.inducing` at m = J. Posteriors and the evidence take it
whenever J <= n, and posteriors under a flat truncated spectrum at any J.
Otherwise, and for the squared-exponential kernel, conditioning goes
through the n x n kernel matrix in O(n^3); that route also stays
available as the reference.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np

from . import _linalg
from .basis import SeriesPrior, Truncated
from .errors import ConditioningError

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
        if not self.sigma_sq > 0:
            raise ValueError("sigma_sq must be positive")

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
    Fa = prior.basis.features(a, J)
    Fb = Fa if b is a or np.array_equal(a, b) else prior.basis.features(b, J)
    return (Fa * s2) @ Fb.T


def kernel_matrix(kernel: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Symmetric kernel matrix at ``points`` (PSD by construction)."""
    K = kernel_cross(kernel, points, points)
    return 0.5 * (K + K.T)


def kernel_diag(kernel: KernelSpec, points: np.ndarray) -> np.ndarray:
    """Diagonal k(x_i, x_i) without forming the full matrix."""
    points = np.atleast_1d(np.asarray(points, dtype=float))
    if isinstance(kernel, SquaredExponential):
        return np.full(points.size, kernel.nu)
    J = kernel.j_eff
    prior = kernel.prior
    s2 = prior.spectrum(np.arange(1, J + 1)) ** 2
    F = prior.basis.features(points, J)
    return (F * F) @ s2


@dataclass
class GaussianPosterior:
    """Gaussian law for f, summarized on a query grid plus callable rules."""

    query: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    mean_fn: Callable[[np.ndarray], np.ndarray]
    cov_fn: Callable[[np.ndarray, np.ndarray], np.ndarray]

    @classmethod
    def from_features(cls, query: np.ndarray,
                      features: Callable[[np.ndarray], np.ndarray],
                      weights: np.ndarray, weight_cov: np.ndarray,
                      prior_cov: Callable[[np.ndarray, np.ndarray],
                                          np.ndarray] | None = None
                      ) -> "GaussianPosterior":
        """Law of f = F w + g with basis weights w ~ N(weights, weight_cov).

        ``features`` maps points to the rows F(x); ``weight_cov`` C is a
        vector (a diagonal) or a matrix; g is independent of w, mean zero,
        with covariance ``prior_cov`` k0 (zero when None). Mean rule
        x -> F(x) w, evaluated over blocks of ``MEAN_BLOCK`` points, and
        covariance rule (x, x') -> k0(x, x') + F(x) C F(x')'.
        """
        C = np.asarray(weight_cov, dtype=float)

        def mean_fn(xs):
            return _block_mean(features, xs, weights)

        def cov_fn(xs, ys):
            xs = np.atleast_1d(np.asarray(xs, dtype=float))
            ys = np.atleast_1d(np.asarray(ys, dtype=float))
            # k0 first, the feature term added into it: this order peaks lowest
            out = None if prior_cov is None else prior_cov(xs, ys)
            Fa = features(xs)
            Fb = Fa if ys is xs else features(ys)
            term = (Fa * C if C.ndim == 1 else Fa @ C) @ Fb.T
            return term if out is None else np.add(out, term, out=out)

        query = np.atleast_1d(np.asarray(query, dtype=float))
        return cls(query, mean_fn(query), cov_fn(query, query), mean_fn,
                   cov_fn)

    def band95(self) -> tuple[np.ndarray, np.ndarray]:
        """Pointwise central 95 percent band on the query grid."""
        sd = np.sqrt(np.clip(np.diag(self.cov), 0.0, None))
        return self.mean - 1.96 * sd, self.mean + 1.96 * sd


def _weight_posterior(r: np.ndarray, G: np.ndarray, wy: np.ndarray,
                      sigma_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """Posterior of weights u = r * v, v ~ N(0, I), seen through y = W'v + eps.

    With the whitened G = W W' and W y, one Cholesky factor of
    M = sigma^2 I + G gives the mean r * M^{-1} W y and the covariance
    sigma^2 diag(r) M^{-1} diag(r). A zero scale r_j pins u_j at zero.
    """
    if not sigma_sq > 0:
        raise ValueError("sigma_sq must be positive")
    L_M, _ = _linalg.chol_jitter(sigma_sq * np.eye(r.size) + G)
    # cho_solve: solve_triangular with a matrix right-hand side wakes BLAS
    # threads that measurably slow the numpy work after it on small m
    Sigma = sigma_sq * r[:, None] * _linalg.chol_solve(L_M, np.diag(r))
    return r * _linalg.chol_solve(L_M, wy), 0.5 * (Sigma + Sigma.T)


def _collapsed_profile(G: np.ndarray, wy: np.ndarray, yty: float,
                       kff_sum: float, n: int) -> Callable[[float], float]:
    """Collapsed objective from its whitened data terms.

    With W = K_uu^{-1/2} K_uf: G = W W', wy = W y, y'y, tr K_ff and n.
    Each call factors M = sigma^2 I + G in O(m^3).
    """
    tr_G = float(np.trace(G))
    m = G.shape[0]
    eye = np.eye(m)

    def value(sigma_sq: float) -> float:
        if not sigma_sq > 0:
            raise ValueError("sigma_sq must be positive")
        M = sigma_sq * eye + G
        L_M, _ = _linalg.chol_jitter(M)
        z = _linalg.solve_lower(L_M, wy)
        quad = (yty - float(z @ z)) / sigma_sq
        logdet = _linalg.logdet_from_chol(L_M) + (n - m) * np.log(sigma_sq)
        fit = -0.5 * (n * np.log(2.0 * np.pi) + logdet + quad)
        penalty = 0.5 * (kff_sum - tr_G) / sigma_sq
        return fit - penalty

    return value


def _series_terms(kernel: SeriesKernel, x: np.ndarray, y: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scales s of the J-term series and its whitened G and W y at (x, y).

    W = (Phi_J S)' from the direct basis features, so G = (Phi S)'(Phi S)
    and W y = (Phi S)'y; O(J^2 n) time and an n x J block.
    """
    J = kernel.j_eff
    s = kernel.prior.spectrum(np.arange(1, J + 1))
    W = kernel.prior.basis.features(x, J) * s
    return s, W.T @ W, W.T @ y


def _weight_space(kernel: KernelSpec, data: Dataset) -> bool:
    """Whether the J x J weight-space form is the smaller problem."""
    return isinstance(kernel, SeriesKernel) and kernel.j_eff <= data.n


def _posterior_kernel_form(kernel: KernelSpec, data: Dataset,
                           query: np.ndarray) -> GaussianPosterior:
    K = kernel_matrix(kernel, data.x)
    L, _ = _linalg.chol_jitter(K + data.sigma_sq * np.eye(data.n))
    alpha = _linalg.chol_solve(L, data.y)

    def mean_fn(xs):
        return kernel_cross(kernel, xs, data.x) @ alpha

    def cov_fn(xs, ys):
        Ka = kernel_cross(kernel, xs, data.x)
        Kb = kernel_cross(kernel, ys, data.x)
        W = _linalg.chol_solve(L, Kb.T)
        return kernel_cross(kernel, xs, ys) - Ka @ W

    query = np.atleast_1d(np.asarray(query, dtype=float))
    return GaussianPosterior(query, mean_fn(query), cov_fn(query, query),
                             mean_fn, cov_fn)


def _posterior_series_form(kernel: SeriesKernel, data: Dataset,
                           query: np.ndarray) -> GaussianPosterior:
    """Any J-term series kernel as a Bayesian linear model in J weights.

    :func:`_weight_posterior` on the whitened terms of
    :func:`_series_terms` gives the weight mean and covariance, pushed
    through the first J basis features; nothing of the prior is left
    outside them. O(J^2 n + J^3).
    """
    J = kernel.j_eff
    basis = kernel.prior.basis
    s, G, wy = _series_terms(kernel, data.x, data.y)
    w, C = _weight_posterior(s, G, wy, data.sigma_sq)
    return GaussianPosterior.from_features(
        query, lambda xs: basis.features(xs, J), w, C)


def exact_posterior(kernel: KernelSpec, data: Dataset, query: np.ndarray,
                    method: str = "auto") -> GaussianPosterior:
    """Exact GP posterior given ``data``, summarized at ``query``.

    ``method`` picks the computation route: "kernel" conditions on the n x n
    kernel matrix, "series" uses the weight-space form (flat truncated
    spectra only), and "auto" takes the weight-space form for a flat
    truncated spectrum and for any series kernel with J <= n, else the
    kernel route.
    """
    if data.n < 1:
        raise ValueError("need at least one observation")
    flat = isinstance(kernel, SeriesKernel) and isinstance(
        kernel.prior.kind, Truncated)
    if method == "series" and not flat:
        raise ValueError("series form needs a flat truncated spectrum")
    if method == "auto":
        method = "series" if flat or _weight_space(kernel, data) else "kernel"
    if method == "series":
        return _posterior_series_form(kernel, data, query)
    if method != "kernel":
        raise ValueError(f"unknown method {method!r}")
    return _posterior_kernel_form(kernel, data, query)


def log_evidence(kernel: KernelSpec, data: Dataset) -> float:
    """log N(y; 0, K + sigma^2 I).

    For a series kernel with J <= n this is the collapsed bound with all J
    features (tr(K_ff - Q_ff) = 0) from :func:`_series_terms`, through the
    determinant lemma in O(J^2 n + J^3); otherwise one Cholesky of the
    n x n matrix.
    """
    if data.n < 1:
        raise ValueError("need at least one observation")
    if _weight_space(kernel, data):
        _, G, wy = _series_terms(kernel, data.x, data.y)
        tr_G = float(np.trace(G))
        return _collapsed_profile(G, wy, float(data.y @ data.y), tr_G,
                                  data.n)(data.sigma_sq)
    K = kernel_matrix(kernel, data.x)
    L, _ = _linalg.chol_jitter(K + data.sigma_sq * np.eye(data.n))
    alpha = _linalg.chol_solve(L, data.y)
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
            stacklevel=3,
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

    def mixture_mean(self, xs: np.ndarray) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.zeros(xs.size)
        for lam, w in self.weights.items():
            out += w * self.components[lam].mean_fn(xs)
        return out


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
