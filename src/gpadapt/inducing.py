"""Sparse variational GP regression with inducing variables.

Two flavors of inducing variables are implemented, matching the two ways the
low-rank structure can be chosen:

* population features: the inducing variables are the first m basis weights
  of a series prior, u_j = <f, phi_j>, giving diagonal K_uu = diag(s_j^2)
  and K_uf[j, i] = s_j^2 phi_j(x_i);
* sample features: u_j = v_j' f(x) for the top-m eigenvectors v_j of the
  kernel matrix at the observed design, giving K_uu = diag(eigenvalues) and
  K_uf = diag(eigenvalues) V'.

K_uu = diag(d) is diagonal in both, so nothing factors it: with the
whitened W = diag(d)^{-1/2} K_uf (Q_ff = W'W), G = W W' and
M = sigma^2 I + G, the optimal Gaussian q(u) for fixed hyperparameters is

    mu = D M^{-1} W y,   Sigma = sigma^2 D M^{-1} D,   D = diag(sqrt d),

and the resulting collapsed objective

    log N(y; 0, Q_ff + sigma^2 I) - tr(K_ff - Q_ff) / (2 sigma^2)

reads the Cholesky factor of the same M: O(m^2 n) for G and W y, then
O(m^3) per noise value. Both solves live in :mod:`gpadapt.exact`, whose
exact series reference is the same algebra with all J features (m = J).
Prediction pushes weights mu with covariance Sigma - K_uu through the
features K_xu K_uu^{-1}, which for population features are the first m
basis features.

A grid sweep over population priors reads the data only through
statistics of the basis features that no candidate changes
(:class:`FeatureStats`): built once per dataset from trigonometric moments
(O(n sqrt(J)) trigonometric calls and O(n J) complex multiply-adds in matrix
products), they let every candidate be scored and fitted in O(m^3 + J)
(:func:`population_candidate`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from . import _linalg
from .basis import EigenBasis, SeriesPrior, _check_domain, _trig_moments
from .errors import ConditioningError
from .exact import (
    Dataset,
    GaussianPosterior,
    KernelSpec,
    SeriesKernel,
    _block_mean,
    _collapsed_profile,
    _weight_posterior,
    kernel_cross,
    log_evidence,
)

__all__ = [
    "InducingModel",
    "VariationalGP",
    "FeatureStats",
    "feature_cutoff",
    "feature_stats",
    "population_candidate",
    "population_features",
    "sample_features",
    "titsias_fit",
    "predict",
    "predict_mean",
    "elbo_lambda",
    "elbo_profile",
    "elbo_at",
    "kl_to_posterior",
]


@dataclass
class InducingModel:
    """Low-rank prior summary: inducing covariances plus prior variances.

    ``K_uu`` is diagonal for every builder (diag(s^2) for population
    features, diag(eigenvalues) for sample features); the whitened algebra
    of this module reads only its diagonal.
    ``V`` and ``eigvals`` are populated for the sample flavor only;
    ``prior`` for the population flavor; ``kernel`` when cross-covariances
    to new points are available for prediction. A population model scored
    from :class:`FeatureStats` holds no per-point terms (``K_uf``,
    ``kff_diag`` and ``x_train`` are None): it predicts, but cannot be
    refitted against a dataset.
    """

    flavor: str
    m: int
    K_uu: np.ndarray
    K_uf: np.ndarray | None
    kff_diag: np.ndarray | None
    x_train: np.ndarray | None
    V: np.ndarray | None = None
    eigvals: np.ndarray | None = None
    prior: SeriesPrior | None = None
    kernel: KernelSpec | None = None
    feature_cutoff: int | None = None  # series length J behind kff_diag
    tail_mode: str = "mean"

    @property
    def n(self) -> int:
        if self.K_uf is None:
            raise ValueError("model was scored from design statistics and "
                             "has no per-point terms")
        return self.K_uf.shape[1]


@dataclass
class VariationalGP:
    """Fitted variational distribution q(u) = N(mu, Sigma) over features."""

    model: InducingModel
    mu: np.ndarray
    Sigma: np.ndarray


def feature_cutoff(prior: SeriesPrior, m: int,
                   j_cutoff: int | None = None) -> int:
    """Series length J behind the trace term of an m-feature population model.

    J = max(10 m, 1000) unless ``j_cutoff`` is given, capped at the spectrum
    support. Raises for m outside 1..support or a cutoff below m.
    """
    if m < 1:
        raise ValueError("need at least one inducing feature")
    if m > prior.support:
        raise ValueError(
            f"m = {m} exceeds the spectrum support {prior.support}")
    J = max(10 * m, 1000) if j_cutoff is None else int(j_cutoff)
    if J < m:
        raise ValueError("j_cutoff must be at least m")
    if np.isfinite(prior.support):
        J = min(J, int(prior.support))
    return J


def population_features(prior: SeriesPrior, x: np.ndarray, m: int,
                        j_cutoff: int | None = None,
                        tail_mode: str = "mean") -> InducingModel:
    """Spectral inducing variables: the first m prior basis weights.

    The prior variance sum behind ``kff_diag`` is truncated at
    J = max(10 m, 1000) (capped at the spectrum support, overridable via
    ``j_cutoff``; see :func:`feature_cutoff`). With ``tail_mode="mean"``
    (default) the mean of the dropped tail, sum_{j>J} s_j^2, is added back
    so the trace penalty in the collapsed objective is unbiased for slowly
    decaying spectra; with ``tail_mode="truncate"`` the model describes
    exactly the J-term truncated prior, which is what a matching
    :class:`~gpadapt.exact.SeriesKernel` computes.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if tail_mode not in ("mean", "truncate"):
        raise ValueError("tail_mode must be 'mean' or 'truncate'")
    J = feature_cutoff(prior, m, j_cutoff)
    s2 = prior.spectrum(np.arange(1, J + 1)) ** 2
    Phi = prior.basis.features(x, J)
    kff = (Phi * Phi) @ s2
    if tail_mode == "mean":
        kff = kff + prior.tail_variance(J)
    K_uf = (Phi[:, :m] * s2[:m]).T.copy()
    return InducingModel(
        flavor="population",
        m=m,
        K_uu=np.diag(s2[:m]),
        K_uf=K_uf,
        kff_diag=kff,
        x_train=x,
        prior=prior,
        feature_cutoff=J,
        tail_mode=tail_mode,
    )


#: design rows per block when accumulating the trigonometric moments behind
#: :class:`FeatureStats`; memory stays O(STATS_CHUNK sqrt(J) + m^2)
STATS_CHUNK = 128


@dataclass(frozen=True)
class FeatureStats:
    """Sums over the design of the first J basis features, for one dataset.

    ``colsumsq[j-1]`` is sum_i phi_j(x_i)^2 for j <= J, ``gram`` the leading
    m x m block of Phi'Phi, ``phi_y`` the first m entries of Phi'y, and
    ``yty`` is y'y. No population candidate with at most m features and a
    cutoff of at most J changes them.
    """

    n: int
    colsumsq: np.ndarray
    gram: np.ndarray
    phi_y: np.ndarray
    yty: float


def feature_stats(basis: EigenBasis, x: np.ndarray, y: np.ndarray, J: int,
                  m: int) -> FeatureStats:
    """:class:`FeatureStats` from the trigonometric moments of the design.

    Products of the cos/sin features of ``basis`` (the one-dimensional
    trigonometric basis) are sums of single waves, so with
    M_k = sum_i exp(i k x_i) up to order J and Y_k = sum_i y_i exp(i k x_i)
    up to order m/2 (both accumulated over blocks of ``STATS_CHUNK`` rows):
    colsumsq is n +- Re M_2k, the Gram block is a Toeplitz term in
    M_|j-k| plus a Hankel term in M_j+k, and Phi'y reads off Y. No n x J
    feature block is formed; peak memory is O(STATS_CHUNK sqrt(J) + m^2).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("x and y must have matching length")
    if not 1 <= m <= J:
        raise ValueError("need 1 <= m <= J")
    _check_domain(x)
    n = x.size
    h = m // 2
    M = _trig_moments(x, np.ones(n), J + 1, STATS_CHUNK)
    Y = _trig_moments(x, y, h + 1, STATS_CHUNK)
    # phi_1 = 1, phi_2k = sqrt(2) cos(k x), phi_2k+1 = sqrt(2) sin(k x)
    colsumsq = np.full(J, float(n))
    waves = M.real[2:2 * (J // 2) + 1:2]
    colsumsq[1::2] += waves
    colsumsq[2::2] -= waves[:(J - 1) // 2]
    # sums of cos(a x) cos(b x), sin sin and cos sin for a, b <= h
    T = scipy.linalg.toeplitz(M[:h + 1])  # T[a, b] = M_(a-b), M_-k = conj M_k
    H = scipy.linalg.hankel(M[:h + 1], M[h:2 * h + 1])  # H[a, b] = M_(a+b)
    cos_i = np.r_[0, 1:2 * h:2]
    sin_i = np.arange(2, 2 * h + 1, 2)
    gram = np.empty((2 * h + 1, 2 * h + 1))
    gram[np.ix_(cos_i, cos_i)] = 0.5 * (T.real + H.real)
    gram[np.ix_(sin_i, sin_i)] = 0.5 * (T.real - H.real)[1:, 1:]
    cs = 0.5 * (H.imag - T.imag)[:, 1:]
    gram[np.ix_(cos_i, sin_i)] = cs
    gram[np.ix_(sin_i, cos_i)] = cs.T
    phi_y = np.empty(2 * h + 1)
    phi_y[cos_i] = Y.real
    phi_y[sin_i] = Y.imag[1:]
    scale = np.full(2 * h + 1, np.sqrt(2.0))
    scale[0] = 1.0
    gram = (scale[:, None] * gram * scale)[:m, :m]
    return FeatureStats(n=n, colsumsq=colsumsq, gram=gram,
                        phi_y=(scale * phi_y)[:m], yty=float(y @ y))


def sample_features(K_ff: np.ndarray, m: int, kernel: KernelSpec | None = None,
                    x: np.ndarray | None = None) -> InducingModel:
    """Empirical inducing variables: top-m eigenpairs of the kernel matrix.

    Non-positive eigenvalues among the requested m are dropped with a
    warning (rank-degenerate kernels), shrinking m. Pass ``kernel`` and
    ``x`` to enable prediction at new points.
    """
    K_ff = np.asarray(K_ff, dtype=float)
    n = K_ff.shape[0]
    if K_ff.shape != (n, n):
        raise ValueError("kernel matrix must be square")
    scale = max(float(np.max(np.abs(K_ff))), 1e-300)
    if float(np.max(np.abs(K_ff - K_ff.T))) > 1e-8 * scale:
        raise ValueError("kernel matrix must be symmetric")
    if not 1 <= m <= n:
        raise ValueError("m must lie in 1..n")
    K_sym = 0.5 * (K_ff + K_ff.T)
    if 8 * m >= n:
        # with m a large share of n the full divide-and-conquer solve is
        # faster than the subset one (n = 300, m = 150: 9 ms against 29 ms)
        vals, vecs = scipy.linalg.eigh(K_sym, driver="evd")
        vals, vecs = vals[n - m:], vecs[:, n - m:]
    else:
        vals, vecs = scipy.linalg.eigh(K_sym, subset_by_index=[n - m, n - 1])
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    tol = max(vals[0], 0.0) * n * np.finfo(float).eps
    keep = vals > tol
    if not np.any(keep):
        raise ConditioningError("kernel matrix has no positive eigenvalues")
    if np.count_nonzero(keep) < m:
        warnings.warn(
            f"dropping {m - np.count_nonzero(keep)} non-positive "
            "eigenvalues; reducing the number of features",
            RuntimeWarning,
            stacklevel=2,
        )
    vals = vals[keep]
    vecs = vecs[:, keep]
    m_eff = vals.size
    return InducingModel(
        flavor="sample",
        m=m_eff,
        K_uu=np.diag(vals),
        K_uf=(vecs * vals).T.copy(),
        kff_diag=np.diag(K_ff).copy(),
        x_train=None if x is None else np.atleast_1d(np.asarray(x, float)),
        V=vecs,
        eigvals=vals,
        kernel=kernel,
    )


def _whiten(model: InducingModel) -> tuple[np.ndarray, np.ndarray]:
    """W = K_uu^{-1/2} K_uf and G = W W'; a prior variance that underflows
    to zero gives a zero row of W, the limit of s_j phi_j(x)."""
    r = np.sqrt(np.diag(model.K_uu))[:, None]
    W = np.divide(model.K_uf, r, out=np.zeros_like(model.K_uf), where=r > 0)
    return W, W @ W.T


def _optimal_q(model: InducingModel, G: np.ndarray, wy: np.ndarray,
               sigma_sq: float) -> VariationalGP:
    """Closed-form q(u) from G and W y: the weight posterior of
    :func:`~gpadapt.exact._weight_posterior` with scales sqrt(diag K_uu)."""
    mu, Sigma = _weight_posterior(np.sqrt(np.diag(model.K_uu)), G, wy,
                                  sigma_sq)
    return VariationalGP(model=model, mu=mu, Sigma=Sigma)


def titsias_fit(model: InducingModel, data: Dataset) -> VariationalGP:
    """Closed-form optimal q(u) for the collapsed variational problem."""
    if data.n != model.n:
        raise ValueError("model was built for a different design")
    W, G = _whiten(model)
    return _optimal_q(model, G, W @ data.y, data.sigma_sq)


def _features(model: InducingModel, xs: np.ndarray) -> np.ndarray:
    """K_xu K_uu^{-1}: the inducing features at new points."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if model.flavor == "population":
        return model.prior.basis.features(xs, model.m)
    if model.kernel is None or model.x_train is None:
        raise ValueError(
            "sample-feature prediction needs the kernel and training points")
    return (kernel_cross(model.kernel, xs, model.x_train) @ model.V
            / model.eigvals)


def _prior_cov(model: InducingModel, xs: np.ndarray, ys: np.ndarray
               ) -> np.ndarray:
    if model.flavor == "population":
        J = model.feature_cutoff
        out = kernel_cross(SeriesKernel(model.prior, J), xs, ys)
        # dropped-tail mean belongs on exact variance entries only
        if model.tail_mode == "mean":
            tail = model.prior.tail_variance(J)
            if tail:
                out[xs[:, None] == ys[None, :]] += tail
        return out
    return kernel_cross(model.kernel, xs, ys)


def predict(q: VariationalGP, query: np.ndarray) -> GaussianPosterior:
    """Variational predictive law of f, summarized at ``query``.

    :meth:`~gpadapt.exact.GaussianPosterior.from_features` with features
    K_xu K_uu^{-1} (for population features the first m basis features),
    weights mu, weight covariance Sigma - K_uu and the prior kernel (for
    population features the J-term series, plus the dropped-tail mean on
    coinciding points under ``tail_mode="mean"``), for both flavors. No
    matrix is factored.
    """
    model = q.model
    return GaussianPosterior.from_features(
        query, lambda xs: _features(model, xs), q.mu, q.Sigma - model.K_uu,
        lambda xs, ys: _prior_cov(model, xs, ys))


def predict_mean(q: VariationalGP, xs: np.ndarray) -> np.ndarray:
    """Predictive mean x -> K_xu K_uu^{-1} mu at ``xs`` alone.

    Equal to ``predict(q, xs).mean`` without forming the len(xs) x len(xs)
    covariance; features are formed over blocks of ``exact.MEAN_BLOCK`` rows.
    """
    return _block_mean(lambda x: _features(q.model, x), xs, q.mu)


def elbo_profile(model: InducingModel, y: np.ndarray
                 ) -> Callable[[float], float]:
    """Collapsed objective as a cheap function of the noise variance.

    The O(m^2 n) work (feature whitening and the m x m Gram) happens once;
    each call then costs O(m^3). Used both for fixed-noise evaluation and
    for profiling out sigma^2 during selection.
    """
    y = np.asarray(y, dtype=float)
    if y.size != model.n:
        raise ValueError("model was built for a different design")
    W, G = _whiten(model)
    return _collapsed_profile(G, W @ y, float(y @ y),
                              float(np.sum(model.kff_diag)), y.size)


def population_candidate(prior: SeriesPrior, stats: FeatureStats, m: int
                         ) -> tuple[InducingModel, Callable[[float], float],
                                    Callable[[float], VariationalGP]]:
    """Population-feature model of :func:`population_features`, from statistics.

    Returns the model, the collapsed objective as a function of the noise
    variance (equal to ``elbo_profile(population_features(prior, x, m), y)``
    up to roundoff) and the matching optimal q(u) as a function of the noise
    variance; neither touches the design. With s the first m prior scales
    (K_uu = diag(s^2)), both read the same whitened data terms
    G = diag(s) (Phi'Phi)_m diag(s) and W y = s * (Phi'y)_m, and
    tr K_ff = sum_{j<=J} s_j^2 colsumsq_j + n times the tail mean. Costs
    O(m^3 + J).
    """
    J = feature_cutoff(prior, m)
    if J > stats.colsumsq.size or m > stats.gram.shape[0]:
        raise ValueError(
            f"statistics cover J = {stats.colsumsq.size}, "
            f"m = {stats.gram.shape[0]}; candidate needs J = {J}, m = {m}")
    s2 = prior.spectrum(np.arange(1, J + 1)) ** 2
    kff_sum = (float(s2 @ stats.colsumsq[:J])
               + stats.n * prior.tail_variance(J))
    s2 = s2[:m]
    s = np.sqrt(s2)
    G = s[:, None] * stats.gram[:m, :m] * s
    wy = s * stats.phi_y[:m]
    model = InducingModel(flavor="population", m=m, K_uu=np.diag(s2),
                          K_uf=None, kff_diag=None, x_train=None, prior=prior,
                          feature_cutoff=J, tail_mode="mean")
    profile = _collapsed_profile(G, wy, stats.yty, kff_sum, stats.n)
    return model, profile, lambda sigma_sq: _optimal_q(model, G, wy, sigma_sq)


def elbo_lambda(model: InducingModel, data: Dataset) -> float:
    """Collapsed variational objective at the dataset's noise variance."""
    if data.n != model.n:
        raise ValueError("model was built for a different design")
    return elbo_profile(model, data.y)(data.sigma_sq)


def elbo_at(q: VariationalGP, data: Dataset) -> float:
    """Uncollapsed objective at an arbitrary q(u) = N(mu, Sigma).

    Expected log-likelihood under the induced law of f at the design minus
    KL(q(u) || prior over u). Coincides with :func:`elbo_lambda` when
    (mu, Sigma) come from :func:`titsias_fit`. Both terms are taken in the
    whitened weights v = K_uu^{-1/2} u, whose prior is N(0, I); a prior
    variance that underflows to zero pins its u_j at zero, as in
    :func:`_whiten`, so those coordinates drop out of both.
    """
    model = q.model
    if data.n != model.n:
        raise ValueError("model was built for a different design")
    s2 = data.sigma_sq
    n = data.n
    r = np.sqrt(np.diag(model.K_uu))
    live = r > 0
    r = r[live]
    W, G = _whiten(model)
    mu = q.mu[live] / r
    Sigma = q.Sigma[np.ix_(live, live)] / r[:, None] / r
    resid = data.y - W[live].T @ mu
    rss = float(resid @ resid)
    tr_residual = float(np.sum(model.kff_diag)) - float(np.trace(G))
    tr_smear = float(np.sum(Sigma * G[np.ix_(live, live)]))
    L_S, _ = _linalg.chol_jitter(Sigma)
    kl = 0.5 * (
        float(np.trace(Sigma)) + float(mu @ mu) - r.size
        - _linalg.logdet_from_chol(L_S)
    )
    exp_lik = (
        -0.5 * n * np.log(2.0 * np.pi * s2)
        - 0.5 * (rss + tr_residual + tr_smear) / s2
    )
    return exp_lik - kl


def kl_to_posterior(q: VariationalGP, data: Dataset,
                    kernel: KernelSpec) -> float:
    """KL divergence from q's process law to the exact posterior.

    Computed through the variational gap identity
    log_evidence - ELBO(q); non-negative up to roundoff. Reference-scale
    only (n <= 500): the evidence side is O(n^3).
    """
    if data.n > 500:
        raise ValueError("kl_to_posterior is a reference path; n must be <= 500")
    return log_evidence(kernel, data) - elbo_at(q, data)
