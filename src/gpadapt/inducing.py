"""Sparse variational GP regression with inducing variables.

An inducing model is a feature map (:class:`InducingModel`): inducing
variables u with diagonal K_uu = diag(d), the features
F(x) = K_xu K_uu^{-1} at any points, and the prior kernel's variance and
cross-covariance. Two builders choose the low-rank structure:

* population features: the first m basis weights of a series prior,
  u_j = <f, phi_j>, with d_j = s_j^2 and F the first m basis features;
* sample features: u_j = v_j' f(x) for the top-m eigenvectors v_j of the
  kernel matrix at the observed design, with d the eigenvalues and
  F(x) = k(x, X) V diag(d)^{-1}, which is V itself at the design.

At a design x, K_uf = diag(d) F(x)', so nothing factors K_uu: with the
whitened W = diag(d)^{-1/2} K_uf = diag(sqrt d) F(x)' (Q_ff = W'W),
G = W W' and M = sigma^2 I + G, the optimal Gaussian q(u) for fixed
hyperparameters is

    mu = D M^{-1} W y,   Sigma = sigma^2 D M^{-1} D,   D = diag(sqrt d),

and the resulting collapsed objective

    log N(y; 0, Q_ff + sigma^2 I) - tr(K_ff - Q_ff) / (2 sigma^2)

reads the same eigendecomposition G = Q diag(lam) Q': O(m^2 n) for G and
W y and O(m^3) for the one eigendecomposition, then O(m) per noise value
for the objective and O(m^3) for q(u). Both solves live in
:mod:`gpadapt.exact`, whose
exact series reference is the same algebra with all J features (m = J).
Prediction pushes weights mu with covariance Sigma - K_uu through the
features F.

A grid sweep over population priors reads the data only through
statistics of the basis features that no candidate changes
(:class:`FeatureStats`): built once per dataset from trigonometric moments
(two complex exponentials per design point, O(n sqrt(J)) complex
multiplications for their powers and O(n J) complex multiply-adds in
matrix products), they let every candidate be scored and fitted in
O(m^3 + J) (:func:`population_candidate`).
Sample features have G = diag(eigenvalues), so the bound and q(u) of
every nu K read off one eigendecomposition of K (:class:`_EigenFactor`),
which the tuner and the sample-feature sweep both score and fit from.
Both build it from a factor K ~ L L' with L of size n x r, through the
smaller of the Grams L'L and L L': the tuner from a pivoted Cholesky
factor (r <= n), the sweep from the exact factor Phi_J S of a J-term
series kernel (J basis features scaled by their prior scales).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _linalg
from .basis import BASIS, SeriesPrior, _check_domain, _trig_moments
from .errors import ConditioningError, _caller_level
from .exact import (
    Dataset,
    GaussianPosterior,
    KernelSpec,
    SeriesKernel,
    _collapsed_profile,
    _eigen_terms,
    _weight_posterior,
    kernel_cross,
    kernel_diag,
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
    "elbo_lambda",
    "elbo_profile",
    "elbo_at",
    "kl_to_posterior",
]


@dataclass
class InducingModel:
    """Inducing variables u as a feature map.

    ``kuu_diag`` is the diagonal d of K_uu, which is diagonal for every
    builder (d = s^2 for population features, the eigenvalues for sample
    features). ``features(xs)`` gives K_xu K_uu^{-1} at any points, and
    ``prior_var(xs)`` and ``prior_cov(xs, ys)`` the prior kernel's
    variance and cross-covariance there. Every route reads the model
    through these four: at a design x, K_uf = diag(d) features(x)' and
    K_ff has diagonal prior_var(x).
    """

    kuu_diag: np.ndarray
    features: Callable[[np.ndarray], np.ndarray]
    prior_var: Callable[[np.ndarray], np.ndarray]
    prior_cov: Callable[[np.ndarray, np.ndarray], np.ndarray]

    @property
    def m(self) -> int:
        return self.kuu_diag.size


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


def _population_model(prior: SeriesPrior, m: int, J: int, tail_mode: str
                      ) -> InducingModel:
    """The first m basis weights of ``prior`` as inducing variables.

    Features are the first m basis features, and the prior kernel is the
    J-term series, plus the dropped-tail mean on its variance and on
    coinciding points under ``tail_mode="mean"``. The J-term variance is
    the cosine series of :func:`~gpadapt.exact.kernel_diag`, in
    O(R (J log J + len(xs))), with no len(xs) x J feature block.
    """
    if tail_mode not in ("mean", "truncate"):
        raise ValueError("tail_mode must be 'mean' or 'truncate'")
    kernel = SeriesKernel(prior, J)
    tail = prior.tail_variance(J) if tail_mode == "mean" else 0.0

    def features(xs):
        return BASIS.features(np.atleast_1d(np.asarray(xs, dtype=float)), m)

    def prior_cov(xs, ys):
        out = kernel_cross(kernel, xs, ys)
        # dropped-tail mean belongs on exact variance entries only
        if tail:
            out[xs[:, None] == ys[None, :]] += tail
        return out

    return InducingModel(prior.spectrum(np.arange(1, m + 1)) ** 2, features,
                         lambda xs: kernel_diag(kernel, xs) + tail, prior_cov)


def population_features(prior: SeriesPrior, m: int,
                        j_cutoff: int | None = None,
                        tail_mode: str = "mean") -> InducingModel:
    """Spectral inducing variables: the first m prior basis weights.

    The prior variance sum is truncated at J = max(10 m, 1000) (capped at
    the spectrum support, overridable via ``j_cutoff``; see
    :func:`feature_cutoff`). With ``tail_mode="mean"`` (default) the mean
    of the dropped tail, sum_{j>J} s_j^2, is added back so the trace
    penalty in the collapsed objective is unbiased for slowly decaying
    spectra; with ``tail_mode="truncate"`` the model describes exactly the
    J-term truncated prior, which is what a matching
    :class:`~gpadapt.exact.SeriesKernel` computes. The model holds no
    design: it serves any points.
    """
    return _population_model(prior, m, feature_cutoff(prior, m, j_cutoff),
                             tail_mode)


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


def _toeplitz_hankel(M: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """T[a, b] = M_(a-b), with M_-k = conj M_k, and H[a, b] = M_(a+b) for
    a, b <= h, by indexing."""
    k = np.arange(h + 1)
    T = np.concatenate((M[h:0:-1].conj(), M[:h + 1]))[h + k[:, None] - k]
    return T, M[k[:, None] + k]


def feature_stats(x: np.ndarray, y: np.ndarray, J: int, m: int
                  ) -> FeatureStats:
    """:class:`FeatureStats` from the trigonometric moments of the design.

    Products of the cos/sin features of :data:`basis.BASIS` (the
    one-dimensional trigonometric basis) are sums of single waves, so with
    M_k = sum_i exp(i k x_i) up to order J and Y_k = sum_i y_i exp(i k x_i)
    up to order m/2 (both from one call of :func:`basis._trig_moments`):
    colsumsq is n +- Re M_2k, the Gram block is a Toeplitz term in
    M_|j-k| plus a Hankel term in M_j+k, and Phi'y reads off Y. No n x J
    feature block is formed. The moments go on an FFT grid of at least
    2 J points, in O(R (J log J + n)) time with R about 20, and peak
    memory is O(n + J + m^2).
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
    M, Y = _trig_moments(x, np.stack([np.ones(n), y]), (J + 1, h + 1))
    # phi_1 = 1, phi_2k = sqrt(2) cos(k x), phi_2k+1 = sqrt(2) sin(k x)
    colsumsq = np.full(J, float(n))
    waves = M.real[2:2 * (J // 2) + 1:2]
    colsumsq[1::2] += waves
    colsumsq[2::2] -= waves[:(J - 1) // 2]
    # sums of cos(a x) cos(b x), sin sin and cos sin for a, b <= h
    T, H = _toeplitz_hankel(M, h)
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


def _kept(vals: np.ndarray, n: int) -> np.ndarray:
    """Mask of the descending eigenvalues of an n x n kernel above
    n eps max(lam_max, 0); raises when it keeps none."""
    keep = vals > max(vals[0], 0.0) * n * np.finfo(float).eps
    if not np.any(keep):
        raise ConditioningError("kernel matrix has no positive eigenvalues")
    return keep


def _top_eigenpairs(K_ff: np.ndarray, m: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Top-m eigenpairs, descending, less those at or below n eps lam_max.

    One full symmetric eigendecomposition (numpy's ``eigh``), of which the
    top m pairs are kept: O(n^3) at any m.
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
    vals, vecs = np.linalg.eigh(0.5 * (K_ff + K_ff.T))
    vals, vecs = vals[n - m:][::-1], vecs[:, n - m:][:, ::-1]  # descending
    keep = _kept(vals, n)
    return vals[keep], vecs[:, keep]


def _warn_dropped(dropped: int) -> None:
    """The warning of :func:`sample_features`, at the first caller outside
    the package."""
    if dropped:
        warnings.warn(f"dropping {dropped} non-positive eigenvalues; "
                      "reducing the number of features", RuntimeWarning,
                      stacklevel=_caller_level())


def _sample_model(vals: np.ndarray, V: np.ndarray, x: np.ndarray,
                  kernel: KernelSpec | None, K_ff: np.ndarray | None = None
                  ) -> InducingModel:
    """Inducing variables u_j = v_j'f(x) for eigenpairs (vals, V) of the
    kernel matrix on design ``x``.

    At the design the features are V itself and the prior is ``K_ff``
    where given; elsewhere the features are k(xs, x) V diag(vals)^{-1} and
    the prior is ``kernel``, and without one the model refuses the points.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))

    def at_design(xs):
        return K_ff is not None and np.array_equal(xs, x)

    def prior():
        if kernel is None:
            raise ValueError("sample-feature prediction needs the kernel "
                             "and training points")
        return kernel

    def features(xs):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if np.array_equal(xs, x):
            return V
        return kernel_cross(prior(), xs, x) @ V / vals

    def prior_var(xs):
        return np.diag(K_ff) if at_design(xs) else kernel_diag(prior(), xs)

    def prior_cov(xs, ys):
        if at_design(xs) and at_design(ys):
            return K_ff.copy()  # the caller adds into it
        return kernel_cross(prior(), xs, ys)

    return InducingModel(vals, features, prior_var, prior_cov)


def sample_features(K_ff: np.ndarray, m: int, x: np.ndarray,
                    kernel: KernelSpec | None = None) -> InducingModel:
    """Empirical inducing variables: top-m eigenpairs of the kernel matrix.

    ``K_ff`` is the kernel matrix on the design ``x``. Eigenvalues among the
    requested m at or below n eps lam_max (non-positive or lost to rounding)
    are dropped with a warning, shrinking m. The model serves its design
    from ``K_ff`` and its eigenvectors; pass ``kernel`` to enable prediction
    at new points.
    """
    K_ff = np.asarray(K_ff, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if K_ff.ndim == 2 and x.size != K_ff.shape[0]:
        raise ValueError(f"design has {x.size} points but the kernel matrix "
                         f"has order {K_ff.shape[0]}")
    vals, vecs = _top_eigenpairs(K_ff, m)
    _warn_dropped(m - vals.size)
    return _sample_model(vals, vecs, x, kernel, K_ff)


@dataclass(frozen=True)
class _EigenFactor:
    """Sample-feature model of every multiple nu K of a kernel matrix K.

    ``lam`` are the eigenvalues of K that :func:`sample_features` keeps and
    ``vectors()`` forms their eigenvectors V; ``p = V'y``,
    ``gap = tr K - sum lam``. ``rank`` is the rank of the matrix the
    eigenpairs come from, min(n, r) for a factor L L' with r columns, and
    ``dropped`` counts the eigenvalues the drop rule discards among the
    min(m, rank) that matrix offers; a factor of rank below m shows in
    ``rank``, not in ``dropped``. nu K has G = nu diag(lam) and
    W y = sqrt(nu lam) p, so its bound costs O(m) and its q(u) one weight
    solve, with no further eigendecomposition; only q(u) reads V.
    """

    lam: np.ndarray
    vectors: Callable[[], np.ndarray]
    p: np.ndarray
    yty: float
    rest: float  # y'y - p'p: energy of y outside the kept eigenvectors
    gap: float
    n: int
    dropped: int
    rank: int

    @classmethod
    def _build(cls, lam: np.ndarray, vectors: Callable[[], np.ndarray],
               p: np.ndarray, y: np.ndarray, m: int, trace: float, rank: int
               ) -> "_EigenFactor":
        yty = float(y @ y)
        return cls(lam=lam, vectors=vectors, p=p, yty=yty,
                   rest=yty - float(p @ p), gap=trace - float(np.sum(lam)),
                   n=y.size, dropped=min(m, rank) - lam.size, rank=rank)

    @classmethod
    def from_factor(cls, L: np.ndarray, y: np.ndarray, m: int, trace: float
                    ) -> "_EigenFactor":
        """From a factor K ~ L L' (L of size n x r) and tr K, through the
        smaller of the two Grams.

        For r <= n, the eigenpairs of the r x r matrix L'L = Q diag(lam) Q'
        give those of L L': lam and V = L Q diag(lam)^(-1/2), and
        p = diag(lam)^(-1/2) Q'(L'y) needs no V: O(r^2 n + r^3). The factor
        keeps L, and ``vectors()`` forms V from it in O(m r n) more. For
        r > n, the n x n matrix L L' goes to :func:`_top_eigenpairs`:
        O(n^2 r + n^3). Either way the top min(m, r) eigenvalues go through
        the drop rule of :func:`sample_features`, with its n, and the trace
        of K the factor misses lands in ``gap``.
        """
        n, r = L.shape
        if not 1 <= m <= n:
            raise ValueError("m must lie in 1..n")
        if r > n:
            vals, V = _top_eigenpairs(L @ L.T, m)
            return cls._build(vals, lambda: V, V.T @ y, y, m, trace, n)
        vals, Q = np.linalg.eigh(L.T @ L)
        vals, Q = vals[::-1][:m], Q[:, ::-1][:, :m]  # descending
        keep = _kept(vals, n)
        vals = vals[keep]
        W = Q[:, keep] / np.sqrt(vals)
        return cls._build(vals, lambda: L @ W, W.T @ (L.T @ y), y, m, trace,
                          r)

    def profile(self, nu: float) -> Callable[[float], float]:
        """The collapsed bound of nu K as a function of sigma^2."""
        g = nu * self.lam
        return _collapsed_profile(g, np.sqrt(g) * self.p, self.yty,
                                  nu * self.gap, self.n)

    def bound(self, sigma: float, nu: float) -> float:
        """Collapsed bound at (sigma, nu), in O(m)."""
        return self.profile(nu)(sigma * sigma)

    def fit(self, sigma_sq: float, nu: float, kernel: KernelSpec,
            x: np.ndarray) -> VariationalGP:
        """Optimal q(u) of nu K (``kernel``, on design ``x``) at sigma^2:
        :func:`_optimal_q` with the whitened Gram diag(g), g = nu lam,
        whose eigenvectors are I and W y = sqrt(g) p."""
        g = nu * self.lam
        return _optimal_q(_sample_model(g, self.vectors(), x, kernel),
                          (g, np.eye(g.size), np.sqrt(g) * self.p), sigma_sq)


def _whiten(model: InducingModel, x: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """W = K_uu^{-1/2} K_uf = diag(sqrt d) F(x)' and G = W W' at design x;
    a prior variance that underflows to zero gives a zero row of W, the
    limit of s_j phi_j(x)."""
    W = np.sqrt(model.kuu_diag)[:, None] * model.features(x).T
    return W, W @ W.T


def _optimal_q(model: InducingModel, eig: tuple, sigma_sq: float
               ) -> VariationalGP:
    """Closed-form q(u) from the eigen-form ``eig`` = (lam, Q, Q'W y) of G:
    the weight posterior of :func:`~gpadapt.exact._weight_posterior` with
    scales sqrt(diag K_uu)."""
    mu, Sigma = _weight_posterior(np.sqrt(model.kuu_diag), *eig, sigma_sq)
    return VariationalGP(model=model, mu=mu, Sigma=Sigma)


def titsias_fit(model: InducingModel, data: Dataset) -> VariationalGP:
    """Closed-form optimal q(u) for the collapsed variational problem on
    ``data``, reading K_uf from the model's features at its design x."""
    W, G = _whiten(model, data.x)
    return _optimal_q(model, _eigen_terms(G, W @ data.y), data.sigma_sq)


def predict(q: VariationalGP, query: np.ndarray) -> GaussianPosterior:
    """Variational predictive law of f, summarized at ``query``.

    :meth:`~gpadapt.exact.GaussianPosterior.from_features` with the
    model's features K_xu K_uu^{-1}, weights mu, weight covariance
    Sigma - K_uu and the model's prior covariance and variance. No matrix
    is factored, and the query variance reads the prior's diagonal alone:
    for population features one cosine series in O(len(query) sqrt(J)),
    with no query x J feature block.
    """
    model = q.model
    return GaussianPosterior.from_features(
        query, model.features, q.mu, q.Sigma - np.diag(model.kuu_diag),
        model.prior_cov, model.prior_var)


def elbo_profile(model: InducingModel, data: Dataset
                 ) -> Callable[[float], float]:
    """Collapsed objective on ``data`` as a cheap function of the noise
    variance.

    The O(m^2 n) work (feature whitening and the m x m Gram) and one
    eigendecomposition of the Gram happen once; each call then costs O(m).
    Used both for fixed-noise evaluation and for profiling out sigma^2
    during selection. The dataset's own noise variance is not read.
    """
    W, G = _whiten(model, data.x)
    lam, _, p = _eigen_terms(G, W @ data.y)
    gap = float(np.sum(model.prior_var(data.x))) - float(np.trace(G))
    return _collapsed_profile(lam, p, float(data.y @ data.y), gap, data.n)


def population_candidate(prior: SeriesPrior, stats: FeatureStats, m: int
                         ) -> tuple[InducingModel, Callable[[float], float],
                                    Callable[[float], VariationalGP]]:
    """Population-feature model of :func:`population_features`, from statistics.

    Returns the model, the collapsed objective as a function of the noise
    variance (equal to ``elbo_profile(population_features(prior, m), data)``
    up to roundoff) and the matching optimal q(u) as a function of the noise
    variance; neither touches the design. With s the first m prior scales
    (K_uu = diag(s^2)), both read the same whitened data terms
    G = diag(s) (Phi'Phi)_m diag(s) and W y = s * (Phi'y)_m, and
    tr K_ff = sum_{j<=J} s_j^2 colsumsq_j + n times the tail mean. One
    eigendecomposition of G serves both, in O(m^3 + J); the objective then
    costs O(m) per noise value.
    """
    J = feature_cutoff(prior, m)
    if J > stats.colsumsq.size or m > stats.gram.shape[0]:
        raise ValueError(
            f"statistics cover J = {stats.colsumsq.size}, "
            f"m = {stats.gram.shape[0]}; candidate needs J = {J}, m = {m}")
    s2 = prior.spectrum(np.arange(1, J + 1)) ** 2
    kff_sum = (float(s2 @ stats.colsumsq[:J])
               + stats.n * prior.tail_variance(J))
    model = _population_model(prior, m, J, "mean")
    s = np.sqrt(model.kuu_diag)
    G = s[:, None] * stats.gram[:m, :m] * s
    wy = s * stats.phi_y[:m]
    eig = _eigen_terms(G, wy)
    profile = _collapsed_profile(eig[0], eig[2], stats.yty,
                                 kff_sum - float(np.trace(G)), stats.n)
    return model, profile, lambda sigma_sq: _optimal_q(model, eig, sigma_sq)


def elbo_lambda(model: InducingModel, data: Dataset) -> float:
    """Collapsed variational objective at the dataset's noise variance."""
    return elbo_profile(model, data)(data.sigma_sq)


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
    s2 = data.sigma_sq
    n = data.n
    r = np.sqrt(model.kuu_diag)
    live = r > 0
    r = r[live]
    W, G = _whiten(model, data.x)
    mu = q.mu[live] / r
    Sigma = q.Sigma[np.ix_(live, live)] / r[:, None] / r
    resid = data.y - W[live].T @ mu
    rss = float(resid @ resid)
    tr_residual = float(np.sum(model.prior_var(data.x))) - float(np.trace(G))
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
