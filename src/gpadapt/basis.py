"""Trigonometric eigenbasis, prior spectra, and series-space utilities.

The design distribution is uniform on [0, 2*pi]. The basis is indexed from 1:

    phi_1(x) = 1
    phi_2k(x) = sqrt(2) * cos(k x)
    phi_2k+1(x) = sqrt(2) * sin(k x)

which is orthonormal in L2 of the uniform distribution and uniformly bounded
by sqrt(2). Series priors put independent N(0, s_j^2) weights on these
functions; three spectra are provided (polynomial decay, exponential decay,
and a flat truncated spectrum), with all proportionality constants fixed to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
from scipy.special import zeta

__all__ = [
    "EigenBasis",
    "PolyDecay",
    "ExpDecay",
    "Truncated",
    "SeriesPrior",
    "SignalSpec",
    "eval_basis",
    "spectrum",
    "sobolev_norm_sq",
    "synth_signal",
    "sample_prior",
    "bench_signal",
]

DOMAIN_LO = 0.0
DOMAIN_HI = 2.0 * np.pi


@dataclass(frozen=True)
class EigenBasis:
    """Orthonormal trigonometric basis on [0, 2*pi], one-dimensional."""

    d: int = 1

    def __post_init__(self) -> None:
        if self.d != 1:
            raise ValueError("only the one-dimensional basis is implemented")

    def eval(self, j, x):
        """Evaluate phi_j at x. Both arguments broadcast.

        Raises ValueError for indices below 1 or points outside [0, 2*pi].
        """
        j = np.asarray(j)
        x = np.asarray(x, dtype=float)
        if not np.issubdtype(j.dtype, np.integer):
            ji = j.astype(int)
            if np.any(ji != j):
                raise ValueError("basis index must be an integer")
            j = ji
        if np.any(j < 1):
            raise ValueError("basis index starts at 1")
        if np.any(x < DOMAIN_LO) or np.any(x > DOMAIN_HI):
            raise ValueError("point outside the domain [0, 2*pi]")
        k = j // 2
        out = np.where(
            j == 1,
            1.0,
            np.where(
                j % 2 == 0,
                np.sqrt(2.0) * np.cos(k * x),
                np.sqrt(2.0) * np.sin(k * x),
            ),
        )
        return out if out.shape else float(out)

    def features(self, x: np.ndarray, J: int) -> np.ndarray:
        """Matrix [phi_j(x_i)]_{ i<=n, j<=J } without the broadcast overhead.

        This is the workhorse used by the design-matrix and feature builders;
        columns follow the 1, cos, sin, cos, sin, ... ordering above.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x < DOMAIN_LO) or np.any(x > DOMAIN_HI):
            raise ValueError("point outside the domain [0, 2*pi]")
        if J < 1:
            raise ValueError("need at least one basis function")
        out = np.empty((x.size, J), dtype=float)
        out[:, 0] = 1.0
        kmax = J // 2
        if kmax >= 1:
            ang = np.outer(x, np.arange(1, kmax + 1))
            # 0-based column 2k-1 is sqrt(2) cos(kx), column 2k is sqrt(2) sin(kx)
            out[:, 1::2] = np.sqrt(2.0) * np.cos(ang)
            if J >= 3:
                out[:, 2::2] = np.sqrt(2.0) * np.sin(ang[:, : (J - 1) // 2])
        return out


@dataclass(frozen=True)
class PolyDecay:
    """s_j = j^(-1/2 - alpha/d), alpha > 0."""

    alpha: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class ExpDecay:
    """s_j = (tau^d * exp(-tau * j^(1/d)))^(1/2), 0 < tau <= 1."""

    tau: float

    def __post_init__(self) -> None:
        if not (0 < self.tau <= 1):
            raise ValueError("tau must lie in (0, 1]")


@dataclass(frozen=True)
class Truncated:
    """s_j = D^(-1/2) for j <= D, zero beyond."""

    dim: int

    def __post_init__(self) -> None:
        if not (isinstance(self.dim, (int, np.integer)) and self.dim >= 1):
            raise ValueError("dimension must be a positive integer")


Kind = Union[PolyDecay, ExpDecay, Truncated]


@dataclass(frozen=True)
class SeriesPrior:
    """Gaussian series prior: independent N(0, s_j^2) basis weights."""

    kind: Kind
    d: int = 1
    basis: EigenBasis = field(default_factory=EigenBasis)

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be a positive integer")

    @property
    def support(self) -> float:
        """Largest index with s_j > 0 (inf for the decaying spectra)."""
        if isinstance(self.kind, Truncated):
            return self.kind.dim
        return np.inf

    def spectrum(self, j):
        """Scale s_j of basis weight j; vectorized over j."""
        j = np.asarray(j, dtype=float)
        if np.any(j < 1):
            raise ValueError("basis index starts at 1")
        k = self.kind
        if isinstance(k, PolyDecay):
            out = j ** (-0.5 - k.alpha / self.d)
        elif isinstance(k, ExpDecay):
            out = np.sqrt(k.tau**self.d * np.exp(-k.tau * j ** (1.0 / self.d)))
        else:
            out = np.where(j <= k.dim, k.dim**-0.5, 0.0)
        return out if out.shape else float(out)

    def tail_variance(self, J: int) -> float:
        """Sum of s_j^2 over j > J, in closed form where available."""
        k = self.kind
        if isinstance(k, Truncated):
            return max(k.dim - J, 0) / k.dim
        if isinstance(k, PolyDecay):
            # Hurwitz zeta: sum_{j >= J+1} j^(-s)
            return float(zeta(1.0 + 2.0 * k.alpha / self.d, J + 1))
        if self.d == 1:
            r = np.exp(-k.tau)
            return float(k.tau * r ** (J + 1) / (1.0 - r))
        total = 0.0
        j = J + 1
        while True:
            term = k.tau**self.d * np.exp(-k.tau * j ** (1.0 / self.d))
            total += term
            if term < 1e-18 * max(total, 1e-300):
                return total
            j += 1


@dataclass(frozen=True)
class SignalSpec:
    """Deterministic series-space signal: f(x) = sum_j c_j phi_j(x - shift)."""

    coefficients: Callable[[np.ndarray], np.ndarray]
    j_max: int = 10_000
    shift: float = 0.0

    def coeff_array(self, J: int | None = None) -> np.ndarray:
        J = self.j_max if J is None else J
        js = np.arange(1, J + 1)
        return np.asarray(self.coefficients(js), dtype=float)


def bench_signal(j_max: int = 10_000) -> SignalSpec:
    """The synthetic test signal used throughout the experiments.

    Every third basis weight is active, c_j = j^(-1.1) for j = 1, 4, 7, ...,
    and the whole series is evaluated with the argument shifted by pi. Its
    partial sums sit inside the smoothness-beta balls exactly for beta < 0.6.
    """

    def coeff(js: np.ndarray) -> np.ndarray:
        js = np.asarray(js, dtype=float)
        return np.where(js % 3 == 1, js**-1.1, 0.0)

    return SignalSpec(coefficients=coeff, j_max=j_max, shift=np.pi)


def eval_basis(basis: EigenBasis, j, x):
    """Functional alias for :meth:`EigenBasis.eval`."""
    return basis.eval(j, x)


def spectrum(prior: SeriesPrior, j):
    """Functional alias for :meth:`SeriesPrior.spectrum`."""
    return prior.spectrum(j)


def sobolev_norm_sq(coeffs, beta: float, J: int, d: int = 1) -> float:
    """Partial sum sum_{j<=J} j^(2*beta/d) c_j^2.

    ``coeffs`` may be a vectorized rule j -> c_j or an array whose first
    entry is the j = 1 coefficient. Monotone non-decreasing in J.
    """
    if J < 0:
        raise ValueError("J must be non-negative")
    if J == 0:
        return 0.0
    js = np.arange(1, J + 1, dtype=float)
    if callable(coeffs):
        c = np.asarray(coeffs(np.arange(1, J + 1)), dtype=float)
    else:
        c = np.asarray(coeffs, dtype=float)[:J]
        if c.size < J:
            raise ValueError("coefficient array shorter than J")
    return float(np.sum(js ** (2.0 * beta / d) * c * c))


def _wrap(z: np.ndarray) -> np.ndarray:
    """Reduce points modulo 2*pi into [0, 2*pi)."""
    return np.mod(z, DOMAIN_HI)


def synth_signal(spec: SignalSpec, x, chunk: int = 2048):
    """Evaluate the partial sum of ``spec`` at x (scalar or array).

    The shift is applied inside the (periodic) basis argument, so any real
    x is accepted. Only the frequencies with a nonzero coefficient are
    evaluated: the sum is c_1 + sqrt(2) sum_k (c_2k cos(k z) +
    c_2k+1 sin(k z)) over those k, in chunks of points that keep the
    point-by-frequency blocks small.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    z = _wrap(x_arr - spec.shift)
    c = spec.coeff_array()
    # phi_2k = sqrt(2) cos(k z) sits at index 2k - 1, phi_2k+1 at index 2k
    c_cos = np.sqrt(2.0) * c[1::2]
    c_sin = np.sqrt(2.0) * c[2::2]
    k_cos = np.flatnonzero(c_cos) + 1.0
    k_sin = np.flatnonzero(c_sin) + 1.0
    c_cos = c_cos[c_cos != 0]
    c_sin = c_sin[c_sin != 0]
    out = np.full_like(z, c[0])
    for lo in range(0, z.size, chunk):
        zc = z[lo:lo + chunk]
        out[lo:lo + chunk] += (np.cos(np.outer(zc, k_cos)) @ c_cos
                               + np.sin(np.outer(zc, k_sin)) @ c_sin)
    return out if np.asarray(x).shape else float(out[0])


def sample_prior(prior: SeriesPrior, J: int, seed) -> np.ndarray:
    """Draw the first J basis weights (s_j Z_j) of one prior realization.

    ``seed`` may be anything ``np.random.default_rng`` accepts, including an
    existing Generator (caller-owned RNG state).
    """
    if J < 1:
        raise ValueError("need at least one coefficient")
    rng = np.random.default_rng(seed)
    js = np.arange(1, J + 1)
    return prior.spectrum(js) * rng.standard_normal(J)
