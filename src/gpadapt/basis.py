"""Trigonometric eigenbasis, prior spectra, and series-space utilities.

The design distribution is uniform on [0, 2*pi]. The basis is indexed from 1:

    phi_1(x) = 1
    phi_2k(x) = sqrt(2) * cos(k x)
    phi_2k+1(x) = sqrt(2) * sin(k x)

which is orthonormal in L2 of the uniform distribution and uniformly bounded
by sqrt(2). Series priors put independent N(0, s_j^2) weights on these
functions; three spectra are provided (polynomial decay, exponential decay,
and a flat truncated spectrum), with all proportionality constants fixed to 1.
The covariate is one-dimensional, so one basis object, :data:`BASIS`, serves
every module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np
from numpy.random import default_rng

__all__ = [
    "BASIS",
    "EigenBasis",
    "PolyDecay",
    "ExpDecay",
    "Truncated",
    "SeriesPrior",
    "SignalSpec",
    "sobolev_norm_sq",
    "synth_signal",
    "sample_prior",
    "bench_signal",
]

DOMAIN_LO = 0.0
DOMAIN_HI = 2.0 * np.pi


def _check_domain(x: np.ndarray) -> None:
    """Raise ValueError, naming the span of ``x``, unless every point lies
    in [0, 2*pi]."""
    if np.any(x < DOMAIN_LO) or np.any(x > DOMAIN_HI):
        raise ValueError("point outside the domain [0, 2*pi]: x spans "
                         f"[{np.min(x):g}, {np.max(x):g}]")


@dataclass(frozen=True)
class EigenBasis:
    """Orthonormal trigonometric basis on [0, 2*pi], one-dimensional."""

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
        _check_domain(x)
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
        _check_domain(x)
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


#: the one basis: every feature block goes through ``BASIS.features``
BASIS = EigenBasis()


@dataclass(frozen=True)
class PolyDecay:
    """s_j = j^(-1/2 - alpha), alpha > 0."""

    alpha: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class ExpDecay:
    """s_j = (tau * exp(-tau * j))^(1/2), 0 < tau <= 1."""

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
    """Gaussian series prior: independent N(0, s_j^2) weights on the
    functions of :data:`BASIS`."""

    kind: Kind

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
            out = j ** (-0.5 - k.alpha)
        elif isinstance(k, ExpDecay):
            out = np.sqrt(k.tau * np.exp(-k.tau * j))
        else:
            out = np.where(j <= k.dim, k.dim**-0.5, 0.0)
        return out if out.shape else float(out)

    def tail_variance(self, J: int) -> float:
        """Sum of s_j^2 over j > J, in closed form where available."""
        k = self.kind
        if isinstance(k, Truncated):
            return max(k.dim - J, 0) / k.dim
        if isinstance(k, PolyDecay):
            return _hurwitz_zeta(1.0 + 2.0 * k.alpha, J + 1)
        r = np.exp(-k.tau)
        return float(k.tau * r ** (J + 1) / (1.0 - r))


#: direct terms of the Euler-Maclaurin sum in :func:`_hurwitz_zeta`
_ZETA_DIRECT = 10
#: B_2k / (2k)! for k = 1..7, the Euler-Maclaurin correction weights
_ZETA_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
                   -691 / 1307674368000, 1 / 74724249600)


def _hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta sum_{k >= 0} (a + k)^(-s) for s > 1 and a >= 1.

    Euler-Maclaurin: the first ``_ZETA_DIRECT`` terms directly, then at
    x = a + ``_ZETA_DIRECT`` the integral x^(1-s)/(s-1), the half term
    x^(-s)/2 and the corrections B_2k/(2k)! s(s+1)...(s+2k-2) x^(-s-2k+1)
    for k = 1..7. The remainder is below double rounding for s <= 8; the
    sum runs from the smallest term up.
    """
    s = float(s)
    x = a + _ZETA_DIRECT
    inv_x2 = 1.0 / (x * x)
    rising = s * x ** (-s - 1.0)  # s(s+1)...(s+2k-2) x^(-s-2k+1) at k = 1
    corrections = 0.0
    for k, weight in enumerate(_ZETA_BERNOULLI, start=1):
        corrections += weight * rising
        rising *= (s + 2 * k - 1) * (s + 2 * k) * inv_x2
    total = corrections + 0.5 * x ** -s + x ** (1.0 - s) / (s - 1.0)
    for k in range(_ZETA_DIRECT - 1, -1, -1):
        total += (a + k) ** -s
    return total


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

    @cached_property
    def grid_tables(self) -> list[np.ndarray]:
        """The grid tables of the series (:func:`_grid_tables` of
        :func:`_series_phasors`), built on first use and kept: every
        :func:`synth_signal` call on this spec reads them. R N doubles,
        2.6 MB for :func:`bench_signal`."""
        return list(_grid_tables(_series_phasors(self)))


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


def sobolev_norm_sq(coeffs, beta: float, J: int) -> float:
    """Partial sum sum_{j<=J} j^(2*beta) c_j^2.

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
    return float(np.sum(js ** (2.0 * beta) * c * c))


def _wrap(z: np.ndarray) -> np.ndarray:
    """Reduce points modulo 2*pi into [0, 2*pi)."""
    return np.mod(z, DOMAIN_HI)


def _block_shape(K: int) -> tuple[int, int]:
    """(B, P) for frequencies k = p B + q < K: B = ceil(sqrt(K)), P = ceil(K/B)."""
    B = math.isqrt(K - 1) + 1
    return B, -(-K // B)


def _powers(w: np.ndarray, count: int) -> np.ndarray:
    """[w^0, w^1, ..., w^(count-1)] of the one entry of ``w``, each power
    one product of the last with w."""
    out = np.empty((count, 1), dtype=complex)
    out[0] = 1.0
    for k in range(1, count):
        np.multiply(out[k - 1], w, out=out[k])
    return out[:, 0]


def _phases(theta: np.ndarray, K: int) -> np.ndarray:
    """exp(i k theta) for k < K at one point ``theta`` (a 1-element array).

    With k = p B + q (:func:`_block_shape`), exp(i k theta) is
    exp(i p B theta) exp(i q theta): two complex exponential calls,
    exp(i theta) and exp(i B theta), and their powers by recurrence with
    :func:`_powers`. B theta is formed as B theta_hi + B theta_lo with both
    products exact (theta_hi keeps 53 - bits(B) bits), so the p-th power
    does not multiply a rounding of B theta by p: every phase is accurate
    to about 2 eps per factor, where exp(i k theta) taken directly carries
    the rounding of k theta, near |k theta| eps / 2.
    """
    B, P = _block_shape(K)
    t = float(2 ** B.bit_length() + 1) * theta
    hi = t - (t - theta)
    # exp(i B theta_lo) = 1 + i B theta_lo to within (B theta_lo)^2 / 2,
    # below eps for theta in [0, 2 pi] while B < 4096 (K up to 1.6e7)
    w_B = np.exp(1j * (B * hi)) * (1.0 + 1j * (B * (theta - hi)))
    return np.outer(_powers(w_B, P),
                    _powers(np.exp(1j * theta), B)).ravel()[:K]


#: 2 pi = DOMAIN_HI + _TWO_PI_LO to about 1e-32
_TWO_PI_LO = 2.4492935982947064e-16
#: the grid sum's Taylor series in the node offset stops at the first
#: term whose bound (pi K / N)^r / r! falls below this
_TAYLOR_TOL = 2.0 ** -60


def _grid_plan(K: int) -> tuple[int, int]:
    """(N, R) for frequencies k < K: N the smallest power of two >= 2 K,
    and R the number of Taylor terms, the least r with
    (pi K / N)^r / r! < ``_TAYLOR_TOL`` (about 20 terms at pi K / N < pi/2).
    """
    N = 1 << (2 * K - 1).bit_length()
    rho = math.pi * K / N
    R, bound = 1, rho
    while bound >= _TAYLOR_TOL:
        R += 1
        bound *= rho / R
    return N, R


def _grid_nodes(z: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest node j (mod N) and offset u of each point, z = (j + u) h
    with h = 2 pi / N and |u| <= 1/2.

    z - j h is taken as (z - j h_hi) - j h_lo, where h_hi keeps
    53 - bits(N) bits of h, so that j h_hi is exact and the difference
    is exact too (z lies within h/2 of j h_hi), and h_lo carries the rest
    of h including the part of 2 pi below DOMAIN_HI's rounding. A plain
    z - j h would carry the rounding of j h into every phase k u h, near
    K eps 2 pi.
    """
    h = DOMAIN_HI / N  # exact, N a power of two
    t = float(2 ** N.bit_length() + 1) * h
    h_hi = t - (t - h)
    h_lo = (h - h_hi) + _TWO_PI_LO / N
    j = np.rint(z * (N / DOMAIN_HI))
    u = ((z - j * h_hi) - j * h_lo) * (N / DOMAIN_HI)
    return j.astype(np.intp) & (N - 1), u


def _grid_tables(c: np.ndarray) -> Iterator[np.ndarray]:
    """The R tables g_r of :func:`_trig_sum` for the coefficients c, in
    order of r, on the grid of :func:`_grid_plan` for K = c.size
    frequencies: one inverse real FFT of length N each, O(N log N) time.
    They are yielded one at a time, so that a sum that builds its own
    holds one table; :attr:`SignalSpec.grid_tables` keeps the list.
    """
    N, R = _grid_plan(c.size)
    # irfft reads a half spectrum: Re sum_k b_k w^(kj) with b_k halved, k > 0
    b = np.zeros(N // 2 + 1, dtype=complex)
    b[:c.size] = c
    b[1:] *= 0.5
    step = 1j * (DOMAIN_HI / N) * np.arange(c.size)
    yield np.fft.irfft(b, N, norm="forward")
    for r in range(1, R):
        b[:c.size] *= step / r
        yield np.fft.irfft(b, N, norm="forward")


def _trig_sum(z: np.ndarray, tables: Iterable[np.ndarray]) -> np.ndarray:
    """Re sum_{k < K} c_k exp(i k z) at every point z in [0, 2 pi], from
    the grid tables of c (:func:`_grid_tables`, or a list of them).

    With z = 2 pi j / N + u h, exp(i k z) = exp(2 pi i k j / N) times
    sum_r (i k h u)^r / r!, so the sum is sum_r u^r g_r(j), where
    g_r = Re sum_k c_k (i k h)^r / r! exp(2 pi i k j / N) is table r read
    at the nodes j. O(R n) time and O(n) memory besides the tables.
    """
    g = iter(tables)
    g_0 = next(g)
    j, u = _grid_nodes(z, g_0.size)
    out = g_0[j]
    u_r = np.ones(z.size)
    for g_r in g:
        u_r *= u
        out += g_r[j] * u_r
    return out


def _trig_moments(x: np.ndarray, w: np.ndarray, K: Sequence[int]
                  ) -> list[np.ndarray]:
    """Weighted trigonometric moments M_k = sum_i w_i exp(i k x_i), k < K_r,
    for each row w_r of a stack of weight rows and its order K_r, on the
    grid of :func:`_grid_plan` at the largest order.

    M_k = sum_r (i k h)^r / r! conj(F_r)_k, where F_r is the real FFT of
    the node sums S_r(j) = sum over the points at node j of w u^r (one
    bincount). The rows share j, u and each term's FFT call.
    O(R (N log N + n)) time per row and O(N + n) memory.
    """
    top = max(K)
    N, R = _grid_plan(top)
    j, u = _grid_nodes(x, N)
    rows = len(w)
    at = (j + N * np.arange(rows)[:, None]).ravel()
    w_u = np.array(w, dtype=float)
    step = 1j * (DOMAIN_HI / N) * np.arange(top)
    coef = np.ones(top, dtype=complex)
    M = np.zeros((rows, top), dtype=complex)
    for r in range(R):
        if r:
            w_u *= u
            coef *= step / r
        S = np.bincount(at, w_u.ravel(), minlength=rows * N)
        M += coef * np.fft.rfft(S.reshape(rows, N))[:, :top].conj()
    return [M_r[:k] for M_r, k in zip(M, K)]


def _series_phasors(spec: SignalSpec) -> np.ndarray:
    """Complex coefficients a_k, k < K, of f(z) = Re sum_k a_k exp(i k z).

    The sum c_1 + sqrt(2) sum_k (c_2k cos(k z) + c_2k+1 sin(k z)) has
    a_0 = c_1 and a_k = sqrt(2) (c_2k - i c_2k+1), so K = j_max // 2 + 1.
    """
    c = spec.coeff_array()
    # phi_2k = sqrt(2) cos(k z) sits at index 2k - 1, phi_2k+1 at index 2k
    a = np.zeros(c.size // 2 + 1, dtype=complex)
    a[0] = c[0]
    a[1:] = np.sqrt(2.0) * c[1::2]
    a[1:(c.size + 1) // 2] -= 1j * np.sqrt(2.0) * c[2::2]
    return a


def synth_signal(spec: SignalSpec, x):
    """Evaluate the partial sum of ``spec`` at x (scalar or array).

    The shift is applied inside the (periodic) basis argument, so any real
    x is accepted. The sum is Re sum_k a_k exp(i k z) with the coefficients
    of :func:`_series_phasors`, K = j_max // 2 + 1, by :func:`_trig_sum`
    from the spec's :attr:`~SignalSpec.grid_tables`: FFTs on an
    oversampled grid with a Taylor correction of R terms (about 20). The
    first call on a spec builds the tables, O(R K log K) time and R N
    doubles (N the power of two >= 2 K); every call is then O(R n) time
    and O(n) memory, with no point-by-frequency block.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    z = _wrap(x_arr - spec.shift)
    out = _trig_sum(z, spec.grid_tables)
    return out if np.asarray(x).shape else float(out[0])


def _midpoint_signal(spec: SignalSpec, N: int) -> np.ndarray:
    """:func:`synth_signal` on the midpoints x_i = (i + 1/2) h, h = 2 pi / N.

    On this grid exp(i k (x_i - shift)) = exp(i k theta) w^(k i) with
    theta = h / 2 - shift and w = exp(2 pi i / N), so the signal is
    Re sum_k b_k w^(k i) with b_k = a_k exp(i k theta): fold b_k into
    k mod N (w^N = 1) and take one inverse FFT, O(K + N log N) time and
    O(K + N) memory for any N, shift and K. The phases exp(i k theta) come
    from :func:`_phases`, about 2 eps per factor, not from exp(i k theta)
    taken directly.
    """
    a = _series_phasors(spec)
    K = a.size
    theta = _wrap(np.array([0.5 * DOMAIN_HI / N - spec.shift]))
    folded = np.zeros(-(-K // N) * N, dtype=complex)
    folded[:K] = a * _phases(theta, K)
    return N * np.fft.ifft(folded.reshape(-1, N).sum(axis=0)).real


def sample_prior(prior: SeriesPrior, J: int, seed) -> np.ndarray:
    """Draw the first J basis weights (s_j Z_j) of one prior realization.

    ``seed`` may be anything ``default_rng`` accepts, including an existing
    Generator (caller-owned RNG state).
    """
    if J < 1:
        raise ValueError("need at least one coefficient")
    rng = default_rng(seed)
    js = np.arange(1, J + 1)
    return prior.spectrum(js) * rng.standard_normal(J)
