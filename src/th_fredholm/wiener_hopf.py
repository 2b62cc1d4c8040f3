"""Antisymmetric factorization c = c_+ t^{2n} c_+(1/t)^{-1} and the rho series.

The plus factor is kept in structured form: a constant, the analytic half of
the smooth log, and a list of (point, exponent) pairs describing eta factors
eta(tau, beta)(t) = (1 - t/tau)^beta with eta(0) = 1.  Series realizations at
any truncation order follow from that structure by convolution, and pointwise
values come from closed-form principal powers.  Partial sums of the series
converge too slowly near the jump points to be usable for pointwise work, so
the closed forms are authoritative on the circle and the series feed only the
coefficient-level convolutions.

rho multiplies one-sided pieces of both orientations.  Products within one
orientation are exact to the truncation order; the single cross convolution
between the analytic and anti-analytic totals carries all truncation error,
which an adaptive doubling loop with one extrapolation step keeps small and,
more importantly, reported.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .fredholm_engine import NormalizedRep, normalized_pair
from .symbol_core import (
    MINUS_ONE,
    ONE,
    CanonicalSymbol,
    Exponent,
    FourierLogPoly,
    UnitPoint,
    eval_many,
)

BetaLike = Union[Exponent, complex, float, Fraction, int]


class TruncationInsufficient(RuntimeError):
    """The requested tolerance was not reached at the truncation cap."""


class NotInL1Warning(UserWarning):
    """The net exponents imply rho is not integrable; results are formal."""


def _beta_value(beta: BetaLike) -> complex:
    if isinstance(beta, Exponent):
        return beta.value
    return complex(beta)


def binomial_coefficients(beta: complex, N: int) -> np.ndarray:
    """C(beta, k) for k = 0..N via the ratio recurrence, vectorized."""
    out = np.empty(N + 1, dtype=complex)
    out[0] = 1.0
    if N:
        k = np.arange(1, N + 1, dtype=float)
        out[1:] = np.cumprod((beta - k + 1.0) / k)
    return out


@functools.lru_cache(maxsize=1024)
def fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= n, the padded length of convolve.

    This is the length scipy.fft.next_fast_len(n, real=False) gives.  A power
    of two is always a candidate, so only the odd 11-smooth numbers below it
    need doubling up to n.
    """
    best = 1 << (n - 1).bit_length()
    odd = [1]
    for f in (3, 5, 7, 11):
        grown = []
        for x in odd:
            while x < best:
                grown.append(x)
                x *= f
        odd = grown
    # x << k with k = bit_length((n-1)//x) is the least x*2^k >= n
    return min([best] + [x << ((n - 1) // x).bit_length() for x in odd])


def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two complex128 arrays through numpy.fft.

    Padding to fft_length makes the result bit-identical to
    scipy.signal.fftconvolve, which runs the same pocketfft transforms at
    that length; the product and inverse are taken in place.  A length-one
    input is a plain product, as fftconvolve skips the transform there too.
    """
    if a.size == 1 or b.size == 1:
        return a * b
    n = a.size + b.size - 1
    L = fft_length(n)
    spec = np.fft.fft(a, L)
    spec *= np.fft.fft(b, L)
    return np.fft.ifft(spec, out=spec)[:n]


@dataclass(frozen=True, eq=False)
class OneSidedSeries:
    """Truncated series supported on one half axis.

    coeffs[k] is the coefficient of t^k for analytic orientation and of
    t^{-k} for anti-analytic orientation.
    """

    orientation: str  # "analytic" | "anti"
    coeffs: np.ndarray

    def __post_init__(self):
        if self.orientation not in ("analytic", "anti"):
            raise ValueError(f"unknown orientation {self.orientation!r}")

    @property
    def N(self) -> int:
        return self.coeffs.size - 1

    def conv(self, other: "OneSidedSeries") -> "OneSidedSeries":
        if other.orientation != self.orientation:
            raise ValueError("cannot convolve series of opposite orientation")
        n = max(self.N, other.N)
        full = convolve(self.coeffs, other.coeffs)[: n + 1]
        return OneSidedSeries(self.orientation, full)

    def mirror(self) -> "OneSidedSeries":
        flipped = "anti" if self.orientation == "analytic" else "analytic"
        return OneSidedSeries(flipped, self.coeffs.copy())

    def eval_at(self, z: np.ndarray) -> np.ndarray:
        """Partial-sum evaluation; adequate only away from singular points."""
        zz = np.asarray(z, dtype=complex)
        if self.orientation == "anti":
            zz = 1.0 / zz
        return np.polyval(self.coeffs[::-1], zz)


def eta_series(point: UnitPoint, beta: BetaLike, N: int) -> OneSidedSeries:
    """(1 - t/tau)^beta as an analytic series: [eta]_k = C(beta,k)(-1)^k tau^{-k}."""
    b = _beta_value(beta)
    k = np.arange(N + 1)
    tau_pow = np.exp(-1j * point.angle * k)
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    return OneSidedSeries("analytic", binomial_coefficients(b, N) * signs * tau_pow)


def xi_series(point: UnitPoint, beta: BetaLike, N: int) -> OneSidedSeries:
    """(1 - tau/t)^beta as an anti-analytic series: [xi]_{-k} = C(beta,k)(-1)^k tau^{k}."""
    b = _beta_value(beta)
    k = np.arange(N + 1)
    tau_pow = np.exp(1j * point.angle * k)
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    return OneSidedSeries("anti", binomial_coefficients(b, N) * signs * tau_pow)


def _exp_of_monomial(gamma: complex, k: int, N: int, orientation: str) -> OneSidedSeries:
    # exp(gamma t^k): sparse terms gamma^m/m! at index k*m
    m_max = N // k
    m = np.arange(m_max + 1, dtype=float)
    terms = np.ones(m_max + 1, dtype=complex)
    if m_max:
        terms[1:] = np.cumprod(gamma / m[1:])
    coeffs = np.zeros(N + 1, dtype=complex)
    coeffs[:: k][: m_max + 1] = terms
    return OneSidedSeries(orientation, coeffs)


def smooth_plus_factor(log_smooth: FourierLogPoly, N: int) -> OneSidedSeries:
    """exp of the strictly analytic part (indices >= 1) of the log, to order N.

    The index-0 log coefficient is deliberately excluded; callers split it
    into their constant bookkeeping.
    """
    series = OneSidedSeries("analytic", np.concatenate([[1.0 + 0j], np.zeros(N, dtype=complex)]))
    for k, v in log_smooth.coeffs:
        if k >= 1:
            series = series.conv(_exp_of_monomial(v, k, N, "analytic"))
    return series


def smooth_minus_factor(log_smooth: FourierLogPoly, N: int) -> OneSidedSeries:
    """exp of the strictly anti-analytic part (indices <= -1) of the log."""
    series = OneSidedSeries("anti", np.concatenate([[1.0 + 0j], np.zeros(N, dtype=complex)]))
    for k, v in log_smooth.coeffs:
        if k <= -1:
            series = series.conv(_exp_of_monomial(v, -k, N, "anti"))
    return series


@dataclass(frozen=True, eq=False)
class PlusFactor:
    """Structured analytic factor c_+ of the antisymmetric factorization.

    c_+ = constant * exp(analytic log) * prod eta(point, exponent).  realize(N)
    builds the coefficients of c_+ (or of 1/c_+ when inverted) at the order the
    caller reads, and eval_at gives closed-form values on the circle.
    """

    side: str
    n: int
    constant: complex
    analytic_log: FourierLogPoly
    eta_exponents: tuple[tuple[UnitPoint, Exponent], ...]

    def realize(self, N: int, inverted: bool = False) -> OneSidedSeries:
        """Coefficients of c_+, or of 1/c_+ when inverted, up to t^N."""
        sign = -1 if inverted else 1
        log = FourierLogPoly.of({k: sign * v for k, v in self.analytic_log.coeffs})
        series = smooth_plus_factor(log, N)
        for point, e in self.eta_exponents:
            b = e.value if sign == 1 else -e.value
            series = series.conv(eta_series(point, b, N))
        const = self.constant if sign == 1 else 1.0 / self.constant
        return OneSidedSeries("analytic", const * series.coeffs)

    def eval_at(self, z: np.ndarray) -> np.ndarray:
        """Closed-form values of c_+ on or inside the unit circle (principal powers)."""
        zz = np.asarray(z, dtype=complex)
        out = np.full(zz.shape, self.constant, dtype=complex)
        acc = np.zeros(zz.shape, dtype=complex)
        for k, v in self.analytic_log.coeffs:
            acc = acc + v * zz**k
        out = out * np.exp(acc)
        for point, e in self.eta_exponents:
            out = out * np.exp(e.value * np.log(1.0 - zz / point.value()))
        return out

    def eval_tilde_at(self, z: np.ndarray) -> np.ndarray:
        """Closed-form values of c_+(1/z)."""
        return self.eval_at(1.0 / np.asarray(z, dtype=complex))


def build_plus_factor(rep: NormalizedRep) -> PlusFactor:
    """The structured plus factor of a normalized representation.

    The eta exponents are 2*gamma at the endpoints and gamma at both members
    of every conjugate jump pair.  The residual scale (within 1e-9 of 1) is
    threaded through a principal square root so downstream products stay
    faithful to the input constants.  Nothing is realized here; callers use
    PlusFactor.realize at the order they need.
    """
    exponents = []
    if not rep.gamma_plus.is_zero:
        exponents.append((ONE, rep.gamma_plus + rep.gamma_plus))
    if not rep.gamma_minus.is_zero:
        exponents.append((MINUS_ONE, rep.gamma_minus + rep.gamma_minus))
    for pt, g in rep.gammas:
        exponents.append((pt, g))
        exponents.append((pt.conjugate(), g))
    log_dict = rep.smooth_log.as_dict()
    gamma0 = log_dict.get(0, 0j)
    return PlusFactor(
        side=rep.side,
        n=rep.n,
        constant=cmath.sqrt(rep.smooth_scale) * cmath.exp(gamma0 / 2),
        analytic_log=FourierLogPoly.of({k: v for k, v in log_dict.items() if k >= 1}),
        eta_exponents=tuple(exponents),
    )


def factor_reconstruction_defect(rep: NormalizedRep, factor: PlusFactor, angles: np.ndarray) -> float:
    """Max pointwise gap between the input symbol and c_+(t) t^{2n} / c_+(1/t)."""
    sym = rep.reconstruct()
    z = np.exp(1j * np.asarray(angles, dtype=float))
    recon = factor.eval_at(z) * z ** (2 * rep.n) / factor.eval_tilde_at(z)
    target = eval_many(sym, angles)
    scale = float(np.max(np.abs(target)))
    return float(np.max(np.abs(recon - target))) / max(scale, 1.0)


@dataclass(frozen=True, eq=False)
class RhoSeries:
    """Two-sided coefficients of rho with truncation metadata and provenance.

    coeffs[k + N_keep] holds rho_k.  The structured factors are retained so
    pointwise closed-form values remain available for cross-checking.
    """

    coeffs: np.ndarray
    N_keep: int
    inner_N: int
    tail_bound: float
    shift: int
    constant: complex
    n: int
    m: int
    c_plus: PlusFactor
    d_plus: PlusFactor
    b_symbol: CanonicalSymbol

    def get(self, k: int) -> complex:
        if abs(k) > self.N_keep:
            raise IndexError(f"rho_{k} not kept (N_keep = {self.N_keep})")
        return complex(self.coeffs[k + self.N_keep])

    def as_array(self) -> np.ndarray:
        return self.coeffs.copy()

    def evenness_defect(self) -> float:
        return float(np.max(np.abs(self.coeffs - self.coeffs[::-1])))

    def eval_at(self, angles: np.ndarray) -> np.ndarray:
        """Closed-form rho on a jump-avoiding grid of angles.

        Uses the literal t^{-m-n}(1+t)(1+1/t) c_+(1/t) d_+(1/t) / b(t); the
        shift and constant fields belong to the coefficient route only, where
        the winding power and constants of b are handled separately.
        """
        xs = np.asarray(angles, dtype=float)
        z = np.exp(1j * xs)
        return (
            z ** (-self.m - self.n)
            * (1.0 + z)
            * (1.0 + 1.0 / z)
            * self.c_plus.eval_tilde_at(z)
            * self.d_plus.eval_tilde_at(z)
            / eval_many(self.b_symbol, xs)
        )


def _site_exponent_audit(c_plus: PlusFactor, d_plus: PlusFactor) -> None:
    totals: dict[UnitPoint, Fraction] = {MINUS_ONE: Fraction(2)}
    for factor in (c_plus, d_plus):
        for point, e in factor.eta_exponents:
            totals[point] = totals.get(point, Fraction(0)) + e.re
    for point, total in totals.items():
        if total <= -1:
            warnings.warn(
                f"net exponent {total} at {point} makes rho non-integrable", NotInL1Warning
            )


def rho_coefficients(
    c_plus: PlusFactor,
    d_plus: PlusFactor,
    b: CanonicalSymbol,
    n: int,
    m: int,
    N_keep: int,
    start_order: int = 4096,
    max_order: int = 2**16,
    settle_tol: float = 1e-9,
    tol: float | None = None,
) -> RhoSeries:
    """Two-sided Fourier coefficients of rho = t^{-m-n}(1+t)(1+1/t) c_+(1/t) d_+(1/t) / b.

    All same-orientation products are exact to the inner order; the lone
    analytic-against-anti convolution is refined by doubling the inner order
    until the kept coefficients settle below settle_tol, with one power-law
    extrapolation step if the cap is reached first.  Hitting the cap is not an
    error: the tail estimate in the result carries the uncertainty, and only
    an explicit tol demand turns an unmet tolerance into a failure.
    """
    _site_exponent_audit(c_plus, d_plus)
    b_log = b.log_smooth.as_dict()
    shift = -m - n - b.kappa
    constant = (1.0 / b.scale) * cmath.exp(-b_log.get(0, 0j))

    def compute(order: int) -> np.ndarray:
        analytic = smooth_plus_factor(FourierLogPoly.of({k: -v for k, v in b_log.items() if k >= 1}), order)
        analytic = analytic.conv(eta_series(MINUS_ONE, 1.0, order))  # (1+t)
        for j in b.jumps:
            analytic = analytic.conv(eta_series(j.point, -j.beta.value, order))
        anti = smooth_minus_factor(FourierLogPoly.of({k: -v for k, v in b_log.items() if k <= -1}), order)
        anti = anti.conv(xi_series(MINUS_ONE, 1.0, order))  # (1 + 1/t)
        for j in b.jumps:
            anti = anti.conv(xi_series(j.point, j.beta.value, order))
        anti = anti.conv(c_plus.realize(order).mirror())
        anti = anti.conv(d_plus.realize(order).mirror())
        cross = convolve(analytic.coeffs, anti.coeffs[::-1])
        # cross index r corresponds to coefficient r - order of the unshifted product
        out = np.empty(2 * N_keep + 1, dtype=complex)
        for k in range(-N_keep, N_keep + 1):
            out[k + N_keep] = constant * cross[(k - shift) + order]
        return out

    order = start_order
    while order < 2 * (N_keep + abs(shift)):
        order *= 2
    prev = None
    moves: list[float] = []
    cur = compute(order)
    tail = math.inf
    while True:
        if order >= max_order:
            break
        order *= 2
        prev, cur = cur, compute(order)
        moves.append(float(np.max(np.abs(cur - prev))))
        if moves[-1] < settle_tol:
            tail = moves[-1]
            break
    if not math.isfinite(tail):
        # power-law tail: coefficients settle like order^{-s}; estimate s from
        # the last two movements and extrapolate once if the estimate is sane
        tail = moves[-1] if moves else math.inf
        if len(moves) >= 2 and moves[-1] > 0:
            s_est = math.log2(moves[-2] / moves[-1]) if moves[-2] > 0 else 0.0
            if 0.2 < s_est < 8.0:
                correction = (cur - prev) / (2.0**s_est - 1.0)
                cur = cur + correction
                tail = float(np.max(np.abs(correction)))
    if tol is not None and tail > tol:
        raise TruncationInsufficient(
            f"rho coefficients settled only to {tail:.3e} at the cap (demanded {tol:.3e})"
        )
    return RhoSeries(
        coeffs=cur,
        N_keep=N_keep,
        inner_N=order,
        tail_bound=tail,
        shift=shift,
        constant=constant,
        n=n,
        m=m,
        c_plus=c_plus,
        d_plus=d_plus,
        b_symbol=b,
    )


def rho_for_pair(pair, p, N_keep: int, **rho_kwargs) -> tuple[NormalizedRep, NormalizedRep, RhoSeries]:
    """Normalize both sides, build the plus factors, and compute rho."""
    rep_c, rep_d = normalized_pair(pair, p)
    c_plus = build_plus_factor(rep_c)
    d_plus = build_plus_factor(rep_d)
    rho = rho_coefficients(c_plus, d_plus, pair.b, rep_c.n, rep_d.n, N_keep, **rho_kwargs)
    return rep_c, rep_d, rho
