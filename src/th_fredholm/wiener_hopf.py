"""Antisymmetric factorization c = c_+ t^{2n} c_+(1/t)^{-1} and the coefficients of rho.

The plus factor is kept in structured form: a constant, the analytic half of
the smooth log, and a list of (point, exponent) pairs describing eta factors
eta(tau, beta)(t) = (1 - t/tau)^beta with eta(0) = 1.  Series realizations at
any truncation order follow from that structure by convolution, and pointwise
values come from closed-form principal powers.  Partial sums of the series
converge too slowly near the jump points to be usable for pointwise work, so
the closed forms are authoritative on the circle.

rho is analytic between its sites and behaves like |x - x_s|^{beta_s} at a
site, with beta_s exact from the structure.  Its values come from one
exponent per point, every factor's site term taken from the exact offset of
the point to that site.  The few coefficients the defect matrix reads come
from Gauss-Legendre quadrature of those values, graded geometrically into
the sites (Schwab, Computing 1994), with a coarser rule beside it for the
error estimate; both rules are evaluated in one pass.  The second route,
tanh-sinh quadrature on the same values, is verification_oracle.rho_de.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss

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

# Gauss-Legendre nodes per panel and sliver width in rad of the rho rule that
# is returned and of the coarse rule it is checked against
FINE_RULE = (24, 1e-12)
COARSE_RULE = (16, 1e-10)


class NotInL1Warning(UserWarning):
    """The net exponents imply rho is not integrable; results are formal."""


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


# about 0.4 ms per uncached call; the same few node counts repeat on every call
_leggauss = functools.lru_cache(maxsize=8)(leggauss)


def _gauss_panels(lo, hi, freq: int, nodes: int, least: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes, weights and interval indices on the intervals [lo_i, hi_i].

    Interval i is cut into ceil(width * freq / 10) equal panels, at least
    `least`, for an integrand whose highest frequency is freq.
    """
    widths = hi - lo
    counts = np.maximum(least, np.ceil(widths * freq / 10)).astype(int)
    panel = np.repeat(widths / counts, counts)
    index = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    mid = np.repeat(lo, counts) + panel * (index + 0.5)
    x_nodes, w_nodes = _leggauss(nodes)
    xs = (mid[:, None] + (panel / 2)[:, None] * x_nodes).ravel()
    return xs, ((panel / 2)[:, None] * w_nodes).ravel(), np.repeat(np.arange(lo.size), counts * nodes)


def _fourier_integrals(xs, ws, vals, ks: range) -> np.ndarray:
    """(1/2pi) sum_x w f(x) e^{-ikx} for k in ks, a contiguous range, as blocked products.

    With z = e^{-ix}, rows[b] holds w f z^{ks.start + b*block} and powers[j]
    holds z^j, so (rows @ powers.T)[b, j] is the coefficient
    k = ks.start + b*block + j; z^block is powers[-1] z.  The nodes go in
    slices of at most 2^14 / max(block, rows), so neither table exceeds
    256 KiB and the allocator reuses its memory instead of mapping it anew.
    """
    block = math.isqrt(len(ks) - 1) + 1  # about sqrt(len(ks)): 33 powers and 32 rows for 1,025 k
    count = -(-len(ks) // block)
    width = 2**14 // max(block, count)
    out = np.zeros((count, block), dtype=complex)
    for lo in range(0, xs.size, width):
        x = xs[lo : lo + width]
        z = np.exp(-1j * x)
        powers = np.empty((block, x.size), dtype=complex)
        powers[0] = 1.0
        for j in range(1, block):
            np.multiply(powers[j - 1], z, out=powers[j])
        step = powers[-1] * z
        rows = np.empty((count, x.size), dtype=complex)
        rows[0] = ws[lo : lo + width] * vals[lo : lo + width] * np.exp(-1j * ks.start * x)
        for b in range(1, count):
            np.multiply(rows[b - 1], step, out=rows[b])
        out += rows @ powers.T
    return out.ravel()[: len(ks)] / (2 * np.pi)


def eta_series(point: UnitPoint, beta: complex, N: int) -> np.ndarray:
    """(1 - t/tau)^beta as an analytic series: [eta]_k = C(beta,k)(-1)^k tau^{-k}."""
    b = complex(beta)
    k = np.arange(N + 1)
    tau_pow = np.exp(-1j * point.angle * k)
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    return binomial_coefficients(b, N) * signs * tau_pow


def _exp_of_monomial(gamma: complex, k: int, N: int) -> np.ndarray:
    # exp(gamma t^k): sparse terms gamma^m/m! at index k*m
    m_max = N // k
    m = np.arange(m_max + 1, dtype=float)
    terms = np.ones(m_max + 1, dtype=complex)
    if m_max:
        terms[1:] = np.cumprod(gamma / m[1:])
    coeffs = np.zeros(N + 1, dtype=complex)
    coeffs[:: k][: m_max + 1] = terms
    return coeffs


def smooth_plus_factor(log_smooth: FourierLogPoly, N: int) -> np.ndarray:
    """exp of the strictly analytic part (indices >= 1) of the log, to order N.

    The index-0 log coefficient is deliberately excluded; callers split it
    into their constant bookkeeping.
    """
    series = np.concatenate([[1.0 + 0j], np.zeros(N, dtype=complex)])
    for k, v in log_smooth.coeffs:
        if k >= 1:
            series = convolve(series, _exp_of_monomial(v, k, N))[: N + 1]
    return series


@dataclass(frozen=True, eq=False)
class PlusFactor:
    """Structured analytic factor c_+ of the antisymmetric factorization.

    c_+ = constant * exp(analytic log) * prod eta(point, exponent).  realize(N)
    returns the array of coefficients of c_+ (or of 1/c_+ when inverted) up to
    t^N, the order the caller reads, and eval_at gives closed-form values on
    the circle.
    """

    constant: complex
    analytic_log: FourierLogPoly
    eta_exponents: tuple[tuple[UnitPoint, Exponent], ...]

    def realize(self, N: int, inverted: bool = False) -> np.ndarray:
        """Coefficients of c_+, or of 1/c_+ when inverted, up to t^N."""
        sign = -1 if inverted else 1
        log = FourierLogPoly.of({k: sign * v for k, v in self.analytic_log.coeffs})
        series = smooth_plus_factor(log, N)
        for point, e in self.eta_exponents:
            b = e.value if sign == 1 else -e.value
            series = convolve(series, eta_series(point, b, N))[: N + 1]
        const = self.constant if sign == 1 else 1.0 / self.constant
        return const * series

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
    """Two-sided coefficients of rho with their error estimate and provenance.

    coeffs[k - ks.start] holds rho_k for k in ks, a contiguous range, symmetric
    for the defect matrix and the oracle.  tail_bound is an error estimate,
    not a bound: max |fine - coarse| of the quadrature, or the tanh-sinh
    oracle's last movement plus its inner remainder.  inner_N is the node
    count of the fine rule, or of the oracle's last step.  sites (rho_sites)
    and the structured factors give closed-form values.
    """

    coeffs: np.ndarray
    ks: range
    inner_N: int
    tail_bound: float
    n: int
    m: int
    c_plus: PlusFactor
    d_plus: PlusFactor
    b_symbol: CanonicalSymbol
    sites: dict[Fraction, Exponent]

    def get(self, k: int) -> complex:
        if k not in self.ks:
            raise IndexError(f"rho_{k} not kept (k in {self.ks.start}..{self.ks.stop - 1})")
        return complex(self.coeffs[k - self.ks.start])

    def as_array(self) -> np.ndarray:
        return self.coeffs.copy()

    def evenness_defect(self) -> float:
        if self.ks.start != 1 - self.ks.stop:
            raise ValueError(f"evenness needs a symmetric range, have {self.ks}")
        return float(np.max(np.abs(self.coeffs - self.coeffs[::-1])))

    def eval_at(self, angles: np.ndarray) -> np.ndarray:
        """Closed-form rho on a grid of angles off its sites, each read from its nearest site."""
        xs = np.asarray(angles, dtype=float)
        turns = np.array([float(t) for t in sorted(self.sites)])
        gaps = np.remainder(xs[:, None] - 2 * np.pi * turns + np.pi, 2 * np.pi) - np.pi
        index = np.argmin(np.abs(gaps), axis=1)
        parts = (self.c_plus, self.d_plus, self.b_symbol, self.m + self.n, self.sites)
        return _rho_values(*parts, index, gaps[np.arange(xs.size), index])


def rho_sites(c_plus: PlusFactor, d_plus: PlusFactor, b: CanonicalSymbol) -> dict[Fraction, Exponent]:
    """Turn of every site of rho -> rho's exponent beta_s there.

    c_+(1/t) and d_+(1/t) are singular at the conjugates of their eta points,
    (1+t)(1+1/t) adds 2 at -1, and +1 and the jump points of b are sites with
    whatever exponent the factors leave there.  Warns with NotInL1Warning
    where Re beta_s <= -1.
    """
    zero = Exponent(Fraction(0))
    sites = {Fraction(0): zero, Fraction(1, 2): Exponent(Fraction(2))}
    for point in b.jump_points:
        sites.setdefault(point.turns, zero)
    for factor in (c_plus, d_plus):
        for point, e in factor.eta_exponents:
            turn = point.conjugate().turns
            sites[turn] = sites.get(turn, zero) + e
    for turn, e in sites.items():
        if e.re <= -1:
            warnings.warn(f"net exponent {e.re} at turn {turn} makes rho non-integrable", NotInL1Warning)
    return sites


def _rho_values(c_plus, d_plus, b, nm: int, sites: dict, index: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """rho at the angles 2 pi turns[index] + offsets, |offsets| <= pi, with turns = sorted(sites).

    One exponent holds the Laurent log of c_+(1/t) d_+(1/t) / b, the power
    t^{-nm - kappa_b}, and per site its eta factor (1 - e^{-id})^eta and the
    inverse of b's jump factor u = exp(-i beta (sign(d) pi - d)), both from
    the offset d of the angle to the site: eta log|2 sin(d/2)| + i (eta/2 +
    beta)(sign(d) pi - d).  Near a site d is exact, where e^{ix} would have
    lost it to the rounding of x.  (1+t)(1+1/t) = 4 sin^2(d/2) at -1 stays a
    factor, so rho there is 0 rather than the exponential of log(0).
    """
    turns = sorted(sites)
    half = Fraction(1, 2)
    # table[s, a]: the offset from site s to anchor a, exact in turns before one rounding
    table = 2 * np.pi * np.array([[float((a - s + half) % 1 - half) for a in turns] for s in turns])
    x = 2 * np.pi * np.array([float(t) for t in turns])[index] + offsets
    laurent = c_plus.analytic_log.tilde().plus(d_plus.analytic_log.tilde()).plus(b.log_smooth, -1).as_dict()
    const = c_plus.constant * d_plus.constant / b.scale * cmath.exp(laurent.pop(0, 0j))
    expo = 1j * (-nm - b.kappa) * x
    z = np.exp(1j * x) if laurent else None
    expo += sum(v * z**k for k, v in laurent.items())
    jumps = {j.point.turns: j.beta.value for j in b.jumps}
    factor = 1.0
    for turn, row in zip(turns, table):
        eta = sites[turn].value - (2 if turn == half else 0)
        phase = eta / 2 + jumps.get(turn, 0)
        if not (eta or phase or turn == half):
            continue
        d = row[index] + offsets
        sine = np.sin(d / 2)
        if eta:
            expo += eta * np.log(2 * np.abs(sine))
        if phase:
            expo += 1j * phase * (np.sign(d) * np.pi - d)
        if turn == half:
            factor = 4 * sine**2
    return const * np.exp(expo) * factor


def _rho_rule(sites: dict, freq: int, nodes: int, sliver: float):
    """Anchor indices, offsets and weights of the graded arc rule for rho.

    Each arc between consecutive sites is split at its midpoint, and each
    half is laid out in offsets from its end site, its anchor.  A half is
    graded geometrically (ratio at most 4) from the midpoint down to
    `sliver`, at exponent 0 too, so a singular site just past the anchor
    meets small panels; graded panels are cut to at most 10/freq rad.  The
    sliver becomes nodes at +-`sliver` and +-`sliver`/2 that integrate C
    |u|^beta (1 + c u) exactly, as a formal finite part when Re beta <= -1.
    """

    def part(a):  # finite part of the integral of u^a over (0, sliver)
        return math.log(sliver) if a == -1 else sliver ** (a + 1) / (a + 1)

    turns = sorted(sites)
    S = len(turns)
    halves = np.array([math.pi * float((turns[(i + 1) % S] - t) % 1) for i, t in enumerate(turns)])
    levels = np.array([math.ceil(math.log(h / sliver, 4)) for h in halves])
    # level j of arc i runs from halves[i] (sliver/halves[i])^((j+1)/levels[i]) up to the same at j
    arc = np.repeat(np.arange(S), levels)
    j = np.arange(arc.size) - np.repeat(np.cumsum(levels) - levels, levels)
    top, ratio = halves[arc], sliver / halves[arc]
    lo, hi = top * ratio ** ((j + 1) / levels[arc]), top * ratio ** (j / levels[arc])
    d, w, interval = _gauss_panels(lo, hi, freq, nodes, 1)
    caps = []
    for t in turns:
        beta = sites[t].value
        j0, j1 = part(beta), part(beta + 1) / sliver
        caps.append([sliver**-beta * (2 * j1 - j0), (sliver / 2) ** -beta * 2 * (j0 - j1)] * 2)
    own = arc[interval]
    index = np.concatenate([own, (own + 1) % S, np.repeat(np.arange(S), 4)])
    offsets = np.concatenate([d, -d, np.tile([sliver, sliver / 2, -sliver, -sliver / 2], S)])
    return index, offsets, np.concatenate([w, w, np.ravel(caps)])


def rho_coefficients(
    c_plus: PlusFactor, d_plus: PlusFactor, b: CanonicalSymbol, n: int, m: int, keep: int | range
) -> RhoSeries:
    """Two-sided Fourier coefficients of rho = t^{-m-n}(1+t)(1+1/t) c_+(1/t) d_+(1/t) / b.

    rho_k = (1/2pi) int rho(e^{ix}) e^{-ikx} dx for k in keep, a contiguous
    range, or for |k| <= keep when it is an int, by the graded rule of
    _rho_rule between the sites of rho_sites, sized for the top frequency
    max |k| + |m + n + kappa_b| + the top log degree of b, c_+, d_+.
    The result is the FINE_RULE value; tail_bound holds max |fine - coarse|
    against COARSE_RULE, an estimate that sees node and sliver error both.
    """
    ks = keep if isinstance(keep, range) else range(-keep, keep + 1)
    logs = (b.log_smooth, c_plus.analytic_log, d_plus.analytic_log)
    top = max((abs(k) for f in logs for k, _ in f.coeffs), default=0)
    freq = max(-ks.start, ks.stop - 1) + abs(m + n + b.kappa) + top
    sites = rho_sites(c_plus, d_plus, b)
    turns = np.array([float(t) for t in sorted(sites)])
    rules = [_rho_rule(sites, freq, *rule) for rule in (FINE_RULE, COARSE_RULE)]
    index, offsets, weights = (np.concatenate(c) for c in zip(*rules))
    vals = _rho_values(c_plus, d_plus, b, m + n, sites, index, offsets)
    xs, count = 2 * np.pi * turns[index] + offsets, rules[0][0].size
    fine = _fourier_integrals(xs[:count], weights[:count], vals[:count], ks)
    coarse = _fourier_integrals(xs[count:], weights[count:], vals[count:], ks)
    estimate = float(np.max(np.abs(fine - coarse)))
    return RhoSeries(fine, ks, count, estimate, n, m, c_plus, d_plus, b, sites)


def rho_for_pair(pair, p, N_keep: int) -> tuple[NormalizedRep, NormalizedRep, RhoSeries]:
    """Normalize both sides, build the plus factors, and compute rho."""
    rep_c, rep_d = normalized_pair(pair, p)
    c_plus, d_plus = build_plus_factor(rep_c), build_plus_factor(rep_d)
    return rep_c, rep_d, rho_coefficients(c_plus, d_plus, pair.b, rep_c.n, rep_d.n, N_keep)
