"""The coefficients of rho, from the antisymmetric factorization c = c_+ t^{2n} c_+(1/t)^{-1}.

The plus factors are fredholm_engine.build_plus_factor's structured form: a
constant, the analytic half of the smooth log, and a list of (point,
exponent) pairs describing eta factors eta(tau, beta)(t) = (1 - t/tau)^beta
with eta(0) = 1.  Their series, realized by a first-order recurrence, converge
too slowly near the jump points to be usable for pointwise work, so rho
takes its values from the structure instead.

rho is analytic between its sites and behaves like |x - x_s|^{beta_s} at a
site, with beta_s exact from the structure.  rho_parts reads the sites and
the rest of rho's parts once off the normalized pair and b, and the rule,
its bounds and the oracle all read that one record.  Its values come from one
exponent per point, every factor's site term taken from the exact offset of
the point to that site.  The few coefficients the defect matrix reads come
from Gauss-Legendre quadrature of those values, graded geometrically into
the sites (Schwab, Computing 1994), each down to a sliver of its own width,
one 24-node rule per panel.  Their error bound is a priori, per half-arc
and site: the quadrature, sliver and rounding terms of the quadrature
module.  The second route, tanh-sinh quadrature on the same values, is
verification_oracle.rho_de.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .fredholm_engine import NormalizedRep, build_plus_factor
from .quadrature import _fourier_integrals, _leggauss, _quadrature_term, _rounding_term, _sliver_term, _slivers
from .symbol_core import CanonicalSymbol, Exponent, _Record

# Gauss-Legendre nodes per panel of the rho rule, and the bits of its slivers (quadrature._slivers)
RHO_RULE = (24, 53)


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


class RhoParts(_Record, eq=False):
    """The parts of rho, read off its three inputs by rho_parts; both quadratures and the bounds read them."""

    turns: list  # the sorted turns of rho's sites
    table: np.ndarray  # table[s, a]: offset from site s to site a, exact in turns before one rounding
    const: complex
    laurent: dict  # Laurent log of c_+(1/t) d_+(1/t) / b without its constant
    power: int  # of t
    top: int  # the top log degree of b, c_+ and d_+
    betas: list  # per site: its exponent,
    etas: list  # the exponent of its log term (beta less the 2 of 4 sin^2(d/2) at -1),
    phases: list  # the factor of i (sign(d) pi - d) in the exponent,
    ahead: list  # and the half-width of the arc ahead of it


class RhoSeries(_Record, eq=False):
    """Two-sided coefficients of rho with their error figure and the parts they integrate.

    coeffs[k - ks.start] holds rho_k for k in ks, a contiguous range: the k
    the defect matrix or the kernel check reads, or a symmetric range for
    verify's evenness and oracle gates.  tail_bound is, from
    rho_coefficients, a bound on max |rho_k - coeffs| over ks;
    from the tanh-sinh oracle it is an estimate, the last movement plus the
    inner remainder.  inner_N is the node count of the rule, or of the
    oracle's last step.  parts (rho_parts) are what the oracle integrates
    rho from again.
    """

    coeffs: np.ndarray
    ks: range
    inner_N: int
    tail_bound: float
    parts: RhoParts

    def get(self, k: int) -> complex:
        if k not in self.ks:
            raise IndexError(f"rho_{k} not kept (k in {self.ks.start}..{self.ks.stop - 1})")
        return complex(self.coeffs[k - self.ks.start])

    def evenness_defect(self) -> float:
        if self.ks.start != 1 - self.ks.stop:
            raise ValueError(f"evenness needs a symmetric range, have {self.ks}")
        return float(np.max(np.abs(self.coeffs - self.coeffs[::-1])))


def rho_parts(rep_c: NormalizedRep, rep_d: NormalizedRep, b: CanonicalSymbol) -> RhoParts:
    """The parts of rho = t^{-m-n}(1+t)(1+1/t) c_+(1/t) d_+(1/t) / b, from the normalized pair and b.

    c_+(1/t) and d_+(1/t) are singular at the conjugates of their eta points,
    (1+t)(1+1/t) adds 2 at -1, and +1 and the jump points of b are sites with
    whatever exponent the factors leave there.  Past the Fredholm gate every
    Re beta_s exceeds -1; raises ValueError, naming the turn, where one does
    not, since rho is then not integrable.
    """
    c_plus, d_plus = build_plus_factor(rep_c), build_plus_factor(rep_d)
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
            raise ValueError(f"net exponent {e.re} at turn {turn} makes rho non-integrable")
    turns = sorted(sites)
    half = Fraction(1, 2)
    table = 2 * np.pi * np.array([[float((a - s + half) % 1 - half) for a in turns] for s in turns])
    laurent = c_plus.analytic_log.tilde().plus(d_plus.analytic_log.tilde()).plus(b.log_smooth, -1).as_dict()
    const = c_plus.constant * d_plus.constant / b.scale * cmath.exp(laurent.pop(0, 0j))
    logs = (b.log_smooth, c_plus.analytic_log, d_plus.analytic_log)
    top = max((abs(k) for f in logs for k, _ in f.coeffs), default=0)
    jumps = {j.point.turns: j.beta.value for j in b.jumps}
    betas = [complex(sites[t].value) for t in turns]
    etas = [beta - (2 if t == half else 0) for t, beta in zip(turns, betas)]
    phases = [eta / 2 + jumps.get(t, 0) for t, eta in zip(turns, etas)]
    ahead = [abs(float(table[i, (i + 1) % len(turns)])) / 2 for i in range(len(turns))]
    power = -rep_c.n - rep_d.n - b.kappa
    return RhoParts(turns, table, const, laurent, power, top, betas, etas, phases, ahead)


def _rho_values(parts: RhoParts, index: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """rho at the angles 2 pi turns[index] + offsets, |offsets| <= pi, from its parts (rho_parts).

    One exponent holds the Laurent log of c_+(1/t) d_+(1/t) / b, per site its
    eta factor (1 - e^{-id})^eta and the inverse of b's jump factor u =
    exp(-i beta (sign(d) pi - d)), both from the offset d of the angle to the
    site: eta log|2 sin(d/2)| + i (eta/2 + beta)(sign(d) pi - d), and last the
    power t^{-nm - kappa_b}, so the partial sums before it stay small.  Near a
    site d is exact, where e^{ix} would have lost it to the rounding of x.
    (1+t)(1+1/t) = 4 sin^2(d/2) at -1 stays a factor, so rho there is 0
    rather than the exponential of log(0).
    """
    turns, table, laurent, etas, phases = parts.turns, parts.table, parts.laurent, parts.etas, parts.phases
    x = 2 * np.pi * np.array([float(t) for t in turns])[index] + offsets
    expo = np.zeros(x.shape, dtype=complex)
    if laurent:
        z = np.exp(1j * x)
        expo += sum(v * z**k for k, v in laurent.items())
    factor = 1.0
    for turn, row, eta, phase in zip(turns, table, etas, phases):
        if not (eta or phase or turn == Fraction(1, 2)):
            continue
        d = row[index] + offsets
        sine = np.sin(d / 2)
        if eta:
            expo += eta * np.log(2 * np.abs(sine))
        if phase:
            expo += 1j * phase * (np.sign(d) * np.pi - d)
        if turn == Fraction(1, 2):
            factor = 4 * sine**2
    expo += 1j * parts.power * x
    return parts.const * np.exp(expo) * factor


def _rho_rule(parts: RhoParts, freq: int, nodes: int, slivers: list):
    """Anchor indices, offsets and weights of the graded arc rule for rho.

    Each arc between consecutive sites of rho's parts (rho_parts) is split
    at its midpoint into two halves of the width parts.ahead that the bounds
    read, each laid out in offsets from its end site, its anchor.  A half is
    graded geometrically (ratio at most 4) from the midpoint down to its
    anchor's sliver s (quadrature._slivers), at exponent 0 too, so a
    singular site just past the anchor meets small panels; graded panels are
    cut to at most 10/freq rad.  Each sliver becomes nodes at +-s and +-s/2,
    with weights s beta / ((beta + 1)(beta + 2)) and 2^(beta + 1) s /
    ((beta + 1)(beta + 2)), that integrate C |u|^beta (1 + c u) exactly
    (Re beta > -1 by rho_parts).  Every panel [l, r] has r <= 4 l and a
    width of at most 10/freq, which quadrature._quadrature_term reads.
    """
    S = len(parts.turns)
    anchors = np.concatenate([np.arange(S), (np.arange(S) + 1) % S])  # half h < S lies ahead of its anchor
    halves, floors = np.tile(parts.ahead, 2), np.array(slivers)[anchors]
    levels = np.array([math.ceil(math.log(h / s, 4)) for h, s in zip(halves, floors)])
    # level j of half i runs from halves[i] (floors[i]/halves[i])^((j+1)/levels[i]) up to the same at j
    half = np.repeat(np.arange(2 * S), levels)
    j = np.arange(half.size) - np.repeat(np.cumsum(levels) - levels, levels)
    top, ratio = halves[half], floors[half] / halves[half]
    lo, hi = top * ratio ** ((j + 1) / levels[half]), top * ratio ** (j / levels[half])
    d, w, interval = _gauss_panels(lo, hi, freq, nodes, 1)
    s, beta = np.array(slivers), np.array(parts.betas)
    scale = s / ((beta + 1) * (beta + 2))
    caps = np.column_stack([beta * scale, 2 ** (beta + 1) * scale] * 2)
    own = half[interval]
    index = np.concatenate([anchors[own], np.repeat(np.arange(S), 4)])
    offsets = np.concatenate([np.where(own < S, d, -d), np.column_stack([s, s / 2, -s, -s / 2]).ravel()])
    return index, offsets, np.concatenate([w, caps.ravel()])


def rho_coefficients(rep_c: NormalizedRep, rep_d: NormalizedRep, b: CanonicalSymbol, keep: int | range) -> RhoSeries:
    """Two-sided Fourier coefficients of rho = t^{-m-n}(1+t)(1+1/t) c_+(1/t) d_+(1/t) / b.

    rho is fixed by the normalized pair (rep_c, rep_d), with n = rep_c.n and
    m = rep_d.n, and by b.  rho_k = (1/2pi) int rho(e^{ix}) e^{-ikx} dx for k
    in keep, a contiguous range, or for |k| <= keep when it is an int, by the
    graded rule of _rho_rule between the sites of rho_parts, sized for the
    top frequency max |k| + |m + n + kappa_b| + the top log degree of b, c_+,
    d_+, or 1 where that is 0, with slivers from max |k| (quadrature._slivers).
    tail_bound is an a-priori bound on max |rho_k - coeffs| over keep: the
    quadrature, sliver and rounding terms, computed per panel and site.
    """
    ks = keep if isinstance(keep, range) else range(-keep, keep + 1)
    parts = rho_parts(rep_c, rep_d, b)
    K = max(-ks.start, ks.stop - 1)
    freq = max(1, K + abs(parts.power) + parts.top)  # at least 1, as the quadrature bound divides by it
    nodes, bits = RHO_RULE
    radii, slivers = _slivers(parts, K, bits)
    index, offsets, weights = _rho_rule(parts, freq, nodes, slivers)
    vals = _rho_values(parts, index, offsets)
    xs = 2 * np.pi * np.array([float(t) for t in parts.turns])[index] + offsets
    coeffs = _fourier_integrals(xs, weights, vals, ks)
    bound = (
        _quadrature_term(parts, K, freq, nodes, slivers)
        + _sliver_term(parts, K, radii, slivers)
        + _rounding_term(parts, ks, slivers, xs.size, weights * vals)
    )
    return RhoSeries(coeffs, ks, xs.size, bound, parts)
