"""Fredholm conditions, normalization, plus factors, index, and arc-augmented symbol curves.

Exact coset conditions on the jump data of the auxiliary functions c and d
decide the verdict, and the normalized product representations, and with them
(n, m) and the index m - n, are read off the same condition sites: each
exponent is moved into the unit window just below its site's forbidden
offset.  A normalized representation fixes its plus factor c_+, whose series
follows from a first-order recurrence.  The curve drawn for one side is the
image of the upper half circle with the one-sided limits at 1, -1, and every
interior jump joined by circular arcs whose inscribed-angle parameter depends
on p.  It is drawn once normalize has gated its side, so it misses the
origin, and its winding is the n that normalize gives, which the test suite
checks by counting the curve's argument.  Everything here runs in
Fraction, float and complex scalars, so the commands built on this module
alone load no numpy.
"""

from __future__ import annotations

import bisect
import cmath
import math
import sys
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

from .confidence import OutsideFloatRange
from .symbol_core import (
    MINUS_ONE,
    ONE,
    STRUCTURAL_TOL,
    TWO_PI,
    CanonicalSymbol,
    Exponent,
    FourierLogPoly,
    SymbolPair,
    UnitPoint,
    _Record,
    eval_each,
    one_sided_limits,
)

PLike = Union[int, float, str, Fraction]
# a tested value this close to its forbidden set is a boundary case
EPS_BOUNDARY = 1e-9


class NotFredholm(ValueError):
    """The operator is not Fredholm at the requested p.

    ``report`` is the ConditionReport behind the verdict: both sides' sites
    when normalized_pair refused, one side's when normalize did.
    """

    def __init__(self, message: str, report: "ConditionReport"):
        super().__init__(message)
        self.report = report


class BoundaryCase(NotFredholm):
    """A tested quantity lies within EPS_BOUNDARY of the forbidden set."""


def exponent_pair(p: PLike) -> tuple[Fraction, Fraction]:
    """Exact (p, q) with 1/p + 1/q = 1; floats enter through their binary value."""
    pf = Fraction(p)
    if not pf > 1:
        raise ValueError(f"p must lie in (1, infinity), got {p!r}")
    return pf, pf / (pf - 1)


def structural_sign(s: CanonicalSymbol) -> int:
    """0 when the constant scale * exp(log_0) of s is near +1, 1 when near -1.

    validate_pair places the constant of c and d within STRUCTURAL_TOL of
    +1 or -1; any other constant is non-structural.
    """
    w = s.scale * cmath.exp(s.log_smooth.as_dict().get(0, 0j))
    if abs(w - 1.0) <= STRUCTURAL_TOL:
        return 0
    if abs(w + 1.0) <= STRUCTURAL_TOL:
        return 1
    raise ValueError(f"constant {w!r} is not +-1; the symbol does not satisfy s*s~ = 1")


class SiteCondition(_Record):
    """One tested coset condition: tested value must avoid offset + Z."""

    side: str
    point: UnitPoint
    tested: Fraction
    forbidden_offset: Fraction
    distance: Fraction
    verdict: str  # "pass" | "fail" | "boundary"

    def __init__(self, side, point, tested, forbidden_offset, distance, verdict):
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "tested", tested)
        object.__setattr__(self, "forbidden_offset", forbidden_offset)
        object.__setattr__(self, "distance", distance)
        object.__setattr__(self, "verdict", verdict)


class ConditionReport(_Record):
    p: Fraction
    q: Fraction
    sites: tuple[SiteCondition, ...]
    overall: str  # "pass" | "fail" | "boundary"

    def failures(self) -> tuple[SiteCondition, ...]:
        return tuple(s for s in self.sites if s.verdict != "pass")


def _coset_distance(x: Fraction, offset: Fraction) -> Fraction:
    f = (x - offset) % 1
    return min(f, 1 - f)


def _site(side: str, point: UnitPoint, tested: Fraction, offset: Fraction) -> SiteCondition:
    dist = _coset_distance(tested, offset)
    if dist == 0:
        verdict = "fail"
    elif float(dist) < EPS_BOUNDARY:
        verdict = "boundary"
    else:
        verdict = "pass"
    return SiteCondition(side=side, point=point, tested=tested, forbidden_offset=offset, distance=dist, verdict=verdict)


# The forbidden offset at each kind of site is a + w/P, with P = p on the c
# side and q on the d side: 1/2 + 1/(2P) at 1, 1/(2P) at -1, 1/P at an
# interior jump.
_AT_ONE, _AT_MINUS_ONE, _INTERIOR = range(3)
_OFFSETS = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(1, 2)), (Fraction(0), Fraction(1)))
# The same offsets as base + slope*u with u = 1/p: 1/P is u on the c side
# and 1/q = 1 - u on the d side, so a + w/q is (a + w) - w*u.
_LINES = {"c": _OFFSETS, "d": tuple((a + w, -w) for a, w in _OFFSETS)}


def _site_values(s: CanonicalSymbol) -> list[tuple[UnitPoint, Fraction, int]]:
    """(point, tested value, kind of site) for every site of s.

    The tested values come from the exact jump data: at 1 the half exponent
    plus the sign of the constant, at -1 additionally half the winding power,
    at an interior jump the exponent itself.  The imaginary parts change only
    moduli of one-sided limits and never the tested arguments.
    """
    sigma = Fraction(structural_sign(s), 2)
    return [
        (ONE, sigma + s.beta_at(ONE).re / 2, _AT_ONE),
        (MINUS_ONE, Fraction(s.kappa, 2) + sigma + s.beta_at(MINUS_ONE).re / 2, _AT_MINUS_ONE),
    ] + [(j.point, j.beta.re, _INTERIOR) for j in s.jumps if j.point.in_upper_half]


def side_condition_sites(s: CanonicalSymbol, u: Fraction, side: str) -> list[SiteCondition]:
    """Coset conditions for one side at u = 1/p."""
    offsets = [base + slope * u for base, slope in _LINES[side]]
    return [_site(side, pt, x, offsets[kind]) for pt, x, kind in _site_values(s)]


def _report(pf: Fraction, qf: Fraction, sites: list[SiteCondition]) -> ConditionReport:
    """The report of sites, whose overall verdict is the worst of theirs."""
    verdicts = {s.verdict for s in sites}
    overall = "fail" if "fail" in verdicts else "boundary" if "boundary" in verdicts else "pass"
    return ConditionReport(p=pf, q=qf, sites=tuple(sites), overall=overall)


def _gate(report: ConditionReport) -> None:
    """Raise NotFredholm, or BoundaryCase, carrying report unless it passes."""
    if report.overall != "pass":
        bad = report.failures()[0]
        err = BoundaryCase if report.overall == "boundary" else NotFredholm
        raise err(f"not Fredholm at p={report.p}: side {bad.side}, site {bad.point}", report)


def fredholm_conditions(pair: SymbolPair, p: PLike) -> ConditionReport:
    """Tri-state coset conditions at every site of c (with p) and d (with q)."""
    pf, qf = exponent_pair(p)
    u = 1 / pf
    return _report(pf, qf, side_condition_sites(pair.c, u, "c") + side_condition_sites(pair.d, u, "d"))


class NormalizedRep(_Record):
    """Unique product representation s = t^{2n} a0 u(1,2g+) u(-1,2g-) prod u(tau,g) u(conj tau,g).

    gammas holds the common exponent of each conjugate pair, keyed by the
    upper-half point.  smooth_scale * exp(log_0), with log_0 the constant term
    of smooth_log, stays within 1e-9 of 1; smooth_scale is kept so the plus
    factor's constant stays faithful to the input's.
    """

    n: int
    gamma_plus: Exponent
    gamma_minus: Exponent
    gammas: tuple[tuple[UnitPoint, Exponent], ...]
    smooth_scale: complex
    smooth_log: FourierLogPoly


def _from_sites(s: CanonicalSymbol, sites: Iterable[SiteCondition]) -> NormalizedRep:
    """Place each exponent of s in the open window (offset - 1, offset) of its site.

    A site's tested value moves down by k = floor(tested - offset) + 1, the
    unique integer that lands it in the window, and every unit moved carries
    t^2 into the t^{2n} front factor: n is the sum of the k less one when the
    constant is -1.  The imaginary parts come from the jump data, halved at 1
    and -1.  The sites have passed the gate, so no tested value is on an edge.
    """
    sign = structural_sign(s)
    n = -sign
    placed = {}
    for site in sites:
        k = math.floor(site.tested - site.forbidden_offset) + 1
        n += k
        placed[site.point] = site.tested - k
    return NormalizedRep(
        n=n,
        gamma_plus=Exponent(placed.pop(ONE), s.beta_at(ONE).im / 2.0),
        gamma_minus=Exponent(placed.pop(MINUS_ONE), s.beta_at(MINUS_ONE).im / 2.0),
        gammas=tuple((pt, Exponent(re, s.beta_at(pt).im)) for pt, re in placed.items()),
        smooth_scale=-s.scale if sign else s.scale,
        smooth_log=s.log_smooth,
    )


def normalize(s: CanonicalSymbol, p: PLike, side: str = "c") -> NormalizedRep:
    """Normalize the c or d of a validated pair on one side, extracting the winding integer.

    The windows are the unit intervals below the forbidden offsets of
    side_condition_sites, so an exponent on a window edge is exactly a failed
    site.  The sites of this side alone are gated: a failed or boundary
    verdict raises NotFredholm or BoundaryCase carrying the ConditionReport
    of this side, whose verdict is check's on these sites.  A hand-built
    symbol whose constant scale * exp(log_0) is not +-1 raises ValueError
    (structural_sign).
    """
    pf, qf = exponent_pair(p)
    sites = side_condition_sites(s, 1 / pf, side)
    _gate(_report(pf, qf, sites))
    return _from_sites(s, sites)


def normalized_pair(pair: SymbolPair, p: PLike) -> tuple[NormalizedRep, NormalizedRep]:
    """The Fredholm gate: c normalized at p and d at q, once the conditions pass.

    Runs fredholm_conditions once.  A failed or boundary verdict raises
    NotFredholm or BoundaryCase carrying the ConditionReport as ``report``;
    a passing report's sites place both sides.
    """
    report = fredholm_conditions(pair, p)
    _gate(report)
    return tuple(
        _from_sites(s, [site for site in report.sites if site.side == side])
        for s, side in ((pair.c, "c"), (pair.d, "d"))
    )


class PlusFactor(_Record, eq=False):
    """Structured analytic factor c_+ of the antisymmetric factorization.

    c_+ = constant * exp(analytic log) * prod eta(point, exponent), with
    eta(tau, beta)(t) = (1 - t/tau)^beta and the analytic log holding only
    indices >= 1.  realize(N) returns the coefficients of c_+ (or of 1/c_+
    when inverted) up to t^N, the order the caller reads.
    """

    constant: complex
    analytic_log: FourierLogPoly
    eta_exponents: tuple[tuple[UnitPoint, Exponent], ...]

    def realize(self, N: int, inverted: bool = False) -> list[complex]:
        """Coefficients of c_+, or of 1/c_+ when inverted, up to t^N, by their first-order recurrence.

        The log derivative of c_+ is rational, c'/c = L' - sum_j beta_j w_j /
        (1 - w_j t) with w_j = 1/tau_j, so the coefficients obey J.C.P.
        Miller's recurrence for powers of a series (Knuth, TAOCP Vol. 2,
        4.7), Q c' = R c with Q = prod (1 - w_j t).  It runs here with Q in
        partial fractions: u_j = c / (1 - w_j t), whose coefficients are the
        running sums u_{j,n} = w_j u_{j,n-1} + c_n, gives (n+1) c_{n+1} =
        sum_i (i+1) L_{i+1} c_{n-i} - sum_j beta_j w_j u_{j,n} from c_0 =
        constant.  Each w_j enters as it is, rather than through the
        expanded coefficients of Q, whose rounding would move the
        singularities by which the coefficients grow or decay.  1/c_+
        negates L and every beta_j.  Each coefficient costs 2J + K complex
        multiply-adds, for J eta factors and a log of degree K.
        """
        sign = -1 if inverted else 1
        dlog = [0j] * max((k for k, _ in self.analytic_log.coeffs), default=0)
        for k, v in self.analytic_log.coeffs:
            dlog[k - 1] = sign * k * v
        ws = [_turn(-point.turns) for point, _ in self.eta_exponents]
        bws = [sign * e.value * w for (_, e), w in zip(self.eta_exponents, ws)]
        K, dlog_rev = len(dlog), dlog[::-1]
        # c[K + n] = c_n, after K zeros that stand for the c_n of n < 0
        c = [0j] * K + [self.constant if sign == 1 else 1 / self.constant]
        if not (dlog or ws):
            return c + [0j] * N
        u = [0j] * len(ws)
        for n in range(1, N + 1):
            x = sum(map(mul, dlog_rev, c[n : K + n]), 0j)
            if ws:
                last = c[-1]
                u = [w * v + last for w, v in zip(ws, u)]
                x -= sum(map(mul, bws, u), 0j)
            c.append(x / n)
        return c[K:]


def _turn(t: Fraction) -> complex:
    """e^{2 pi i t}: exact at the quarter turns, elsewhere from cos and sin of at most pi/4."""
    quarter = round(4 * t)
    x = TWO_PI * float(t - Fraction(quarter, 4))
    return complex(math.cos(x), math.sin(x)) * (1, 1j, -1, -1j)[quarter % 4]


def build_plus_factor(rep: NormalizedRep) -> PlusFactor:
    """The structured plus factor of a normalized representation.

    The eta exponents are 2*gamma at the endpoints and gamma at both members
    of every conjugate jump pair.  The residual constant smooth_scale *
    exp(log_0) (within 1e-9 of 1) is threaded through a principal square root
    so downstream products stay faithful to the input constants.  Nothing is
    realized here; callers use PlusFactor.realize at the order they need.
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


class Breakpoint(_Record):
    """A value u = 1/p at which the listed (side, point) sites vanish.

    slope is the smallest |slope| among them, so the widest epsilon band
    around u holds the u' with |slope| * |u' - u| below EPS_BOUNDARY: there
    the gate's distance at that site is exactly that product.
    """

    u: Fraction
    sites: tuple[tuple[str, UnitPoint], ...]
    slope: Fraction

    def in_band(self, u: Fraction) -> bool:
        return float(self.slope * abs(u - self.u)) < EPS_BOUNDARY


class PMap:
    """The exact partition of 1 < p < infinity for one pair, in u = 1/p.

    breakpoints holds, sorted by u, every u where a site vanishes and whose
    band meets 0 < u < 1, the ends and just beyond them included.  edges are
    0, the breakpoints strictly inside and 1; interval i is the open
    (edges[i], edges[i + 1]), on which (n, m) is constant.
    """

    def __init__(self, pair: SymbolPair, breakpoints: list[Breakpoint]):
        self.pair = pair
        self.breakpoints = tuple(breakpoints)
        self.edges = (Fraction(0), *(b.u for b in breakpoints if 0 < b.u < 1), Fraction(1))
        self._us = [b.u for b in breakpoints]
        # no band is wider than eps / min |slope| = 2 eps
        self._reach = 2 * Fraction(EPS_BOUNDARY)
        # a u whose float is over twice the reach from every breakpoint and
        # edge lies in no band, and floats order it among the edges exactly
        self._near = sorted({float(v) for v in (*self._us, *self.edges)})
        self._margin = 4 * EPS_BOUNDARY
        self._float_edges = [float(e) for e in self.edges]
        self._windings: dict[int | None, tuple[int, int]] = {}

    def interval(self, u: Fraction) -> int | None:
        """Index of the open interval holding u, or None on or inside a breakpoint's band.

        A u far from every breakpoint and edge is placed by float comparison;
        any other goes through the exact band search.
        """
        x = float(u)
        i = bisect.bisect_left(self._near, x - self._margin)
        if i == len(self._near) or self._near[i] > x + self._margin:
            return bisect.bisect_right(self._float_edges, x) - 1
        lo = bisect.bisect_left(self._us, u - self._reach)
        hi = bisect.bisect_right(self._us, u + self._reach)
        if any(b.in_band(u) for b in self.breakpoints[lo:hi]):
            return None
        return bisect.bisect_right(self.edges, u) - 1

    def windings(self, p: Fraction) -> tuple[int, int]:
        """(n, m) at p, from the gate.

        A p on or inside a band goes through normalized_pair, which raises
        there.  Any other p reads its interval's pair, computed by
        normalized_pair at the first such p asked for in that interval.
        """
        i = self.interval(1 / p)
        if i is None or i not in self._windings:
            rep_c, rep_d = normalized_pair(self.pair, p)
            self._windings[i] = rep_c.n, rep_d.n
        return self._windings[i]


def p_map(pair: SymbolPair) -> PMap:
    """Solve tested - base - slope*u in Z at every site of c and d for its breakpoints.

    A site's solutions are spaced 1/|slope| apart; those whose band, of
    half-width EPS_BOUNDARY/|slope|, can reach 0 < u < 1 are kept.
    """
    found: dict[Fraction, list[tuple[str, UnitPoint, Fraction]]] = {}
    for s, side in ((pair.c, "c"), (pair.d, "d")):
        for point, tested, kind in _site_values(s):
            base, slope = _LINES[side][kind]
            step = 1 / abs(slope)
            reach = Fraction(EPS_BOUNDARY) * step
            first = (tested - base) / slope
            u = first + math.ceil((-reach - first) / step) * step
            while u <= 1 + reach:
                found.setdefault(u, []).append((side, point, abs(slope)))
                u += step
    breakpoints = [
        Breakpoint(u, tuple((side, pt) for side, pt, _ in found[u]), min(w for _, _, w in found[u]))
        for u in sorted(found)
    ]
    return PMap(pair, breakpoints)


class CurveData(_Record, eq=False):
    """Closed polyline tracing the arc-augmented image of the upper half circle."""

    segments: tuple[tuple[str, list[complex]], ...]


def _normal(points: Sequence[complex]) -> Sequence[complex]:
    """points, once each has finite parts and a modulus no smaller than the least normal float.

    A symbol's value scale * exp(...) is never 0, so a point at or near the
    origin is an underflow, and a point past the largest float an overflow:
    either raises OutsideFloatRange.
    """
    for z in points:
        if not (cmath.isfinite(z) and max(abs(z.real), abs(z.imag)) >= sys.float_info.min):
            raise OutsideFloatRange(
                f"the curve point {z!r} lies outside the normal float range,"
                f" moduli {sys.float_info.min!r} to {sys.float_info.max!r}"
            )
    return points


def _arc_points(z1: complex, z2: complex, theta: float, samples: int) -> list[complex]:
    """Circular arc from z1 to z2 on which arg((z-z1)/(z-z2)) = 2*pi*theta.

    The origin lies on the closed arc exactly when arg(z1/z2) falls in the
    same coset, which is the coset condition of the arc's site; callers gate
    through normalize first, so no arc drawn here meets the origin.
    """
    if abs(z1 - z2) < 1e-14 * max(abs(z1), abs(z2)):
        return []
    turn = cmath.exp(2j * math.pi * theta)
    points = [z1]
    for i in range(samples):
        w = math.tan(math.pi * ((i + 1.0) / (samples + 1.0)) / 2.0) * turn
        points.append((z1 - z2 * w) / (1.0 - w))
    points.append(z2)
    return _normal(points)


def build_hash_curve(
    s: CanonicalSymbol, p: PLike, image_samples: int = 2048, arc_samples: int = 256
) -> CurveData:
    """Trace the closed curve for one side; pass p for c and q for d.

    Starts at the point 1, runs the arc to the plus limit at 1, follows the
    image of the upper half circle with an inserted arc at every interior
    jump, and closes with the arc from the minus limit at -1 back to 1.
    Every point is checked against the normal float range (_normal), so a
    symbol that under- or overflows raises OutsideFloatRange.  Callers gate
    the side through normalize before drawing; nothing here tests the origin.
    """
    pf = float(Fraction(p))
    if pf <= 1:
        raise ValueError("exponent parameter must exceed 1")
    breaks: list[Fraction] = [Fraction(0)]
    for j in s.jumps:
        if j.point.in_upper_half:
            breaks.append(j.point.turns)
    breaks.append(Fraction(1, 2))
    breaks.sort()

    segments: list[tuple[str, list[complex]]] = []

    def limits(pt: UnitPoint) -> Sequence[complex]:
        return _normal(one_sided_limits(s, pt))

    def add_arc(pt: UnitPoint, z1: complex, z2: complex, theta: float) -> None:
        arc = _arc_points(z1, z2, theta, arc_samples)
        if arc:
            segments.append((f"arc({pt.num}/{pt.den})", arc))

    try:
        _, plus_at_one = limits(ONE)
        add_arc(ONE, 1.0 + 0j, plus_at_one, 0.5 + 0.5 / pf)

        for t0, t1 in zip(breaks[:-1], breaks[1:]):
            pt0 = UnitPoint(t0.numerator, t0.denominator)
            pt1 = UnitPoint(t1.numerator, t1.denominator)
            _, start = limits(pt0)
            end, plus = limits(pt1)
            count = max(32, int(round(image_samples * float(t1 - t0) * 2)))
            # the count angles strictly inside the break interval, spaced as numpy.linspace spaces them
            lo, hi = TWO_PI * float(t0), TWO_PI * float(t1)
            step = (hi - lo) / (count + 1)
            vals = _normal(eval_each(s, [i * step + lo for i in range(1, count + 1)]))
            segments.append(("image", [start, *vals, end]))
            if pt1 != MINUS_ONE:
                add_arc(pt1, end, plus, 1.0 / pf)

        minus_at_minus_one, _ = limits(MINUS_ONE)
        add_arc(MINUS_ONE, minus_at_minus_one, 1.0 + 0j, 0.5 / pf)
    except OverflowError as e:
        raise OutsideFloatRange(f"a curve point exceeds the largest float, {sys.float_info.max!r}") from e
    return CurveData(segments=tuple(segments))
