"""Fredholm conditions, normalization, index, and arc-augmented winding curves.

Two independent routes to the same integers live here.  The symbolic route
tests exact coset conditions on the jump data of the auxiliary functions c and
d, and reads the normalized product representations, and with them (n, m) and
the index m - n, off the same condition sites: each exponent is moved into
the unit window just below its site's forbidden offset.  The geometric route
traces the closed curve obtained from the image of the upper half circle by
joining the one-sided limits at 1, -1, and every interior jump with circular
arcs whose inscribed-angle parameter depends on p, then counts the winding
about the origin.  Agreement of the two routes is a standing invariant of the
test suite.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .symbol_core import (
    MINUS_ONE,
    ONE,
    TWO_PI,
    CanonicalSymbol,
    Exponent,
    FourierLogPoly,
    JumpFactor,
    SymbolPair,
    UnitPoint,
    as_fraction,
    eval_many,
    one_sided_limits,
)

PLike = Union[int, float, str, Fraction]
# a tested value this close to its forbidden set is a boundary case
EPS_BOUNDARY = 1e-9


class NotFredholm(ValueError):
    """The operator is not Fredholm at the requested p.

    ``report`` is the ConditionReport behind the verdict when the gate in
    normalized_pair raised, and None otherwise.
    """

    def __init__(self, message: str, report: "ConditionReport | None" = None):
        super().__init__(message)
        self.report = report


class NotFredholmOnSide(NotFredholm):
    """An exponent to be normalized sits on a window edge on one side.

    Attributes
    ----------
    side : str
        "c" or "d".
    point : UnitPoint
        The jump point whose exponent could not be placed.
    tested : Fraction
        The site's tested value, which lies on the forbidden set.
    """

    def __init__(self, side: str, point: UnitPoint, tested: Fraction):
        super().__init__(f"not Fredholm: side {side}, jump {point}, exponent real part {tested} on a boundary")
        self.side = side
        self.point = point
        self.tested = tested


class BoundaryCase(NotFredholm):
    """A tested quantity lies within eps_boundary of the forbidden set."""


class CurveThroughOrigin(ValueError):
    """The traced curve meets the origin; the winding number is undefined."""


def exponent_pair(p: PLike) -> tuple[Fraction, Fraction]:
    """Exact (p, q) with 1/p + 1/q = 1; floats enter through their binary value."""
    pf = as_fraction(p)
    if not pf > 1:
        raise ValueError(f"p must lie in (1, infinity), got {p!r}")
    return pf, pf / (pf - 1)


def structural_sign(scale: complex, tol: float = 1e-9) -> int:
    """0 for scale near +1, 1 for scale near -1; anything else is non-structural."""
    if abs(scale - 1.0) <= tol:
        return 0
    if abs(scale + 1.0) <= tol:
        return 1
    raise ValueError(f"scale {scale!r} is not +-1; the symbol does not satisfy s*s~ = 1")


def ensure_unimodular(s: CanonicalSymbol, tol: float = 1e-9) -> None:
    """Check the structural identity s*s~ = 1 on the canonical data.

    Requires scale in {+1, -1}, an odd logarithm, and equal exponents on
    conjugate jump points; the exponent at 1 and at -1 is unconstrained.
    """
    structural_sign(s.scale, tol)
    if s.log_smooth.odd_defect() > tol:
        raise ValueError("smooth log is not odd; the symbol does not satisfy s*s~ = 1")
    for j in s.jumps:
        partner = s.beta_at(j.point.conjugate())
        if j.point.in_upper_half and (j.beta.re != partner.re or abs(j.beta.im - partner.im) > tol):
            raise ValueError(
                f"jump exponents at {j.point} and its conjugate differ; s*s~ = 1 fails"
            )


@dataclass(frozen=True)
class SiteCondition:
    """One tested coset condition: tested value must avoid offset + Z."""

    side: str
    point: UnitPoint
    tested: Fraction
    forbidden_offset: Fraction
    distance: Fraction
    verdict: str  # "pass" | "fail" | "boundary"


@dataclass(frozen=True)
class ConditionReport:
    p: Fraction
    q: Fraction
    sites: tuple[SiteCondition, ...]
    overall: str  # "pass" | "fail" | "boundary"

    @property
    def fredholm(self) -> bool:
        return self.overall == "pass"

    def failures(self) -> tuple[SiteCondition, ...]:
        return tuple(s for s in self.sites if s.verdict != "pass")


def _coset_distance(x: Fraction, offset: Fraction) -> Fraction:
    f = (x - offset) % 1
    return min(f, 1 - f)


def _site(side: str, point: UnitPoint, tested: Fraction, offset: Fraction, eps: float) -> SiteCondition:
    dist = _coset_distance(tested, offset)
    if dist == 0:
        verdict = "fail"
    elif float(dist) < eps:
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
    plus the sign of the scale, at -1 additionally half the winding power,
    at an interior jump the exponent itself.  The imaginary parts change only
    moduli of one-sided limits and never the tested arguments.
    """
    ensure_unimodular(s)
    sigma = Fraction(structural_sign(s.scale), 2)
    return [
        (ONE, sigma + s.beta_at(ONE).re / 2, _AT_ONE),
        (MINUS_ONE, Fraction(s.kappa, 2) + sigma + s.beta_at(MINUS_ONE).re / 2, _AT_MINUS_ONE),
    ] + [(j.point, j.beta.re, _INTERIOR) for j in s.jumps if j.point.in_upper_half]


def side_condition_sites(
    s: CanonicalSymbol, u: Fraction, side: str, eps_boundary: float = EPS_BOUNDARY
) -> list[SiteCondition]:
    """Coset conditions for one side at u = 1/p."""
    offsets = [base + slope * u for base, slope in _LINES[side]]
    return [_site(side, pt, x, offsets[kind], eps_boundary) for pt, x, kind in _site_values(s)]


def fredholm_conditions(pair: SymbolPair, p: PLike, eps_boundary: float = EPS_BOUNDARY) -> ConditionReport:
    """Tri-state coset conditions at every site of c (with p) and d (with q)."""
    pf, qf = exponent_pair(p)
    u = 1 / pf
    sites = side_condition_sites(pair.c, u, "c", eps_boundary) + side_condition_sites(pair.d, u, "d", eps_boundary)
    if any(s.verdict == "fail" for s in sites):
        overall = "fail"
    elif any(s.verdict == "boundary" for s in sites):
        overall = "boundary"
    else:
        overall = "pass"
    return ConditionReport(p=pf, q=qf, sites=tuple(sites), overall=overall)


@dataclass(frozen=True)
class NormalizedRep:
    """Unique product representation s = t^{2n} a0 u(1,2g+) u(-1,2g-) prod u(tau,g) u(conj tau,g).

    gammas holds the common exponent of each conjugate pair, keyed by the
    upper-half point.  smooth_scale stays within 1e-9 of 1; it is kept so the
    reconstruction reproduces the input bit for bit.
    """

    side: str
    n: int
    gamma_plus: Exponent
    gamma_minus: Exponent
    gammas: tuple[tuple[UnitPoint, Exponent], ...]
    smooth_scale: complex
    smooth_log: FourierLogPoly

    def reconstruct(self) -> CanonicalSymbol:
        jumps = [
            JumpFactor(ONE, self.gamma_plus + self.gamma_plus),
            JumpFactor(MINUS_ONE, self.gamma_minus + self.gamma_minus),
        ]
        for pt, g in self.gammas:
            jumps.append(JumpFactor(pt, g))
            jumps.append(JumpFactor(pt.conjugate(), g))
        return CanonicalSymbol(
            kappa=2 * self.n, scale=self.smooth_scale, log_smooth=self.smooth_log, jumps=tuple(jumps)
        )

    def exponents(self) -> dict[UnitPoint, Exponent]:
        out = {ONE: self.gamma_plus, MINUS_ONE: self.gamma_minus}
        for pt, g in self.gammas:
            out[pt] = g
        return out


def _from_sites(s: CanonicalSymbol, sites: Iterable[SiteCondition], side: str) -> NormalizedRep:
    """Place each exponent of s in the open window (offset - 1, offset) of its site.

    A site's tested value moves down by k = floor(tested - offset) + 1, the
    unique integer that lands it in the window, and every unit moved carries
    t^2 into the t^{2n} front factor: n is the sum of the k less one when the
    scale is -1.  The imaginary parts come from the jump data, halved at 1
    and -1.  A tested value exactly on an edge raises NotFredholmOnSide.
    """
    sign = structural_sign(s.scale)
    n = -sign
    placed = {}
    for site in sites:
        if site.distance == 0:
            raise NotFredholmOnSide(side, site.point, site.tested)
        k = math.floor(site.tested - site.forbidden_offset) + 1
        n += k
        placed[site.point] = site.tested - k
    return NormalizedRep(
        side=side,
        n=n,
        gamma_plus=Exponent(placed.pop(ONE), s.beta_at(ONE).im / 2.0),
        gamma_minus=Exponent(placed.pop(MINUS_ONE), s.beta_at(MINUS_ONE).im / 2.0),
        gammas=tuple((pt, Exponent(re, s.beta_at(pt).im)) for pt, re in placed.items()),
        smooth_scale=-s.scale if sign else s.scale,
        smooth_log=s.log_smooth,
    )


def normalize(s: CanonicalSymbol, p: PLike, side: str = "c") -> NormalizedRep:
    """Normalize a structural symbol on one side, extracting the winding integer.

    The windows are the unit intervals below the forbidden offsets of
    side_condition_sites, so an exponent on a window edge is exactly a failed
    site; this is the placement alone, and callers that need the verdict go
    through normalized_pair.
    """
    return _from_sites(s, side_condition_sites(s, 1 / exponent_pair(p)[0], side), side)


def normalized_pair(pair: SymbolPair, p: PLike) -> tuple[NormalizedRep, NormalizedRep]:
    """The Fredholm gate: c normalized at p and d at q, once the conditions pass.

    Runs fredholm_conditions once.  A failed or boundary verdict raises
    NotFredholm or BoundaryCase carrying the ConditionReport as ``report``;
    a passing report's sites place both sides.
    """
    report = fredholm_conditions(pair, p)
    if report.overall != "pass":
        bad = report.failures()[0]
        err = BoundaryCase if report.overall == "boundary" else NotFredholm
        raise err(f"not Fredholm at p={report.p}: side {bad.side}, site {bad.point}", report)
    return tuple(
        _from_sites(s, [site for site in report.sites if site.side == side], side)
        for s, side in ((pair.c, "c"), (pair.d, "d"))
    )


def fredholm_index(pair: SymbolPair, p: PLike) -> int:
    """Index m - n of the operator at p; raises if not Fredholm or on a boundary."""
    rep_c, rep_d = normalized_pair(pair, p)
    return rep_d.n - rep_c.n


@dataclass(frozen=True)
class Breakpoint:
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
        self._windings: dict[int | None, tuple[int, int]] = {}

    def interval(self, u: Fraction) -> int | None:
        """Index of the open interval holding u, or None on or inside a breakpoint's band."""
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


@dataclass(frozen=True, eq=False)
class CurveData:
    """Closed polyline tracing the arc-augmented image of the upper half circle."""

    segments: tuple[tuple[str, np.ndarray], ...]

    @property
    def points(self) -> np.ndarray:
        return np.concatenate([seg for _, seg in self.segments])

    def tags(self) -> tuple[str, ...]:
        return tuple(tag for tag, _ in self.segments)


def _arc_points(z1: complex, z2: complex, theta: float, samples: int) -> np.ndarray:
    """Circular arc from z1 to z2 on which arg((z-z1)/(z-z2)) = 2*pi*theta.

    The origin lies on the closed arc exactly when arg(z1/z2) falls in the
    same coset, which reproduces the coset condition this arc encodes; that
    degeneracy is checked analytically, not by sampling.
    """
    if abs(z1 - z2) < 1e-14:
        return np.empty(0, dtype=complex)
    if min(abs(z1), abs(z2)) < 1e-9:
        raise CurveThroughOrigin("an arc endpoint sits at the origin")
    gap = (cmath.phase(z1 / z2) / TWO_PI - theta) % 1.0
    if min(gap, 1.0 - gap) < 1e-9:
        raise CurveThroughOrigin(f"the arc from {z1:.6g} to {z2:.6g} passes through the origin")
    s = (np.arange(samples) + 1.0) / (samples + 1.0)
    w = np.tan(math.pi * s / 2.0) * cmath.exp(2j * math.pi * theta)
    pts = (z1 - z2 * w) / (1.0 - w)
    return np.concatenate([[z1], pts, [z2]])


def build_hash_curve(
    s: CanonicalSymbol, p: PLike, image_samples: int = 2048, arc_samples: int = 256
) -> CurveData:
    """Trace the closed curve for one side; pass p for c and q for d.

    Starts at the point 1, runs the arc to the plus limit at 1, follows the
    image of the upper half circle with an inserted arc at every interior
    jump, and closes with the arc from the minus limit at -1 back to 1.
    """
    pf = float(as_fraction(p))
    if pf <= 1:
        raise ValueError("exponent parameter must exceed 1")
    breaks: list[Fraction] = [Fraction(0)]
    for j in s.jumps:
        if j.point.in_upper_half:
            breaks.append(j.point.turns)
    breaks.append(Fraction(1, 2))
    breaks.sort()

    segments: list[tuple[str, np.ndarray]] = []

    def add_arc(pt: UnitPoint, z1: complex, z2: complex, theta: float) -> None:
        arc = _arc_points(z1, z2, theta, arc_samples)
        if arc.size:
            segments.append((f"arc({pt.num}/{pt.den})", arc))

    _, plus_at_one = one_sided_limits(s, ONE)
    add_arc(ONE, 1.0 + 0j, plus_at_one, 0.5 + 0.5 / pf)

    for t0, t1 in zip(breaks[:-1], breaks[1:]):
        pt0 = UnitPoint(t0.numerator, t0.denominator)
        pt1 = UnitPoint(t1.numerator, t1.denominator)
        _, start = one_sided_limits(s, pt0)
        end, _ = one_sided_limits(s, pt1)
        count = max(32, int(round(image_samples * float(t1 - t0) * 2)))
        xs = np.linspace(TWO_PI * float(t0), TWO_PI * float(t1), count + 2)[1:-1]
        vals = eval_many(s, xs)
        segments.append(("image", np.concatenate([[start], vals, [end]])))
        if pt1 != MINUS_ONE:
            minus, plus = one_sided_limits(s, pt1)
            add_arc(pt1, minus, plus, 1.0 / pf)

    minus_at_minus_one, _ = one_sided_limits(s, MINUS_ONE)
    add_arc(MINUS_ONE, minus_at_minus_one, 1.0 + 0j, 0.5 / pf)

    curve = CurveData(segments=tuple(segments))
    if float(np.min(np.abs(curve.points))) < 1e-9:
        raise CurveThroughOrigin("a sampled curve point lies at the origin")
    return curve


def winding_from_curve(curve: CurveData) -> int:
    """Winding about the origin by continuous argument tracking along the polyline."""
    pts = curve.points
    closed = np.concatenate([pts, pts[:1]])
    increments = np.angle(closed[1:] / closed[:-1])
    total = float(np.sum(increments))
    w = total / TWO_PI
    nearest = round(w)
    if abs(w - nearest) > 0.1:
        raise ValueError(f"winding {w:.4f} is not close to an integer; refine the sampling")
    return int(nearest)
