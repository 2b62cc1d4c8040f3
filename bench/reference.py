"""Exact reference answers, computed from the documents without the library.

Everything here is closed-form `Fraction` arithmetic on the structured data
of a document: the auxiliary functions c = a/b and d = a~/b, the coset
conditions at every jump site, the winding integers n and m of the
normalized representations, the interval tables of the four single-symbol
families, and the Jacobi-weight determinant.  The benchmark compares the
program's outputs against these values; none of them calls into
`th_fredholm`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

EPS_BOUNDARY = 1e-9
HALF = Fraction(1, 2)
EXIT_CODES = {"pass": 0, "fail": 1, "boundary": 2}


@dataclass(frozen=True)
class Struct:
    """The exact part of a symbol: winding, scale, and jump exponents by turn."""

    kappa: int
    scale: complex
    jumps: dict  # Fraction turn in [0, 1) -> Fraction real part of the exponent

    def beta(self, turn: Fraction) -> Fraction:
        return self.jumps.get(turn, Fraction(0))


def _clean(jumps: dict) -> dict:
    return {t: b for t, b in jumps.items() if b != 0}


def struct_of(node: dict) -> Struct:
    """Exact data of one document symbol (beta real parts are read exactly)."""
    jumps: dict = {}
    for j in node.get("jumps", []):
        turn = Fraction(j["theta_num"], j["theta_den"]) % 1
        jumps[turn] = jumps.get(turn, Fraction(0)) + Fraction(j["beta"][0])
    re, im = node.get("scale", [1.0, 0.0])
    return Struct(node.get("kappa", 0), complex(re, im), _clean(jumps))


def mul(s: Struct, t: Struct) -> Struct:
    jumps = dict(s.jumps)
    for turn, b in t.jumps.items():
        jumps[turn] = jumps.get(turn, Fraction(0)) + b
    return Struct(s.kappa + t.kappa, s.scale * t.scale, _clean(jumps))


def inv(s: Struct) -> Struct:
    return Struct(-s.kappa, 1.0 / s.scale, {t: -b for t, b in s.jumps.items()})


def tilde(s: Struct) -> Struct:
    return Struct(-s.kappa, s.scale, {(-t) % 1: -b for t, b in s.jumps.items()})


def sign_half(s: Struct) -> Fraction:
    """1/2 when the scale is -1, 0 when it is +1."""
    if abs(s.scale - 1.0) <= EPS_BOUNDARY:
        return Fraction(0)
    if abs(s.scale + 1.0) <= EPS_BOUNDARY:
        return HALF
    raise ValueError(f"auxiliary scale {s.scale!r} is not +-1")


def _upper(s: Struct) -> list:
    return sorted(t for t in s.jumps if 0 < t < HALF)


def _verdict(tested: Fraction, offset: Fraction) -> str:
    f = (tested - offset) % 1
    dist = min(f, 1 - f)
    if dist == 0:
        return "fail"
    return "boundary" if float(dist) < EPS_BOUNDARY else "pass"


def side_verdict(s: Struct, big_p: Fraction) -> str:
    """Worst coset verdict over the sites of one auxiliary function."""
    sigma = sign_half(s)
    verdicts = [
        _verdict(sigma + s.beta(Fraction(0)) / 2, HALF + 1 / (2 * big_p)),
        _verdict(Fraction(s.kappa, 2) + sigma + s.beta(HALF) / 2, 1 / (2 * big_p)),
    ]
    verdicts += [_verdict(s.beta(t), 1 / big_p) for t in _upper(s)]
    for v in ("fail", "boundary"):
        if v in verdicts:
            return v
    return "pass"


def winding(s: Struct, big_q: Fraction) -> int:
    """n of the normalized representation; big_q is q on the c side, p on the d side."""
    beta_plus, beta_minus, kappa = s.beta(Fraction(0)), s.beta(HALF), s.kappa
    if sign_half(s):
        beta_plus, beta_minus = beta_plus + 1, beta_minus - 1
    if kappa % 2:
        beta_minus, kappa = beta_minus + 1, kappa - 1
    n = kappa // 2
    n += math.floor(beta_plus / 2 + 1 / (2 * big_q))
    n += math.floor(beta_minus / 2 + HALF + 1 / (2 * big_q))
    n += sum(math.floor(s.beta(t) + 1 / big_q) for t in _upper(s))
    return n


def case_tag(n: int, m: int) -> str:
    if n > 0 and m <= 0:
        return "G-zero"
    if n <= 0 and m <= 0:
        return "G-count"
    if n <= 0 and m > 0:
        return "F-count"
    return "F-matrix"


def counted_defects(n: int, m: int) -> tuple[int, int] | None:
    """(dim ker, dim coker) in the three counting cases; None for F-matrix."""
    tag = case_tag(n, m)
    if tag == "G-zero":
        return 0, n - m
    if tag == "G-count":
        return -n, -m
    if tag == "F-count":
        return m - n, 0
    return None


@dataclass(frozen=True)
class Expected:
    """Reference answer for one document at one p.

    n (m) is the winding of c (d); it is None when that side fails.
    """

    p: Fraction
    verdict: str
    c_verdict: str
    n: int | None
    m: int | None

    @property
    def code(self) -> int:
        return EXIT_CODES[self.verdict]

    @property
    def defects(self) -> tuple[int, int] | None:
        return None if self.verdict != "pass" else counted_defects(self.n, self.m)


def auxiliary(doc: dict) -> tuple[Struct, Struct]:
    a, b = struct_of(doc["a"]), struct_of(doc["b"])
    return mul(a, inv(b)), mul(tilde(a), inv(b))


def expected(doc: dict, p: Fraction) -> Expected:
    c, d = auxiliary(doc)
    q = p / (p - 1)
    vc, vd = side_verdict(c, p), side_verdict(d, q)
    overall = "fail" if "fail" in (vc, vd) else "boundary" if "boundary" in (vc, vd) else "pass"
    # a side's winding exists when that side passes (curve needs c's alone)
    n = winding(c, q) if vc == "pass" else None
    m = winding(d, p) if vd == "pass" else None
    return Expected(p, overall, vc, n, m)


def sweep_grid(p_from: Fraction, p_to: Fraction, steps: int) -> list[Fraction]:
    """The exact p values a sweep visits: steps points from p_from to p_to."""
    if steps == 1:
        return [p_from]
    return [p_from + (p_to - p_from) * k / (steps - 1) for k in range(steps)]


# -- the four single-symbol families T(a) +- H(...) -------------------------

FAMILY_TAGS = ("APlusHA", "AMinusHA", "AMinusHtInvA", "APlusHtA")


def family_table(tag: str, kappa: int, beta_plus: Fraction, beta_minus: Fraction, p: Fraction):
    """Closed-form interval placement: (fredholm, n - m, dim ker, dim coker).

    Every window has length one; a jump exponent on a window edge means the
    operator is not Fredholm.
    """
    hq = (p - 1) / (2 * p)
    deep = -HALF - hq
    lo_plus, lo_minus = {
        "APlusHA": (deep, -hq),
        "AMinusHA": (-hq, deep),
        "AMinusHtInvA": (-hq, -hq),
        "APlusHtA": (deep, deep),
    }[tag]
    offsets = (beta_plus - lo_plus, beta_minus - lo_minus)
    if any(o.denominator == 1 for o in offsets):
        return False, None, None, None
    want = kappa + sum(math.floor(o) for o in offsets)
    return True, want, max(0, -want), max(0, want)


# -- the Jacobi-weight determinant identity ----------------------------------


def jacobi_determinant(alpha: float, beta: float, kappa: int) -> float:
    """det A_{kappa,kappa} for the weight (2-2x)^alpha (2+2x)^beta on [-1, 1].

    4 * 2^{kappa(kappa-1)} / pi^kappa over the squared leading coefficients
    of the first kappa orthonormal Jacobi polynomials (real exponents).
    """
    g = math.gamma
    s = alpha + beta
    det = 4.0 * 2.0 ** (kappa * (kappa - 1)) / math.pi**kappa
    for n in range(kappa):
        binom = 1.0 if n == 0 else g(2 * n + s + 1) / (g(n + 1) * g(n + s + 1))
        lead_sq = (
            (2.0 ** (-n) * binom) ** 2
            * (2 * n + s + 1)
            / 2.0 ** (2 * s + 1)
            * g(n + 1)
            * g(n + s + 1)
            / (g(n + alpha + 1) * g(n + beta + 1))
        )
        det /= lead_sq
    return det
