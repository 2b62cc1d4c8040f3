"""Seeded input documents for the benchmark workloads.

Every generator takes a `random.Random` built from the run's seed, so one
seed always gives the same inputs.  Documents use the CLI's JSON schema.
Jump exponents are dyadic (k/64) and smooth-log and scale parts are dyadic
too, so every float in a document is exact in binary and in JSON, and the
exact conditions and windings in `reference` apply to the document as
written.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from reference import FAMILY_TAGS, expected, family_table

DYADIC = 64
UPPER_ANGLES = ((1, 8), (1, 4), (3, 8), (1, 3), (1, 6), (2, 5))
B_ANGLES = ((0, 1), (1, 2), (1, 4), (3, 4), (1, 3))
P_CHOICES = (Fraction(2), Fraction(3, 2), Fraction(3), Fraction(5, 4), Fraction(5))


class Sym:
    """Mutable symbol data: scale * t^kappa * exp(sum v_k t^k) * prod u(theta, beta)."""

    def __init__(self, kappa=0, scale=1.0 + 0j, log=None, jumps=None):
        self.kappa = kappa
        self.scale = complex(scale)
        self.log = dict(log or {})  # k -> complex
        self.jumps = dict(jumps or {})  # Fraction turn -> (Fraction re, float im)

    def times(self, other: "Sym") -> "Sym":
        log = dict(self.log)
        for k, v in other.log.items():
            log[k] = log.get(k, 0j) + v
        jumps = dict(self.jumps)
        for t, (re, im) in other.jumps.items():
            re0, im0 = jumps.get(t, (Fraction(0), 0.0))
            jumps[t] = (re0 + re, im0 + im)
        return Sym(self.kappa + other.kappa, self.scale * other.scale, log, jumps)

    def node(self) -> dict:
        out = {"kappa": self.kappa, "scale": [self.scale.real, self.scale.imag]}
        log = [{"k": k, "re": v.real, "im": v.imag} for k, v in sorted(self.log.items()) if v]
        if log:
            out["log_smooth"] = log
        jumps = [
            {"theta_num": t.numerator, "theta_den": t.denominator, "beta": [re, im]}
            for t, (re, im) in sorted(self.jumps.items())
            if re or im
        ]
        if jumps:
            out["jumps"] = jumps
        return out


def to_json(doc: dict) -> str:
    """JSON text of a document; exponents must be dyadic so that floats are exact."""

    def exact(x):
        if isinstance(x, Fraction) and x.denominator & (x.denominator - 1) == 0:
            return float(x)
        raise TypeError(f"{x!r} has no exact JSON float")

    return json.dumps(doc, default=exact, sort_keys=True)


def dyadic(rng: random.Random, lo: float, hi: float, den: int = DYADIC) -> Fraction:
    return Fraction(rng.randint(round(lo * den), round(hi * den)), den)


def _exponent(rng: random.Random) -> tuple[Fraction, float]:
    """A dyadic jump exponent, with a small imaginary part three times in ten."""
    im = float(dyadic(rng, -0.125, 0.125)) if rng.random() < 0.3 else 0.0
    return dyadic(rng, -0.5, 0.5), im


def structural_c(rng: random.Random, kappas=range(-2, 3), pairs: int | None = None) -> Sym:
    """Random c with c*c~ = 1: scale +-1, odd log, equal exponents on conjugate pairs.

    With `pairs` given, c has jumps at both 1 and -1 and exactly that many
    conjugate pairs; otherwise the sites are drawn too.
    """
    log = {}
    for k in range(1, rng.randint(0, 2) + 1):
        v = complex(dyadic(rng, -0.25, 0.25, 256), dyadic(rng, -0.25, 0.25, 256))
        log[k], log[-k] = v, -v
    jumps = {}
    for turn in (Fraction(0), Fraction(1, 2)):
        if pairs is not None or rng.random() < 0.8:
            jumps[turn] = _exponent(rng)
    for num, den in rng.sample(UPPER_ANGLES, rng.randint(0, 2) if pairs is None else pairs):
        beta = _exponent(rng)
        jumps[Fraction(num, den)] = beta
        jumps[Fraction(den - num, den)] = beta
    scale = 1.0 if rng.random() < 0.7 else -1.0
    return Sym(rng.choice(list(kappas)), scale, log, jumps)


def generic_b(rng: random.Random, kappas=range(-2, 3), jumps: int | None = None) -> Sym:
    """Random invertible symbol without structure; `jumps` fixes its number of jump points."""
    scale = 0j
    while abs(scale) < 0.25:
        scale = complex(dyadic(rng, -1, 1, 16), dyadic(rng, -1, 1, 16))
    log = {
        k: complex(dyadic(rng, -0.25, 0.25, 256), dyadic(rng, -0.25, 0.25, 256))
        for k in (-2, -1, 1, 2)
        if rng.random() < 0.5
    }
    if jumps is None:
        points = [pt for pt in B_ANGLES if rng.random() < 0.3]
    else:
        points = rng.sample(B_ANGLES, jumps)
    return Sym(rng.choice(list(kappas)), scale, log, {Fraction(*pt): _exponent(rng) for pt in points})


def pair_doc(c: Sym, b: Sym, p: Fraction | None) -> dict:
    """Document for the pair (a, b) = (c*b, b), so that a/b = c."""
    doc = {"a": c.times(b).node(), "b": b.node()}
    if p is not None:
        doc["p"] = p_text(p)
    return doc


def doc_p(doc: dict) -> Fraction:
    return Fraction(doc["p"])


def p_text(p) -> str:
    p = Fraction(p)
    return f"{p.numerator}/{p.denominator}"


# -- fixed documents ----------------------------------------------------------


def readme_doc() -> dict:
    """a = b = t^-1 u_{1,1/8} at p = 2, the README example."""
    sym = Sym(-1, 1.0, None, {Fraction(0): (Fraction(1, 8), 0.0)})
    return {"a": sym.node(), "b": sym.node(), "p": "2/1"}


FOUR_JUMP = Sym(
    0,
    1.0,
    None,
    {
        Fraction(0): (Fraction(-1, 4), 0.0),
        Fraction(1, 2): (Fraction(1), 0.0),
        Fraction(1, 4): (Fraction(-1, 8), 0.0),
        Fraction(3, 4): (Fraction(-1, 8), 0.0),
    },
)
# criterion 1 of the acceptance gate: winding n of c at each p, and the two
# exact failure points
FOUR_JUMP_TABLE = {Fraction(2): 1, Fraction(3, 2): 1, Fraction(29, 25): 0, Fraction(113, 100): -1}
FOUR_JUMP_FAILURES = (Fraction(4, 3), Fraction(8, 7))


def four_jump_doc(p: Fraction | None) -> dict:
    return pair_doc(FOUR_JUMP, Sym(), p)


# -- cli_cold -----------------------------------------------------------------


def family_doc(rng: random.Random) -> tuple[dict, tuple]:
    """A single-symbol family pair with jumps at +-1, and its closed-form row."""
    tag = rng.choice(FAMILY_TAGS)
    kappa = rng.randint(-2, 2)
    beta_plus, beta_minus = dyadic(rng, -0.75, 0.75), dyadic(rng, -0.75, 0.75)
    p = rng.choice(P_CHOICES[:3])
    a = Sym(kappa, 1.0, None, {Fraction(0): (beta_plus, 0.0), Fraction(1, 2): (beta_minus, 0.0)})
    b = {
        "APlusHA": a,
        "AMinusHA": Sym(kappa, -1.0, None, a.jumps),
        "AMinusHtInvA": Sym(kappa - 1, -1.0, None, a.jumps),
        "APlusHtA": Sym(kappa + 1, 1.0, None, a.jumps),
    }[tag]
    doc = {"a": a.node(), "b": b.node(), "p": p_text(p)}
    return doc, (tag,) + family_table(tag, kappa, beta_plus, beta_minus, p)


def hankel_identity_doc(rng: random.Random) -> dict:
    """I + H(phi~): a = 1 and b = 1/phi for a unimodular phi."""
    phi = structural_c(rng)
    inv_phi = Sym(
        -phi.kappa,
        1.0 / phi.scale,
        {k: -v for k, v in phi.log.items()},
        {t: (-re, -im) for t, (re, im) in phi.jumps.items()},
    )
    p = rng.choice(P_CHOICES)
    return {"a": Sym().node(), "b": inv_phi.node(), "p": p_text(p)}


def non_fmatrix_doc(rng: random.Random) -> dict:
    """A seeded general pair whose defect numbers need no rho (or that fails the gate)."""
    while True:
        doc = pair_doc(structural_c(rng), generic_b(rng), rng.choice(P_CHOICES))
        ref = expected(doc, doc_p(doc))
        if ref.verdict != "pass" or ref.defects is not None:
            return doc


def cli_documents(rng: random.Random, count: int) -> list[tuple[str, dict, tuple | None]]:
    """(kind, document, family row) triples in a seeded order.

    Kinds rotate README, four-jump, family, identity-plus-Hankel and general
    so that every prefix of the list has nearly the same mix.
    """
    four_ps = list(FOUR_JUMP_TABLE) + list(FOUR_JUMP_FAILURES)
    out = []
    for i in range(count):
        kind = ("readme", "four-jump", "family", "hankel", "general")[i % 5]
        if kind == "readme":
            row = family_table("APlusHA", -1, Fraction(1, 8), Fraction(0), Fraction(2))
            out.append((kind, readme_doc(), ("APlusHA",) + row))
        elif kind == "four-jump":
            out.append((kind, four_jump_doc(rng.choice(four_ps)), None))
        elif kind == "family":
            doc, row = family_doc(rng)
            out.append((kind, doc, row))
        elif kind == "hankel":
            while True:
                doc = hankel_identity_doc(rng)
                ref = expected(doc, doc_p(doc))
                if ref.verdict != "pass" or ref.defects is not None:
                    break
            out.append((kind, doc, None))
        else:
            out.append((kind, non_fmatrix_doc(rng), None))
    return out


# -- defects_fmatrix ----------------------------------------------------------

JACOBI_EXPONENTS = (Fraction(-2, 5), Fraction(0), Fraction(3, 10), Fraction(7, 10))
JACOBI_KAPPAS = (1, 2, 3, 4)


def jacobi_doc(alpha: Fraction, beta: Fraction, kappa: int) -> dict:
    """a = 1, b = 1/phi with phi = t^{2 kappa} u_{1,alpha+1/2} u_{-1,beta-1/2}.

    The exponents are criterion 4's, not dyadic; this document goes to the
    library as objects, never through JSON.
    """
    b = Sym(
        -2 * kappa,
        1.0,
        None,
        {Fraction(0): (-(alpha + Fraction(1, 2)), 0.0), Fraction(1, 2): (-(beta - Fraction(1, 2)), 0.0)},
    )
    return {"a": Sym().node(), "b": b.node(), "p": "2/1"}


def jacobi_rounds(rng: random.Random) -> list[list[tuple[Fraction, Fraction, int]]]:
    """The 64-case grid as four rounds of 16 (alpha, beta) cases each.

    Round r gives case (i, j) the kappa at position (i + j + r) mod 4 of a
    seeded permutation: a Latin square, so every round holds each exponent
    pair once and each kappa four times, and the four rounds cover the grid.
    """
    kappas = list(JACOBI_KAPPAS)
    rng.shuffle(kappas)
    rounds = []
    for r in range(4):
        cases = [
            (alpha, beta, kappas[(i + j + r) % 4])
            for i, alpha in enumerate(JACOBI_EXPONENTS)
            for j, beta in enumerate(JACOBI_EXPONENTS)
        ]
        rng.shuffle(cases)
        rounds.append(cases)
    rng.shuffle(rounds)
    return rounds


def fmatrix_doc(rng: random.Random) -> dict:
    """A seeded general pair that passes the gate with n >= 1 and m >= 1.

    The sites are fixed: c jumps at 1 and -1 only and b is smooth.  rho
    settles early on every pair of this shape.  Pairs with more sites mostly
    run rho to its order cap, but about one in seven settles early, and that
    choice, made by the seed, moved a run's total time by a tenth.
    """
    while True:
        c = structural_c(rng, kappas=range(0, 5), pairs=0)
        b = generic_b(rng, kappas=range(-4, 0), jumps=0)
        doc = pair_doc(c, b, rng.choice(P_CHOICES[:3]))
        ref = expected(doc, doc_p(doc))
        if ref.verdict == "pass" and ref.defects is None:
            return doc


# -- exact_sweep --------------------------------------------------------------

# steps of 1/84 from 85/84 to 3 hit 8/7 = 96/84, 4/3 = 112/84, 3/2 and 2 exactly
SWEEP_FROM, SWEEP_TO, SWEEP_STEPS = Fraction(85, 84), Fraction(3), 168


def sweep_doc(rng: random.Random) -> dict:
    """A seeded general pair with a fixed site count, so every seed costs the same.

    c has jumps at 1, -1 and two conjugate pairs; b has two jumps.
    """
    return pair_doc(structural_c(rng, pairs=2), generic_b(rng, jumps=2), None)


# -- verify_oracle ------------------------------------------------------------


def golden_docs(rng: random.Random) -> list[tuple[str, dict]]:
    """Twenty pairs in the shape of the golden kernel instances.

    Twelve smooth pairs with seeded log data and n = n0, m = -n0 - kb; four
    monomial pairs; four jump pairs with empty kernels.
    """
    smooth_grid = [
        (0, -1, 2), (0, -2, 2), (0, -3, Fraction(3, 2)), (-1, 0, 2), (-1, 1, 2),
        (-1, -1, Fraction(3, 2)), (-2, 0, 2), (-2, 2, 3), (-2, 1, 2), (-3, 0, 2),
        (-3, 3, 2), (0, 1, 2),
    ]
    out = []
    for i, (n0, kb, p) in enumerate(smooth_grid):
        v1 = complex(dyadic(rng, -0.3, 0.3, 256), dyadic(rng, -0.2, 0.2, 256))
        v2 = complex(dyadic(rng, -0.15, 0.15, 256), dyadic(rng, -0.1, 0.1, 256))
        c = Sym(2 * n0, 1.0, {1: v1, -1: -v1, 2: v2, -2: -v2})
        scale = complex(dyadic(rng, 0.5, 1.5, 256), dyadic(rng, -0.5, 0.5, 256))
        log_b = {k: complex(dyadic(rng, -0.2, 0.2, 256), dyadic(rng, -0.2, 0.2, 256)) for k in (-1, 1)}
        out.append((f"smooth-{i}", pair_doc(c, Sym(kb, scale, log_b), Fraction(p))))
    for i, (kappa, sign, p) in enumerate(
        [(-1, 1.0, 2), (-2, 1.0, 2), (-1, -1.0, Fraction(3, 2)), (1, 1.0, 2)]
    ):
        mono = Sym(kappa, sign).node()
        out.append((f"monomial-{i}", {"a": mono, "b": mono, "p": p_text(p)}))
    eighth, fifth, tenth = Fraction(1, 8), Fraction(1, 5), Fraction(1, 10)
    jump_syms = [
        (Sym(1, 1.0, None, {Fraction(0): (eighth, 0.0)}), 2),
        (Sym(2, 1.0, None, {Fraction(1, 2): (-eighth, 0.0)}), 2),
        (Sym(1, 1.0, None, {Fraction(1, 4): (tenth, 0.0), Fraction(3, 4): (tenth, 0.0)}), Fraction(3, 2)),
        (Sym(1, -1.0, None, {Fraction(0): (fifth, 0.0), Fraction(1, 2): (-fifth, 0.0)}), 2),
    ]
    for i, (sym, p) in enumerate(jump_syms):
        out.append((f"jump-{i}", {"a": sym.node(), "b": sym.node(), "p": p_text(p)}))
    return out

