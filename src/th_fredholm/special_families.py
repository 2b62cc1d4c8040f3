"""Closed-form criteria for the structured operator families.

Four families are driven by a single symbol a: T(a)+H(a), T(a)-H(a),
T(a)-H(t^{-1}a), and T(a)+H(ta), each b = sign * t^power * a.  Then c is
+-t^{-power}, whose normalization has n = 0, and d carries every jump of a.
family_fredholm reads everything off one defect_numbers call, which gates
through fredholm_engine.normalized_pair: the normalization of d places a's
exponents in their family windows, and kappa = n - m is minus the index.
With n = 0 the defect numbers are counted (G-count or F-count), so no
family report loads numpy.  The fifth family is I+H(phi~), handled through
the general pipeline with c = d = phi: its report is the general
DefectReport plus the sign data of the symmetric split rho = rho0 * rho1,
which c = d makes exact integers.  The Jacobi determinant closed form of its
example of an invertible operator is a test reference (tests/helpers.py),
not a route of the program.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .symbol_core import (
    MINUS_ONE,
    ONE,
    CanonicalSymbol,
    Exponent,
    SymbolPair,
    UnitPoint,
    _Record,
    multiply,
    symbols_equal,
)

if TYPE_CHECKING:
    from .defect_solver import DefectReport


A_PLUS_HA = "APlusHA"
A_MINUS_HA = "AMinusHA"
A_MINUS_HTINV_A = "AMinusHtInvA"
A_PLUS_HT_A = "APlusHtA"
ID_PLUS_HANKEL = "IdPlusHankel"
GENERAL = "General"


class HankelReport(_Record, eq=False):
    """The I+H defect report and the sign data of the even/odd split rho = rho0 * rho1.

    rho1 is the sign function (-1)^{n+} times a product of symmetric square
    waves, one per jump pair whose difference gamma_r - delta_r is odd;
    n_plus and n_minus are the differences at 1 and -1, pair_signs those at
    each upper-half jump.
    """

    defect: DefectReport
    n_plus: int
    n_minus: int
    pair_signs: tuple[tuple[UnitPoint, int], ...]


class FamilyReport(_Record, eq=False):
    """A family pair's DefectReport, whose -index is the winding kappa = n - m, and a's placed exponents."""

    defect: DefectReport
    beta_plus: Exponent
    beta_minus: Exponent
    pairs: tuple[tuple[UnitPoint, Exponent, Exponent], ...]


# b = sign * t^power * a for each single-symbol family
_FAMILY_SHAPES = {
    A_PLUS_HA: (1, 0),
    A_MINUS_HA: (-1, 0),
    A_MINUS_HTINV_A: (-1, -1),
    A_PLUS_HT_A: (1, 1),
}


def classify_family(pair: SymbolPair) -> str:
    """Exact canonical-form dispatch; General when nothing matches."""
    if symbols_equal(pair.a, CanonicalSymbol.one()):
        return ID_PLUS_HANKEL
    for tag in _FAMILY_SHAPES:
        if symbols_equal(pair.b, family_b(pair.a, tag)):
            return tag
    return GENERAL


def family_b(a: CanonicalSymbol, tag: str) -> CanonicalSymbol:
    """The Hankel symbol the family tag pairs with a."""
    if tag not in _FAMILY_SHAPES:
        raise ValueError(
            f"no single-symbol pairing for tag {tag!r}; "
            "hankel_identity_report handles the identity-plus-Hankel case"
        )
    sign, power = _FAMILY_SHAPES[tag]
    b = a if sign == 1 else CanonicalSymbol(a.kappa, -a.scale, a.log_smooth, a.jumps)
    return multiply(CanonicalSymbol.monomial(power), b) if power else b


def family_fredholm(pair: SymbolPair, tag: str, p) -> FamilyReport:
    """Gate the family pair and read its exponents off the d side of its defect report.

    With b = sign * t^power * a, c is a monomial and d carries every jump of
    a, so the normalization of d places a's exponents: beta+ lands on
    (1 - sign)/4 - Re gamma+, beta- on -(1 - sign)/4 - power/2 - Re gamma-,
    and the upper exponent of each pair on -Re gamma(tau) - Re lower, with
    gamma(tau) = 0 where d has no jump.  Each is a's exponent moved by an
    integer, with its imaginary part unchanged.  The defect numbers are
    defect_numbers', which the sign of kappa = n - m alone decides, since
    n = 0.

    Raises
    ------
    ValueError
        For a tag that is not a-driven, or when pair.b is not family_b(pair.a, tag).
    NotFredholm
        From the gate in normalized_pair.
    """
    from .defect_solver import defect_numbers

    a = pair.a
    if not symbols_equal(pair.b, family_b(a, tag)):
        raise ValueError(f"b is not the {tag} partner of a")
    report = defect_numbers(pair, p)
    rep_d = report.rep_d
    sign, power = _FAMILY_SHAPES[tag]
    lift = Fraction(1 - sign, 4)
    gammas = dict(rep_d.gammas)
    pairs = []
    uppers = sorted(
        {pt if pt.in_upper_half else pt.conjugate() for pt in a.jump_points if not pt.is_one and not pt.is_minus_one},
        key=lambda pt: pt.turns,
    )
    for pt in uppers:
        up, down = a.beta_at(pt), a.beta_at(pt.conjugate())
        gamma = gammas[pt].re if pt in gammas else 0
        pairs.append((pt, Exponent(-gamma - down.re, up.im), down))
    return FamilyReport(
        defect=report,
        beta_plus=Exponent(lift - rep_d.gamma_plus.re, a.beta_at(ONE).im),
        beta_minus=Exponent(-lift - Fraction(power, 2) - rep_d.gamma_minus.re, a.beta_at(MINUS_ONE).im),
        pairs=tuple(pairs),
    )


def hankel_identity_report(pair: SymbolPair, p) -> HankelReport:
    """The defect numbers of I+H(phi~) and the sign data of the rho split.

    The operator is the pair a = 1, b = phi^{-1}, for which both auxiliary
    functions equal phi; the gamma-side normalization carries n and the
    delta-side carries m.  Both place the same exact jump data, so each
    difference gamma - delta is an integer and the imaginary parts agree.
    Defect numbers come from the general four-case dispatch, which also gates.
    """
    from .defect_solver import defect_numbers

    report = defect_numbers(pair, p)
    rep_c, rep_d = report.rep_c, report.rep_d
    deltas = dict(rep_d.gammas)
    return HankelReport(
        defect=report,
        n_plus=int(rep_c.gamma_plus.re - rep_d.gamma_plus.re),
        n_minus=int(rep_c.gamma_minus.re - rep_d.gamma_minus.re),
        pair_signs=tuple((pt, int(g.re - deltas[pt].re)) for pt, g in rep_c.gammas),
    )
