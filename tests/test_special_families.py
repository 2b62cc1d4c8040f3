"""Structured families: classification, interval tables, the I+H split."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from th_fredholm.defect_solver import defect_numbers
from th_fredholm.fredholm_engine import NotFredholm, normalized_pair
from th_fredholm.special_families import (
    A_MINUS_HA,
    A_MINUS_HTINV_A,
    A_PLUS_HA,
    A_PLUS_HT_A,
    GENERAL,
    ID_PLUS_HANKEL,
    classify_family,
    family_b,
    family_fredholm,
    hankel_identity_report,
)
from th_fredholm.symbol_core import (
    CanonicalSymbol,
    Exponent,
    JumpFactor,
    MINUS_ONE,
    ONE,
    UnitPoint,
    invert,
    jump_unit,
    multiply,
    validate_pair,
)
from helpers import (
    family_lows,
    hankel_split_factors,
    jacobi_determinant,
    jacobi_symbol,
    rho_at,
    rho_for_pair,
    rotate_half,
    unimodular_symbol,
)

A_DRIVEN = (A_PLUS_HA, A_MINUS_HA, A_MINUS_HTINV_A, A_PLUS_HT_A)


def family_pair(a, tag):
    return validate_pair(a, family_b(a, tag))


def mixed_symbol():
    return CanonicalSymbol(
        kappa=1,
        scale=1.0,
        log_smooth={1: 0.1 - 0.05j, -1: 0.2},
        jumps=(
            JumpFactor(ONE, Exponent(Fraction(1, 8))),
            JumpFactor(MINUS_ONE, Exponent(Fraction(-1, 8), 0.1)),
            JumpFactor(UnitPoint(1, 6), Exponent(Fraction(1, 10))),
            JumpFactor(UnitPoint(5, 6), Exponent(Fraction(1, 5))),
        ),
    )


def test_classify_precedence():
    a = mixed_symbol()
    one = CanonicalSymbol.one()
    assert classify_family(validate_pair(one, one)) == ID_PLUS_HANKEL
    assert classify_family(validate_pair(one, invert(jacobi_symbol(0, 0, 1)))) == ID_PLUS_HANKEL
    for tag in A_DRIVEN:
        assert classify_family(validate_pair(a, family_b(a, tag))) == tag
    shifted = multiply(CanonicalSymbol.monomial(2), a)
    assert classify_family(validate_pair(a, shifted)) == GENERAL


def test_family_b_rejects_hankel_tag():
    with pytest.raises(ValueError):
        family_b(CanonicalSymbol.one(), ID_PLUS_HANKEL)
    one = CanonicalSymbol.one()
    with pytest.raises(ValueError):
        family_fredholm(validate_pair(one, one), ID_PLUS_HANKEL, 2)
    a = mixed_symbol()
    with pytest.raises(ValueError):
        family_fredholm(validate_pair(a, family_b(a, A_MINUS_HA)), A_PLUS_HA, 2)


def test_monomial_kernel_dimension():
    a = CanonicalSymbol.monomial(-1)
    report = family_fredholm(validate_pair(a, a), A_PLUS_HA, 2)
    # kappa = n - m is minus the index
    assert report.defect.index == 1
    assert (report.defect.dim_ker, report.defect.dim_coker) == (1, 0)


def test_interval_contrast_between_families():
    # same symbol, same p: the beta+ windows (-3/4, 1/4) and (-1/4, 3/4)
    # land in different translates, so the winding differs by one
    a = jump_unit(0, 1, Fraction(1, 2))
    plus = family_fredholm(family_pair(a, A_PLUS_HA), A_PLUS_HA, 2)
    assert -plus.defect.index == 1
    assert plus.beta_plus == Exponent(Fraction(-1, 2))
    assert (plus.defect.dim_ker, plus.defect.dim_coker) == (0, 1)
    mixed = family_fredholm(family_pair(a, A_MINUS_HTINV_A), A_MINUS_HTINV_A, 2)
    assert -mixed.defect.index == 0
    assert mixed.beta_plus == Exponent(Fraction(1, 2))
    assert (mixed.defect.dim_ker, mixed.defect.dim_coker) == (0, 0)


def test_boundary_tie_is_an_error():
    # an exponent on its window edge is an exact failure of the gate
    a = jump_unit(0, 1, Fraction(1, 4))
    with pytest.raises(NotFredholm) as err:
        family_fredholm(family_pair(a, A_PLUS_HA), A_PLUS_HA, 2)
    assert err.value.report.overall == "fail"
    assert [s.point for s in err.value.report.failures()] == [ONE]
    flat = jump_unit(1, 6, Fraction(3, 10))
    tied = multiply(flat, jump_unit(5, 6, Fraction(1, 5)))
    with pytest.raises(NotFredholm) as err:
        family_fredholm(family_pair(tied, A_PLUS_HA), A_PLUS_HA, 2)
    assert err.value.report.overall == "fail"
    assert [s.point for s in err.value.report.failures()] == [UnitPoint(1, 6)]


def test_pair_sum_drives_placement():
    a = multiply(jump_unit(1, 6, Fraction(2, 5)), jump_unit(5, 6, Fraction(3, 10)))
    report = family_fredholm(family_pair(a, A_PLUS_HA), A_PLUS_HA, 2)
    assert -report.defect.index == 1
    pt, up, down = report.pairs[0]
    assert pt == UnitPoint(1, 6)
    assert up == Exponent(Fraction(2, 5) - 1)
    assert down == Exponent(Fraction(3, 10))


def test_minus_family_matches_rotated_plus_family():
    a = mixed_symbol()
    minus = family_fredholm(family_pair(a, A_MINUS_HA), A_MINUS_HA, Fraction(3, 2))
    rotated = rotate_half(a)
    plus = family_fredholm(family_pair(rotated, A_PLUS_HA), A_PLUS_HA, Fraction(3, 2))
    assert minus.defect.index == plus.defect.index
    assert (minus.defect.dim_ker, minus.defect.dim_coker) == (plus.defect.dim_ker, plus.defect.dim_coker)


def test_family_tables_agree_with_general_pipeline():
    # the family winding must equal n - m of the general normalization and
    # the winding of a placement done here, over betas, windings, tags, and
    # exponents; denominator 101 keeps every exponent off the window edges
    rng = np.random.default_rng(2024)
    p_values = (Fraction(3, 2), 2, 3)
    for _ in range(40):
        a = CanonicalSymbol(
            kappa=int(rng.integers(-2, 3)),
            scale=float(rng.choice([1.0, -1.0])),
            log_smooth={1: complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))},
            jumps=(
                JumpFactor(ONE, Exponent(Fraction(int(rng.integers(-45, 46)), 101))),
                JumpFactor(MINUS_ONE, Exponent(Fraction(int(rng.integers(-45, 46)), 101))),
                JumpFactor(UnitPoint(1, 7), Exponent(Fraction(int(rng.integers(-20, 21)), 101))),
                JumpFactor(UnitPoint(6, 7), Exponent(Fraction(int(rng.integers(-20, 21)), 101))),
            ),
        )
        tag = A_DRIVEN[int(rng.integers(0, 4))]
        p = p_values[int(rng.integers(0, 3))]
        pair = family_pair(a, tag)
        report = family_fredholm(pair, tag, p)
        rep_c, rep_d = normalized_pair(pair, p)
        kappa = -report.defect.index
        assert kappa == rep_c.n - rep_d.n
        # c is a monomial whose normalization has n = 0, so the defect numbers are counted
        assert report.defect.n == 0 and report.defect.case_tag in ("G-count", "F-count")
        lo_plus, lo_minus = family_lows(tag, Fraction(p))
        pair_sum = a.beta_at(UnitPoint(1, 7)).re + a.beta_at(UnitPoint(6, 7)).re
        moved = (
            math.floor(a.beta_at(ONE).re - lo_plus)
            + math.floor(a.beta_at(MINUS_ONE).re - lo_minus)
            + math.floor(pair_sum - (1 / Fraction(p) - 1))
        )
        assert kappa == a.kappa + moved
        assert report.defect.dim_ker == max(0, -kappa)
        assert report.defect.dim_coker == max(0, kappa)


def test_hankel_identity_trivial_symbol():
    one = CanonicalSymbol.one()
    pair = validate_pair(one, one)
    assert classify_family(pair) == ID_PLUS_HANKEL
    report = hankel_identity_report(pair, 2)
    assert (report.defect.dim_ker, report.defect.dim_coker) == (0, 0)
    assert report.defect.n == 0 and report.defect.m == 0
    assert (report.n_plus, report.n_minus, report.pair_signs) == (0, 0, ())
    # rho for the trivial pair is (1+t)(1+1/t); the split keeps all of it
    # in rho0 through the v factor at -1 with exponent gamma+delta+1 = 1
    x = np.linspace(0.3, 5.9, 7)
    rho0, rho1 = hankel_split_factors(report)
    assert np.allclose(rho0(x), 2 + 2 * np.cos(x), atol=1e-12)
    assert np.allclose(rho1(x), 1.0, atol=1e-12)


@pytest.mark.parametrize("p", [3, Fraction(3, 2), 2])
def test_hankel_split_reconstructs_rho(p):
    pt = UnitPoint(1, 4)
    beta = Exponent(Fraction(2, 5))
    phi = CanonicalSymbol(
        kappa=0,
        scale=1.0,
        log_smooth={1: 0.2, -1: -0.2},
        jumps=(JumpFactor(pt, beta), JumpFactor(pt.conjugate(), beta)),
    )
    pair = validate_pair(CanonicalSymbol.one(), invert(phi))
    rho0, rho1 = hankel_split_factors(hankel_identity_report(pair, p))
    _, _, rho = rho_for_pair(pair, p, 24)
    x = np.linspace(0.05, 2 * np.pi - 0.05, 100)
    split = rho0(x) * rho1(x)
    assert np.max(np.abs(split - rho_at(rho, x))) < 1e-8


def test_hankel_split_sign_counts():
    pt = UnitPoint(1, 4)
    beta = Exponent(Fraction(2, 5))
    phi = CanonicalSymbol(
        kappa=0,
        scale=1.0,
        log_smooth={1: 0.2, -1: -0.2},
        jumps=(JumpFactor(pt, beta), JumpFactor(pt.conjugate(), beta)),
    )
    pair = validate_pair(CanonicalSymbol.one(), invert(phi))
    by_p = {p: hankel_identity_report(pair, p).pair_signs[0][1] for p in (3, Fraction(3, 2), 2)}
    assert by_p == {3: -1, Fraction(3, 2): 1, 2: 0}


def test_hankel_index_sign_and_difference_range():
    rng = np.random.default_rng(33)
    one = CanonicalSymbol.one()
    for _ in range(50):
        phi = unimodular_symbol(rng)
        pair = validate_pair(one, invert(phi))
        for p, allowed in ((Fraction(3, 2), {0, 1}), (2, {0}), (3, {0, -1})):
            rep_c, rep_d = normalized_pair(pair, p)
            index = rep_d.n - rep_c.n
            if p == 2:
                assert index == 0
            elif p < 2:
                assert index >= 0
            else:
                assert index <= 0
            deltas = dict(rep_d.gammas)
            diffs = [
                rep_c.gamma_plus - rep_d.gamma_plus,
                rep_c.gamma_minus - rep_d.gamma_minus,
            ]
            diffs.extend(g - deltas[pt] for pt, g in rep_c.gammas)
            for d in diffs:
                assert d.re.denominator == 1 and int(d.re) in allowed
                assert abs(d.im) < 1e-12


def test_jacobi_determinant_domain_errors():
    with pytest.raises(ValueError):
        jacobi_determinant(0.0, 0.0, 0)
    with pytest.raises(ValueError):
        jacobi_determinant(-1.0, 0.0, 1)
    with pytest.raises(ValueError):
        jacobi_determinant(0.3, -1.5, 2)


def test_jacobi_moment_integral_oracle():
    # for kappa = 1 the determinant is 4/pi times the mass of the weight
    for alpha, beta in [(0.0, 0.0), (0.5, 0.0), (-0.4, 0.7), (0.3, 0.3)]:
        mass, _ = quad(
            lambda x: (2 - 2 * x) ** alpha * (2 + 2 * x) ** beta, -1, 1
        )
        closed = jacobi_determinant(alpha, beta, 1).determinant
        assert abs(closed - 4 * mass / np.pi) / abs(closed) < 1e-8
    exact = jacobi_determinant(0.0, 0.0, 1).determinant
    assert abs(exact - 8 / np.pi) < 1e-12


@pytest.mark.parametrize("alpha,beta,kappa", [(0.0, 0.0, 1), (0.3, -0.4, 2), (-0.4, 0.7, 3)])
def test_jacobi_determinant_matches_assembled_matrix(alpha, beta, kappa):
    phi = jacobi_symbol(Fraction(alpha).limit_denominator(10), Fraction(beta).limit_denominator(10), kappa)
    pair = validate_pair(CanonicalSymbol.one(), invert(phi))
    report = defect_numbers(pair, 2)
    assert report.n == kappa and report.m == kappa
    assert (report.dim_ker, report.dim_coker) == (0, 0)
    closed = jacobi_determinant(alpha, beta, kappa).determinant
    assembled = np.linalg.det(report.matrix.matrix)
    assert abs(assembled - closed) / abs(closed) < 1e-6


def test_invertibility_of_two_endpoint_symbols():
    one = CanonicalSymbol.one()
    inside = validate_pair(one, invert(jacobi_symbol(0, 0, 1)))
    report = defect_numbers(inside, 2)
    assert (report.dim_ker, report.dim_coker) == (0, 0)
    # Fredholm of index 0, but not invertible
    negative = validate_pair(one, invert(CanonicalSymbol.monomial(-2)))
    report = defect_numbers(negative, 2)
    assert (report.dim_ker, report.dim_coker) == (1, 1)
