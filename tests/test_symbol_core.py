import cmath
import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from th_fredholm.symbol_core import (
    STRUCTURAL_TOL,
    CanonicalSymbol,
    ConditionViolated,
    EvalAtJump,
    Exponent,
    FourierLogPoly,
    JumpFactor,
    SymbolPair,
    UnitPoint,
    eval_many,
    invert,
    jump_unit,
    multiply,
    one_sided_limits,
    symbols_equal,
    tilde,
    validate_pair,
)

from helpers import eval_symbol, random_generic_b, rotate_half


def example_c():
    # u(1, -1/4) * u(-1, 1) * u(i, -1/8) * u(-i, -1/8)
    return CanonicalSymbol(
        jumps=(
            JumpFactor(UnitPoint(0, 1), Exponent(Fraction(-1, 4))),
            JumpFactor(UnitPoint(1, 2), Exponent(Fraction(1))),
            JumpFactor(UnitPoint(1, 4), Exponent(Fraction(-1, 8))),
            JumpFactor(UnitPoint(3, 4), Exponent(Fraction(-1, 8))),
        )
    )


def test_unit_point_reduces_and_conjugates():
    p = UnitPoint(6, 8)
    assert (p.num, p.den) == (3, 4)
    assert p.conjugate() == UnitPoint(1, 4)
    assert UnitPoint(0, 5).conjugate() == UnitPoint(0, 1)
    assert UnitPoint(1, 2).conjugate() == UnitPoint(1, 2)
    assert UnitPoint(1, 4).in_upper_half
    assert not UnitPoint(3, 4).in_upper_half
    assert not UnitPoint(0, 1).in_upper_half
    assert UnitPoint(2, 4).is_minus_one


def test_records_order_hash_and_freeze_by_value():
    points = [UnitPoint(3, 4), UnitPoint(1, 2), UnitPoint(1, 4), UnitPoint(0, 1), UnitPoint(1, 3)]
    # ordered as the tuple (num, den), not by angle
    assert sorted(points) == [UnitPoint(0, 1), UnitPoint(1, 2), UnitPoint(1, 3), UnitPoint(1, 4), UnitPoint(3, 4)]
    assert UnitPoint(1, 4) <= UnitPoint(2, 8) and UnitPoint(3, 4) > UnitPoint(1, 2) >= UnitPoint(1, 2)
    equal = [
        (UnitPoint(6, 8), UnitPoint(3, 4)),
        (Exponent(Fraction(1, 2), 0.5), Exponent(Fraction(2, 4), 0.5)),
        (example_c(), example_c()),
    ]
    for x, y in equal:
        assert x == y and x is not y and hash(x) == hash(y)
        assert {x: "x"}[y] == "x"
    assert UnitPoint(1, 4) != UnitPoint(1, 3) and Exponent(Fraction(1)) != Exponent(Fraction(1), 1e-3)
    for record, field in [(UnitPoint(1, 4), "num"), (Exponent(Fraction(1)), "im"), (example_c(), "jumps")]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    # the keyword and positional constructors of bench/workloads.to_pair
    jump = JumpFactor(UnitPoint(5, 4), Exponent(Fraction(0.25), 0.0))
    s = CanonicalSymbol(kappa=-1, scale=complex(2.0, 0.0), log_smooth={1: 0.5j, -1: 0.5j, 2: 0j}, jumps=(jump,))
    assert (s.kappa, s.scale, s.log_smooth.coeffs) == (-1, 2.0, ((-1, 0.5j), (1, 0.5j)))
    assert s.jumps == (JumpFactor(UnitPoint(1, 4), Exponent(Fraction(1, 4))),)
    assert repr(jump) == "JumpFactor(point=UnitPoint(num=1, den=4), beta=Exponent(re=Fraction(1, 4), im=0.0))"
    # a field missing, unknown, given twice or one too many is a TypeError; a trailing field takes its default
    c = example_c()
    wrong = [((c, c, c), {}), ((c, c, c, c), {"e": c}), ((c,), {"a": c, "b": c, "c": c, "d": c}), ((c,) * 5, {})]
    for args, kwargs in wrong:
        with pytest.raises(TypeError):
            SymbolPair(*args, **kwargs)
    assert SymbolPair(d=c, c=c, b=c, a=c) == SymbolPair(c, c, c, c) and FourierLogPoly().coeffs == ()
    assert pickle.loads(pickle.dumps(s)) == s == copy.deepcopy(s)


def test_jump_unit_minus_t_identity():
    # u(1, 1)(t) = -t on the circle
    s = jump_unit(0, 1, 1)
    for x in (0.3, math.pi / 2, 2.0, 5.9):
        z = cmath.exp(1j * x)
        assert eval_symbol(s, x) == pytest.approx(-z)


def test_jump_unit_inverse_monomials():
    # u(-1, -1)(t) = 1/t and u(-1, 1)(t) = t
    s_inv = jump_unit(1, 2, -1)
    s_t = jump_unit(1, 2, 1)
    for x in (0.1, 1.7, 4.4):
        z = cmath.exp(1j * x)
        assert eval_symbol(s_inv, x) == pytest.approx(1 / z)
        assert eval_symbol(s_t, x) == pytest.approx(z)


def test_eval_at_jump_raises():
    s = jump_unit(1, 4, Fraction(1, 3))
    with pytest.raises(EvalAtJump):
        eval_symbol(s, math.pi / 2)
    with pytest.raises(EvalAtJump):
        eval_many(s, np.array([0.3, math.pi / 2]))
    # the 1e-13 guard on both sides of a jump, across 0 = 2 pi too
    with pytest.raises(EvalAtJump):
        eval_many(s, np.array([0.3, math.pi / 2 + 1e-14]))
    with pytest.raises(EvalAtJump):
        eval_many(jump_unit(0, 1, Fraction(1, 3)), np.array([0.3, 2 * math.pi - 1e-14]))


def test_example_c_value_at_pi_over_4():
    # phases at x = pi/4: 3pi/16 + pi/4 - 3pi/32 + pi/32 = 3pi/8
    c = example_c()
    assert eval_symbol(c, math.pi / 4) == pytest.approx(cmath.exp(3j * math.pi / 8))


def test_one_sided_limits_single_jump():
    beta = Exponent(Fraction(1, 3), 0.25)
    s = jump_unit(0, 1, beta)
    minus, plus = one_sided_limits(s, UnitPoint(0, 1))
    assert minus == pytest.approx(cmath.exp(1j * math.pi * beta.value))
    assert plus == pytest.approx(cmath.exp(-1j * math.pi * beta.value))
    # ratio of limits is the jump ratio
    assert minus / plus == pytest.approx(cmath.exp(2j * math.pi * beta.value))


def test_one_sided_limits_match_nearby_values():
    c = example_c()
    for pt in c.jump_points:
        minus, plus = one_sided_limits(c, pt)
        h = 1e-9
        assert eval_symbol(c, pt.angle - h) == pytest.approx(minus, rel=1e-6)
        assert eval_symbol(c, pt.angle + h) == pytest.approx(plus, rel=1e-6)


def test_one_sided_limits_where_one_factor_overflows():
    # exp(L(i)) = e^750 passes the largest float on its own; the jump at -1
    # with Im beta = 480 contributes e^(-240*pi) there, and the sum of the
    # exponents is about -3.98
    s = CanonicalSymbol(
        log_smooth={1: -750j},
        jumps=(
            JumpFactor(UnitPoint(1, 4), Exponent(Fraction(1, 4))),
            JumpFactor(UnitPoint(1, 2), Exponent(Fraction(0), 480.0)),
        ),
    )
    minus, plus = one_sided_limits(s, UnitPoint(1, 4))
    modulus = math.exp(750 - 240 * math.pi)
    assert plus == pytest.approx(modulus * cmath.exp(-0.25j * math.pi), rel=1e-12)
    assert minus == pytest.approx(modulus * cmath.exp(0.25j * math.pi), rel=1e-12)


def test_one_sided_limits_continuous_point():
    s = jump_unit(0, 1, Fraction(1, 2))
    minus, plus = one_sided_limits(s, UnitPoint(1, 2))
    assert minus == plus == pytest.approx(eval_symbol(s, math.pi))


def test_tilde_is_involution_and_matches_pointwise():
    s = CanonicalSymbol(
        kappa=2,
        scale=-1.5 + 0.25j,
        log_smooth={1: 0.3 - 0.1j, -2: 0.05j},
        jumps=(JumpFactor(UnitPoint(1, 3), Exponent(Fraction(1, 5), -0.125)),),
    )
    st = tilde(s)
    assert symbols_equal(tilde(st), s)
    for x in (0.7, 2.2, 5.0):
        assert eval_symbol(st, x) == pytest.approx(eval_symbol(s, -x))


def test_multiply_and_invert_pointwise():
    s1 = jump_unit(0, 1, Fraction(1, 4), kappa=1, scale=2.0)
    s2 = CanonicalSymbol(kappa=-2, scale=0.5j, log_smooth={1: 0.2})
    prod = multiply(s1, s2)
    inv = invert(s1)
    for x in (0.4, 3.3):
        assert eval_symbol(prod, x) == pytest.approx(eval_symbol(s1, x) * eval_symbol(s2, x))
        assert eval_symbol(inv, x) == pytest.approx(1 / eval_symbol(s1, x))


def test_jump_merging_and_zero_drop():
    s = CanonicalSymbol(
        jumps=(
            JumpFactor(UnitPoint(1, 4), Exponent(Fraction(1, 3))),
            JumpFactor(UnitPoint(2, 8), Exponent(Fraction(-1, 3))),
            JumpFactor(UnitPoint(1, 2), Exponent(Fraction(1, 7))),
        )
    )
    assert s.jump_points == (UnitPoint(1, 2),)
    assert s.beta_at(UnitPoint(1, 4)).is_zero


def test_jumps_sorted_by_angle():
    s = CanonicalSymbol(
        jumps=(
            JumpFactor(UnitPoint(3, 4), Exponent(Fraction(1, 9))),
            JumpFactor(UnitPoint(0, 1), Exponent(Fraction(1, 9))),
            JumpFactor(UnitPoint(1, 3), Exponent(Fraction(1, 9))),
        )
    )
    assert s.jump_points == (UnitPoint(0, 1), UnitPoint(1, 3), UnitPoint(3, 4))


def test_rotate_half_pointwise():
    s = CanonicalSymbol(
        kappa=3,
        scale=1.5,
        log_smooth={1: 0.2, -1: -0.2, 2: 0.1j},
        jumps=(JumpFactor(UnitPoint(1, 8), Exponent(Fraction(2, 5))),),
    )
    r = rotate_half(s)
    for x in (0.2, 1.9, 4.1):
        assert eval_symbol(r, x) == pytest.approx(eval_symbol(s, x + math.pi))


def test_eval_many_agrees_with_scalar():
    s = CanonicalSymbol(
        kappa=-1,
        scale=2.0 - 1.0j,
        log_smooth={2: 0.3, -2: -0.3, 1: 0.1j},
        jumps=(
            JumpFactor(UnitPoint(1, 6), Exponent(Fraction(1, 3), 0.2)),
            JumpFactor(UnitPoint(5, 6), Exponent(Fraction(1, 3), 0.2)),
        ),
    )
    xs = 2 * math.pi * (np.arange(97) + 0.413) / 97
    vals = eval_many(s, xs)
    for x, v in zip(xs, vals):
        assert v == pytest.approx(eval_symbol(s, x))


def test_validate_pair_trivial():
    b = CanonicalSymbol(kappa=-1, log_smooth={1: 0.2, 2: -0.1j})
    pair = validate_pair(b, b)
    # c = a/b = 1, d = a~/b
    assert symbols_equal(pair.c, CanonicalSymbol.one())
    assert pair.d.kappa == 2


def test_validate_pair_builds_unimodular_aux():
    # a = c*b with c built from the structural recipe, generic b
    c = example_c()
    b = CanonicalSymbol(kappa=1, scale=0.7, log_smooth={1: 0.1 - 0.2j},
                        jumps=(JumpFactor(UnitPoint(1, 3), Exponent(Fraction(1, 6), 0.1)),))
    a = multiply(c, b)
    pair = validate_pair(a, b)
    assert symbols_equal(pair.c, c)
    # c*c~ = 1 and d*d~ = 1 pointwise
    for aux in (pair.c, pair.d):
        prod = multiply(aux, tilde(aux))
        xs = 2 * math.pi * (np.arange(200) + 0.387) / 200
        assert np.max(np.abs(eval_many(prod, xs) - 1.0)) < 1e-12


def test_validate_pair_rejects_jump_mismatch():
    a = CanonicalSymbol.one()
    b = jump_unit(1, 4, Fraction(1, 2))
    with pytest.raises(ConditionViolated) as err:
        validate_pair(a, b)
    assert err.value.point == UnitPoint(1, 4)
    assert err.value.deviation > 0


def test_validate_pair_rejects_smooth_residual():
    # kappa of any a*a~ is 0, so a winding mismatch cannot occur; the reachable
    # smooth failure is a non-cancelling log part of b
    a = CanonicalSymbol.one()
    b = CanonicalSymbol(log_smooth={1: 0.3})
    with pytest.raises(ConditionViolated) as err:
        validate_pair(a, b)
    assert err.value.point is None
    assert err.value.deviation > 1e-3


def residual(a, b):
    """e = a*a~ / (b*b~), as validate_pair forms it."""
    return multiply(multiply(a, tilde(a)), invert(multiply(b, tilde(b))))


def test_validate_pair_deviation_bounds_the_sampled_maximum():
    # a = s*b: e = s*s~ keeps s's smooth log, its constant, and a pair of
    # imaginary jumps with |Im beta| <= tol that pass the jump check; the log,
    # the scale offset and the jumps are all of the order of tol, so each
    # term of the bound carries a real share of it
    rng = np.random.default_rng(2031)
    xs = 2 * math.pi * (np.arange(4096) + 0.5) / 4096
    tol = STRUCTURAL_TOL
    for _ in range(40):
        log = {int(k): complex(rng.normal(), rng.normal()) * 5 * tol for k in rng.integers(-4, 5, size=3)}
        jumps = [JumpFactor(UnitPoint(int(num), 8), Exponent(Fraction(0), float(rng.uniform(-tol, tol))))
                 for num in rng.choice(3, size=int(rng.integers(0, 3)), replace=False) + 1]
        s = CanonicalSymbol(scale=1 + tol * complex(rng.normal(), rng.normal()), log_smooth=log, jumps=jumps)
        b = random_generic_b(rng)
        sampled = float(np.max(np.abs(eval_many(residual(multiply(s, b), b), xs) - 1.0)))
        with pytest.raises(ConditionViolated) as err:
            validate_pair(multiply(s, b), b)
        assert err.value.point is None
        assert err.value.deviation >= sampled > tol


def test_validate_pair_rejects_a_residual_between_grid_points():
    # e = exp(2e-9 cos(512 x)): the old 512-point sample saw 5.9e-10 < tol
    a = CanonicalSymbol(log_smooth={512: 1e-9})
    e = residual(a, CanonicalSymbol.one())
    grid = 2 * math.pi * (np.arange(512) + 0.2026) / 512
    assert float(np.max(np.abs(eval_many(e, grid) - 1.0))) < 1e-9
    with pytest.raises(ConditionViolated) as err:
        validate_pair(a, CanonicalSymbol.one())
    assert err.value.deviation >= 2e-9


def test_exponent_arithmetic_is_exact():
    e1 = Exponent(Fraction(1, 3), 0.5)
    e2 = Exponent(Fraction(1, 6), -0.25)
    assert (e1 + e2).re == Fraction(1, 2)
    assert (e1 - e2).re == Fraction(1, 6)
    assert (-e1).re == Fraction(-1, 3)
    assert Exponent.of("3/8").re == Fraction(3, 8)
    assert Exponent.of(0.25 + 1.5j) == Exponent(Fraction(1, 4), 1.5)
