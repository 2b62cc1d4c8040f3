import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import pair_from_c_and_b, random_fredholm_pair, random_generic_b, random_structural_c
from th_fredholm.fredholm_engine import (
    BoundaryCase,
    ConditionReport,
    CurveThroughOrigin,
    NotFredholm,
    NotFredholmOnSide,
    build_hash_curve,
    exponent_pair,
    fredholm_conditions,
    fredholm_index,
    normalize,
    normalized_pair,
    p_map,
    winding_from_curve,
)
from th_fredholm.symbol_core import (
    MINUS_ONE,
    ONE,
    CanonicalSymbol,
    Exponent,
    JumpFactor,
    UnitPoint,
    eval_many,
    multiply,
    one_sided_limits,
    tilde,
    validate_pair,
)


def example_c():
    return CanonicalSymbol(
        jumps=(
            JumpFactor(UnitPoint(0, 1), Exponent(Fraction(-1, 4))),
            JumpFactor(UnitPoint(1, 2), Exponent(Fraction(1))),
            JumpFactor(UnitPoint(1, 4), Exponent(Fraction(-1, 8))),
            JumpFactor(UnitPoint(3, 4), Exponent(Fraction(-1, 8))),
        )
    )


def example_pair():
    return validate_pair(example_c(), CanonicalSymbol.one())


def gamma_table(rep):
    gammas = {pt: g.re for pt, g in rep.gammas}
    return rep.n, rep.gamma_plus.re, rep.gamma_minus.re, gammas.get(UnitPoint(1, 4))


def test_exponent_pair_exact():
    p, q = exponent_pair(1.5)
    assert p == Fraction(3, 2) and q == 3
    p, q = exponent_pair("4/3")
    assert q == 4
    with pytest.raises(ValueError):
        exponent_pair(1)


def test_normalize_example_across_p():
    c = example_c()
    expected = {
        Fraction(2): (1, Fraction(-1, 8), Fraction(-1, 2), Fraction(-1, 8)),
        Fraction(3, 2): (1, Fraction(-1, 8), Fraction(-1, 2), Fraction(-1, 8)),
        Fraction(6, 5): (0, Fraction(7, 8), Fraction(-1, 2), Fraction(-1, 8)),
        Fraction(11, 10): (-1, Fraction(7, 8), Fraction(-1, 2), Fraction(7, 8)),
    }
    for p, want in expected.items():
        assert gamma_table(normalize(c, p)) == want


def test_normalize_boundary_p_values():
    c = example_c()
    with pytest.raises(NotFredholmOnSide) as err:
        normalize(c, Fraction(4, 3))
    assert err.value.point == ONE
    with pytest.raises(NotFredholmOnSide) as err:
        normalize(c, Fraction(8, 7))
    assert err.value.point == UnitPoint(1, 4)


def test_normalize_trivial_symbol():
    rep = normalize(CanonicalSymbol.one(), 2)
    assert rep.n == 0
    assert rep.gamma_plus.is_zero and rep.gamma_minus.is_zero and rep.gammas == ()
    assert rep.reconstruct() == CanonicalSymbol.one()


def test_normalize_scale_sign_absorbed():
    # -1 = u(1,1)*u(-1,-1): the sign moves into the endpoint exponents
    c = CanonicalSymbol(scale=-1.0)
    rep = normalize(c, 2)
    recon = rep.reconstruct()
    xs = 2 * math.pi * (np.arange(64) + 0.3) / 64
    assert np.max(np.abs(eval_many(recon, xs) - eval_many(c, xs))) < 1e-12


def test_normalize_window_membership_random():
    rng = np.random.default_rng(7)
    for p in (Fraction(2), Fraction(3, 2), Fraction(5), Fraction(8, 7)):
        pf, qf = exponent_pair(p)
        for _ in range(30):
            c = random_structural_c(rng)
            try:
                rep = normalize(c, p)
            except NotFredholmOnSide:
                continue
            assert -1 / (2 * qf) < rep.gamma_plus.re < Fraction(1, 2) + 1 / (2 * pf)
            assert Fraction(-1, 2) - 1 / (2 * qf) < rep.gamma_minus.re < 1 / (2 * pf)
            for _, g in rep.gammas:
                assert -1 / qf < g.re < 1 / pf


def test_conditions_trivial_pair():
    pair = validate_pair(CanonicalSymbol.one(), CanonicalSymbol.one())
    report = fredholm_conditions(pair, 2)
    assert report.fredholm
    assert len(report.sites) == 4  # both endpoints on each side
    assert all(s.verdict == "pass" for s in report.sites)


def test_conditions_monomial_pair():
    # a = 1, b = t: c = d = 1/t; the -1 site tests -1/2 against 1/(2p) + Z
    a = CanonicalSymbol.one()
    b = CanonicalSymbol.monomial(1)
    pair = validate_pair(a, b)
    for p in (2, 1.5, 7.3):
        report = fredholm_conditions(pair, p)
        assert report.fredholm
        site = next(s for s in report.sites if s.side == "c" and s.point == MINUS_ONE)
        assert site.tested == Fraction(-1, 2)
    assert fredholm_index(pair, 2) == 0


def test_conditions_flag_failing_site():
    pair = example_pair()
    report = fredholm_conditions(pair, Fraction(4, 3))
    assert report.overall == "fail"
    assert any(s.side == "c" and s.point == ONE and s.verdict == "fail" for s in report.sites)
    report = fredholm_conditions(pair, Fraction(8, 7))
    failing = [s for s in report.sites if s.verdict == "fail"]
    assert any(s.point == UnitPoint(1, 4) for s in failing)


def test_conditions_boundary_verdict():
    # p slightly off the exact boundary 4/3 trips the eps guard
    pair = example_pair()
    p = Fraction(4, 3) + Fraction(1, 10**12)
    report = fredholm_conditions(pair, p)
    assert report.overall == "boundary"
    with pytest.raises(BoundaryCase):
        fredholm_index(pair, p)


def test_index_monomial_families():
    t_inv = CanonicalSymbol.monomial(-1)
    assert fredholm_index(validate_pair(t_inv, t_inv), 2) == 1
    t_pos = CanonicalSymbol.monomial(1)
    assert fredholm_index(validate_pair(t_pos, t_pos), 2) == -1
    one = CanonicalSymbol.one()
    assert fredholm_index(validate_pair(one, one), 3.7) == 0


def test_not_fredholm_raises_from_index():
    pair = example_pair()
    with pytest.raises(NotFredholm):
        fredholm_index(pair, Fraction(4, 3))


def test_tested_arguments_match_one_sided_limits():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = random_structural_c(rng)
        report_sites = fredholm_conditions(validate_pair(c, CanonicalSymbol.one()), 2).sites
        for site in report_sites:
            if site.side != "c" or site.point not in (ONE, MINUS_ONE):
                continue
            minus, _ = one_sided_limits(c, site.point)
            phase = cmath.phase(minus) / (2 * math.pi)
            d = (phase - float(site.tested)) % 1.0
            assert min(d, 1.0 - d) < 1e-9


def test_winding_of_plain_power():
    curve = build_hash_curve(CanonicalSymbol.monomial(2), 2)
    assert winding_from_curve(curve) == 1
    curve = build_hash_curve(CanonicalSymbol.monomial(-4), 3.1)
    assert winding_from_curve(curve) == -2


def test_winding_example_table():
    c = example_c()
    for p, want in ((2, 1), (1.5, 1), (1.16, 0), (1.13, -1)):
        curve = build_hash_curve(c, p)
        assert winding_from_curve(curve) == want
        assert normalize(c, p).n == want


def test_curve_through_origin_at_exact_boundaries():
    c = example_c()
    with pytest.raises(CurveThroughOrigin):
        build_hash_curve(c, Fraction(4, 3))
    with pytest.raises(CurveThroughOrigin):
        build_hash_curve(c, Fraction(8, 7))


def test_curve_segments_tagged_and_closed():
    c = example_c()
    curve = build_hash_curve(c, 2)
    tags = curve.tags()
    assert tags[0] == "arc(0/1)"
    assert tags[-1] == "arc(1/2)"
    assert "arc(1/4)" in tags
    assert tags.count("image") == 2  # split at the jump at i
    pts = curve.points
    assert abs(pts[0] - 1.0) < 1e-12 and abs(pts[-1] - 1.0) < 1e-12


def test_curve_resolution_controls_point_count():
    c = example_c()
    small = build_hash_curve(c, 2, image_samples=256, arc_samples=16)
    large = build_hash_curve(c, 2)
    assert small.points.size < large.points.size
    assert winding_from_curve(small) == winding_from_curve(large)


def test_symbolic_geometric_agreement_randomized():
    rng = np.random.default_rng(2024)
    p_values = [Fraction(2), Fraction(3, 2), Fraction(4), Fraction(8, 7), Fraction(13, 9)]
    checked = 0
    while checked < 200:
        p = p_values[checked % len(p_values)]
        pair = random_fredholm_pair(rng, p)
        rep_c, rep_d = normalized_pair(pair, p)
        _, qf = exponent_pair(p)
        wind_c = winding_from_curve(build_hash_curve(pair.c, p, image_samples=512, arc_samples=64))
        wind_d = winding_from_curve(build_hash_curve(pair.d, qf, image_samples=512, arc_samples=64))
        assert wind_c == rep_c.n
        assert wind_d == rep_d.n
        checked += 1


def test_normalize_idempotent_and_reconstruction_pointwise():
    rng = np.random.default_rng(5)
    xs = 2 * math.pi * (np.arange(160) + 0.287) / 160
    for _ in range(40):
        c = random_structural_c(rng)
        try:
            rep = normalize(c, Fraction(7, 5))
        except NotFredholmOnSide:
            continue
        recon = rep.reconstruct()
        rep2 = normalize(recon, Fraction(7, 5))
        assert rep2 == rep
        vals_c = eval_many(c, xs)
        vals_r = eval_many(recon, xs)
        assert np.max(np.abs(vals_c - vals_r)) < 1e-9 * np.max(np.abs(vals_c))


def test_adjoint_swap_negates_index():
    rng = np.random.default_rng(31)
    for _ in range(25):
        p = Fraction(int(rng.integers(11, 40)), 10)
        pair = random_fredholm_pair(rng, p)
        _, q = exponent_pair(p)
        adj = validate_pair(tilde(pair.a), pair.b)
        rep_c, rep_d = normalized_pair(pair, p)
        adj_c, adj_d = normalized_pair(adj, q)
        # roles swap exactly: the adjoint c side is the original d side
        assert adj_c.n == rep_d.n and adj_d.n == rep_c.n
        assert fredholm_index(adj, q) == -fredholm_index(pair, p)


def on_window_edge(s: CanonicalSymbol, big_p: Fraction) -> bool:
    """Whether an exponent of s sits on a window edge, by the conditions written out.

    At 1: sigma + beta/2 in 1/2 + 1/(2P) + Z; at -1: kappa/2 + sigma + beta/2
    in 1/(2P) + Z; at an interior jump: beta in 1/P + Z.  sigma is 1/2 when
    the scale is -1, else 0.
    """
    sigma = Fraction(1, 2) if s.scale.real < 0 else Fraction(0)
    tested = [
        sigma + s.beta_at(ONE).re / 2 - Fraction(1, 2) - 1 / (2 * big_p),
        Fraction(s.kappa, 2) + sigma + s.beta_at(MINUS_ONE).re / 2 - 1 / (2 * big_p),
    ] + [j.beta.re - 1 / big_p for j in s.jumps if j.point.in_upper_half]
    return any(x.denominator == 1 for x in tested)


def test_conditions_equivalent_to_normalization():
    rng = np.random.default_rng(99)
    agree = failures = 0
    for _ in range(120):
        c = random_structural_c(rng, denom=8)
        b = random_generic_b(rng, denom=8)
        pair = pair_from_c_and_b(c, b)
        p = Fraction(2) if rng.random() < 0.5 else Fraction(4, 3)
        report = fredholm_conditions(pair, p)
        by_hand = on_window_edge(pair.c, p) or on_window_edge(pair.d, p / (p - 1))
        try:
            normalize(pair.c, p, side="c")
            normalize(pair.d, p, side="d")
            ok = True
        except NotFredholmOnSide:
            ok = False
        assert by_hand == (report.overall == "fail") == (not ok)
        agree += 1
        failures += by_hand
    assert failures > 5  # the denominator-8 grid must actually hit boundaries
    assert agree == 120


def test_p_map_four_jump_example():
    pmap = p_map(example_pair())
    assert {b.u for b in pmap.breakpoints if 0 < b.u < 1} == {Fraction(7, 8), Fraction(3, 4)}
    for p, want in ((Fraction(2), 1), (Fraction(3, 2), 1), (Fraction(29, 25), 0), (Fraction(113, 100), -1)):
        assert pmap.interval(1 / p) is not None
        assert pmap.windings(p)[0] == want


def test_p_map_agrees_with_conditions_random():
    rng = np.random.default_rng(2029)
    tiny = Fraction(1, 10**12)
    seen = set()
    for i in range(60):
        denom = 8 if i % 2 else 64
        pair = pair_from_c_and_b(random_structural_c(rng, denom=denom), random_generic_b(rng, denom=denom))
        pmap = p_map(pair)
        for b in pmap.breakpoints:
            if 0 < b.u < 1:
                report = fredholm_conditions(pair, 1 / b.u)
                assert report.overall == "fail"
                assert {(s.side, s.point) for s in report.sites if s.distance == 0} == set(b.sites)
        us = [b.u + d for b in pmap.breakpoints for d in (-tiny, tiny)]
        us += [(lo + hi) / 2 for lo, hi in zip(pmap.edges[:-1], pmap.edges[1:])]
        us += [Fraction(int(rng.integers(1, 1000)), 1000) for _ in range(8)]
        for u in us:
            if not 0 < u < 1:
                continue
            report = fredholm_conditions(pair, 1 / u)
            seen.add(report.overall)
            assert (pmap.interval(u) is None) == (report.overall != "pass")
            if report.overall == "pass":
                rep_c, rep_d = normalized_pair(pair, 1 / u)
                assert pmap.windings(1 / u) == (rep_c.n, rep_d.n)
    assert seen == {"pass", "boundary"}
