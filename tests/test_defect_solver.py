"""Defect-number dispatch, the matrix case, and the certified rank rule."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from helpers import jacobi_determinant, jacobi_symbol, random_fredholm_pair, replace, rho_for_pair
from th_fredholm.defect_solver import (
    DefectMatrix,
    InsufficientCoefficients,
    RankUndecidable,
    case_tag,
    defect_matrix,
    defect_numbers,
    rank_decision,
)
from th_fredholm import verification_oracle, wiener_hopf
from th_fredholm.fredholm_engine import BoundaryCase, NotFredholm, normalized_pair
from th_fredholm.symbol_core import (
    CanonicalSymbol,
    invert,
    jump_unit,
    multiply,
    tilde,
    validate_pair,
)


def trivial_pair():
    one = CanonicalSymbol.one()
    return validate_pair(one, one)


def pair_from_c_and_b(c, b):
    return validate_pair(multiply(c, b), b)


def test_trivial_rho_matrix_frozen():
    _, _, rho = rho_for_pair(trivial_pair(), 2, N_keep=8)
    dm = defect_matrix(rho, 2, 2)
    # entries rho_{i-j} + rho_{i+j} with rho_0 = 2, rho_{+-1} = 1, rest 0
    expected = np.array([[4.0, 2.0], [2.0, 2.0]])
    assert np.allclose(dm.matrix, expected, atol=1e-12)


def test_defect_matrix_transpose_identity():
    _, _, rho = rho_for_pair(trivial_pair(), 2, N_keep=8)
    a32 = defect_matrix(rho, 3, 2).matrix
    a23 = defect_matrix(rho, 2, 3).matrix
    assert np.allclose(a32, a23.T, atol=1e-12)


def test_defect_matrix_matches_loop_formula():
    _, _, rho = rho_for_pair(trivial_pair(), 2, N_keep=8)
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=rho.coeffs.size) + 1j * rng.normal(size=rho.coeffs.size)
    rho = replace(rho, coeffs=coeffs)
    n, m = 3, 5
    expected = np.empty((n, m), dtype=complex)
    for i in range(n):
        for j in range(m):
            expected[i, j] = rho.get(i - j) + rho.get(i + j)
    assert np.array_equal(defect_matrix(rho, n, m).matrix, expected)


def test_defect_matrix_needs_enough_coefficients():
    _, _, rho = rho_for_pair(trivial_pair(), 2, N_keep=2)
    defect_matrix(rho, 2, 1)
    with pytest.raises(InsufficientCoefficients):
        defect_matrix(rho, 2, 3)
    with pytest.raises(ValueError):
        defect_matrix(rho, 0, 2)


def hand_built(matrix, tail_bound):
    """A DefectMatrix holding matrix, over a series whose error bound is tail_bound."""
    _, _, rho = rho_for_pair(trivial_pair(), 2, N_keep=8)
    matrix = np.asarray(matrix, dtype=complex)
    n, m = matrix.shape
    return DefectMatrix(n=n, m=m, matrix=matrix, rho=replace(rho, tail_bound=tail_bound))


def test_rank_decision_zero_matrix():
    # floating point cannot certify an exact zero, so the rule refuses rather than answer
    with pytest.raises(RankUndecidable) as exc:
        rank_decision(hand_built(np.zeros((2, 2)), 0.0))
    assert exc.value.sigma_min == exc.value.perturbation_bound == 0.0


def test_rank_decision_nonsingular_scalar():
    sigma_min, delta = rank_decision(hand_built([[4.0]], 1e-15))
    assert sigma_min == 4.0
    # Weyl's term 2 eps + u |A_11| plus the SVD's u sigma_max
    assert delta == pytest.approx(2e-15 + 2 * 4.0 * 2.0**-53)


def test_rank_audit_refuses_on_large_tail():
    dm = hand_built([[4.0, 2.0], [2.0, 2.0]], 1.0)
    with pytest.raises(RankUndecidable) as exc:
        rank_decision(dm)
    # sigma_min = 3 - sqrt(5), below delta = sqrt(4) * (2 + u * 4) + 2 * u * sigma_max
    assert exc.value.sigma_min == pytest.approx(3 - 5**0.5)
    assert exc.value.perturbation_bound == pytest.approx(4.0)
    with pytest.raises(RankUndecidable) as exc:
        rank_decision(replace(dm, rho=replace(dm.rho, tail_bound=float("inf"))))
    assert exc.value.perturbation_bound == float("inf")


def near_singular_rho(tail_bound, real_rho_coefficients=wiener_hopf.rho_coefficients):
    """rho_0 = rho_1 = 1 and rho_2 = 1 + 1e-10, even: A_{2,2} = [[2, 2], [2, 2 + 1e-10]]."""

    def rho_coefficients(*args):
        rho = real_rho_coefficients(*args)
        coeffs = np.zeros(rho.coeffs.size, dtype=complex)
        for k, v in ((0, 1.0), (1, 1.0), (2, 1.0 + 1e-10)):
            coeffs[k - rho.ks.start] = coeffs[-k - rho.ks.start] = v
        return replace(rho, coeffs=coeffs, tail_bound=tail_bound)

    return rho_coefficients


def test_rank_certified_far_below_the_old_cut(monkeypatch):
    # sigma_min / sigma_max is about 1.3e-11, far below the 1e-8 * sigma_max cut the solver used to
    # apply, which called this matrix rank 1 and printed dim ker 1; rho's bound certifies rank 2
    pair = validate_pair(CanonicalSymbol.one(), invert(jacobi_symbol(Fraction(0), Fraction(0), 2)))
    monkeypatch.setattr(wiener_hopf, "rho_coefficients", near_singular_rho(1e-16))
    report = defect_numbers(pair, 2)
    assert (report.n, report.m, report.case_tag) == (2, 2, "F-matrix")
    assert (report.dim_ker, report.dim_coker) == (0, 0)
    sv = np.linalg.svd(report.matrix.matrix, compute_uv=False)
    assert sv[-1] < 1e-10 * sv[0]
    assert report.sigma_min == sv[-1] and report.perturbation_bound < 1e-14
    assert report.gap_ratio == report.sigma_min / report.perturbation_bound > 1e3
    # a bound that could move sigma_min to zero refuses, so no defect numbers are reported
    monkeypatch.setattr(wiener_hopf, "rho_coefficients", near_singular_rho(1e-10))
    with pytest.raises(RankUndecidable) as exc:
        defect_numbers(pair, 2)
    assert exc.value.sigma_min == pytest.approx(sv[-1], rel=1e-4) and exc.value.perturbation_bound > 4e-10


def test_case_partition_is_exhaustive_and_nonnegative():
    for n, m in product(range(-3, 4), repeat=2):
        tag = case_tag(n, m)
        matches = [
            ("G-zero", n > 0 and m <= 0),
            ("G-count", n <= 0 and m <= 0),
            ("F-count", n <= 0 and m > 0),
            ("F-matrix", n > 0 and m > 0),
        ]
        assert sum(hit for _, hit in matches) == 1
        assert tag == next(name for name, hit in matches if hit)
        if tag == "G-zero":
            dims = (0, n - m)
        elif tag == "G-count":
            dims = (-n, -m)
        elif tag == "F-count":
            dims = (m - n, 0)
        else:
            # any rank 0 <= r <= min(n, m) keeps both dims nonnegative
            dims = (m - min(n, m), n - min(n, m))
        assert dims[0] >= 0 and dims[1] >= 0
        assert dims[0] - dims[1] == m - n


def test_monomial_pairs_hit_counting_cases():
    t_inv = CanonicalSymbol.monomial(-1)
    rep = defect_numbers(validate_pair(t_inv, t_inv), 2)
    assert (rep.n, rep.m) == (0, 1)
    assert rep.case_tag == "F-count"
    assert (rep.dim_ker, rep.dim_coker) == (1, 0)
    rep_c, rep_d = normalized_pair(validate_pair(t_inv, t_inv), 2)
    assert rep.index == rep_d.n - rep_c.n == 1

    t_pos = CanonicalSymbol.monomial(1)
    rep = defect_numbers(validate_pair(t_pos, t_pos), 2)
    assert (rep.n, rep.m) == (0, -1)
    assert rep.case_tag == "G-count"
    assert (rep.dim_ker, rep.dim_coker) == (0, 1)

    rep = defect_numbers(trivial_pair(), 2)
    assert rep.case_tag == "G-count"
    assert (rep.dim_ker, rep.dim_coker) == (0, 0)


def test_matrix_case_on_shift_pair():
    # a = 1, b = t^-2 puts one unit of winding on each side
    pair = validate_pair(CanonicalSymbol.one(), CanonicalSymbol.monomial(-2))
    rep = defect_numbers(pair, 2)
    assert (rep.n, rep.m) == (1, 1)
    assert rep.case_tag == "F-matrix"
    assert rep.matrix is not None and rep.matrix.matrix.shape == (1, 1)
    # rho collapses to the two-sided (1+t)(1+1/t), so the entry is 2*rho_0
    assert abs(rep.matrix.matrix[0, 0] - 4.0) < 1e-10
    assert (rep.dim_ker, rep.dim_coker) == (0, 0)
    assert rep.sigma_min == pytest.approx(4.0)
    assert 0 < rep.perturbation_bound < 1e-12 and rep.gap_ratio > 1e12


def test_not_fredholm_verdict_and_error():
    c = multiply(
        multiply(jump_unit(0, 1, Fraction(-1, 4)), jump_unit(1, 2, 0, kappa=1)),
        multiply(jump_unit(1, 4, Fraction(-1, 8)), jump_unit(3, 4, Fraction(-1, 8))),
    )
    pair = pair_from_c_and_b(c, CanonicalSymbol.one())
    with pytest.raises(NotFredholm) as exc:
        defect_numbers(pair, Fraction(4, 3))
    assert exc.value.report.overall == "fail"
    with pytest.raises(BoundaryCase):
        defect_numbers(pair, Fraction(4, 3) + 1e-12)


def test_index_identity_on_random_instances():
    rng = np.random.default_rng(412)
    for p in (2, Fraction(3, 2), 3):
        for _ in range(6):
            pair = random_fredholm_pair(rng, p)
            rep = defect_numbers(pair, p)
            assert rep.dim_ker - rep.dim_coker == rep.m - rep.n
            rep_c, rep_d = normalized_pair(pair, p)
            assert rep.index == rep_d.n - rep_c.n
            assert rep.dim_ker >= 0 and rep.dim_coker >= 0


def test_transpose_duality_swaps_defect_numbers():
    rng = np.random.default_rng(997)
    for p in (2, Fraction(3, 2)):
        q = 1 / (1 - 1 / Fraction(p))
        for _ in range(4):
            pair = random_fredholm_pair(rng, p)
            rep = defect_numbers(pair, p)
            dual = validate_pair(tilde(pair.a), pair.b)
            rep_t = defect_numbers(dual, q)
            assert (rep_t.n, rep_t.m) == (rep.m, rep.n)
            assert (rep_t.dim_ker, rep_t.dim_coker) == (rep.dim_coker, rep.dim_ker)


def test_matrix_case_runs_on_quadrature_alone(monkeypatch):
    # the production rho never convolves a factor series, so it still
    # answers with the package's only convolution, the oracle's, disabled
    def refuse(a, b):
        raise AssertionError("defect_numbers reached the series route")

    monkeypatch.setattr(verification_oracle, "convolve", refuse)
    alpha, beta = Fraction(-2, 5), Fraction(7, 10)
    pair = validate_pair(CanonicalSymbol.one(), invert(jacobi_symbol(alpha, beta, 3)))
    report = defect_numbers(pair, 2)
    assert (report.n, report.m, report.case_tag) == (3, 3, "F-matrix")
    closed = jacobi_determinant(float(alpha), float(beta), 3).determinant
    assert abs(np.linalg.det(report.matrix.matrix) - closed) <= 1e-12 * abs(closed)


def scaled(s: CanonicalSymbol, k: int) -> CanonicalSymbol:
    """s with its scale multiplied by 10^k."""
    return CanonicalSymbol(s.kappa, s.scale * 10.0**k, s.log_smooth, s.jumps)


@pytest.mark.parametrize(
    "a, b",
    [
        (CanonicalSymbol.one(), CanonicalSymbol.monomial(-2)),
        (CanonicalSymbol.one(), invert(jacobi_symbol(Fraction(-2, 5), Fraction(7, 10), 3))),
        (CanonicalSymbol.one(), invert(jacobi_symbol(Fraction(3, 10), Fraction(0), 2))),
        (CanonicalSymbol.monomial(1), CanonicalSymbol.monomial(-3)),
        (CanonicalSymbol.monomial(-1), multiply(CanonicalSymbol.monomial(-3), jump_unit(1, 2, Fraction(1, 4)))),
    ],
    ids=["shift", "jacobi-3", "jacobi-2", "n2-m1", "n1-m2"],
)
def test_rank_rule_is_scale_free(a, b):
    # scaling a and b alike leaves c and d, and so (n, m), unchanged and scales rho, the
    # defect matrix and its perturbation bound by one factor: the certificate keeps its margin
    base = defect_numbers(validate_pair(a, b), 2)
    assert base.case_tag == "F-matrix"
    for k in (-200, -20, 20, 200):
        report = defect_numbers(validate_pair(scaled(a, k), scaled(b, k)), 2)
        assert (report.n, report.m, report.dim_ker, report.dim_coker) == (base.n, base.m, base.dim_ker, base.dim_coker)
        assert report.gap_ratio == pytest.approx(base.gap_ratio, rel=1e-6), k


def jacobi_grid_reports():
    """defect_numbers on criterion 4's Jacobi grid: a = 1, b = 1/phi, n = m = kappa at p = 2."""
    exponents = (Fraction(-2, 5), Fraction(0), Fraction(3, 10), Fraction(7, 10))
    return [
        defect_numbers(validate_pair(CanonicalSymbol.one(), invert(jacobi_symbol(alpha, beta, kappa))), 2)
        for kappa in (1, 2, 3, 4)
        for alpha, beta in product(exponents, repeat=2)
    ]


def test_defect_series_holds_only_what_the_matrix_reads():
    # the matrix reads rho_{i-j} and rho_{i+j}, 0 <= i < n and 0 <= j < m: 1 - m <= k <= n + m - 2
    reports = jacobi_grid_reports() + [
        defect_numbers(validate_pair(CanonicalSymbol.monomial(1), CanonicalSymbol.monomial(-3)), 2),
        defect_numbers(validate_pair(CanonicalSymbol.monomial(-1), CanonicalSymbol.monomial(-3)), 2),
    ]
    assert {(r.n, r.m) for r in reports} >= {(1, 1), (4, 4), (2, 1), (1, 2)}
    for r in reports:
        assert r.matrix.rho.ks == range(1 - r.m, r.n + r.m - 1)


def test_rho_rule_nodes_on_the_jacobi_grid():
    # each half-arc is graded down to its anchor's sliver, 2^-53 of the site's local mass, where a
    # fixed 1e-12 rad sliver and |k| <= 16 took 2,120 nodes per call
    reports = jacobi_grid_reports()
    assert len(reports) == 64
    assert np.mean([r.matrix.rho.inner_N for r in reports]) < 1000
