"""Quadrature coefficients, finite sections, and explicit kernel elements."""

import importlib
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from th_fredholm import verification_oracle
from th_fredholm.cli import Job
from th_fredholm.defect_solver import defect_numbers
from th_fredholm.fredholm_engine import build_plus_factor, normalized_pair
from th_fredholm.quadrature import _gauss_panels, _grid_cap, _log_exp_cap, _log_grid_term, panel_count
from th_fredholm.symbol_core import (
    MINUS_ONE,
    ONE,
    CanonicalSymbol,
    Exponent,
    FourierLogPoly,
    JumpFactor,
    UnitPoint,
    eval_many,
    jump_unit,
    multiply,
    validate_pair,
)
from th_fredholm.verification_oracle import (
    MethodDisagreement,
    ResidualTooLarge,
    TwoSidedSeries,
    _fourier_integrals,
    convolve,
    fourier_coeffs,
    kernel_residual_check,
    rho_de,
    symbol_parts,
)
from th_fredholm.wiener_hopf import rho_coefficients, rho_parts

from helpers import (
    finite_section,
    golden_kernel_instances,
    hankel_matrix,
    replace,
    rho_for_pair,
    sampled_fft_coeffs,
    toeplitz_matrix,
)


def smooth(kappa=0, scale=1.0, log=None):
    return CanonicalSymbol(
        kappa=kappa, scale=scale, log_smooth=FourierLogPoly.of(log or {}), jumps=()
    )


def test_monomial_coefficients():
    series = fourier_coeffs(CanonicalSymbol.monomial(3), 8)
    expected = np.zeros(17, dtype=complex)
    expected[8 + 3] = 1.0
    assert np.allclose(series.coeffs, expected, atol=1e-12)
    assert series.bound < 1e-9


def test_exponential_coefficients():
    series = fourier_coeffs(smooth(log={1: 1.0}), 12)
    for k in range(-12, 13):
        want = 1.0 / math.factorial(k) if k >= 0 else 0.0
        assert abs(series.get(k) - want) < 1e-12


def test_single_jump_against_integral_closed_form():
    beta = 0.3
    series = fourier_coeffs(jump_unit(0, 1, beta), 64)
    assert series.bound < 1e-6
    for k in range(-16, 17):
        want = math.sin(math.pi * beta) / (math.pi * (beta - k))
        assert abs(series.get(k) - want) < 2e-6


def test_single_jump_closed_form_to_order_512():
    beta = 0.3
    series = fourier_coeffs(jump_unit(0, 1, beta), 512)
    ks = np.arange(-512, 513)
    want = np.sin(np.pi * beta) / (np.pi * (beta - ks))
    assert np.max(np.abs(series.coeffs - want)) < 1e-12
    assert series.bound < 1e-12


def test_high_winding_enters_panel_count():
    # t^300 has no coefficient at |k| <= 8, but its integrand oscillates 308 times
    series = fourier_coeffs(CanonicalSymbol.monomial(300), 8)
    assert np.max(np.abs(series.coeffs)) < 1e-12


@pytest.mark.parametrize("N", [8, 64, 255, 512])
def test_jump_inside_a_panel_against_closed_form(N):
    # the panel counts M = 12, 42, 162, 324 are 11-smooth: a jump at turn 1/3 lands on a
    # panel edge, and one at 1/13 cuts a panel, since 13 divides no 11-smooth number
    beta = 0.3
    for den in (3, 13):
        series = fourier_coeffs(jump_unit(1, den, beta), N)
        ks = np.arange(-N, N + 1)
        want = np.exp(-2j * np.pi * ks / den) * np.sin(np.pi * beta) / (np.pi * (beta - ks))
        assert np.max(np.abs(series.coeffs - want)) < 1e-12
        assert series.bound < 1e-12


def test_two_jumps_inside_one_panel_against_mpmath():
    import mpmath

    # at N = 8 there are 12 panels; turns 1/97 and 1/96 both cut panel 0
    jumps = ((UnitPoint(1, 97), Fraction(3, 10)), (UnitPoint(1, 96), Fraction(-1, 5)))
    s = CanonicalSymbol(
        kappa=1,
        log_smooth=FourierLogPoly.of({1: 0.2, -1: 0.1j}),
        jumps=tuple(JumpFactor(pt, Exponent.of(beta)) for pt, beta in jumps),
    )
    series = fourier_coeffs(s, 8)
    with mpmath.workdps(20):
        two_pi = 2 * mpmath.pi
        cuts = [two_pi * mpmath.mpf(pt.num) / pt.den for pt, _ in jumps]

        def symbol(x):  # t exp(0.2 t + 0.1i/t) u(tau_1, 3/10) u(tau_2, -1/5) at t = e^{ix}
            z = mpmath.expj(x)
            val = z * mpmath.exp(0.2 * z + 0.1j / z)
            for theta, (_, beta) in zip(cuts, jumps):
                offset = x - theta if x > theta else x - theta + two_pi
                val *= mpmath.expj(mpmath.mpf(beta.numerator) / beta.denominator * (offset - mpmath.pi))
            return val

        for k in (-8, -3, -1, 0, 1, 2, 5, 8):
            want = mpmath.quad(lambda x: symbol(x) * mpmath.expj(-k * x), [0, *cuts, two_pi]) / two_pi
            assert abs(series.get(k) - complex(want)) < 1e-12


def arc_rule_coeffs(s: CanonicalSymbol, N: int) -> TwoSidedSeries:
    """f_k by 24-node Gauss-Legendre panels over the arcs between the jumps, summed densely."""
    angles = sorted(pt.angle for pt in s.jump_points)
    freq = N + abs(s.kappa) + max((abs(k) for k, _ in s.log_smooth.coeffs), default=0)
    xs, ws, _ = _gauss_panels(np.array(angles), np.array(angles[1:] + [angles[0] + 2 * np.pi]), freq, 24)
    ks = np.arange(-N, N + 1)
    return TwoSidedSeries((ws * eval_many(s, xs)) @ np.exp(-1j * np.outer(xs, ks)) / (2 * np.pi))


def test_finite_section_with_jumps_at_plus_minus_one():
    # At section 64, a's 42 panels and b's 84 put -1 on a panel edge.
    pair = pm_one_pair()
    a = pair.a
    assert a.jump_points == (ONE, MINUS_ONE)
    assert defect_numbers(pair, 2).dim_ker == 2
    want = toeplitz_matrix(arc_rule_coeffs(a, 63), 64) + hankel_matrix(arc_rule_coeffs(a, 127), 64)
    assert np.max(np.abs(finite_section(pair, 64).matrix - want)) < 1e-13


def test_power_recurrence_matches_dense_kernel():
    # the block of the recurrence grows with the range: 1, 33 and 1,025 k take one, six
    # and 32 rows, and a one-sided range starts the rows at its own first k.  The nodes go
    # in slices of 2^14 // max(block, rows): 5,152 nodes are one slice at 1 k and eleven at
    # 1,025 k, and 41,184 nodes are sixteen slices at 33 k.
    cases = [(512, [range(0, 1), range(-16, 17), range(-512, 513), range(-5, 301)]), (4096, [range(-16, 17)])]
    for freq, ranges in cases:
        # 16-node Gauss-Legendre panels once around the circle from turn 1/3
        xs, ws, _ = _gauss_panels(np.array([2 * np.pi / 3]), np.array([8 * np.pi / 3]), freq, 16)
        vals = np.exp(1j * np.sin(3 * xs)) * (1 + 0.5 * np.cos(xs))
        for ks in ranges:
            dense = (ws * vals) @ np.exp(-1j * np.outer(xs, np.array(ks))) / (2 * np.pi)
            assert np.max(np.abs(_fourier_integrals(xs, ws, vals, ks) - dense)) < 1e-13
    assert xs.size == 41184


def test_series_matches_fft_for_smooth_symbol():
    s = smooth(kappa=1, scale=0.7 - 0.2j, log={1: 0.3, -2: 0.1j})
    a = fourier_coeffs(s, 32).coeffs
    b = sampled_fft_coeffs(s, 32).coeffs
    assert np.max(np.abs(a - b)) < 1e-9


def test_two_sided_series_accessors():
    series = fourier_coeffs(smooth(log={1: 0.5}), 8)
    assert series.N == 8
    assert series.get(-3) == series.coeffs[5]
    with pytest.raises(IndexError):
        series.get(9)


def test_method_disagreement_on_absurd_tolerance():
    with pytest.raises(MethodDisagreement, match="Fourier quadrature bound"):
        fourier_coeffs(jump_unit(0, 1, 0.3), 32, tol=1e-16)


def test_fourier_coeffs_refuses_a_nan_bound():
    # t^-1 exp(400 (t + 1/t)) overflows its samples: NaN coefficients and a NaN bound refuse
    a = smooth(kappa=-1, log={1: 400.0, -1: 400.0})
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(MethodDisagreement, match="bound nan"):
        fourier_coeffs(a, 64)


def closed_form_bound_cases(N: int):
    """(computed series, mpmath coefficients) of u(tau, 3/10) at turns 0, 1/3 and 1/13, |k| <= N."""
    import mpmath

    out = []
    for num, den in ((0, 1), (1, 3), (1, 13)):
        s = jump_unit(num, den, Fraction(3, 10))
        with mpmath.workdps(30):
            beta = mpmath.mpf(3) / 10
            want = [
                mpmath.expj(-2 * mpmath.pi * k * num / den) * mpmath.sin(mpmath.pi * beta) / (mpmath.pi * (beta - k))
                for k in range(-N, N + 1)
            ]
        out.append((fourier_coeffs(s, N), np.array([complex(w) for w in want])))
    return out


@pytest.mark.parametrize("N", [64, 512])
def test_fourier_bound_holds_against_mpmath(N, monkeypatch):
    # the bound is mostly rounding (the quadrature term is below 1e-16 here): it holds, and
    # with UNIT = 0, which drops the rounding term, it fails
    from th_fredholm import quadrature

    for series, want in closed_form_bound_cases(N):
        assert np.max(np.abs(series.coeffs - want)) <= series.bound < 1e-12
    monkeypatch.setattr(quadrature, "UNIT", 0.0)
    assert any(np.max(np.abs(series.coeffs - want)) > series.bound for series, want in closed_form_bound_cases(N))



@pytest.mark.parametrize("log", [{6: 1.0}, {0: 0.3, 1: 0.2}])
def test_fourier_bound_on_steep_and_constant_log_terms(log):
    # exp(v t^k) has the coefficients v^m / m! at k m.  At N = 64 a degree-6 log term
    # makes the widest ellipse's cap overflow a float, and a k = 0 term has no log2|k|;
    # the bound stays finite and holds for both
    want = np.zeros(129, dtype=complex)
    want[64] = 1.0
    for k, v in log.items():
        factor = np.zeros(129, dtype=complex)
        factor[64 : 129 : max(k, 1)] = [v**m / math.factorial(m) for m in range(64 // max(k, 1) + 1)]
        want[64:] = np.exp(v) * want[64:] if k == 0 else convolve(want[64:], factor[64:])[:65]
    series = fourier_coeffs(CanonicalSymbol(log_smooth=FourierLogPoly.of(log)), 64)
    assert np.max(np.abs(series.coeffs - want)) <= series.bound < 1e-12


def test_panel_count_is_the_least_that_meets_its_criterion(monkeypatch):
    # on census symbols at the section's orders: the quadrature part at the chosen 11-smooth M is at
    # most 2^-53 times the cap |scale| e^{Re log} e^{pi sum |Im beta|} on |s|, and at the 11-smooth
    # number below M (where M > 12) it is not
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    gen = importlib.import_module("gen")
    docs = [doc for _, doc, _ in gen.cli_documents(random.Random(11), 6)]
    rng = random.Random(2026)
    docs += [gen.fmatrix_doc(rng) for _ in range(3)]
    below = 0
    for doc in docs:
        pair = Job(json.loads(gen.to_json(doc))).pair
        for s, N in itertools.product((pair.a, pair.b), (64, 255, 511)):
            target = (
                math.log(abs(s.scale)) + _log_exp_cap(s.log_smooth.coeffs, 0.0)
                + math.pi * sum(abs(j.beta.value.imag) for j in s.jumps) - 53 * math.log(2)
            )
            parts = symbol_parts(s)
            M, term = panel_count(parts, N)
            assert M >= 12 and verification_oracle.fft_length(M) == M
            assert term == _log_grid_term(_grid_cap(parts, N), M) <= target, (N, M)
            if M > 12:
                prev = max(m for m in range(12, M) if verification_oracle.fft_length(m) == m)
                assert _log_grid_term(_grid_cap(parts, N), prev) > target, (N, M, prev)
                below += 1
    assert below >= 2 * len(docs) * 2


def test_fourier_coeffs_at_an_extreme_order():
    # order 4095 on a degree-6 log of size 1 sizes its panels, ends its search and passes its bound
    s = smooth(log={6: 1.0})
    series = fourier_coeffs(s, 4095)
    assert series.N == 4095 and series.bound < 1e-12
    assert np.all(np.isfinite(series.coeffs))
    assert abs(series.get(6) - 1.0) < 1e-12 and abs(series.get(4)) < 1e-12


def test_a_times_a_candidate_through_the_integrator(monkeypatch):
    # a f for the homogeneous candidate f = (1-t) c_+^{-1} t^j of a G-count census document (seed 12,
    # document 39: n = -1, three jumps and a log of a, c_+ singular at 1 and -1) is one more site
    # product: a's jumps are sites with eta 0 and phase -beta, each (1 - t/tau)^{-beta} of c_+^{-1} one with eta -beta and
    # phase beta/2, and 1 - t one at turn 0 with eta 1 and phase -1/2.  Its coefficients lie within
    # their bound of mpmath's, which evaluates every factor from its own definition
    import mpmath

    from th_fredholm.quadrature import integrate, site_product

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    gen = importlib.import_module("gen")
    doc = [doc for _, doc, _ in gen.cli_documents(random.Random(12), 40)][39]
    job = Job(json.loads(gen.to_json(doc)))
    report = defect_numbers(job.pair, job.p)
    assert (report.case_tag, report.n) == ("G-count", -1)
    a, c_plus, j = job.pair.a, build_plus_factor(report.rep_c), 0
    sites = {Fraction(0): [1, -0.5]}  # turn: [eta, phase]
    for jump in a.jumps:
        sites.setdefault(jump.point.turns, [0, 0])[1] -= jump.beta.value
    for point, e in c_plus.eta_exponents:
        site = sites.setdefault(point.turns, [0, 0])
        site[0] -= e.value
        site[1] += e.value / 2
    turns = sorted(sites)
    laurent = FourierLogPoly.of(a.log_smooth).plus(c_plus.analytic_log, -1).as_dict()
    const = a.scale / c_plus.constant * complex(mpmath.exp(laurent.pop(0, 0)))
    etas = [complex(sites[t][0]) for t in turns]
    parts = site_product(
        turns, const, laurent, a.kappa + j, max(map(abs, laurent)), etas, etas, [complex(sites[t][1]) for t in turns]
    )
    ks = range(-8, 17)
    coeffs, layout, terms = integrate(parts, ks)
    bound = sum(terms.values())
    assert layout["graded"] and layout["whole"] and bound < 1e-11
    with mpmath.workdps(20):
        two_pi = 2 * mpmath.pi

        def f(x):  # a(t) (1 - t) c_+^{-1}(t) t^j at t = e^{ix}
            t = mpmath.expj(x)
            val = a.scale * mpmath.exp(sum(v * t**k for k, v in a.log_smooth.coeffs)) * t ** (a.kappa + j) * (1 - t)
            for jump in a.jumps:
                theta = two_pi * mpmath.mpf(jump.point.turns.numerator) / jump.point.turns.denominator
                val *= mpmath.expj(jump.beta.value * (mpmath.fmod(x - theta + 2 * two_pi, two_pi) - mpmath.pi))
            val /= c_plus.constant * mpmath.exp(sum(v * t**k for k, v in c_plus.analytic_log.coeffs))
            for point, e in c_plus.eta_exponents:
                val *= mpmath.power(1 - t * mpmath.expj(-two_pi * mpmath.mpf(point.turns.numerator) / point.turns.denominator), -e.value)
            return val

        cuts = [two_pi * mpmath.mpf(t.numerator) / t.denominator for t in turns] + [two_pi]
        for k in (-8, 0, 3, 16):
            want = mpmath.quad(lambda x: f(x) * mpmath.expj(-k * x), cuts) / two_pi
            assert abs(coeffs[k - ks.start] - complex(want)) <= bound, k


def grading_cases():
    """(label, site product, ks) of a Jacobi rho with alpha = 0, the kernel-range rho of a golden document
    at section 256, and a jump symbol to order 255."""
    from helpers import jacobi_symbol
    from th_fredholm.symbol_core import invert

    pair = validate_pair(CanonicalSymbol.one(), invert(jacobi_symbol(Fraction(0), Fraction(3, 10), 2)))
    jacobi = defect_numbers(pair, 2)
    yield "jacobi", rho_parts(jacobi.rep_c, jacobi.rep_d, pair.b), jacobi.matrix.rho.ks
    name, pair, p = next(i for i in golden_kernel_instances() if defect_numbers(i[1], i[2]).m > 0)
    golden = defect_numbers(pair, p)
    yield name, rho_parts(golden.rep_c, golden.rep_d, pair.b), range(golden.n - golden.m + 1, 256 + golden.n + golden.m - 1)
    yield "jump", symbol_parts(jump_unit(1, 13, 0.3)), range(-255, 256)


def test_only_singular_sites_are_graded():
    # a half-arc is graded exactly where its anchor's eta is not a non-negative integer; every other half
    # lies on the grid.  alpha = 0 leaves eta = 1 at turn 0 of the Jacobi rho and beta = 3/10 leaves -2/5
    # at -1; the golden rho has eta = 0 at both its sites, and a symbol at all of them
    from th_fredholm import quadrature

    counts = {}
    for label, parts, ks in grading_cases():
        K = max(-ks.start, ks.stop - 1)
        nodes, bits, grid_nodes, _ = quadrature.RULE
        graded = quadrature._graded(parts)
        assert graded == [not (eta.imag == 0 and eta.real in (0, 1, 2, 3)) for eta in parts.etas], label
        slivers = quadrature._slivers(parts, K, bits)[1]
        freq = max(1, K + abs(parts.power) + parts.top)
        index, offsets, _ = quadrature._rho_rule(parts, graded, freq, nodes, slivers)
        M = panel_count(parts, K)[0] if not all(graded) else 0
        whole, grid_index, grid_offsets, _ = quadrature._grid_rule(tuple(parts.turns), tuple(graded), M, grid_nodes)
        # each layout covers the half-arcs, (anchor, ahead of it), of its own kind of anchor
        halves = [(a, side) for a in range(len(graded)) for side in (False, True)]
        assert {(a, o > 0) for a, o in zip(index.tolist(), offsets.real.tolist())} == {h for h in halves if graded[h[0]]}
        assert {(a, o > 0) for a, o in zip(grid_index.tolist(), grid_offsets.tolist())} == {h for h in halves if not graded[h[0]]}
        # graded panels past the four sliver nodes of each graded site; the grid's whole panels and pieces
        counts[label] = ((index.size - 4 * sum(graded)) // nodes, whole.size, grid_index.size // grid_nodes - whole.size)
    assert counts == {"jacobi": (14, 6, 0), "smooth-0": (0, 48, 0), "jump": (0, 45, 6)}


def test_finite_section_identity_cases():
    one = CanonicalSymbol.one()
    sec = finite_section(validate_pair(one, one), 6)
    assert np.allclose(sec.matrix, np.eye(6), atol=1e-12)
    # b = t^{-1} stores its only coefficient at -1, which j+k+1 >= 1 never hits
    pair = validate_pair(one, CanonicalSymbol.monomial(-1))
    sec = finite_section(pair, 6)
    assert np.allclose(sec.matrix, np.eye(6), atol=1e-12)


def test_finite_section_shift_plus_corner():
    t = CanonicalSymbol.monomial(1)
    sec = finite_section(validate_pair(t, t), 5)
    expected = np.diag(np.ones(4), -1)
    expected[0, 0] = 1.0
    assert np.allclose(sec.matrix, expected, atol=1e-12)


def _random_banded(rng, M, band):
    coeffs = np.zeros(2 * M + 1, dtype=complex)
    idx = np.arange(-band, band + 1)
    coeffs[idx + M] = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
    return TwoSidedSeries(coeffs)


@pytest.mark.parametrize("N", [5, 1])
def test_sections_match_scipy_toeplitz_hankel(N):
    from scipy.linalg import hankel, toeplitz

    series = _random_banded(np.random.default_rng(N), 2 * N, 2 * N)
    a = [series.get(k) for k in range(-2 * N, 2 * N + 1)]
    col, row = a[2 * N : 3 * N], a[2 * N : N : -1]
    assert np.array_equal(toeplitz_matrix(series, N), toeplitz(col, row))
    col, row = a[2 * N + 1 : 3 * N + 1], a[3 * N : 4 * N]
    assert np.array_equal(hankel_matrix(series, N), hankel(col, row))


def test_toeplitz_hankel_product_identities():
    rng = np.random.default_rng(71)
    N = 64
    M = 2 * N
    from scipy.signal import fftconvolve

    for _ in range(5):
        a = _random_banded(rng, M, N // 4)
        b = _random_banded(rng, M, N // 4)
        ab = TwoSidedSeries(fftconvolve(a.coeffs, b.coeffs)[M : 3 * M + 1])
        ta, tb = toeplitz_matrix(a, N), toeplitz_matrix(b, N)
        ha, hb = hankel_matrix(a, N), hankel_matrix(b, N)
        b_tilde = TwoSidedSeries(b.coeffs[::-1])
        tbt = toeplitz_matrix(b_tilde, N)
        hbt = hankel_matrix(b_tilde, N)
        mid = slice(N // 4, 3 * N // 4)
        lhs = toeplitz_matrix(ab, N)[mid, mid]
        rhs = (ta @ tb + ha @ hbt)[mid, mid]
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        lhs = hankel_matrix(ab, N)[mid, mid]
        rhs = (ta @ hb + ha @ tbt)[mid, mid]
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_kernel_check_shift_by_one():
    t_inv = CanonicalSymbol.monomial(-1)
    pair = validate_pair(t_inv, t_inv)
    report = defect_numbers(pair, 2)
    assert (report.n, report.m) == (0, 1)  # one particular candidate
    basis = kernel_residual_check(pair, 2, report, N=64)
    assert len(basis.vectors) == 1
    assert basis.residuals.max() < 1e-8
    assert basis.gram_rank == 1


def test_kernel_check_vacuous_for_identity():
    basis = kernel_residual_check(
        validate_pair(CanonicalSymbol.one(), CanonicalSymbol.one()), 2, N=32
    )
    assert basis.vectors == ()
    assert basis.residuals.size == 0 and basis.gram_rank == 0


def test_kernel_check_shift_by_two():
    t2 = CanonicalSymbol.monomial(-2)
    basis = kernel_residual_check(validate_pair(t2, t2), 2, N=64)
    assert len(basis.vectors) == 2
    assert basis.gram_rank == 2
    assert basis.residuals.max() < 1e-8


def test_kernel_check_mixed_homogeneous_and_particular():
    c = smooth(kappa=-2, log={1: 0.3, -1: -0.3})
    b = CanonicalSymbol.one()
    pair = validate_pair(multiply(c, b), b)
    report = defect_numbers(pair, 2)
    assert (report.n, report.m) == (-1, 1)
    basis = kernel_residual_check(pair, 2, report, N=96)
    assert len(basis.vectors) == 2  # the homogeneous candidate, then the particular one
    assert basis.residuals.max() < 1e-6
    assert basis.gram_rank == 2


def test_kernel_check_smooth_b():
    c = smooth(kappa=-2, log={1: 0.3, -1: -0.3})
    b = smooth(log={1: 0.2, -1: 0.1})
    pair = validate_pair(multiply(c, b), b)
    report = defect_numbers(pair, 2)
    assert report.dim_ker == report.m - report.n
    basis = kernel_residual_check(pair, 2, report, N=128)
    assert len(basis.vectors) == report.dim_ker
    assert basis.residuals.max() < 1e-6


def test_residual_gate_trips_on_absurd_tolerance():
    # tol gates the bounds of rho and of the section's coefficients too (below 1e-13 here),
    # so the residual gate needs a residual above them: at N = 8 the truncated candidates
    # leave 2.7e-8 and 3.3e-8
    c = smooth(kappa=-2, log={1: 0.3, -1: -0.3})
    pair = validate_pair(multiply(c, CanonicalSymbol.one()), CanonicalSymbol.one())
    with pytest.raises(ResidualTooLarge, match="residual"):
        kernel_residual_check(pair, 2, N=8, tol=1e-12)


def test_kernel_check_gates_section_coefficients_by_tol():
    # homogeneous candidates only (m <= 0), so no rho is computed and the section's bound trips
    report = lambda inst: defect_numbers(inst[1], inst[2])  # noqa: E731
    name, pair, p = next(inst for inst in golden_kernel_instances() if report(inst).dim_ker and report(inst).m <= 0)
    with pytest.raises(MethodDisagreement, match="Fourier quadrature bound"):
        kernel_residual_check(pair, p, N=64, tol=1e-16)


def test_kernel_check_gates_its_rho_by_tol():
    # a particular candidate reads rho over 0 <= k <= 63, whose bound (about 5e-13) trips
    # before the section's coefficients are computed
    name, pair, p = next(inst for inst in golden_kernel_instances() if defect_numbers(inst[1], inst[2]).m > 0)
    with pytest.raises(MethodDisagreement, match="rho bound .* on 0 <= k <= 63"):
        kernel_residual_check(pair, p, N=64, tol=1e-16)


def test_kernel_check_refuses_a_nan_rho_bound(monkeypatch):
    rho_coefficients = verification_oracle.rho_coefficients
    monkeypatch.setattr(
        verification_oracle,
        "rho_coefficients",
        lambda *args: replace(rho_coefficients(*args), tail_bound=math.nan),
    )
    name, pair, p = next(inst for inst in golden_kernel_instances() if defect_numbers(inst[1], inst[2]).m > 0)
    with pytest.raises(MethodDisagreement, match="rho bound nan"):
        kernel_residual_check(pair, p, N=64)


def pm_one_pair():
    # a = b = t^-2 u(1, 1/8) u(-1, 1/8): n = 0, m = 2, a two-dimensional kernel
    jumps = multiply(jump_unit(0, 1, Fraction(1, 8)), jump_unit(1, 2, Fraction(1, 8)))
    a = multiply(CanonicalSymbol.monomial(-2), jumps)
    return validate_pair(a, a)


@pytest.mark.parametrize("N", [63, 64])
def test_convolution_residuals_match_dense_section(N):
    instances = [(name, pair, p) for name, pair, p in golden_kernel_instances() if not name.startswith("jump")]
    checked = 0
    for name, pair, p in instances + [("pm-one", pm_one_pair(), 2)]:
        basis = kernel_residual_check(pair, p, N=N, tol=1.0)
        matrix = finite_section(pair, N).matrix
        dense = [np.linalg.norm(matrix @ f) / np.linalg.norm(f) for f in basis.vectors]
        assert np.max(np.abs(basis.residuals - dense), initial=0.0) < 1e-13, name
        checked += len(dense)
    assert checked >= 20


def series_deviation(pair, N_keep: int, N: int) -> tuple[float, float]:
    """Max |quadrature - oracle| of rho's coefficients over |k| <= N, and the oracle's estimate."""
    _, _, rho = rho_for_pair(pair, 2, N_keep=N_keep)
    de, estimate = rho_de(rho.parts, N_keep)
    return max(abs(rho.get(k) - de.get(k)) for k in range(-N, N + 1)), estimate


def test_rho_series_deviation_trivial_pair():
    one = CanonicalSymbol.one()
    assert series_deviation(validate_pair(one, one), 16, 8)[0] < 1e-12


def test_rho_series_deviation_smooth_pair():
    c = smooth(kappa=2, log={1: 0.2, -1: -0.2})
    b = smooth(kappa=-1, scale=0.8 - 0.3j, log={1: 0.1 + 0.2j, -2: -0.15})
    assert series_deviation(validate_pair(multiply(c, b), b), 32, 16)[0] < 1e-12


def test_rho_series_deviation_mild_jump():
    # rho has exponent -1/4 at 1; the tanh-sinh nodes reach the site in
    # exact offsets, so the oracle settles and the two routes agree
    pair = validate_pair(CanonicalSymbol.one(), jump_unit(0, 1, Fraction(1, 8)))
    deviation, estimate = series_deviation(pair, 32, 16)
    assert estimate < 1e-12
    assert deviation < 1e-12


# Rows 168 and 153 of `scripts/bound_survey.py survey`, F-matrix pairs: rho has two sites at
# Re beta = -63/64 on the first, and on the second one at -1 with Re beta = -27/32, whose log
# exponent beta - 2 overflowed before its factor 4 sin^2(d/2) took it back
STEEP_ORACLE_DOCS = {
    "two-steep-sites": {
        "a": {
            "kappa": -4,
            "scale": [0.48473837161320527, 0.9343477340034129],
            "log_smooth": [
                {"k": -2, "re": -0.275136983675476, "im": 0.2678978125443735},
                {"k": -1, "re": 0.0693496354096797, "im": 0.007675392168886009},
                {"k": 1, "re": -0.0693496354096797, "im": -0.007675392168886009},
                {"k": 2, "re": 0.13485758351819221, "im": -0.30018521800315356},
            ],
            "jumps": [
                {"theta_num": 0, "theta_den": 1, "beta": [0.34375, 0.0]},
                {"theta_num": 1, "theta_den": 4, "beta": [-0.328125, 0.0]},
                {"theta_num": 1, "theta_den": 3, "beta": [0.078125, 0.17931128327282927]},
                {"theta_num": 1, "theta_den": 2, "beta": [0.171875, 0.1518318121319916]},
                {"theta_num": 2, "theta_den": 3, "beta": [0.078125, 0.17931128327282927]},
                {"theta_num": 3, "theta_den": 4, "beta": [-0.34375, 0.0]},
            ],
        },
        "b": {
            "kappa": -8,
            "scale": [-0.48473837161320527, -0.9343477340034129],
            "log_smooth": [
                {"k": -2, "re": -0.10309399642766554, "im": 0.07412609691910424},
                {"k": 2, "re": -0.03718540372961822, "im": -0.10641350237788424},
            ],
            "jumps": [
                {"theta_num": 0, "theta_den": 1, "beta": [0.34375, 0.0]},
                {"theta_num": 3, "theta_den": 4, "beta": [-0.015625, 0.0]},
            ],
        },
        "p": "3/2",
    },
    "steep-at-minus-one": {
        "a": {
            "kappa": -2,
            "scale": [-0.28211758885197336, 0.4972455191352457],
            "log_smooth": [
                {"k": -2, "re": 0.055376863725187714, "im": 0.1289338166116004},
                {"k": -1, "re": 0.4056364016166474, "im": 0.1870155104807366},
                {"k": 1, "re": -0.16896744314317852, "im": -0.10484338350823322},
                {"k": 2, "re": -0.035555669824885006, "im": -0.041308147299063826},
            ],
            "jumps": [
                {"theta_num": 0, "theta_den": 1, "beta": [-0.03125, 0.009942269056475599]},
                {"theta_num": 1, "theta_den": 3, "beta": [-0.1875, -0.10060816652143074]},
                {"theta_num": 2, "theta_den": 5, "beta": [0.359375, 0.0]},
                {"theta_num": 1, "theta_den": 2, "beta": [-0.03125, -0.0496116903911822]},
                {"theta_num": 3, "theta_den": 5, "beta": [0.359375, 0.0]},
                {"theta_num": 2, "theta_den": 3, "beta": [-0.1875, -0.10060816652143074]},
            ],
        },
        "b": {
            "kappa": -6,
            "scale": [0.28211758885197336, -0.4972455191352457],
            "log_smooth": [
                {"k": -2, "re": -0.13809047469748922, "im": 0.06747184681447163},
                {"k": -1, "re": 0.1857508890873343, "im": -0.07272073129344948},
                {"k": 1, "re": 0.05091806938613454, "im": 0.15489285826595287},
                {"k": 2, "re": 0.15791166859779193, "im": 0.02015382249806494},
            ],
            "jumps": [{"theta_num": 1, "theta_den": 2, "beta": [0.421875, 0.016473370131349793]}],
        },
        "p": "2",
    },
}


@pytest.mark.parametrize("name", sorted(STEEP_ORACLE_DOCS))
def test_rho_de_at_steep_sites(name):
    # each half-arc's innermost node at half weight, plus the leading term of the integral below it,
    # takes the oracle within 1e-8 of the production rho; verify's oracle tolerance, at least
    # 10 (estimate + bound), reads a figure below 1e-7 that still covers the gap, and the
    # estimate alone covers it too, at rounding level by its rounding floor
    job = Job(STEEP_ORACLE_DOCS[name])
    rep_c, rep_d = normalized_pair(job.pair, job.p)
    assert rep_c.n > 0 and rep_d.n > 0
    rho = rho_coefficients(rep_c, rep_d, job.pair.b, 16)
    with np.errstate(over="raise", invalid="raise"):
        de, estimate = rho_de(rho.parts, 16)
    gap = max(abs(rho.get(k) - de.get(k)) for k in range(-16, 17))
    assert gap < 1e-8 and estimate < 1e-8, (gap, estimate)
    assert gap <= 10 * (estimate + rho.tail_bound), (gap, estimate, rho.tail_bound)
    assert gap <= estimate, (gap, estimate)


def test_rho_de_refuses_non_integrable_rho():
    # rho_de integrates the parts of rho_parts, which refuses the exponent -3/2 that
    # gamma_plus = -3/4 gives c_+ at turn 0
    pair = validate_pair(CanonicalSymbol.one(), jump_unit(0, 1, Fraction(1, 8)))
    rep_c, rep_d = normalized_pair(pair, 2)
    zero = Exponent(Fraction(0))
    steep = replace(rep_c, gamma_plus=Exponent(Fraction(-3, 4)), gamma_minus=zero, gammas=())
    assert build_plus_factor(steep).eta_exponents == ((ONE, Exponent(Fraction(-3, 2))),)
    with pytest.raises(ValueError, match="at turn 0 makes rho non-integrable"):
        rho_de(rho_parts(steep, rep_d, pair.b), 8)


def test_kernel_candidates_match_per_entry_rho_sum():
    # each particular candidate f solves (1+t) c_+ f = g; g is read here entry
    # by entry through RhoSeries.get, in kernel_residual_check as one array.
    # The four-jump pair's l^2 residuals (0.90, 0.95) measure an H^p kernel
    # element in the wrong norm, so its check runs at tol=1.0; and there the
    # realized c_+ times the realized 1/c_+ is 1 only to ~1e-12, which is all
    # the precision with which f can solve the system against this c_+.
    c = smooth(kappa=-3, log={1: 0.3, -1: -0.3})
    b = smooth(log={1: 0.2, -1: 0.1})
    four_jump = CanonicalSymbol(
        jumps=(
            JumpFactor(UnitPoint(0, 1), Exponent(Fraction(-1, 4))),
            JumpFactor(UnitPoint(1, 2), Exponent(Fraction(1))),
            JumpFactor(UnitPoint(1, 4), Exponent(Fraction(-1, 8))),
            JumpFactor(UnitPoint(3, 4), Exponent(Fraction(-1, 8))),
        )
    )
    # pair, p, (n, m), tol, and the bound on |(1+t) c_+ f - g|: absolute, or relative to max |g|
    inputs = [
        (validate_pair(multiply(c, b), b), 2, (-1, 2), 1e-6, 1e-12, False),
        (validate_pair(four_jump, CanonicalSymbol.one()), Fraction(113, 100), (-1, 1), 1.0, 1e-10, True),
    ]
    N = 64
    for pair, p, shape, tol, bound, relative in inputs:
        report = defect_numbers(pair, p)
        n, m = report.n, report.m
        assert (n, m) == shape and report.dim_ker == -n + m
        c_plus = build_plus_factor(report.rep_c)
        if p != 2:  # the steep eta exponents of the four-jump pair's c_+
            exponents = {pt: e.re for pt, e in c_plus.eta_exponents}
            assert (exponents[ONE], exponents[MINUS_ONE]) == (Fraction(7, 4), -1)
        rho = rho_for_pair(pair, p, N_keep=N + abs(n) + m + 4)[2]
        basis = kernel_residual_check(pair, p, report, N=N, tol=tol)
        col = convolve(np.array([1.0, 1.0], dtype=complex), np.asarray(c_plus.realize(N - 1)))[:N]
        for k in range(m):
            f = basis.vectors[-n + k]  # after the -n homogeneous candidates
            g = np.array([-(rho.get(l + n - k) + rho.get(l + n + k)) for l in range(N)])
            g[: 1 - 2 * n] /= 2
            limit = bound * np.max(np.abs(g)) if relative else bound
            assert np.max(np.abs(convolve(col, f)[:N] - g)) < limit