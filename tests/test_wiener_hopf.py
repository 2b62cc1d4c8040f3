import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import random_fredholm_pair
from th_fredholm import wiener_hopf
from th_fredholm.fredholm_engine import NormalizedRep, normalize, normalized_pair
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
    validate_pair,
)
from th_fredholm.wiener_hopf import (
    NotInL1Warning,
    OneSidedSeries,
    binomial_coefficients,
    build_plus_factor,
    convolve,
    eta_series,
    factor_reconstruction_defect,
    fft_length,
    rho_coefficients,
    rho_for_pair,
    smooth_minus_factor,
    smooth_plus_factor,
    xi_series,
)
from th_fredholm.verification_oracle import SETTLE_TOL, rho_series


def example_c():
    return CanonicalSymbol(
        jumps=(
            JumpFactor(UnitPoint(0, 1), Exponent(Fraction(-1, 4))),
            JumpFactor(UnitPoint(1, 2), Exponent(Fraction(1))),
            JumpFactor(UnitPoint(1, 4), Exponent(Fraction(-1, 8))),
            JumpFactor(UnitPoint(3, 4), Exponent(Fraction(-1, 8))),
        )
    )


def series_for_pair(pair, p, N_keep, **orders):
    """rho of a pair by the oracle's series route."""
    rep_c, rep_d = normalized_pair(pair, p)
    c_plus, d_plus = build_plus_factor(rep_c), build_plus_factor(rep_d)
    return rep_c, rep_d, rho_series(c_plus, d_plus, pair.b, rep_c.n, rep_d.n, N_keep, **orders)


def plain_rep(**overrides) -> NormalizedRep:
    base = dict(
        side="c",
        n=0,
        gamma_plus=Exponent(Fraction(0)),
        gamma_minus=Exponent(Fraction(0)),
        gammas=(),
        smooth_scale=1.0 + 0j,
        smooth_log=FourierLogPoly(),
    )
    base.update(overrides)
    return NormalizedRep(**base)


def test_eta_series_integer_exponent():
    s = eta_series(ONE, 1, 8)
    assert s.coeffs[0] == pytest.approx(1.0)
    assert s.coeffs[1] == pytest.approx(-1.0)
    assert np.max(np.abs(s.coeffs[2:])) < 1e-15


def test_eta_series_half_exponent():
    s = eta_series(ONE, 0.5, 8)
    assert s.coeffs[1] == pytest.approx(-0.5)
    assert s.coeffs[2] == pytest.approx(-0.125)


def test_xi_series_is_one_plus_inverse_t():
    s = xi_series(MINUS_ONE, 1, 8)
    assert s.orientation == "anti"
    assert s.coeffs[0] == pytest.approx(1.0)
    assert s.coeffs[1] == pytest.approx(1.0)  # coefficient of t^{-1}
    assert np.max(np.abs(s.coeffs[2:])) < 1e-15


def test_eta_times_eta_negated_is_unit():
    point = UnitPoint(1, 3)
    prod = eta_series(point, 0.37 + 0.1j, 64).conv(eta_series(point, -0.37 - 0.1j, 64))
    unit_defect = prod.coeffs.copy()
    unit_defect[0] -= 1.0
    assert np.max(np.abs(unit_defect)) < 1e-12


def test_binomial_tail_envelope():
    # |C(beta,k)| ~ k^{-1-beta} for real beta > -1: the scaled sequence stays flat
    for beta in (0.4, -0.3, 0.125):
        coeffs = np.abs(binomial_coefficients(beta, 4096))
        k = np.arange(2048, 4097)
        scaled = coeffs[2048:] * k ** (1.0 + beta)
        assert scaled.max() / scaled.min() < 1.05


def test_smooth_plus_factor_exponential():
    s = smooth_plus_factor(FourierLogPoly.of({1: 1.0}), 12)
    want = 1.0 / np.array([math.factorial(k) for k in range(13)])
    assert np.max(np.abs(s.coeffs - want)) < 1e-12
    assert smooth_plus_factor(FourierLogPoly(), 8).coeffs[0] == 1.0


def test_smooth_factor_splits_odd_log():
    # phi = exp(t - 1/t): the analytic half evaluated against the anti half
    # reproduces exp(2i sin x)
    log = FourierLogPoly.of({1: 1.0, -1: -1.0})
    plus = smooth_plus_factor(log, 64)
    minus = smooth_minus_factor(log, 64)
    xs = 2 * math.pi * (np.arange(100) + 0.17) / 100
    z = np.exp(1j * xs)
    vals = plus.eval_at(z) * minus.eval_at(z)
    assert np.max(np.abs(vals - np.exp(2j * np.sin(xs)))) < 1e-10


def test_plus_factor_structure_for_example():
    rep = normalize(example_c(), 2)
    factor = build_plus_factor(rep)
    got = {(pt, e.re) for pt, e in factor.eta_exponents}
    assert got == {
        (ONE, Fraction(-1, 4)),
        (MINUS_ONE, Fraction(-1)),
        (UnitPoint(1, 4), Fraction(-1, 8)),
        (UnitPoint(3, 4), Fraction(-1, 8)),
    }
    assert factor.n == 1
    xs = 2 * math.pi * (np.arange(50) + 0.31) / 50
    assert factor_reconstruction_defect(rep, factor, xs) < 1e-8


def test_plus_factor_minus_t_case():
    # u(1,1) = -t factors through eta(1,1) = 1 - t with n = 0
    rep = normalize(jump_unit(0, 1, 1), 2)
    factor = build_plus_factor(rep)
    assert rep.n == 0
    assert factor.eta_exponents == ((ONE, Exponent(Fraction(1))),)
    assert np.max(np.abs(factor.realize(16).coeffs[:2] - np.array([1.0, -1.0]))) < 1e-14
    z = np.exp(1j * (2 * math.pi * (np.arange(20) + 0.4) / 20))
    recon = factor.eval_at(z) / factor.eval_tilde_at(z)
    assert np.max(np.abs(recon + z)) < 1e-12


def test_plus_factor_series_matches_closed_form_when_smooth():
    rep = plain_rep(smooth_log=FourierLogPoly.of({1: 0.2 - 0.1j, 2: 0.05j}))
    factor = build_plus_factor(rep)
    z = np.exp(1j * (2 * math.pi * (np.arange(60) + 0.25) / 60))
    assert np.max(np.abs(factor.realize(96).eval_at(z) - factor.eval_at(z))) < 1e-12


def test_reciprocal_identity_random_reps():
    rng = np.random.default_rng(17)
    for _ in range(10):
        rep = plain_rep(
            gamma_plus=Exponent(Fraction(int(rng.integers(-8, 9)), 16)),
            gamma_minus=Exponent(Fraction(int(rng.integers(-8, 9)), 16)),
            gammas=((UnitPoint(1, 4), Exponent(Fraction(int(rng.integers(-4, 5)), 16))),
                    (UnitPoint(3, 4), Exponent(Fraction(int(rng.integers(-4, 5)), 16)))),
            smooth_log=FourierLogPoly.of({1: 0.1 * rng.normal()}),
        )
        factor = build_plus_factor(rep)
        prod = factor.realize(256).conv(factor.realize(256, inverted=True)).coeffs
        prod[0] -= 1.0
        assert np.max(np.abs(prod)) < 1e-11


def test_rho_trivial_pair():
    pair = validate_pair(CanonicalSymbol.one(), CanonicalSymbol.one())
    _, _, rho = series_for_pair(pair, 2, N_keep=8, start_order=64)
    assert rho.get(0) == pytest.approx(2.0, abs=1e-12)
    assert rho.get(1) == pytest.approx(1.0, abs=1e-12)
    assert rho.get(-1) == pytest.approx(1.0, abs=1e-12)
    assert abs(rho.get(5)) < 1e-12
    xs = 2 * math.pi * (np.arange(40) + 0.13) / 40
    assert np.max(np.abs(rho.eval_at(xs) - (2 + 2 * np.cos(xs)))) < 1e-12


def test_rho_monomial_pair_matches_trivial():
    t_inv = CanonicalSymbol.monomial(-1)
    pair = validate_pair(t_inv, t_inv)
    rep_c, rep_d, rho = series_for_pair(pair, 2, N_keep=6, start_order=64)
    assert (rep_c.n, rep_d.n) == (0, 1)
    assert rho.shift == 0
    assert rho.get(0) == pytest.approx(2.0, abs=1e-12)
    assert rho.get(1) == pytest.approx(1.0, abs=1e-12)
    assert abs(rho.get(3)) < 1e-12


def test_rho_smooth_pair_against_fft_oracle():
    # a = b = exp(0.3 t - 0.3/t): rho = (1+t)(1+1/t) exp(-0.3t - 0.3/t), which
    # an FFT of the closed form resolves to spectral accuracy
    b = CanonicalSymbol(log_smooth={1: 0.3, -1: -0.3})
    pair = validate_pair(b, b)
    _, _, rho = series_for_pair(pair, 2, N_keep=12, start_order=256)
    M = 512
    xs = 2 * math.pi * np.arange(M) / M
    vals = (2 + 2 * np.cos(xs)) * np.exp(-0.6 * np.cos(xs))
    fft = np.fft.fft(vals) / M
    for k in range(-12, 13):
        assert rho.get(k) == pytest.approx(complex(fft[k % M]), abs=1e-10)
    assert rho.evenness_defect() < 1e-10
    assert np.isrealobj(rho.as_array()) or np.max(np.abs(rho.as_array().imag)) < 1e-10


def test_rho_evenness_randomized():
    rng = np.random.default_rng(23)
    for i in range(8):
        p = [2, Fraction(3, 2), 3][i % 3]
        pair = random_fredholm_pair(rng, p)
        _, _, rho = series_for_pair(
            pair, p, N_keep=16, start_order=512, max_order=4096, settle_tol=1e-10
        )
        slack = max(10 * rho.tail_bound, 1e-9)
        assert rho.evenness_defect() <= slack


def test_rho_closed_form_matches_coefficients_for_smooth_pair():
    # fully jump-free data keeps every factor smooth, so an FFT of the closed
    # form is an independent spectral-accuracy oracle for the coefficients
    c = CanonicalSymbol(kappa=2, log_smooth={1: 0.2, -1: -0.2})
    b = CanonicalSymbol(kappa=-1, scale=0.8 - 0.3j, log_smooth={1: 0.1 + 0.2j, -2: -0.15})
    pair = validate_pair(
        CanonicalSymbol(
            kappa=c.kappa + b.kappa,
            scale=b.scale,
            log_smooth={1: 0.3 + 0.2j, -1: -0.2, -2: -0.15},
        ),
        b,
    )
    _, _, rho = series_for_pair(pair, 2, N_keep=10, start_order=512)
    M = 1024
    xs = 2 * math.pi * np.arange(M) / M
    fft = np.fft.fft(rho.eval_at(xs)) / M
    for k in range(-10, 11):
        assert abs(rho.get(k) - fft[k % M]) < 1e-9


def test_not_in_l1_warning():
    rep = plain_rep(gamma_minus=Exponent(Fraction(-1)))
    factor = build_plus_factor(rep)
    with pytest.warns(NotInL1Warning):
        rho = rho_coefficients(factor, factor, CanonicalSymbol.one(), 0, 0, 4)
    assert np.all(np.isfinite(rho.coeffs))


def test_quadrature_agrees_with_series_where_it_settles():
    rng = np.random.default_rng(31)
    settled = 0
    for i in range(18):
        p = [2, Fraction(3, 2), 3][i % 3]
        pair = random_fredholm_pair(rng, p)
        _, _, rho = rho_for_pair(pair, p, N_keep=16)
        _, _, series = series_for_pair(pair, p, N_keep=16, start_order=512, max_order=8192)
        assert rho.tail_bound < 1e-11
        if series.tail_bound < SETTLE_TOL:
            settled += 1
            assert np.max(np.abs(rho.coeffs - series.coeffs)) < 1e-9
    assert settled >= 5


def steep_pair():
    """The first seeded pair whose rho has Re beta <= -0.65 at a site other than +-1."""
    rng = np.random.default_rng(5)
    for i in range(40):
        p = [2, Fraction(3, 2), 3][i % 3]
        pair = random_fredholm_pair(rng, p)
        _, _, rho = rho_for_pair(pair, p, N_keep=16)
        if any(t not in (0, Fraction(1, 2)) and e.re <= Fraction(-65, 100) for t, e in rho.sites.items()):
            return pair, p, rho
    raise AssertionError("no steep interior site among the seeded pairs")


def test_steep_site_insensitive_to_sliver_width(monkeypatch):
    # every site factor is evaluated from the node's exact offset to its site
    # and the sliver is integrated from its leading terms, so widening the
    # sliver 10^4-fold moves nothing beyond rounding
    pair, p, rho = steep_pair()
    monkeypatch.setattr(wiener_hopf, "FINE_RULE", (24, 1e-8))
    _, _, wide = rho_for_pair(pair, p, N_keep=16)
    assert np.max(np.abs(wide.coeffs - rho.coeffs)) < 1e-10


def test_one_sided_series_guards():
    a = OneSidedSeries("analytic", np.array([1.0 + 0j, 2.0]))
    b = OneSidedSeries("anti", np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        a.conv(b)
    with pytest.raises(ValueError):
        OneSidedSeries("sideways", np.array([1.0 + 0j]))


@pytest.mark.parametrize(
    "sizes", [(2, 5000), (4097, 4097), (65537, 65537), (1, 1), (1, 7), (5, 1), (2, 2), (3, 8)]
)
def test_convolve_bit_identical_to_fftconvolve(sizes):
    from scipy.signal import fftconvolve

    rng = np.random.default_rng(sum(sizes))
    a, b = (rng.normal(size=s) + 1j * rng.normal(size=s) for s in sizes)
    out = convolve(a, b)
    assert out.dtype == np.complex128
    assert np.array_equal(out, fftconvolve(a, b))


def test_fft_length_matches_next_fast_len():
    from scipy.fft import next_fast_len

    lengths = list(range(1, 20000)) + [2 * 2**k + 1 for k in range(12, 18)]
    assert [fft_length(n) for n in lengths] == [next_fast_len(n, real=False) for n in lengths]
