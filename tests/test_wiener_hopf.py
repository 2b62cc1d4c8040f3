import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    factor_reconstruction_defect,
    jacobi_symbol,
    mp_plus_factor_series,
    pair_from_c_and_b,
    plus_factor_at,
    plus_factor_tilde_at,
    random_fredholm_pair,
    random_generic_b,
    random_structural_c,
    rho_at,
    rho_for_pair,
)
from th_fredholm import wiener_hopf
from th_fredholm.fredholm_engine import (
    BoundaryCase,
    NormalizedRep,
    NotFredholm,
    PlusFactor,
    build_plus_factor,
    normalize,
    normalized_pair,
)
from th_fredholm.symbol_core import (
    MINUS_ONE,
    ONE,
    CanonicalSymbol,
    Exponent,
    FourierLogPoly,
    JumpFactor,
    UnitPoint,
    eval_many,
    invert,
    jump_unit,
    validate_pair,
)
from th_fredholm.verification_oracle import convolve, fft_length, rho_de
from th_fredholm.wiener_hopf import rho_coefficients, rho_parts


def example_c():
    return CanonicalSymbol(
        jumps=(
            JumpFactor(UnitPoint(0, 1), Exponent(Fraction(-1, 4))),
            JumpFactor(UnitPoint(1, 2), Exponent(Fraction(1))),
            JumpFactor(UnitPoint(1, 4), Exponent(Fraction(-1, 8))),
            JumpFactor(UnitPoint(3, 4), Exponent(Fraction(-1, 8))),
        )
    )


def oracle_for_pair(pair, p, N_keep):
    """rho of a pair by the oracle's tanh-sinh route."""
    rep_c, rep_d = normalized_pair(pair, p)
    return rep_c, rep_d, rho_de(rho_parts(rep_c, rep_d, pair.b), N_keep)


def plain_rep(**overrides) -> NormalizedRep:
    base = dict(
        n=0,
        gamma_plus=Exponent(Fraction(0)),
        gamma_minus=Exponent(Fraction(0)),
        gammas=(),
        smooth_scale=1.0 + 0j,
        smooth_log=FourierLogPoly(),
    )
    base.update(overrides)
    return NormalizedRep(**base)


def eta(point: UnitPoint, beta) -> PlusFactor:
    """The plus factor (1 - t/tau)^beta alone."""
    return PlusFactor(1.0 + 0j, FourierLogPoly(), ((point, Exponent.of(beta)),))


def smooth_factor(log: FourierLogPoly) -> PlusFactor:
    """exp of the analytic half (indices >= 1) of a log."""
    return PlusFactor(1.0 + 0j, FourierLogPoly.of({k: v for k, v in log.coeffs if k >= 1}), ())


def test_eta_series_integer_exponent():
    s = eta(ONE, 1).realize(8)
    assert s[0] == pytest.approx(1.0)
    assert s[1] == pytest.approx(-1.0)
    assert np.max(np.abs(s[2:])) < 1e-15


def test_eta_series_half_exponent():
    s = eta(ONE, 0.5).realize(8)
    assert s[1] == pytest.approx(-0.5)
    assert s[2] == pytest.approx(-0.125)


def test_eta_times_eta_negated_is_unit():
    point = UnitPoint(1, 3)
    series = [np.asarray(eta(point, beta).realize(64)) for beta in (0.37 + 0.1j, -0.37 - 0.1j)]
    unit_defect = convolve(*series)[:65]
    unit_defect[0] -= 1.0
    assert np.max(np.abs(unit_defect)) < 1e-12


def test_binomial_tail_envelope():
    # |C(beta,k)| ~ k^{-1-beta} for real beta > -1: the scaled sequence stays flat
    for beta in (0.4, -0.3, 0.125):
        coeffs = np.abs(eta(ONE, beta).realize(4096))
        k = np.arange(2048, 4097)
        scaled = coeffs[2048:] * k ** (1.0 + beta)
        assert scaled.max() / scaled.min() < 1.05


def test_smooth_plus_factor_exponential():
    s = smooth_factor(FourierLogPoly.of({1: 1.0})).realize(12)
    want = 1.0 / np.array([math.factorial(k) for k in range(13)])
    assert np.max(np.abs(np.asarray(s) - want)) < 1e-12
    assert smooth_factor(FourierLogPoly()).realize(8)[0] == 1.0


def test_smooth_factor_splits_odd_log():
    # phi = exp(t - 1/t): the analytic half times the analytic half of the
    # reversed log, read at 1/t, reproduces exp(2i sin x)
    log = FourierLogPoly.of({1: 1.0, -1: -1.0})
    plus = smooth_factor(log).realize(64)
    minus = smooth_factor(log.tilde()).realize(64)
    xs = 2 * math.pi * (np.arange(100) + 0.17) / 100
    z = np.exp(1j * xs)
    vals = np.polyval(plus[::-1], z) * np.polyval(minus[::-1], 1 / z)
    assert np.max(np.abs(vals - np.exp(2j * np.sin(xs)))) < 1e-10


# plus factors with sites at +-1, conjugate pairs and log terms: the steep
# c_+ of the four-jump pair at p = 113/100, and one with six sites and a
# degree-2 log, the worst of the census documents' factors at t^255
RECURRENCE_FACTORS = (
    PlusFactor(
        1.0 + 0j,
        FourierLogPoly(),
        (
            (ONE, Exponent(Fraction(7, 4))),
            (MINUS_ONE, Exponent(Fraction(-1))),
            (UnitPoint(1, 4), Exponent(Fraction(-1, 8))),
            (UnitPoint(3, 4), Exponent(Fraction(-1, 8))),
        ),
    ),
    PlusFactor(
        1.0 + 0j,
        FourierLogPoly.of({1: 0.0078125 + 0.05859375j, 2: -0.2109375 - 0.0625j}),
        (
            (ONE, Exponent(Fraction(77, 64), 0.015625)),
            (MINUS_ONE, Exponent(Fraction(-95, 64))),
            (UnitPoint(1, 3), Exponent(Fraction(-11, 64))),
            (UnitPoint(2, 3), Exponent(Fraction(-11, 64))),
            (UnitPoint(2, 5), Exponent(Fraction(13, 64))),
            (UnitPoint(3, 5), Exponent(Fraction(13, 64))),
        ),
    ),
    PlusFactor(
        0.8 - 0.6j,
        FourierLogPoly.of({1: 0.3 - 0.2j, 3: 0.05j}),
        ((UnitPoint(1, 8), Exponent(Fraction(2, 5), 0.1)), (UnitPoint(7, 8), Exponent(Fraction(2, 5), 0.1))),
    ),
)


@pytest.mark.parametrize("inverted", [False, True], ids=["c_plus", "inverse"])
def test_plus_factor_recurrence_matches_mpmath_product(inverted):
    # the orders factor prints by default (64) and the oracle realizes 1/c_+ to (255)
    for factor in RECURRENCE_FACTORS:
        want = mp_plus_factor_series(factor, 255, inverted)
        for N in (64, 255):
            got = factor.realize(N, inverted)
            scale = max(abs(z) for z in want[: N + 1])
            assert len(got) == N + 1
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-13 * scale


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
    assert rep.n == 1
    xs = 2 * math.pi * (np.arange(50) + 0.31) / 50
    assert factor_reconstruction_defect(rep, factor, xs) < 1e-8


def test_plus_factor_minus_t_case():
    # u(1,1) = -t factors through eta(1,1) = 1 - t with n = 0
    rep = normalize(jump_unit(0, 1, 1), 2)
    factor = build_plus_factor(rep)
    assert rep.n == 0
    assert factor.eta_exponents == ((ONE, Exponent(Fraction(1))),)
    assert np.max(np.abs(factor.realize(16)[:2] - np.array([1.0, -1.0]))) < 1e-14
    z = np.exp(1j * (2 * math.pi * (np.arange(20) + 0.4) / 20))
    recon = plus_factor_at(factor, z) / plus_factor_tilde_at(factor, z)
    assert np.max(np.abs(recon + z)) < 1e-12


def test_plus_factor_series_matches_closed_form_when_smooth():
    rep = plain_rep(smooth_log=FourierLogPoly.of({1: 0.2 - 0.1j, 2: 0.05j}))
    factor = build_plus_factor(rep)
    z = np.exp(1j * (2 * math.pi * (np.arange(60) + 0.25) / 60))
    assert np.max(np.abs(np.polyval(factor.realize(96)[::-1], z) - plus_factor_at(factor, z))) < 1e-12


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
        prod = convolve(np.asarray(factor.realize(256)), np.asarray(factor.realize(256, inverted=True)))[:257]
        prod[0] -= 1.0
        assert np.max(np.abs(prod)) < 1e-11


def test_rho_trivial_pair():
    pair = validate_pair(CanonicalSymbol.one(), CanonicalSymbol.one())
    _, _, rho = oracle_for_pair(pair, 2, N_keep=8)
    assert rho.get(0) == pytest.approx(2.0, abs=1e-12)
    assert rho.get(1) == pytest.approx(1.0, abs=1e-12)
    assert rho.get(-1) == pytest.approx(1.0, abs=1e-12)
    assert abs(rho.get(5)) < 1e-12
    xs = 2 * math.pi * (np.arange(40) + 0.13) / 40
    assert np.max(np.abs(rho_at(rho, xs) - (2 + 2 * np.cos(xs)))) < 1e-12


def test_rho_monomial_pair_matches_trivial():
    t_inv = CanonicalSymbol.monomial(-1)
    pair = validate_pair(t_inv, t_inv)
    rep_c, rep_d, rho = oracle_for_pair(pair, 2, N_keep=6)
    assert (rep_c.n, rep_d.n) == (0, 1)
    assert rho.get(0) == pytest.approx(2.0, abs=1e-12)
    assert rho.get(1) == pytest.approx(1.0, abs=1e-12)
    assert abs(rho.get(3)) < 1e-12


def test_rho_smooth_pair_against_fft_oracle():
    # a = b = exp(0.3 t - 0.3/t): rho = (1+t)(1+1/t) exp(-0.3t - 0.3/t), which
    # an FFT of the closed form resolves to spectral accuracy
    b = CanonicalSymbol(log_smooth={1: 0.3, -1: -0.3})
    pair = validate_pair(b, b)
    _, _, rho = oracle_for_pair(pair, 2, N_keep=12)
    M = 512
    xs = 2 * math.pi * np.arange(M) / M
    vals = (2 + 2 * np.cos(xs)) * np.exp(-0.6 * np.cos(xs))
    fft = np.fft.fft(vals) / M
    for k in range(-12, 13):
        assert rho.get(k) == pytest.approx(complex(fft[k % M]), abs=1e-10)
    assert rho.evenness_defect() < 1e-10
    assert np.isrealobj(rho.coeffs) or np.max(np.abs(rho.coeffs.imag)) < 1e-10


def test_rho_evenness_randomized():
    rng = np.random.default_rng(23)
    for i in range(8):
        p = [2, Fraction(3, 2), 3][i % 3]
        pair = random_fredholm_pair(rng, p)
        _, _, rho = oracle_for_pair(pair, p, N_keep=16)
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
    _, _, rho = oracle_for_pair(pair, 2, N_keep=10)
    M = 1024
    xs = 2 * math.pi * np.arange(M) / M
    fft = np.fft.fft(rho_at(rho, xs)) / M
    for k in range(-10, 11):
        assert abs(rho.get(k) - fft[k % M]) < 1e-9


def test_rho_parts_refuses_a_non_integrable_site():
    # past the gate every site has Re beta > -1 (test_gate_keeps_every_rho_site_integrable);
    # a hand-built rep with gamma_plus = -3/4 gives c_+ the exponent -3/2 at 1, which leaves
    # rho non-integrable at turn 0, and rho_parts refuses it there, for rho_coefficients too
    # (rho_de: test_rho_de_refuses_non_integrable_rho)
    steep, one = plain_rep(gamma_plus=Exponent(Fraction(-3, 4))), CanonicalSymbol.one()
    assert build_plus_factor(steep).eta_exponents == ((ONE, Exponent(Fraction(-3, 2))),)
    with pytest.raises(ValueError, match="non-integrable"):
        rho_parts(steep, plain_rep(), one)
    with pytest.raises(ValueError, match="at turn 0 "):
        rho_coefficients(steep, plain_rep(), one, 8)


def test_not_in_l1_warning():
    # gamma_- = -1 on both factors puts net exponent -2 at -1: rho is not in L^1 there,
    # and rho_coefficients refuses it instead of returning coefficients
    rep = plain_rep(gamma_minus=Exponent(Fraction(-1)))
    with pytest.raises(ValueError, match="net exponent -2 at turn 1/2 makes rho non-integrable"):
        rho_coefficients(rep, rep, CanonicalSymbol.one(), 4)


@functools.lru_cache(maxsize=1)
def seeded_pairs():
    """40 seeded pairs at p in {2, 3/2, 3} with their production rho, N_keep = 16."""
    rng = np.random.default_rng(5)
    out = []
    for i in range(40):
        p = [2, Fraction(3, 2), 3][i % 3]
        pair = random_fredholm_pair(rng, p)
        out.append((pair, p, rho_for_pair(pair, p, N_keep=16)[2]))
    return tuple(out)


def steep_pair():
    """The first seeded pair whose rho has Re beta <= -0.65 at a site other than +-1."""
    for pair, p, rho in seeded_pairs():
        parts = rho.parts
        if any(t not in (0, Fraction(1, 2)) and beta.real <= -0.65 for t, beta in zip(parts.turns, parts.betas)):
            return pair, p, rho
    raise AssertionError("no steep interior site among the seeded pairs")


def test_gate_keeps_every_rho_site_integrable():
    # a passing site lies in its window (offset - 1, offset), u = 1/p: at 1
    # that gives 2 gamma_c > u - 1 and 2 gamma_d > -u, at -1 2 gamma_c > u - 2
    # and 2 gamma_d > -1 - u beside the 2 of (1+t)(1+1/t), and inside
    # gamma_c > u - 1 and gamma_d > -u.  Every sum exceeds -1, so past the gate
    # rho is integrable and the oracle applies.
    rng = np.random.default_rng(11)
    ps = [Fraction(2), Fraction(3, 2), Fraction(3), Fraction(4, 3), Fraction(101, 100), Fraction(100)]
    least, passed = 0.0, 0
    for _ in range(300):
        pair = pair_from_c_and_b(random_structural_c(rng, denom=16), random_generic_b(rng, denom=16))
        for p in ps:
            try:
                rep_c, rep_d = normalized_pair(pair, p)
            except (NotFredholm, BoundaryCase):
                continue
            betas = rho_parts(rep_c, rep_d, pair.b).betas
            least, passed = min([least, *(beta.real for beta in betas)]), passed + 1
    assert passed >= 1000 and -1 < least < -0.75


def test_quadrature_agrees_with_de_on_seeded_pairs():
    # the steep pair is among them; the tanh-sinh nodes reach its -0.8125 site
    for pair, p, rho in seeded_pairs():
        de = rho_de(rho.parts, 16)
        assert de.parts is rho.parts
        assert rho.tail_bound < 1e-11 and de.tail_bound < 1e-12
        assert np.max(np.abs(rho.coeffs - de.coeffs)) < 1e-12


def test_one_sided_rho_is_a_slice_of_the_symmetric_one():
    # rho_k for -5 <= k <= 16 is sized for the same top frequency as |k| <= 16, so it
    # runs the same rule; only the summation differs
    for pair, p, rho in seeded_pairs():
        part = rho_coefficients(*normalized_pair(pair, p), pair.b, range(-5, 17))
        assert part.inner_N == rho.inner_N
        assert np.max(np.abs(part.coeffs - rho.coeffs[11:])) < 1e-13
    assert part.get(-5) == part.coeffs[0]
    with pytest.raises(IndexError):
        part.get(-6)
    with pytest.raises(ValueError):
        part.evenness_defect()


def test_rho_de_matches_mpmath_quad_on_steep_pair():
    # mpmath's tanh-sinh runs in its own arithmetic on each half-arc, in
    # w = u^{1/g} with u the offset from the end site and g = 1/(1 + Re beta)
    # there, so the integrand u^beta du stays bounded at w = 0.  Both routes
    # read rho through _rho_values, which test_rho_values_match_factor_products
    # checks on its own.
    import mpmath

    _, _, rho = steep_pair()
    de = rho_de(rho.parts, 16)
    turns = rho.parts.turns

    @functools.lru_cache(maxsize=None)
    def value(anchor, u):
        return complex(wiener_hopf._rho_values(rho.parts, np.array([anchor]), np.array([u]))[0])

    for k in (0, -5, 16):
        total = 0
        for i, turn in enumerate(turns):
            width = math.pi * float((turns[(i + 1) % len(turns)] - turn) % 1)
            for anchor, sign in ((i, 1), ((i + 1) % len(turns), -1)):
                x0 = 2 * math.pi * float(turns[anchor])
                g = 1 / min(1.0, 1 + rho.parts.betas[anchor].real)

                def f(w):
                    u = sign * w**g
                    return g * w ** (g - 1) * value(anchor, float(u)) * mpmath.expj(-k * (x0 + u))

                total += mpmath.quad(f, [0, width ** (1 / g)])
        assert abs(complex(total) / (2 * math.pi) - de.get(k)) < 1e-13, k


def test_rho_values_match_factor_products():
    # an independent pointwise route: principal powers from e^{ix} through
    # plus_factor_tilde_at, and b through eval_many, on angles at least
    # 1e-3 rad from every site, where neither route loses the offset
    for pair, p, rho in seeded_pairs():
        rep_c, rep_d = normalized_pair(pair, p)
        sites = 2 * np.pi * np.array([float(t) for t in rho.parts.turns])
        xs = 2 * np.pi * (np.arange(400) + 0.37) / 400
        gap = np.abs(np.remainder(xs[:, None] - sites[None, :] + np.pi, 2 * np.pi) - np.pi).min(axis=1)
        xs = xs[gap >= 1e-3]
        assert xs.size >= 300
        z = np.exp(1j * xs)
        direct = (
            z ** (-rep_d.n - rep_c.n) * (1 + z) * (1 + 1 / z)
            * plus_factor_tilde_at(build_plus_factor(rep_c), z) * plus_factor_tilde_at(build_plus_factor(rep_d), z)
            / eval_many(pair.b, xs)
        )
        got = rho_at(rho, xs)
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_rho_eval_at_through_minus_one_raises_no_warning():
    # (1+t)(1+1/t) stays a factor, so rho at -1 is 0 with no log(0) inside;
    # every pair whose c_+ and d_+ leave no exponent at -1 is checked, jumps
    # of b elsewhere included
    xs = np.linspace(np.pi - 1e-3, np.pi + 1e-3, 41)
    assert np.pi in xs
    checked = 0
    for pair, p, rho in seeded_pairs():
        if rho.parts.betas[rho.parts.turns.index(Fraction(1, 2))] != 2:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = rho_at(rho, xs)
        assert np.all(np.isfinite(vals)) and vals[20] == 0
        checked += 1
    assert checked >= 10


def test_steep_site_insensitive_to_sliver_width(monkeypatch):
    # every site factor is evaluated from the node's exact offset to its site
    # and each sliver is integrated from its leading terms, so cutting every
    # sliver 40 bits further down, 2^(40 / (Re beta + 3))-fold narrower and
    # 3e5-fold at the steep site, moves nothing beyond the bound
    pair, p, rho = steep_pair()
    monkeypatch.setattr(wiener_hopf, "RHO_RULE", (24, 93))
    _, _, narrow = rho_for_pair(pair, p, N_keep=16)
    assert narrow.inner_N > rho.inner_N
    assert np.max(np.abs(narrow.coeffs - rho.coeffs)) < min(1e-14, rho.tail_bound)


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


def test_leggauss_rounds_the_exact_rule():
    # numpy's leggauss(24) puts its weights up to 1,088 ulps off; the bounds take each node and
    # weight of _leggauss as the float nearest the exact one
    import mpmath

    with mpmath.workdps(40):
        exact = sorted(mpmath.calculus.quadrature.GaussLegendre(mpmath.mp).calc_nodes(4, mpmath.mp.prec))
        x, w = wiener_hopf._leggauss(24)
        assert len(exact) == x.size == 24
        for xi, wi, (xe, we) in zip(x, w, exact):
            assert abs(xi - xe) <= abs(np.spacing(xi)) / 2 and abs(wi - we) <= np.spacing(wi) / 2


def mp_rho_coefficients(rep_c, rep_d, b, ks, dps=17):
    """rho_k, k in ks, of the pair (rep_c, rep_d) and b by mpmath, independently of wiener_hopf.rho_parts.

    rho is the product t^{-m-n}(1+t)(1+1/t) c_+(1/t) d_+(1/t) / b(t) in mpmath
    arithmetic, with (1+t)(1+1/t) = 4 sin^2(d/2), every eta power (1 - e^{-id})^e as
    the principal power of 2 sin(d/2) e^{i(pi - d)/2}, and every jump phase e^{i beta
    (d - pi)}, each from the exact offset d to its site.  Each half-arc is integrated by tanh-sinh in w, where u = w^g is the
    offset from its end site and g = 1/min(1, 1 + Re beta) there, so the
    integrand stays bounded at w = 0.  The sites and their exponents are read
    off the plus factors and b here too.
    """
    import mpmath

    factors = (build_plus_factor(rep_c), build_plus_factor(rep_d))
    half = Fraction(1, 2)
    sites = {Fraction(0): Fraction(0), half: Fraction(2)}
    for j in b.jumps:
        sites.setdefault(j.point.turns, Fraction(0))
    for f in factors:
        for point, e in f.eta_exponents:
            sites[point.conjugate().turns] = sites.get(point.conjugate().turns, Fraction(0)) + e.re
    turns = sorted(sites)

    def mpf(q):
        return mpmath.mpf(q.numerator) / q.denominator

    out = {k: 0 for k in ks}
    with mpmath.workdps(dps):
        two_pi = 2 * mpmath.pi
        etas = [(p.conjugate().turns, mpf(e.re) + 1j * mpmath.mpf(e.im)) for f in factors for p, e in f.eta_exponents]
        jumps = [(j.point.turns, mpf(j.beta.re) + 1j * mpmath.mpf(j.beta.im)) for j in b.jumps]
        logs = [(-k, mpmath.mpc(v)) for f in factors for k, v in f.analytic_log.coeffs]
        logs += [(k, -mpmath.mpc(v)) for k, v in b.log_smooth.coeffs]
        const = mpmath.mpc(factors[0].constant) * mpmath.mpc(factors[1].constant) / mpmath.mpc(b.scale)
        power = -(rep_d.n + rep_c.n) - b.kappa
        for i, turn in enumerate(turns):
            nxt = turns[(i + 1) % len(turns)]
            width = mpmath.pi * mpf((nxt - turn) % 1)
            for anchor, sign in ((turn, 1), (nxt, -1)):
                base = {s: two_pi * mpf((anchor - s + half) % 1 - half) for s in turns}
                x0 = two_pi * mpf(anchor)
                g = mpmath.mpf(1) / min(1, 1 + mpf(sites[anchor]))

                @functools.lru_cache(maxsize=None)
                def value(w):
                    u = sign * w**g
                    x = x0 + u
                    t = mpmath.expj(x)
                    val = const * mpmath.expj(power * x) * 4 * mpmath.sin((base[half] + u) / 2) ** 2
                    val *= mpmath.exp(sum(v * t**k for k, v in logs))
                    for s, e in etas:
                        d = base[s] + u
                        val *= mpmath.power(2 * mpmath.sin(d / 2) * mpmath.expj((mpmath.pi - d) / 2), e)
                    for s, beta in jumps:
                        d = base[s] + u
                        val *= mpmath.exp(-1j * beta * ((d if d > 0 else d + two_pi) - mpmath.pi))
                    return g * w ** (g - 1) * val, x

                for k in ks:
                    out[k] += mpmath.quad(lambda w: value(w)[0] * mpmath.expj(-k * value(w)[1]), [0, width ** (1 / g)])
        return {k: complex(v / two_pi) for k, v in out.items()}


@functools.lru_cache(maxsize=1)
def bound_cases():
    """(pair, p, mpmath rho_k by k) on a Latin-square quarter of criterion 4's Jacobi grid
    (each exponent once per kappa as alpha and once as beta), the steep pair and every
    eighth seeded pair; the mpmath references cost about 1 s per seeded pair."""
    exponents = (Fraction(-2, 5), Fraction(0), Fraction(3, 10), Fraction(7, 10))
    cases = []
    for kappa in (1, 2, 3, 4):
        for i, alpha in enumerate(exponents):
            pair = validate_pair(CanonicalSymbol.one(), invert(jacobi_symbol(alpha, exponents[(i + kappa) % 4], kappa)))
            cases.append((pair, 2, (16,)))
    pair, p, _ = steep_pair()
    cases.append((pair, p, (0, -5, 16)))
    cases += [(pair, p, (16,)) for pair, p, _ in seeded_pairs()[::8]]
    return tuple((pair, p, mp_rho_coefficients(*normalized_pair(pair, p), pair.b, ks)) for pair, p, ks in cases)


def bound_violations() -> list[tuple[int, int, float, float]]:
    """(case, k, |quadrature - mpmath|, bound) wherever rho_coefficients misses its own bound."""
    out = []
    for i, (pair, p, ref) in enumerate(bound_cases()):
        rho = rho_for_pair(pair, p, N_keep=16)[2]
        out += [(i, k, abs(rho.get(k) - want), rho.tail_bound) for k, want in ref.items() if abs(rho.get(k) - want) > rho.tail_bound]
    return out


def test_rho_bound_holds_against_mpmath():
    # test_quadrature_agrees_with_de_on_seeded_pairs keeps the bound below 1e-11 on all 40 seeded pairs
    assert len(bound_cases()) == 22
    assert bound_violations() == []


@pytest.mark.parametrize(
    "term, rule",
    [("_quadrature_term", (4, 53)), ("_sliver_term", (24, 20)), ("_rounding_term", (24, 53))],
)
def test_rho_bound_fails_without_each_term(monkeypatch, term, rule):
    # a rule whose error that term carries: 4 nodes per panel, slivers cut at 2^-20 of each
    # site's local mass, or the production rule, whose error is rounding; the full bound
    # still holds there
    monkeypatch.setattr(wiener_hopf, "RHO_RULE", rule)
    assert bound_violations() == []
    monkeypatch.setattr(wiener_hopf, term, lambda *args: 0.0)
    assert bound_violations()
