"""Shared builders for randomized test instances, and the second routes only the tests use.

The second routes are references the suite checks production against, kept
out of the package because no command reaches them: pointwise symbol values
(eval_symbol), the winding of a drawn symbol curve and the coset test of
its arcs, dense finite sections,
closed-form values of plus factors and of rho, the reconstruction of a
normalized representation, and the Jacobi determinant closed form of
acceptance criterion 4.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from th_fredholm import __version__
from th_fredholm.fredholm_engine import (
    EPS_BOUNDARY,
    CurveData,
    NormalizedRep,
    NotFredholm,
    PlusFactor,
    PMap,
    build_plus_factor,
    fredholm_conditions,
    normalized_pair,
)
from th_fredholm.special_families import A_MINUS_HA, A_MINUS_HTINV_A, A_PLUS_HA, A_PLUS_HT_A
from th_fredholm.symbol_core import (
    TWO_PI,
    CanonicalSymbol,
    EvalAtJump,
    Exponent,
    FourierLogPoly,
    JumpFactor,
    MINUS_ONE,
    ONE,
    SymbolPair,
    UnitPoint,
    eval_many,
    jump_unit,
    multiply,
    validate_pair,
)
from th_fredholm.verification_oracle import TwoSidedSeries, fourier_coeffs
from th_fredholm.wiener_hopf import RhoSeries, _rho_values, rho_coefficients

UPPER_ANGLES = [(1, 8), (1, 4), (3, 8), (1, 3), (1, 6), (2, 5)]


def rotate_half(s: CanonicalSymbol) -> CanonicalSymbol:
    """The symbol s(-t): jumps rotate by half a turn, odd log coefficients flip sign."""
    return CanonicalSymbol(
        kappa=s.kappa,
        scale=s.scale * (-1.0) ** (s.kappa % 2),
        log_smooth=FourierLogPoly.of({k: v * (-1.0) ** (k % 2) for k, v in s.log_smooth.coeffs}),
        jumps=tuple(
            JumpFactor(UnitPoint(j.point.num * 2 + j.point.den, 2 * j.point.den), j.beta) for j in s.jumps
        ),
    )


def family_lows(tag: str, p: Fraction) -> tuple[Fraction, Fraction]:
    """Lower ends of the family windows for Re beta at 1 and at -1; each has length one."""
    hq = (p - 1) / (2 * p)
    deep = Fraction(-1, 2) - hq
    return {
        A_PLUS_HA: (deep, -hq),
        A_MINUS_HA: (-hq, deep),
        A_MINUS_HTINV_A: (-hq, -hq),
        A_PLUS_HT_A: (deep, deep),
    }[tag]


def gate_sweep_doc(pair: SymbolPair, ps) -> dict:
    """The sweep document by the per-row route: normalized_pair at every p."""
    rows = []
    for p in ps:
        row = {"p": float(p), "overall": "pass", "n": None, "m": None, "index": None}
        try:
            rep_c, rep_d = normalized_pair(pair, p)
        except NotFredholm as e:
            row["overall"] = e.report.overall
        else:
            row.update(n=rep_c.n, m=rep_d.n, index=rep_d.n - rep_c.n)
        rows.append(row)
    return {"command": "sweep", "version": __version__, "rows": rows}


def interval_by_fractions(pmap: PMap, u: Fraction) -> int | None:
    """PMap.interval by the all-Fraction band search alone, with no float prefilter."""
    us = [b.u for b in pmap.breakpoints]
    reach = 2 * Fraction(EPS_BOUNDARY)
    lo = bisect.bisect_left(us, u - reach)
    hi = bisect.bisect_right(us, u + reach)
    if any(b.in_band(u) for b in pmap.breakpoints[lo:hi]):
        return None
    return bisect.bisect_right(pmap.edges, u) - 1


def sampled_fft_coeffs(s: CanonicalSymbol, N: int, oversample: int = 8) -> TwoSidedSeries:
    """Coefficients by plain FFT on a shifted uniform grid.

    Aliasing decays only like 1/M for symbols with jumps, so this sampler is
    an oracle for smooth symbols and a smoke test otherwise.
    """
    M = 1
    while M < oversample * (2 * N + 1):
        M *= 2
    xs = (np.arange(M) + 0.5) * (2 * np.pi / M)
    vals = eval_many(s, xs)
    spectrum = np.fft.fft(vals) / M
    # undo the half-step shift and reorder to |k| <= N
    ks = np.arange(M)
    ks[ks > M // 2] -= M
    spectrum *= np.exp(-1j * ks * (np.pi / M))
    out = np.empty(2 * N + 1, dtype=complex)
    for k in range(-N, N + 1):
        out[k + N] = spectrum[k % M]
    return TwoSidedSeries(out)


def random_exponent(rng: np.random.Generator, denom: int = 64, imag_odds: float = 0.3) -> Exponent:
    re = Fraction(int(rng.integers(-denom // 2, denom // 2 + 1)), denom)
    im = float(rng.normal() * 0.1) if rng.random() < imag_odds else 0.0
    return Exponent(re, im)


def random_structural_c(
    rng: np.random.Generator, max_pairs: int = 2, denom: int = 64, log_terms: int = 2
) -> CanonicalSymbol:
    """Random symbol with c*c~ = 1: odd log, paired jumps, scale +-1."""
    scale = 1.0 if rng.random() < 0.7 else -1.0
    kappa = int(rng.integers(-2, 3))
    log: dict[int, complex] = {}
    for k in range(1, int(rng.integers(0, log_terms + 1)) + 1):
        v = complex(rng.normal(), rng.normal()) * 0.15
        log[k] = v
        log[-k] = -v
    jumps = []
    if rng.random() < 0.8:
        jumps.append(JumpFactor(UnitPoint(0, 1), random_exponent(rng, denom)))
    if rng.random() < 0.8:
        jumps.append(JumpFactor(UnitPoint(1, 2), random_exponent(rng, denom)))
    n_pairs = int(rng.integers(0, max_pairs + 1))
    for i in rng.choice(len(UPPER_ANGLES), size=n_pairs, replace=False):
        num, den = UPPER_ANGLES[i]
        beta = random_exponent(rng, denom)
        jumps.append(JumpFactor(UnitPoint(num, den), beta))
        jumps.append(JumpFactor(UnitPoint(den - num, den), beta))
    return CanonicalSymbol(kappa=kappa, scale=scale, log_smooth=log, jumps=tuple(jumps))


def random_generic_b(
    rng: np.random.Generator, with_jumps: bool = True, denom: int = 64
) -> CanonicalSymbol:
    """Random invertible symbol with no structural constraints."""
    kappa = int(rng.integers(-2, 3))
    scale = complex(rng.normal(), rng.normal()) * 0.5
    while abs(scale) < 0.2:
        scale = complex(rng.normal(), rng.normal()) * 0.5
    log = {}
    for k in (-2, -1, 1, 2):
        if rng.random() < 0.5:
            log[k] = complex(rng.normal(), rng.normal()) * 0.15
    jumps = []
    if with_jumps:
        for num, den in [(0, 1), (1, 2), (1, 4), (3, 4), (1, 3)]:
            if rng.random() < 0.3:
                jumps.append(JumpFactor(UnitPoint(num, den), random_exponent(rng, denom)))
    return CanonicalSymbol(kappa=kappa, scale=scale, log_smooth=log, jumps=tuple(jumps))


def unimodular_symbol(rng: np.random.Generator, pair_cap: int = 20) -> CanonicalSymbol:
    """Random phi with phi * phi~ = 1: odd log, matched pair jumps."""
    k = int(rng.integers(1, 3))
    v = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.2, 0.2))
    beta_one = Exponent(Fraction(int(rng.integers(-45, 46)), 100), rng.uniform(-0.1, 0.1))
    beta_mone = Exponent(Fraction(int(rng.integers(-45, 46)), 100), rng.uniform(-0.1, 0.1))
    pt = UnitPoint(int(rng.integers(1, 5)), 11)
    shared = Exponent(Fraction(int(rng.integers(-pair_cap, pair_cap + 1)), 100))
    return CanonicalSymbol(
        kappa=int(rng.integers(-2, 3)),
        scale=float(rng.choice([1.0, -1.0])),
        log_smooth={k: v, -k: -v},
        jumps=(
            JumpFactor(ONE, beta_one),
            JumpFactor(MINUS_ONE, beta_mone),
            JumpFactor(pt, shared),
            JumpFactor(pt.conjugate(), shared),
        ),
    )


def replace(obj, **changes):
    """A copy of the package record obj with the named fields changed."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj.__slots__}, **changes})


def pair_from_c_and_b(c: CanonicalSymbol, b: CanonicalSymbol) -> SymbolPair:
    return validate_pair(multiply(c, b), b)


def random_fredholm_pair(
    rng: np.random.Generator,
    p,
    max_pairs: int = 2,
    denom: int = 64,
    with_b_jumps: bool = True,
    tries: int = 200,
) -> SymbolPair:
    """Random valid pair whose conditions pass strictly at p."""
    for _ in range(tries):
        c = random_structural_c(rng, max_pairs=max_pairs, denom=denom)
        b = random_generic_b(rng, with_jumps=with_b_jumps, denom=denom)
        pair = pair_from_c_and_b(c, b)
        if fredholm_conditions(pair, p).overall == "pass":
            return pair
    raise RuntimeError(f"no Fredholm instance found at p={p} after {tries} tries")


def _smooth_pair(rng: np.random.Generator, n0: int, kb: int) -> SymbolPair:
    """Pair with smooth data only: n = n0 and m = -n0 - kb, both exact."""
    v1 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))
    v2 = complex(rng.uniform(-0.15, 0.15), rng.uniform(-0.1, 0.1))
    c = CanonicalSymbol(kappa=2 * n0, log_smooth={1: v1, -1: -v1, 2: v2, -2: -v2})
    scale = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
    log_b = {k: complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)) for k in (-1, 1)}
    b = CanonicalSymbol(kappa=kb, scale=scale, log_smooth=log_b)
    return pair_from_c_and_b(c, b)


def golden_kernel_instances() -> list[tuple[str, SymbolPair, object]]:
    """Twenty fixed pairs with n <= 0 whose kernels are explicitly checkable.

    Kernel-bearing entries keep both symbols smooth so the candidate vectors
    decay fast enough for a sharp finite-section residual; the jump entries
    have empty kernels and exercise the counting path instead.
    """
    rng = np.random.default_rng(7041)
    smooth_grid = [
        (0, -1, 2),
        (0, -2, 2),
        (0, -3, Fraction(3, 2)),
        (-1, 0, 2),
        (-1, 1, 2),
        (-1, -1, Fraction(3, 2)),
        (-2, 0, 2),
        (-2, 2, 3),
        (-2, 1, 2),
        (-3, 0, 2),
        (-3, 3, 2),
        (0, 1, 2),
    ]
    out: list[tuple[str, SymbolPair, object]] = []
    for i, (n0, kb, p) in enumerate(smooth_grid):
        out.append((f"smooth-{i}", _smooth_pair(rng, n0, kb), p))
    for i, (kappa, sign, p) in enumerate([(-1, 1.0, 2), (-2, 1.0, 2), (-1, -1.0, Fraction(3, 2)), (1, 1.0, 2)]):
        mono = CanonicalSymbol(kappa=kappa, scale=sign)
        out.append((f"monomial-{i}", validate_pair(mono, mono), p))
    jump_syms = [
        (multiply(CanonicalSymbol.monomial(1), jump_unit(0, 1, Fraction(1, 8))), 2),
        (multiply(CanonicalSymbol.monomial(2), jump_unit(1, 2, Fraction(-1, 8))), 2),
        (
            multiply(
                CanonicalSymbol.monomial(1),
                multiply(jump_unit(1, 4, Fraction(1, 10)), jump_unit(3, 4, Fraction(1, 10))),
            ),
            Fraction(3, 2),
        ),
        (
            multiply(
                CanonicalSymbol(kappa=1, scale=-1.0),
                multiply(jump_unit(0, 1, Fraction(1, 5)), jump_unit(1, 2, Fraction(-1, 5))),
            ),
            2,
        ),
    ]
    for i, (sym, p) in enumerate(jump_syms):
        out.append((f"jump-{i}", validate_pair(sym, sym), p))
    return out


def hankel_split_factors(report):
    """rho0 and rho1 of the I+H split rho = rho0 * rho1, from a hankel_identity_report.

    rho0 collects the zero-or-pole factors (2-2cos(x-theta_r))^alpha and the
    squared smooth part of the plus factor c_+; rho1 is (-1)^{n+} times a
    symmetric square wave for each jump pair whose gamma_r - delta_r is odd.
    """
    rep_c, rep_d = report.defect.rep_c, report.defect.rep_d
    c_plus = build_plus_factor(rep_c)
    v_exponents = [
        (ONE, (rep_c.gamma_plus + rep_d.gamma_plus).value),
        (MINUS_ONE, (rep_c.gamma_minus + rep_d.gamma_minus).value + 1.0),
    ]
    deltas = dict(rep_d.gammas)
    for pt, g in rep_c.gammas:
        half = (g + deltas[pt]).value / 2
        v_exponents += [(pt, half), (pt.conjugate(), half)]

    def rho0(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = np.exp(1j * x)
        out = np.full(z.shape, c_plus.constant**2, dtype=complex)
        for k, v in c_plus.analytic_log.coeffs:
            out = out * np.exp(v * (z**k + z ** (-k)))
        for pt, alpha in v_exponents:
            out = out * np.exp(alpha * np.log(2.0 - 2.0 * np.cos(x - pt.angle)))
        return out

    def rho1(x: np.ndarray) -> np.ndarray:
        xs = np.mod(np.asarray(x, dtype=float), 2 * math.pi)
        out = np.full(xs.shape, (-1.0) ** report.n_plus)
        for pt, n_r in report.pair_signs:
            if n_r % 2:
                inside = (xs < pt.angle) | (xs > 2 * math.pi - pt.angle)
                out = out * np.where(inside, 1.0, -1.0)
        return out

    return rho0, rho1


# -- second routes: pointwise symbol values, curve windings, dense sections, closed forms


def eval_symbol(s: CanonicalSymbol, x: float) -> complex:
    """Evaluate s at t = exp(i*x), x taken mod 2*pi, away from jump angles.

    The scalar route to symbol_core.eval_many's values, factor by factor.

    Raises
    ------
    EvalAtJump
        If x coincides with a jump angle of s (use one_sided_limits there).
    """
    x = float(x) % TWO_PI
    for j in s.jumps:
        d = abs((x - j.point.angle + math.pi) % TWO_PI - math.pi)
        if d < 1e-13:
            raise EvalAtJump(f"angle {x!r} hits the jump at {j.point}")
    val = s.scale * cmath.exp(1j * s.kappa * x)
    z = cmath.exp(1j * x)
    val *= cmath.exp(sum(v * z**k for k, v in s.log_smooth.coeffs))
    for j in s.jumps:
        # u(tau, beta) = exp(i*beta*(x' - pi)), x' the angle of t/tau in (0, 2*pi)
        val *= cmath.exp(1j * j.beta.value * ((x - j.point.angle) % TWO_PI - math.pi))
    return val


@dataclass(frozen=True, eq=False)
class FiniteSection:
    """Dense N x N section with entries a_{j-k} + b_{j+k+1}."""

    N: int
    matrix: np.ndarray


def toeplitz_matrix(series: TwoSidedSeries, N: int) -> np.ndarray:
    """Section (a_{j-k}) of size N; needs coefficients to |k| = N-1."""
    if series.N < N - 1:
        raise ValueError(f"need coefficients to {N - 1}, have {series.N}")
    i = np.arange(N)[:, None]
    j = np.arange(N)[None, :]
    return series.coeffs[series.N + i - j]


def hankel_matrix(series: TwoSidedSeries, N: int) -> np.ndarray:
    """Section (b_{j+k+1}) of size N; needs coefficients to 2N-1."""
    if series.N < 2 * N - 1:
        raise ValueError(f"need coefficients to {2 * N - 1}, have {series.N}")
    i = np.arange(N)[:, None]
    j = np.arange(N)[None, :]
    return series.coeffs[series.N + 1 + i + j]


def curve_points(curve: CurveData) -> np.ndarray:
    """Every point of the drawn curve, segment after segment."""
    return np.concatenate([np.asarray(points, dtype=complex) for _, points in curve.segments])


def winding_from_curve(curve: CurveData) -> int:
    """Winding about the origin by continuous argument tracking along the polyline."""
    pts = curve_points(curve)
    closed = np.concatenate([pts, pts[:1]])
    increments = np.angle(closed[1:] / closed[:-1])
    total = float(np.sum(increments))
    w = total / TWO_PI
    nearest = round(w)
    if abs(w - nearest) > 0.1:
        raise ValueError(f"winding {w:.4f} is not close to an integer; refine the sampling")
    return int(nearest)


def arcs_through_origin(curve: CurveData, big_p) -> list[str]:
    """Tags of the drawn arcs that meet the origin, by a float coset test of their ends.

    The arc from z1 to z2 at a site is the locus arg((z-z1)/(z-z2)) =
    2 pi theta, with theta = 1/2 + 1/(2P) at 1, 1/(2P) at -1 and 1/P at an
    interior jump, so it meets the origin when arg(z1/z2) lies within 1e-9
    turns of theta + Z.  arg(z1/z2) is the difference of the two phases,
    since the quotient itself under- or overflows when |z1| and |z2| lie far
    apart.  P is p on the c side and q on the d side.
    """
    pf = float(big_p)
    thetas = {"arc(0/1)": 0.5 + 0.5 / pf, "arc(1/2)": 0.5 / pf}
    flagged = []
    for tag, points in curve.segments:
        if tag == "image":
            continue
        z1, z2 = points[0], points[-1]
        gap = ((cmath.phase(z1) - cmath.phase(z2)) / TWO_PI - thetas.get(tag, 1.0 / pf)) % 1.0
        if min(gap, 1.0 - gap) < 1e-9:
            flagged.append(tag)
    return flagged


def finite_section(pair: SymbolPair, N: int) -> FiniteSection:
    """Dense N x N truncation of the operator matrix."""
    a_series = fourier_coeffs(pair.a, N - 1)
    b_series = fourier_coeffs(pair.b, 2 * N - 1)
    return FiniteSection(N, toeplitz_matrix(a_series, N) + hankel_matrix(b_series, N))


def reconstruct(rep: NormalizedRep) -> CanonicalSymbol:
    """The symbol t^{2n} a0 u(1,2g+) u(-1,2g-) prod u(tau,g) u(conj tau,g) that rep represents."""
    jumps = [
        JumpFactor(ONE, rep.gamma_plus + rep.gamma_plus),
        JumpFactor(MINUS_ONE, rep.gamma_minus + rep.gamma_minus),
    ]
    for pt, g in rep.gammas:
        jumps.append(JumpFactor(pt, g))
        jumps.append(JumpFactor(pt.conjugate(), g))
    return CanonicalSymbol(
        kappa=2 * rep.n, scale=rep.smooth_scale, log_smooth=rep.smooth_log, jumps=tuple(jumps)
    )


def plus_factor_at(factor: PlusFactor, z: np.ndarray) -> np.ndarray:
    """Closed-form values of c_+ on or inside the unit circle (principal powers)."""
    zz = np.asarray(z, dtype=complex)
    out = np.full(zz.shape, factor.constant, dtype=complex)
    acc = np.zeros(zz.shape, dtype=complex)
    for k, v in factor.analytic_log.coeffs:
        acc = acc + v * zz**k
    out = out * np.exp(acc)
    for point, e in factor.eta_exponents:
        out = out * np.exp(e.value * np.log(1.0 - zz / np.exp(1j * point.angle)))
    return out


def mp_plus_factor_series(factor: PlusFactor, N: int, inverted: bool = False, dps: int = 30) -> list[complex]:
    """Coefficients of c_+, or of 1/c_+ when inverted, to t^N as an mpmath series product.

    Each exp(v t^k) enters as its exponential series and each (1 - t/tau)^beta
    as its binomial series, with tau from mpmath, and the products are
    truncated at t^N, all at dps digits.  1/c_+ negates every exponent and
    log coefficient.
    """
    import mpmath

    sign = -1 if inverted else 1
    with mpmath.workdps(dps):
        out = [mpmath.mpc(1)] + [mpmath.mpc(0)] * N

        def times(series):
            return [mpmath.fdot(out[: n + 1], series[n::-1]) for n in range(N + 1)]

        for k, v in factor.analytic_log.coeffs:
            series, term = [mpmath.mpc(0)] * (N + 1), mpmath.mpc(1)
            for m in range(N // k + 1):
                series[k * m] = term
                term = term * sign * mpmath.mpc(v) / (m + 1)
            out = times(series)
        for point, e in factor.eta_exponents:
            beta = sign * (mpmath.mpf(e.re.numerator) / e.re.denominator + 1j * mpmath.mpf(e.im))
            w = mpmath.expjpi(-2 * mpmath.mpf(point.num) / point.den)
            series = [mpmath.mpc(1)]
            for k in range(1, N + 1):
                series.append(series[-1] * (beta - k + 1) / k * (-w))
            out = times(series)
        constant = mpmath.mpc(factor.constant)
        return [complex((constant if sign == 1 else 1 / constant) * z) for z in out]


def plus_factor_tilde_at(factor: PlusFactor, z: np.ndarray) -> np.ndarray:
    """Closed-form values of c_+(1/z)."""
    return plus_factor_at(factor, 1.0 / np.asarray(z, dtype=complex))


def factor_reconstruction_defect(rep: NormalizedRep, factor: PlusFactor, angles: np.ndarray) -> float:
    """Max pointwise gap between the input symbol and c_+(t) t^{2n} / c_+(1/t)."""
    sym = reconstruct(rep)
    z = np.exp(1j * np.asarray(angles, dtype=float))
    recon = plus_factor_at(factor, z) * z ** (2 * rep.n) / plus_factor_tilde_at(factor, z)
    target = eval_many(sym, angles)
    scale = float(np.max(np.abs(target)))
    return float(np.max(np.abs(recon - target))) / max(scale, 1.0)


def rho_at(rho: RhoSeries, angles: np.ndarray) -> np.ndarray:
    """Closed-form rho on a grid of angles off its sites, each read from its nearest site."""
    xs = np.asarray(angles, dtype=float)
    turns = np.array([float(t) for t in rho.parts.turns])
    gaps = np.remainder(xs[:, None] - 2 * np.pi * turns + np.pi, 2 * np.pi) - np.pi
    index = np.argmin(np.abs(gaps), axis=1)
    return _rho_values(rho.parts, index, gaps[np.arange(xs.size), index])


def rho_for_pair(pair, p, N_keep: int) -> tuple[NormalizedRep, NormalizedRep, RhoSeries]:
    """Normalize both sides and compute rho."""
    rep_c, rep_d = normalized_pair(pair, p)
    return rep_c, rep_d, rho_coefficients(rep_c, rep_d, pair.b, N_keep)


@dataclass(frozen=True, eq=False)
class JacobiData:
    alpha: complex
    beta: complex
    kappa: int
    sigma_sq: tuple[complex, ...]
    determinant: complex


def _leading_coefficient_sq(n: int, alpha: complex, beta: complex) -> complex:
    from scipy.special import gamma as gamma_fn  # complex arguments: math.gamma cannot serve

    s = alpha + beta
    if n == 0:
        binom = 1.0 + 0j
    else:
        binom = gamma_fn(2 * n + s + 1) / (gamma_fn(n + 1) * gamma_fn(n + s + 1))
    # the power of two under the (2n+s+1) factor is 2(alpha+beta)+1: the
    # printed source drops the doubling, which a kappa=1 moment integral
    # exposes immediately
    return (
        (2.0 ** (-n) * binom) ** 2
        * (2 * n + s + 1)
        / 2.0 ** (2 * s.real + 1 + 2j * s.imag)
        * gamma_fn(n + 1)
        * gamma_fn(n + s + 1)
        / (gamma_fn(n + alpha + 1) * gamma_fn(n + beta + 1))
    )


def jacobi_determinant(alpha: complex, beta: complex, kappa: int) -> JacobiData:
    """Closed form for det A_{kappa,kappa} of the two-endpoint identity case.

    The weight is sigma(x) = (2-2x)^alpha (2+2x)^beta on [-1, 1]; the
    determinant is 4 * 2^{kappa(kappa-1)} / pi^kappa over the squared
    leading coefficients of the first kappa orthonormal polynomials.  The
    value is nonzero throughout the admissible domain.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    if kappa < 1:
        raise ValueError("kappa must be at least 1")
    if alpha.real <= -1 or beta.real <= -1:
        raise ValueError("weight exponents need real part above -1")
    sigma_sq = tuple(_leading_coefficient_sq(n, alpha, beta) for n in range(kappa))
    det = 4.0 * 2.0 ** (kappa * (kappa - 1)) / math.pi**kappa
    for s in sigma_sq:
        det /= s
    return JacobiData(alpha, beta, kappa, sigma_sq, det)


def jacobi_symbol(alpha, beta, kappa: int) -> CanonicalSymbol:
    """The two-endpoint symbol phi = t^{2 kappa} u_{1,alpha+1/2} u_{-1,beta-1/2}."""
    half = Fraction(1, 2)
    out = multiply(
        CanonicalSymbol.monomial(2 * kappa),
        jump_unit(0, 1, Exponent.of(alpha) + half),
    )
    return multiply(out, jump_unit(1, 2, Exponent.of(beta) - half))
