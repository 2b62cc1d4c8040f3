"""Shared builders for randomized test instances."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from th_fredholm import __version__
from th_fredholm.fredholm_engine import NotFredholm, fredholm_conditions, normalized_pair
from th_fredholm.special_families import A_MINUS_HA, A_MINUS_HTINV_A, A_PLUS_HA, A_PLUS_HT_A
from th_fredholm.symbol_core import (
    CanonicalSymbol,
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
from th_fredholm.verification_oracle import TwoSidedSeries
from th_fredholm.wiener_hopf import build_plus_factor

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
        half = (g + deltas[pt]).half().value
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
        out = np.full(xs.shape, (-1.0) ** report.split.n_plus)
        for pt, n_r in report.split.pair_signs:
            if n_r % 2:
                inside = (xs < pt.angle) | (xs > 2 * math.pi - pt.angle)
                out = out * np.where(inside, 1.0, -1.0)
        return out

    return rho0, rho1
