"""Gauss-Legendre rules, blocked Fourier sums, and the a-priori error bounds of both quadratures.

rho's coefficients (wiener_hopf.rho_coefficients) and a symbol's
(verification_oracle.fourier_coeffs) are sums (1/2pi) sum w f(x) e^{-ikx}
over Gauss-Legendre nodes.  Their error is bounded a priori, as the sum of
the Gauss-Legendre error for an integrand analytic in a Bernstein ellipse
(Trefethen, SIAM Review 50, 2008, Thm 4.5), bounded factor by factor on
the ellipse; for rho, a Cauchy bound on what its sliver rule leaves out;
and the rounding of the values, the weights and the sums (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., 2002, ch. 3).  The rounding
of _fourier_integrals and of a log-polynomial exponent is counted once, by
_integral_units and _log_term_units, for both.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

# unit roundoff of float64; a complex product errs by at most sqrt(2) gamma_2 < 3 UNIT (Higham, Lemma 3.5)
UNIT = 2.0**-53
# Bernstein ellipse of rho's graded panels: a panel [u, 4u] sees its site 5/3 half-widths from its
# centre, and this ellipse reaches (2.5 + 1/2.5)/2 = 1.45 of them
ELLIPSE = 2.5
# nodes per product in _fourier_integrals: a term meets at most this many additions in its
# chunk and one per chunk after it (Higham 2002, sec. 4.2), where one product over the
# slice would give it one per node
SUM_CHUNK = 256
# Gauss-Legendre nodes per panel of verification_oracle.fourier_coeffs
FOURIER_NODES = 24
# the Bernstein ellipses fourier_quadrature tries: each parameter r with log((32/15) r^{-2 FOURIER_NODES} / (r^2 - 1))
FOURIER_ELLIPSES = tuple(
    (r, math.log(32 / 15 / (r * r - 1)) - 2 * FOURIER_NODES * math.log(r)) for r in (2.0, 4.0, 8.0, 16.0, 32.0)
)


def _exp(x: float) -> float:
    """e^x, or inf where that overflows a float."""
    return math.exp(x) if x < 709.0 else math.inf


@functools.lru_cache(maxsize=8)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], each the float nearest its exact value.

    numpy's leggauss places the nodes within an ulp, but its weights can be
    off by a thousand ulps (at n = 24), an error no bound would survive.  So
    from its nodes three Newton steps on P_n run in 128-bit fixed point, and
    w = 2 / ((1 - x^2) P_n'(x)^2) is taken there; about 2 ms per n, once.
    """
    one = 1 << 128
    xs, ws = [], []
    for start in leggauss(n)[0]:
        x = int(start * 2.0**60) << 68
        for _ in range(3):
            p0, p1 = one, x  # P_{k-1}(x), P_k(x)
            for k in range(1, n):
                p0, p1 = p1, ((2 * k + 1) * x * p1 // one - k * p0) // (k + 1)
            slope = n * (x * p1 // one - p0) * one // (x * x // one - one)  # P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1)
            x -= p1 * one // slope
        xs.append(x / one)
        ws.append(2 * one**4 / ((one * one - x * x) * slope * slope))
    return np.array(xs), np.array(ws)


def _power_layout(size: int) -> tuple[int, int, int]:
    """Powers, rows and slice width of _fourier_integrals for `size` coefficients."""
    block = math.isqrt(size - 1) + 1  # about sqrt(size): 33 powers and 32 rows for 1,025 k
    count = -(-size // block)
    return block, count, 2**14 // max(block, count)


def _fourier_integrals(xs, ws, vals, ks: range) -> np.ndarray:
    """(1/2pi) sum_x w f(x) e^{-ikx} for k in ks, a contiguous range, as blocked products.

    With z = e^{-ix}, rows[b] holds w f z^{ks.start + b*block} and powers[j]
    holds z^j, so (rows @ powers.T)[b, j] is the coefficient
    k = ks.start + b*block + j; z^block is powers[-1] z.  The nodes go in
    slices of at most 2^14 / max(block, rows), so neither table exceeds
    256 KiB and the allocator reuses its memory instead of mapping it anew;
    each slice is summed in chunks of SUM_CHUNK nodes.
    """
    block, count, width = _power_layout(len(ks))
    out = np.zeros((count, block), dtype=complex)
    for lo in range(0, xs.size, width):
        x = xs[lo : lo + width]
        z = np.exp(-1j * x)
        powers = np.empty((block, x.size), dtype=complex)
        powers[0] = 1.0
        for j in range(1, block):
            np.multiply(powers[j - 1], z, out=powers[j])
        step = powers[-1] * z
        rows = np.empty((count, x.size), dtype=complex)
        rows[0] = ws[lo : lo + width] * vals[lo : lo + width] * np.exp(-1j * ks.start * x)
        for b in range(1, count):
            np.multiply(rows[b - 1], step, out=rows[b])
        cut = x.size - x.size % SUM_CHUNK
        chunks = rows[:, :cut].reshape(count, -1, SUM_CHUNK).swapaxes(0, 1)
        chunks = chunks @ powers[:, :cut].reshape(block, -1, SUM_CHUNK).transpose(1, 2, 0)
        out += chunks.sum(axis=0) + rows[:, cut:] @ powers[:, cut:].T
    return out.ravel()[: len(ks)] / (2 * np.pi)


def _integral_units(nodes: int, size: int) -> int:
    """Rounding units a summand of _fourier_integrals meets, over `nodes` nodes and `size` k.

    Its additions in its chunk, across chunks and across slices, the
    scaling, and five per product of the two power recurrences.
    """
    block, count, width = _power_layout(size)
    depth = SUM_CHUNK + min(nodes, width) // SUM_CHUNK + -(-nodes // width) + 2
    return depth + 5 * (count * (block + 1) + block)


def _log_term_units(coeffs) -> float:
    """Rounding of the terms v z^k of a log polynomial, in units of UNIT: sum |v| units(k).

    z^k errs by |k| times z's error and by its ladder of products; k = 0 is v itself.
    """
    return sum(abs(v) * (2 * abs(k) + 6 * math.log2(max(abs(k), 1)) + 6) for k, v in coeffs)


def _log_exp_cap(coeffs, height: float) -> float:
    """A bound on Re sum v_k e^{ikw} where |Im w| <= height.

    On the real line the pair k, -k adds Re((v_k + conj v_{-k}) e^{ikx}), at
    most |v_k + conj v_{-k}|, and v_0 adds Re v_0; off it each term moves by
    at most |v_k| (e^{|k| height} - 1).  So a log with an odd imaginary part,
    unimodular on the circle, costs only the move.
    """
    v = dict(coeffs)
    line = v.get(0, 0j).real + sum(abs(v.get(j, 0j) + v.get(-j, 0j).conjugate()) for j in {abs(k) for k in v if k})
    return line + sum(abs(c) * (_exp(abs(k) * height) - 1) for k, c in v.items())


def _span(offset: float, below: float, above: float) -> tuple[float, float]:
    """The range [lo, hi] of |x| over x in offset + [-below, above]; lo is -1 where it holds 0."""
    p, q = offset - below, offset + above
    lo, hi = sorted((abs(p), abs(q)))
    return (-1.0 if p <= 0 <= q else lo), hi


def _log_site_cap(lo: float, hi: float, height: float, beta: complex, phase: complex) -> float:
    """log of a bound on a site's factor of rho where w = x + iy, lo <= |x| <= hi, |y| <= height.

    x is the offset from the site.  The factor is (+-2 sin(w/2))^beta e^{i
    phase (sign(x) pi - w)}: |sin(w/2)| lies between |sin(x/2)| and
    cosh(y/2), the sine's argument within pi/2 and |pi - |x|| below pi.  inf
    where the range reaches the site (lo <= 0 or hi >= 2 pi).
    """
    if not (lo > 0 and hi < 2 * math.pi):
        return math.inf
    br = beta.real
    mod = br * (math.log(2 * min(math.sin(lo / 2), math.sin(hi / 2))) if br < 0 else math.log(2 * math.cosh(height / 2)))
    return mod + math.pi * (abs(beta.imag) / 2 + abs(phase.imag)) + abs(phase.real) * height


def _log_far_caps(parts, below: list, above: list, heights: list) -> list:
    """Per anchor a, the sum over every other site s of _log_site_cap over the offsets
    table[s, a] + [-below[a], above[a]] and heights[a]."""
    table, S = parts.table.tolist(), len(parts.turns)
    return [
        sum(
            _log_site_cap(*_span(table[s][a], below[a], above[a]), heights[a], parts.betas[s], parts.phases[s])
            for s in range(S)
            if s != a
        )
        for a in range(S)
    ]


def _log_common_cap(parts, K: int, height: float) -> float:
    """log of a bound on |const e^{Laurent log} t^power e^{-ikx}|, |k| <= K, where |Im x| <= height."""
    return math.log(abs(parts.const)) + (abs(parts.power) + K) * height + _log_exp_cap(parts.laurent.items(), height)


def _quadrature_term(parts, K: int, freq: int, nodes: int, slivers: list) -> float:
    """Gauss-Legendre error of the panels of wiener_hopf._rho_rule, over 2 pi.

    parts are rho's (wiener_hopf.rho_parts).  A panel of half-width h
    errs by at most h (64/15) M r^{-2n} / (r^2 - 1) with r = ELLIPSE and M a
    bound on |rho(x) e^{-ikx}|, |k| <= K, on its Bernstein ellipse
    (Trefethen, SIAM Review 50, 2008, Thm 4.5).  The ellipse of a panel [l,
    r], r <= 4 l, stays within |x| in [0.325 l, r + 0.45 h] and |Im x| <=
    1.05 h, h <= min(3/8 of the half-arc, 5/freq).  M is bounded factor by
    factor over the anchor's half-arcs.  The anchor's own |2 sin(x/2)|^beta,
    with |2 sin(x/2)| >= 0.2 l where beta < 0, is summed over the panels as
    (1/2) int (0.2 u/4)^beta du from the anchor's sliver to the half-arc.
    """
    ahead = parts.ahead
    back = ahead[-1:] + ahead[:-1]
    heights = [1.05 * min(3 / 8 * max(f, b), 5 / freq) for f, b in zip(ahead, back)]
    reach = 1 + 0.45 * 3 / 8
    far = _log_far_caps(parts, [reach * b for b in back], [reach * f for f in ahead], heights)
    total = 0.0
    for beta, phase, f, b, h, rest, s in zip(parts.betas, parts.phases, ahead, back, heights, far, slivers):
        lean = min(beta.real, 0.0)
        rise = max(beta.real, 0.0) * math.log(2 * math.cosh(h / 2))  # beta >= 0: (2 cosh(h/2))^beta, times the sum of h
        spin = math.pi * (abs(beta.imag) / 2 + abs(phase.imag)) + abs(phase.real) * h
        span = (f ** (lean + 1) + b ** (lean + 1) - 2 * s ** (lean + 1)) / (lean + 1)
        total += _exp(_log_common_cap(parts, K, h) + rest + rise + spin) * (0.2 / 4) ** lean * span / 2
    return 64 / 15 * ELLIPSE ** (-2 * nodes) / (ELLIPSE**2 - 1) * total / (2 * math.pi)


def _slivers(parts, K: int, bits: int) -> tuple[list, list]:
    """Per site, the radius R of its disk in _sliver_term and the width s of its sliver.

    R = min(ahead, behind, 2 / (|power| + K + 1)) and s = R 2^(-bits / (Re
    beta + 3)), so that what _sliver_term leaves out, about M s^(Re beta +
    3) / R^2 with M bounding the site's analytic factor on the disk, is
    2^-bits of the site's local mass, about M R^(Re beta + 1).
    """
    ahead = parts.ahead
    radii = [min(f, b, 2 / (abs(parts.power) + K + 1)) for f, b in zip(ahead, ahead[-1:] + ahead[:-1])]
    return radii, [R * 2.0 ** (-bits / (beta.real + 3)) for R, beta in zip(radii, parts.betas)]


def _sliver_term(parts, K: int, radii: list, slivers: list) -> float:
    """What the sliver rule leaves out, at both sides of every site, over 2 pi.

    Beside a site the integrand is u^beta g(u), g analytic on the disk |u|
    <= R, R from _slivers, at most half the gap to the next site.  The two
    nodes integrate u^beta (g(0) + g'(0) u) exactly; the rest of g is at
    most C u^2 with C = M / (R^2 - s R) (Cauchy, M bounding |g| on the
    disk), s the site's sliver.  Integrated against |u^beta| and summed at
    the nodes, that leaves C s^(Re beta + 3) (1/(Re beta + 3) + (|beta| +
    1/2) / |(beta + 1)(beta + 2)|).
    """
    total, far = 0.0, _log_far_caps(parts, radii, radii, radii)
    for beta, phase, R, rest, s in zip(parts.betas, parts.phases, radii, far, slivers):
        # the site's own factor in g: (2 sin(u/2) / u)^beta, within delta of 1, and its phase
        delta = math.sinh(R / 2) / (R / 2) - 1
        own = beta.real * math.log1p(-delta if beta.real < 0 else delta) + abs(beta.imag) * math.asin(delta)
        own += abs(phase.imag) * (math.pi + R) + abs(phase.real) * R
        cap = _exp(_log_common_cap(parts, K, R) + own + rest) / (R * R - s * R)
        weight = 1 / (beta.real + 3) + (abs(beta) + 0.5) / abs((beta + 1) * (beta + 2))
        total += 2 * cap * s ** (beta.real + 3) * weight
    return total / (2 * math.pi)


def _rounding_term(parts, ks: range, slivers: list, nodes: int, summands: np.ndarray) -> float:
    """Rounding of rho's values, the Fourier factors and the sums, over 2 pi.

    Each summand w rho e^{-ikx} carries a relative error of at most UNIT
    times the sum of: its weight's (8: _leggauss rounds the exact weights);
    its additions and power products in _fourier_integrals; its exp of
    ks.start x; the position error of x (fl(2 pi t) + d, d within 8 UNIT
    |d| of the Gauss node) times |k| and times the value's slope; and the
    rounding inside wiener_hopf._rho_values, taken per anchor site a from
    the offsets of a's nodes to every site s, none nearer a than half a's
    sliver: each exp, log, sin and product a few units, and each addition
    into the exponent one unit of the partial sum, which holds one large
    site log at most (a's own) before the power of t.  Times sum |summands| / 2 pi, with n units taken as n UNIT / (1 -
    n UNIT) (Higham, Lemma 3.1).
    """
    ahead, laurent, table, S = parts.ahead, parts.laurent, parts.table.tolist(), len(parts.turns)
    back = ahead[-1:] + ahead[:-1]
    K = max(-ks.start, ks.stop - 1)
    Xt = 2 * math.pi * float(parts.turns[-1])
    X = Xt + math.pi / 2  # |x|: no offset exceeds a half-arc
    position = 3 * Xt + X + 8 * math.pi
    v_abs = sum(abs(v) for v in laurent.values())
    common = (
        position * (abs(parts.power) + sum(abs(k * v) for k, v in laurent.items()))
        + _log_term_units(laurent.items()) + len(laurent) * v_abs
        + abs(parts.power) * X + 32  # the exp, the constant and products, and the weights (8 UNIT)
    )
    worst = 0.0
    for a in range(S):  # a's nodes lie at offsets table[s, a] + [-back_a, ahead_a] from site s
        value, partial = common, v_abs
        for s in range(S):
            eta, turn = abs(parts.etas[s]), abs(parts.phases[s])
            tie = eta + abs(parts.betas[s] - parts.etas[s])  # with 4 sin^2(d/2) at -1
            if s == a:  # d within 8 UNIT |d| of the node
                sens, spread = 8 * (tie + math.pi * turn), eta * abs(math.log(2 * math.sin(slivers[a] / 4)))
            else:
                lo, hi = _span(table[s][a], back[a], ahead[a])
                if lo <= 0:
                    return math.inf
                near = min(lo, 2 * math.pi - hi)
                slip = 3 * abs(table[s][a]) + hi + 8 * max(ahead[a], back[a])  # |d - exact| / UNIT
                sens = (tie / (2 * math.tan(near / 2)) + turn) * slip
                spread = eta * max(math.log(2), abs(math.log(2 * math.sin(near / 2))))
            value += sens + 2 * spread + 2 * eta + 10 * math.pi * turn
            partial += spread + math.pi * turn
        worst = max(worst, value + (2 * S + 2) * partial)
    t = UNIT * (_integral_units(nodes, len(ks)) + abs(ks.start) * X + K * position + worst)
    return float(np.sum(np.abs(summands))) / (2 * np.pi) * t / (1 - t)


def fourier_quadrature(s, N: int, M: int) -> float:
    """log of the Gauss-Legendre part of fourier_bound over |k| <= N, with M panels.

    s is the symbol.  Every piece, of half-width at most pi/M, sees an
    entire integrand.  With |s(w) e^{-ikw}| bounded by C on the ellipse of
    parameter r, factor by factor as in _quadrature_term, the pieces, whose
    half-widths add up to pi, err by (32/15) C r^{-2 n} / (r^2 - 1) over
    2 pi, n = FOURIER_NODES; the best r of FOURIER_ELLIPSES is taken.
    """
    logs = s.log_smooth.coeffs
    jumps = [j.beta.value for j in s.jumps]
    best = math.inf
    for r, rule in FOURIER_ELLIPSES:
        lift, grow = math.pi / M * (r - 1 / r) / 2, math.pi / M * ((r + 1 / r) / 2 - 1)
        log_cap = math.log(abs(s.scale)) + (abs(s.kappa) + N) * lift + _log_exp_cap(logs, lift)
        log_cap += sum(abs(b.imag) * (math.pi + grow) + abs(b.real) * lift for b in jumps)
        best = min(best, log_cap + rule)
    return best


def fourier_bound(s, N: int, M: int, uncut: float, cut: float, cut_nodes: int) -> float:
    """A-priori bound on the error of verification_oracle.fourier_coeffs over |k| <= N, with M panels.

    s is the symbol.  Quadrature: fourier_quadrature.

    Rounding: uncut and cut are sum |w s(x)| / 2 pi over the nodes of the
    uncut panels and of the cut pieces.  Each summand carries a relative
    error of at most UNIT times: its value's (eval_many's exponent terms and
    sums, its exp, and a position error of at most 8 pi UNIT times the
    slope); its weight's (8, see _rounding_term); for the uncut panels the
    FFT (a pass of radix p errs by at most (p + 7) UNIT, and an 11-smooth M
    has passes of radix 11 at most), the two phase tables, the sum over
    FOURIER_NODES nodes and the products; for the cut pieces, as in _rounding_term, with
    |x| <= 2 pi placed within 10 pi UNIT.
    """
    logs = s.log_smooth.coeffs
    jumps = [j.beta.value for j in s.jumps]
    slope = abs(s.kappa) + sum(abs(b) for b in jumps) + sum(abs(k * v) for k, v in logs)
    partial = 2 * math.pi * abs(s.kappa) + math.pi * sum(abs(b) for b in jumps) + sum(abs(v) for _, v in logs)
    value = (
        8 * math.pi * slope + 2 * math.pi * abs(s.kappa) + 16 * math.pi * sum(abs(b) for b in jumps)
        + _log_term_units(logs) + (len(jumps) + len(logs)) * partial + 8
    )
    passes, rest = 0, M
    for p in (2, 3, 5, 7, 11):
        while rest % p == 0:
            passes, rest = passes + p + 7, rest // p
    phases = 6 * math.pi + 18 * math.pi * N / M  # both tables' arguments, and |k| times x0's error
    t_uncut = UNIT * (value + passes + phases + FOURIER_NODES + 22)
    t_cut = UNIT * (value + _integral_units(cut_nodes, 2 * N + 1) + 12 * math.pi * N + 9)
    return _exp(fourier_quadrature(s, N, M)) + uncut * t_uncut / (1 - t_uncut) + cut * t_cut / (1 - t_cut)
