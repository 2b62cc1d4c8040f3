"""Site products on the circle, and one Gauss-Legendre rule for their Fourier coefficients with an a-priori bound.

rho (wiener_hopf.rho_parts) and a symbol (verification_oracle.symbol_parts) are both site products: a
constant, a Laurent log and a power of t, times per exact site |2 sin(d/2)|^eta and a phase in the offset d
from it.  integrate grades each half-arc whose anchor has eta outside Z>=0 down to a sliver (Schwab,
Computing 53, 1994), and lays every other half-arc on a grid of M equal panels, cut at the sites and the
arcs' midpoints, whose uncut panels one FFT sums (Cooley & Tukey, Math. Comp. 19, 1965).  Its error bound
adds the Gauss-Legendre error on Bernstein ellipses (Trefethen, SIAM Review 50, 2008, Thm 4.5), bounded
factor by factor, of the graded panels and of the grid; a Cauchy bound on what the slivers leave out; and
the rounding of values, weights and sums (Higham, Accuracy and Stability of Numerical Algorithms, 2002).
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .symbol_core import _Record

# unit roundoff of float64; a complex product errs by at most sqrt(2) gamma_2 < 3 UNIT (Higham, Lemma 3.5)
UNIT = 2.0**-53
# Bernstein ellipse of the graded panels: a panel [u, 4u] sees its site 5/3 half-widths from its
# centre, and this ellipse reaches (2.5 + 1/2.5)/2 = 1.45 of them
ELLIPSE = 2.5
# nodes per product in _fourier_integrals: a term meets at most this many additions in its chunk and one per
# chunk after it (Higham 2002, sec. 4.2), where one product over the slice would give it one per node
SUM_CHUNK = 256
# Gauss-Legendre nodes per graded panel, bits of the slivers (_slivers), Gauss-Legendre nodes per grid
# panel, and bits of the grid's share (panel_count)
RULE = (24, 53, 24, 53)


class SiteProduct(_Record, eq=False):
    """f = const e^{laurent(t)} t^power prod_s |2 sin(d_s/2)|^eta_s e^{i phase_s (sign(d_s) pi - d_s)} at t = e^{ix},
    d_s the offset of x from site s, times 4 sin^2(d_s/2) at a site whose beta exceeds its eta; see site_product."""

    turns: list  # the sorted turns of the sites, 0 first
    table: np.ndarray  # table[s, a]: offset from site s to site a, exact in turns before one rounding
    const: complex
    laurent: dict  # the Laurent log without its constant
    power: int  # of t
    top: int  # the top log degree of the factors
    betas: list  # per site: its exponent,
    etas: list  # the exponent of its log term,
    phases: list  # the factor of i (sign(d) pi - d) in the exponent,
    ahead: list  # and the half-width of the arc ahead of it


def site_product(turns, const, laurent, power, top, betas, etas, phases) -> SiteProduct:
    """The site product of these parts, with its table and half-arcs exact in turns before one rounding:
    in units of 1/D turn, D = 2 lcm of the denominators, every turn and half turn is an integer."""
    D = 2 * math.lcm(*(t.denominator for t in turns))
    T = [t.numerator * (D // t.denominator) for t in turns]
    table = 2 * np.pi * np.array([[((a - s + D // 2) % D - D // 2) / D for a in T] for s in T])
    ahead = [np.pi * (((T[(i + 1) % len(T)] - t - 1) % D + 1) / D) for i, t in enumerate(T)]
    return SiteProduct(turns, table, const, laurent, power, top, betas, etas, phases, ahead)


def _graded(parts) -> list:
    """Per site, whether integrate grades its half-arcs: where the product is not analytic on either side."""
    return [not (eta.imag == 0 and eta.real >= 0 and eta.real.is_integer()) for eta in parts.etas]


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


@functools.lru_cache(maxsize=1024)
def fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= n, as scipy.fft.next_fast_len(n, real=False): the grid's panel
    counts and convolve's padded length.  Only the odd 11-smooth numbers below a power of two need doubling."""
    best = 1 << (n - 1).bit_length()
    odd = [1]
    for f in (3, 5, 7, 11):
        grown = []
        for x in odd:
            while x < best:
                grown.append(x)
                x *= f
        odd = grown
    # x << k with k = bit_length((n-1)//x) is the least x*2^k >= n
    return min([best] + [x << ((n - 1) // x).bit_length() for x in odd])


def _rho_values(parts: SiteProduct, index: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The site product at the angles 2 pi turns[index] + offsets, each offset within its anchor's half-arcs.

    One exponent holds the Laurent log, per site eta log|2 sin(d/2)| + i phase (sign(d) pi - d) from the
    offset d to the site, exact near it, and last the power of t, so the partial sums before it stay
    small.  The 4 sin^2(d/2) of a site whose beta exceeds its eta (rho's (1+t)(1+1/t) at -1) stays a
    factor, so the product there is 0 rather than the exponential of log(0).
    """
    turns, table, laurent = parts.turns, parts.table, parts.laurent
    x = 2 * np.pi * np.array([float(t) for t in turns])[index] + offsets
    expo = np.zeros(x.shape, dtype=complex)
    if laurent:
        z = np.exp(1j * x)
        expo += sum(v * z**k for k, v in laurent.items())
    factor = 1.0
    for row, beta, eta, phase in zip(table, parts.betas, parts.etas, parts.phases):
        if not (eta or phase or beta != eta):
            continue
        d = row[index] + offsets
        if eta:
            expo += eta * np.log(2 * np.abs(np.sin(d / 2)))
        if phase:
            expo += 1j * phase * (np.sign(d) * np.pi - d)
        if beta != eta:
            factor = 4 * np.sin(d / 2) ** 2
    expo += 1j * parts.power * x
    return parts.const * np.exp(expo) * factor


def _gauss_panels(lo, hi, freq: int, nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes, weights and interval indices on [lo_i, hi_i], each cut into ceil(width freq / 10)
    equal panels for an integrand whose highest frequency is freq."""
    widths = hi - lo
    counts = np.ceil(widths * freq / 10).astype(int)
    panel = np.repeat(widths / counts, counts)
    index = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    mid = np.repeat(lo, counts) + panel * (index + 0.5)
    x_nodes, w_nodes = _leggauss(nodes)
    xs = (mid[:, None] + (panel / 2)[:, None] * x_nodes).ravel()
    return xs, ((panel / 2)[:, None] * w_nodes).ravel(), np.repeat(np.arange(lo.size), counts * nodes)


def _rho_rule(parts: SiteProduct, graded: list, freq: int, nodes: int, slivers: list):
    """Anchor indices, offsets and weights of the graded rule, on the half-arcs whose anchor is graded.

    Each arc between consecutive sites splits at its midpoint into two halves of width parts.ahead, each
    laid out in offsets from its end site, its anchor.  A graded half runs geometrically (ratio at most 4)
    from the midpoint down to its anchor's sliver s (_slivers), in panels of at most 10/freq rad, as
    _quadrature_term reads.  The sliver becomes nodes at +-s and +-s/2, weighted s beta / ((beta + 1)(beta
    + 2)) and 2^(beta + 1) s / ((beta + 1)(beta + 2)) to integrate C |u|^beta (1 + c u) exactly.
    """
    S = len(parts.turns)
    if not any(graded):
        return np.zeros(0, int), np.zeros(0), np.zeros(0)
    anchors = np.concatenate([np.arange(S), (np.arange(S) + 1) % S])  # half h < S lies ahead of its anchor
    kept = np.flatnonzero(np.array(graded)[anchors])
    halves, floors = np.tile(parts.ahead, 2)[kept], np.array(slivers)[anchors[kept]]
    levels = np.array([math.ceil(math.log(h / s, 4)) for h, s in zip(halves, floors)], dtype=int)
    # level j of half i runs from halves[i] (floors[i]/halves[i])^((j+1)/levels[i]) up to the same at j
    half = np.repeat(np.arange(kept.size), levels)
    j = np.arange(half.size) - np.repeat(np.cumsum(levels) - levels, levels)
    top, ratio = halves[half], floors[half] / halves[half]
    lo, hi = top * ratio ** ((j + 1) / levels[half]), top * ratio ** (j / levels[half])
    d, w, interval = _gauss_panels(lo, hi, freq, nodes)
    sites = np.flatnonzero(graded)
    s, beta = np.array(slivers)[sites], np.array(parts.betas)[sites]
    scale = s / ((beta + 1) * (beta + 2))
    caps = np.column_stack([beta * scale, 2 ** (beta + 1) * scale] * 2)
    own = kept[half[interval]]
    index = np.concatenate([anchors[own], np.repeat(sites, 4)])
    offsets = np.concatenate([np.where(own < S, d, -d), np.column_stack([s, s / 2, -s, -s / 2]).ravel()])
    return index, offsets, np.concatenate([w, caps.ravel()])


@functools.lru_cache(maxsize=16)
def _grid_rule(turns: tuple, graded: tuple, M: int, nodes: int):
    """The grid's whole panels, and anchor indices, offsets and weights of its nodes, the whole panels' last.

    turns and graded are a site product's; the arrays, read only, serve every call with the same four.
    Panel p spans the turns [p/M, (p+1)/M] and carries `nodes` nodes.  Each site and arc midpoint strictly
    inside a panel cuts it, so every whole panel and piece lies in one half-arc, kept where its anchor is
    not graded.  A node at t turns lies 2 pi ((t - t_a) mod 1) ahead of its anchor a or 2 pi ((t_a - t)
    mod 1) behind it: the distance to its panel or piece, exact in turns before one rounding, plus its
    share of the width, both non-negative.  The whole panels' nodes go panel by panel, as _panel_sums reads.
    """
    if not M:
        return np.zeros(0, int), np.zeros(0, int), np.zeros(0), np.zeros(0)
    S, graded, (x, w) = len(turns), np.array(graded), _leggauss(nodes)
    # in units of 1/(D M) turn every panel edge, site and arc midpoint is an integer, held exactly as a Python int
    D = 2 * math.lcm(*(t.denominator for t in turns))
    T = [t.numerator * (D // t.denominator) * M for t in turns]
    # edges[j] starts half j: ahead of site j // 2 where j is even, behind site j // 2 + 1 where it is odd
    edges = np.array([e for t, end in zip(T, T[1:] + [D * M]) for e in (t, (t + end) // 2)], dtype=object)
    bounds = np.union1d(np.arange(M + 1, dtype=object) * D, edges)
    lo, hi = bounds[:-1], bounds[1:]
    j = np.searchsorted(edges, lo, side="right") - 1
    a, behind, whole = (j // 2 + j % 2) % S, j % 2 == 1, hi - lo == D
    first = np.concatenate([np.flatnonzero(~graded[a] & ~whole), np.flatnonzero(~graded[a] & whole)])
    lo, hi, a, behind = lo[first], hi[first], a[first], behind[first]
    at = np.array(T, dtype=object)[a]
    gap = (np.where(behind, at - hi, lo - at) % (D * M) / (D * M)).astype(float)
    width = ((hi - lo) / (D * M)).astype(float)[:, None]
    spread = gap[:, None] + width * np.where(behind[:, None], (1 - x) / 2, (1 + x) / 2)
    offsets = np.where(behind, -2 * np.pi, 2 * np.pi)[:, None] * spread
    out = (lo[whole[first]] // D).astype(int), np.repeat(a, x.size), offsets.ravel(), (np.pi * width * w).ravel()
    for array in out:
        array.setflags(write=False)
    return out


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


def _panel_sums(vals, whole, M: int, ks: range) -> np.ndarray:
    """(1/2pi) sum of w f e^{-ikx} over the grid's whole panels, k in ks, by one DFT: panel p holds panel 0's
    nodes x0 shifted by 2 pi p / M, so with k = qM + r the sum over p is the DFT F[r] of each node's column,
    and as e^{-ik x0} = e^{-iqM x0} e^{-ir x0}, row q of E_q @ (E_r F).T holds k."""
    x, w = _leggauss(RULE[2])
    x0 = np.pi / M * (1 + x)
    grid = np.zeros((M, x0.size), dtype=complex)
    grid[whole] = vals.reshape(whole.size, x0.size) * (np.pi / M * w)
    spectrum = np.fft.fft(grid, axis=0) * np.exp(-1j * np.outer(np.arange(M), x0))
    qs = np.arange(ks.start // M, (ks.stop - 1) // M + 1)
    out = (np.exp(-1j * M * np.outer(qs, x0)) @ spectrum.T).ravel()
    start = ks.start - qs[0] * M
    return out[start : start + len(ks)] / (2 * np.pi)


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
    """log of a bound on a site's factor where w = x + iy, lo <= |x| <= hi, |y| <= height.

    x is the offset from the site.  The factor is (+-2 sin(w/2))^beta e^{i phase (sign(x) pi - w)}: |sin(w/2)|
    lies between |sin(x/2)| and cosh(y/2), the sine's argument within pi/2 and |pi - |x|| below pi.  inf where
    the range reaches the site (lo <= 0 or hi >= 2 pi).
    """
    if not (lo > 0 and hi < 2 * math.pi):
        return math.inf
    br = beta.real
    mod = br * (math.log(2 * min(math.sin(lo / 2), math.sin(hi / 2))) if br < 0 else math.log(2 * math.cosh(height / 2)))
    return mod + math.pi * (abs(beta.imag) / 2 + abs(phase.imag)) + abs(phase.real) * height


def _log_far_caps(parts, below: list, above: list, heights: list) -> list:
    """Per graded anchor a, the sum over every other site s of _log_site_cap over the offsets
    table[s, a] + [-below[a], above[a]] and heights[a]; 0 at the other anchors."""
    table, S = parts.table.tolist(), len(parts.turns)
    return [
        sum(
            _log_site_cap(*_span(table[s][a], below[a], above[a]), heights[a], parts.betas[s], parts.phases[s])
            for s in range(S)
            if s != a
        ) if graded else 0.0
        for a, graded in enumerate(_graded(parts))
    ]


def _log_common_cap(parts, K: int, height: float) -> float:
    """log of a bound on |const e^{Laurent log} t^power e^{-ikx}|, |k| <= K, where |Im x| <= height."""
    return math.log(abs(parts.const)) + (abs(parts.power) + K) * height + _log_exp_cap(parts.laurent.items(), height)


def _quadrature_term(parts, K: int, freq: int, nodes: int, slivers: list) -> float:
    """Gauss-Legendre error of the graded panels of _rho_rule, over 2 pi.

    A panel of half-width h errs by at most h (64/15) M r^{-2n} / (r^2 - 1), r = ELLIPSE, M a bound on
    |f(x) e^{-ikx}|, |k| <= K, on its Bernstein ellipse, which for a panel [l, r], r <= 4 l, stays within
    |x| in [0.325 l, r + 0.45 h] and |Im x| <= 1.05 h, h <= min(3/8 of the half-arc, 5/freq).  M is bounded
    factor by factor; the anchor's own |2 sin(x/2)|^beta, >= (0.2 l)^beta where beta < 0, is summed over
    the panels as (1/2) int (0.2 u/4)^beta du from the anchor's sliver to the half-arc.
    """
    ahead = parts.ahead
    back = ahead[-1:] + ahead[:-1]
    heights = [1.05 * min(3 / 8 * max(f, b), 5 / freq) for f, b in zip(ahead, back)]
    reach = 1 + 0.45 * 3 / 8
    far = _log_far_caps(parts, [reach * b for b in back], [reach * f for f in ahead], heights)
    total = 0.0
    for beta, phase, f, b, h, rest, s, graded in zip(
        parts.betas, parts.phases, ahead, back, heights, far, slivers, _graded(parts)
    ):
        if not graded:
            continue
        lean = min(beta.real, 0.0)
        rise = max(beta.real, 0.0) * math.log(2 * math.cosh(h / 2))  # beta >= 0: (2 cosh(h/2))^beta, times the sum of h
        spin = math.pi * (abs(beta.imag) / 2 + abs(phase.imag)) + abs(phase.real) * h
        span = (f ** (lean + 1) + b ** (lean + 1) - 2 * s ** (lean + 1)) / (lean + 1)
        total += _exp(_log_common_cap(parts, K, h) + rest + rise + spin) * (0.2 / 4) ** lean * span / 2
    return 64 / 15 * ELLIPSE ** (-2 * nodes) / (ELLIPSE**2 - 1) * total / (2 * math.pi)


def _grid_cap(parts, K: int):
    """log of a bound on |f(w) e^{-ikw}|, |k| <= K, within grow along and lift across the grid's half-arcs,
    as a function of (lift, grow).  An analytic site's factor is entire from either side, so it is capped
    through the site, as |2 sin(w/2)| <= 2 cosh(lift/2) and |sign(d) pi - w| <= pi + grow; a graded site's
    by _log_site_cap over the grid's offsets from it."""
    graded, table, ahead = _graded(parts), parts.table.tolist(), parts.ahead
    back = ahead[-1:] + ahead[:-1]
    analytic = [(b.real, abs(f.imag), abs(f.real)) for b, f, g in zip(parts.betas, parts.phases, graded) if not g]
    rise, spin, drift = (sum(c) for c in zip((0, 0, 0), *analytic))
    far = [
        ([(table[s][a], back[a], ahead[a]) for a in range(len(ahead)) if not graded[a]], beta, phase)
        for s, (beta, phase) in enumerate(zip(parts.betas, parts.phases))
        if graded[s]
    ]
    base = math.log(abs(parts.const)) + _log_exp_cap(parts.laurent.items(), 0.0)
    laurent = [(abs(k), abs(v)) for k, v in parts.laurent.items()]

    def cap(lift: float, grow: float) -> float:
        total = base + (abs(parts.power) + K) * lift + sum(v * (_exp(k * lift) - 1) for k, v in laurent)
        total += rise * math.log(2 * math.cosh(lift / 2)) + spin * (math.pi + grow) + drift * lift
        for spans, beta, phase in far:
            ranges = [_span(offset, b + grow, f + grow) for offset, b, f in spans]
            total += _log_site_cap(min(r[0] for r in ranges), max(r[1] for r in ranges), lift, beta, phase)
        return total

    return cap


def _log_grid_term(cap, M: int) -> float:
    """log of the Gauss-Legendre error of the grid's M panels over 2 pi, cap from _grid_cap.

    Every panel or piece has half-width at most pi/M, so its ellipse of parameter r lies within (pi/M)((r
    + 1/r)/2 - 1) along and (pi/M)(r - 1/r)/2 across the grid; with C the cap there, the pieces, whose
    half-widths add up to at most pi, err by (32/15) C r^{-2n} / (r^2 - 1) over 2 pi, n nodes per panel.
    """
    h = math.pi / M
    return min(cap(h * (r - 1 / r) / 2, h * ((r + 1 / r) / 2 - 1)) + rule for r, rule in _grid_ellipses())


def _grid_ellipses() -> list:
    """The grid's Bernstein ellipses: each parameter r with log((32/15) r^{-2n} / (r^2 - 1)), n nodes per panel."""
    n = RULE[2]
    return [(r, math.log(32 / 15 / (r * r - 1)) - 2 * n * math.log(r)) for r in (2.0, 4.0, 8.0, 16.0, 32.0)]


def _grid_term(log_term: float) -> float:
    """The grid's Gauss-Legendre error over 2 pi, from its log (panel_count)."""
    return _exp(log_term)


def panel_count(parts, K: int) -> tuple[int, float]:
    """The least 11-smooth M >= 12 whose _log_grid_term is at most 2^-bits (RULE) times _grid_cap at height 0,
    and that term's log.

    On the ellipse of parameter r the cap's log exceeds its log at height 0 by at least (pi / M) (drift (r
    - 1/r) / 2 + spin ((r + 1/r) / 2 - 1)), so the scan starts at the least M, over r, where that excess
    fills the room r's rule leaves, and mostly ends there; it ends always, as at r = 32 the term's log tends
    to the cap's less 172.
    """
    cap, share = _grid_cap(parts, K), -RULE[3] * math.log(2)
    target = cap(0.0, 0.0) + share
    drift = abs(parts.power) + K + sum(abs(k * v) for k, v in parts.laurent.items())
    drift += sum(abs(f.real) for f in parts.phases)
    spin = sum(abs(f.imag) for f, graded in zip(parts.phases, _graded(parts)) if not graded)
    rises = [(math.pi * (drift * (r - 1 / r) / 2 + spin * ((r + 1 / r) / 2 - 1)), rule) for r, rule in _grid_ellipses()]
    start = min(rise / (share - rule) for rise, rule in rises if rule < share)
    M = fft_length(max(12, math.ceil(start)))
    while (term := _log_grid_term(cap, M)) > target:
        M = fft_length(M + 1)
    return M, term


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
    """What the sliver rule leaves out, at both sides of every graded site, over 2 pi.

    Beside a site the integrand is u^beta g(u), g analytic on the disk |u| <= R, R from _slivers, at most half
    the gap to the next site.  The two nodes integrate u^beta (g(0) + g'(0) u) exactly; the rest of g is at most
    C u^2 with C = M / (R^2 - s R) (Cauchy, M bounding |g| on the disk), s the site's sliver.  Integrated
    against |u^beta| and summed at the nodes, that leaves C s^(Re beta + 3) (1/(Re beta + 3) + (|beta| + 1/2) /
    |(beta + 1)(beta + 2)|).
    """
    total, far = 0.0, _log_far_caps(parts, radii, radii, radii)
    for beta, phase, R, rest, s, graded in zip(parts.betas, parts.phases, radii, far, slivers, _graded(parts)):
        if not graded:
            continue
        # the site's own factor in g: (2 sin(u/2) / u)^beta, within delta of 1, and its phase
        delta = math.sinh(R / 2) / (R / 2) - 1
        own = beta.real * math.log1p(-delta if beta.real < 0 else delta) + abs(beta.imag) * math.asin(delta)
        own += abs(phase.imag) * (math.pi + R) + abs(phase.real) * R
        cap = _exp(_log_common_cap(parts, K, R) + own + rest) / (R * R - s * R)
        weight = 1 / (beta.real + 3) + (abs(beta) + 0.5) / abs((beta + 1) * (beta + 2))
        total += 2 * cap * s ** (beta.real + 3) * weight
    return total / (2 * math.pi)


def _rounding_term(parts, ks: range, near: np.ndarray, direct: np.ndarray, whole: np.ndarray, M: int) -> float:
    """Rounding of the values, the Fourier factors and the sums, over 2 pi.

    direct holds the summands w f that _fourier_integrals sums, whole those _panel_sums sums over M panels,
    and near[a] is the least |offset| of a node anchored at site a.  Each summand errs relatively by UNIT
    times: the rounding in _rho_values, per anchor a from its nodes' offsets to every site, each exp, log,
    sin and product a few units and each addition into the exponent one unit of the partial sum; the
    position error of the node (fl(2 pi t) + d, d within 8 UNIT |d| of the Gauss node) times the value's
    slope; its weight's (8, _leggauss); and its sum's: in _fourier_integrals the additions, the power
    products, the exp of ks.start x and |k| times the position error, in _panel_sums the FFT (a pass of
    radix p errs by (p + 7) UNIT at most, radix 11 at most here), the phase tables and the products.  n
    units count n UNIT / (1 - n UNIT) (Higham, Lemma 3.1).
    """
    ahead, laurent, table, S = parts.ahead, parts.laurent, parts.table.tolist(), len(parts.turns)
    back = ahead[-1:] + ahead[:-1]
    K = max(-ks.start, ks.stop - 1)
    Xt = 2 * math.pi * float(parts.turns[-1])
    X = Xt + max(ahead)  # |x|: no offset exceeds a half-arc
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
            tie = eta + abs(parts.betas[s] - parts.etas[s])  # with 4 sin^2(d/2)
            if s == a:  # d within 8 UNIT |d| of the node
                sens, spread = 8 * (tie + math.pi * turn), eta * abs(math.log(2 * math.sin(near[a] / 2)))
            else:
                lo, hi = _span(table[s][a], back[a], ahead[a])
                if lo <= 0:
                    return math.inf
                near_s = min(lo, 2 * math.pi - hi)
                slip = 3 * abs(table[s][a]) + hi + 8 * max(ahead[a], back[a])  # |d - exact| / UNIT
                sens = (tie / (2 * math.tan(near_s / 2)) + turn) * slip
                spread = eta * max(math.log(2), abs(math.log(2 * math.sin(near_s / 2))))
            value += sens + 2 * spread + 2 * eta + 10 * math.pi * turn
            partial += spread + math.pi * turn
        worst = max(worst, value + (2 * S + 2) * partial)
    t = UNIT * (_integral_units(direct.size, len(ks)) + abs(ks.start) * X + K * position + worst)
    total = float(np.sum(np.abs(direct))) * t / (1 - t)
    if M:
        passes, rest = 0, M
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                passes, rest = passes + p + 7, rest // p
        # both phase tables' arguments, and |k| times x0's error
        t = UNIT * (worst + passes + 6 * math.pi + 18 * math.pi * K / M + RULE[2] + 22)
        total += float(np.sum(np.abs(whole))) * t / (1 - t)
    return total / (2 * math.pi)


def integrate(parts: SiteProduct, ks: range) -> tuple[np.ndarray, dict, dict]:
    """(1/2pi) int f(x) e^{-ikx} dx of the site product f for k in ks, a contiguous range, with its a-priori bound.

    Graded half-arcs take _rho_rule's panels for the top frequency max |k| + |power| + top (at least 1),
    with slivers from max |k|; the rest take _grid_rule's grid of panel_count's M panels, whose whole
    panels _panel_sums sums and the rest _fourier_integrals.  Returns the coefficients, the node count of
    each layout, and the four terms of the bound on max |f_k - coeffs| over ks: the graded panels'
    (quadrature) and the grid's Gauss-Legendre error, what the slivers leave out, and the rounding.
    """
    K = max(-ks.start, ks.stop - 1)
    nodes, bits, grid_nodes, _ = RULE
    graded, freq = _graded(parts), max(1, K + abs(parts.power) + parts.top)
    radii, slivers = _slivers(parts, K, bits)
    M, grid = (0, -math.inf) if all(graded) else panel_count(parts, K)
    whole, *grid_rule = _grid_rule(tuple(parts.turns), tuple(graded), M, grid_nodes)
    index, offsets, weights = map(np.concatenate, zip(_rho_rule(parts, graded, freq, nodes, slivers), grid_rule))
    vals = _rho_values(parts, index, offsets)
    summands = weights * vals
    n = index.size - whole.size * grid_nodes  # the nodes _fourier_integrals sums
    xs = 2 * np.pi * np.array([float(t) for t in parts.turns])[index[:n]] + offsets[:n]
    coeffs = _fourier_integrals(xs, weights[:n], vals[:n], ks)
    if whole.size:
        coeffs += _panel_sums(vals[n:], whole, M, ks)
    near = np.full(len(parts.turns), np.inf)
    np.minimum.at(near, index, np.abs(offsets))
    graded_nodes = index.size - grid_rule[0].size
    layout = {"graded": graded_nodes, "cut": n - graded_nodes, "whole": index.size - n}
    rounding = _rounding_term(parts, ks, near, summands[:n], summands[n:], M)
    quadrature, sliver = _quadrature_term(parts, K, freq, nodes, slivers), _sliver_term(parts, K, radii, slivers)
    return coeffs, layout, {"quadrature": quadrature, "grid": _grid_term(grid), "sliver": sliver, "rounding": rounding}
