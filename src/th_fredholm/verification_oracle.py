"""Independent cross-checks for the symbolic pipeline.

Fourier coefficients of a symbol come from one route, composite
Gauss-Legendre quadrature of the defining integral over the arcs between
jump points, with a self-check that reruns it at 3/2 the node count; finite
sections of the operator matrix are assembled from those coefficients;
kernel candidates are built explicitly from the factorization and pushed
through the finite section to measure residuals.

Quadrature notes: a piecewise-continuous symbol is analytic in the angle on
every open arc between its jump points, so plain composite Gauss-Legendre
per arc converges spectrally and no grading is needed.  The function rho is
different: it can blow up like |x - x0|^{-alpha} at jump sites, so its
quadrature grades panels geometrically into each endpoint and drops the
final sliver.  The dropped mass scales like width^{1-alpha}, which keeps
1e-6 accuracy only for alpha below roughly 1/2; steeper exponents need a
tolerance matched to that bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss

from .defect_solver import DefectReport, defect_numbers
from .symbol_core import CanonicalSymbol, SymbolPair, eval_many
from .wiener_hopf import RhoSeries, build_plus_factor, convolve, rho_coefficients


class MethodDisagreement(RuntimeError):
    """Two independent computations of the same numbers disagree."""


class ResidualTooLarge(RuntimeError):
    """A constructed kernel candidate fails its finite-section residual."""


@dataclass(frozen=True, eq=False)
class TwoSidedSeries:
    """Coefficients f_k for |k| <= N, stored with k = 0 at the center."""

    coeffs: np.ndarray
    cross_deviation: float | None = None

    def __post_init__(self):
        if self.coeffs.size % 2 != 1:
            raise ValueError("two-sided storage needs an odd length")

    @property
    def N(self) -> int:
        return self.coeffs.size // 2

    def get(self, k: int) -> complex:
        if abs(k) > self.N:
            raise IndexError(f"coefficient {k} beyond stored order {self.N}")
        return complex(self.coeffs[k + self.N])

    def as_array(self) -> np.ndarray:
        return self.coeffs.copy()

    def tilde(self) -> "TwoSidedSeries":
        return TwoSidedSeries(self.coeffs[::-1].copy(), self.cross_deviation)

    def tail_energy(self) -> np.ndarray:
        """Energy in |k| >= j for j = 0..N; non-increasing by construction."""
        sq = np.abs(self.coeffs) ** 2
        out = np.empty(self.N + 1)
        out[0] = sq.sum()
        for j in range(1, self.N + 1):
            out[j] = out[j - 1] - sq[self.N + j - 1] - sq[self.N - j + 1]
        # guard the subtraction against negative rounding dust
        return np.maximum(out, 0.0)


@dataclass(frozen=True, eq=False)
class FiniteSection:
    """Dense N x N section with entries a_{j-k} + b_{j+k+1}."""

    N: int
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class KernelBasis:
    vectors: tuple[np.ndarray, ...]
    tags: tuple[str, ...]
    residuals: np.ndarray
    gram_rank: int


# about 0.4 ms per uncached call; the same few node counts repeat on every call
_leggauss = functools.lru_cache(maxsize=8)(leggauss)


def _arc_rule(s: CanonicalSymbol, freq: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on equal panels over the arcs of s.

    The arcs run between the jump angles of s (the whole circle when s has
    none).  Each arc gets ceil(width * freq / 10) panels, at least 12, for an
    integrand whose highest frequency is freq.
    """
    angles = sorted(p.angle for p in s.jump_points)
    breaks = np.array(angles + [angles[0] + 2 * math.pi] if angles else [0.0, 2 * math.pi])
    widths = np.diff(breaks)
    counts = np.maximum(12, np.ceil(widths * freq / 10)).astype(int)
    panel = np.repeat(widths / counts, counts)
    index = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    mid = np.repeat(breaks[:-1], counts) + panel * (index + 0.5)
    x_nodes, w_nodes = _leggauss(nodes)
    xs = mid[:, None] + (panel / 2)[:, None] * x_nodes
    ws = (panel / 2)[:, None] * w_nodes
    return xs.ravel(), ws.ravel()


def _fourier_integrals(xs, ws, vals, k_max: int) -> np.ndarray:
    """(1/2pi) sum_x w f(x) e^{-ikx} for |k| <= k_max, as one blocked product.

    With z = e^{-ix}, rows[b] holds w f z^{-k_max + b*block} and powers[j]
    holds z^j, so (rows @ powers.T)[b, j] is the coefficient
    k = -k_max + b*block + j.
    """
    block = 32  # 16 and 64 were slower at 5,000 nodes and k_max = 512
    z = np.exp(-1j * xs)
    powers = np.empty((block, xs.size), dtype=complex)
    powers[0] = 1.0
    for j in range(1, block):
        np.multiply(powers[j - 1], z, out=powers[j])
    rows = np.empty((-(-(2 * k_max + 1) // block), xs.size), dtype=complex)
    rows[0] = ws * vals * np.exp(1j * k_max * xs)
    step = np.exp(-1j * block * xs)
    for b in range(1, rows.shape[0]):
        np.multiply(rows[b - 1], step, out=rows[b])
    return (rows @ powers.T).ravel()[: 2 * k_max + 1] / (2 * np.pi)


def fourier_coeffs(s: CanonicalSymbol, N: int, tol: float = 1e-6) -> TwoSidedSeries:
    """Coefficients f_k, |k| <= N, by Gauss-Legendre quadrature over the arcs.

    The panels of _arc_rule are sized for the highest frequency in the
    integrand, N + |kappa| + the top degree of log_smooth.  The returned
    values use 24 nodes per panel; the maximum difference from the same
    rule at 16 nodes is recorded as cross_deviation.  That is an estimate
    of the error, not a bound.

    Raises
    ------
    MethodDisagreement
        When the 16- and 24-node values differ by more than tol.
    """
    freq = N + abs(s.kappa) + max((abs(k) for k, _ in s.log_smooth.coeffs), default=0)

    def quadrature(nodes: int) -> np.ndarray:
        xs, ws = _arc_rule(s, freq, nodes)
        return _fourier_integrals(xs, ws, eval_many(s, xs), N)

    coarse, fine = quadrature(16), quadrature(24)
    deviation = float(np.max(np.abs(fine - coarse)))
    if deviation > tol:
        raise MethodDisagreement(
            f"16- and 24-node quadrature differ by {deviation:.3e} on |k| <= {N}"
        )
    return TwoSidedSeries(fine, deviation)


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


def finite_section(pair: SymbolPair, N: int) -> FiniteSection:
    """Dense N x N truncation of the operator matrix."""
    a_series = fourier_coeffs(pair.a, N - 1)
    b_series = fourier_coeffs(pair.b, 2 * N - 1)
    return FiniteSection(N, toeplitz_matrix(a_series, N) + hankel_matrix(b_series, N))


def _null_vectors(matrix: np.ndarray, rank: int) -> list[np.ndarray]:
    _, _, vh = np.linalg.svd(matrix)
    return [vh[i].conj() for i in range(rank, vh.shape[0])]


def kernel_residual_check(
    pair: SymbolPair,
    p,
    report: DefectReport | None = None,
    N: int = 256,
    tol: float = 1e-6,
) -> KernelBasis:
    """Build explicit kernel candidates and test them against a finite section.

    Homogeneous candidates (n < 0) are f = (1-t) c_+^{-1} (t^j + t^{-2n-2-j});
    for m > 0 one particular candidate per symmetric polynomial t^k + t^{-k}
    is obtained by solving the triangular system (1+t) c_+ f = g, where g is
    read off the coefficients of -rho (t^k + t^{-k}).  For n > 0 the same
    solve runs over the null vectors of the defect matrix, so the basis count
    always equals the reported kernel dimension.

    Raises
    ------
    ResidualTooLarge
        When any candidate's residual exceeds tol or the truncated vectors
        are not linearly independent.
    """
    from scipy.linalg import solve_toeplitz

    if report is None:
        report = defect_numbers(pair, p)
    if report.bounds_only:
        raise ValueError("kernel construction needs a Fredholm report")
    n, m = report.n, report.m
    order = max(2 * N, 512)
    c_plus = build_plus_factor(report.rep_c)
    vectors: list[np.ndarray] = []
    tags: list[str] = []

    if n < 0:
        inv = c_plus.realize(order, inverted=True).coeffs
        base = convolve(np.array([1.0, -1.0], dtype=complex), inv)[:N]
        for j in range(-n):
            q2 = np.zeros(-2 * n - 1, dtype=complex)
            q2[j] += 1.0
            q2[-2 * n - 2 - j] += 1.0
            vectors.append(convolve(base, q2)[:N])
            tags.append(f"homogeneous[{j}]")

    if m > 0:
        keep = N + abs(n) + m + 4
        rho = report.rho
        if rho is None or rho.N_keep < keep:
            d_plus = build_plus_factor(report.rep_d)
            rho = rho_coefficients(c_plus, d_plus, pair.b, n, m, keep)
        col = convolve(np.array([1.0, 1.0], dtype=complex), c_plus.realize(order).coeffs)[:N]
        row = np.zeros(N, dtype=complex)
        row[0] = col[0]
        if n <= 0:
            weights = [np.eye(m, dtype=complex)[k] for k in range(m)]
            label = "particular"
        else:
            weights = _null_vectors(report.matrix.matrix, report.m - report.dim_ker)
            label = "null-vector"
        for idx, x in enumerate(weights):
            g = np.zeros(N, dtype=complex)
            for l in range(N):
                h = -sum(
                    x[k] * (rho.get(l + n - k) + rho.get(l + n + k)) for k in range(m)
                )
                g[l] = h / 2 if l <= -2 * n else h
            vectors.append(solve_toeplitz((col, row), g))
            tags.append(f"{label}[{idx}]")

    if len(vectors) != report.dim_ker:
        raise ResidualTooLarge(
            f"constructed {len(vectors)} candidates, expected {report.dim_ker}"
        )
    if not vectors:
        return KernelBasis((), (), np.zeros(0), 0)

    section = finite_section(pair, N)
    residuals = np.array(
        [
            np.linalg.norm(section.matrix @ f) / np.linalg.norm(f)
            for f in vectors
        ]
    )
    gram_rank = int(np.linalg.matrix_rank(np.vstack(vectors)))
    if gram_rank != len(vectors):
        raise ResidualTooLarge(
            f"only {gram_rank} of {len(vectors)} candidates are independent"
        )
    if residuals.max() > tol:
        raise ResidualTooLarge(
            f"worst finite-section residual {residuals.max():.3e} exceeds {tol:.1e}"
        )
    return KernelBasis(tuple(vectors), tuple(tags), residuals, gram_rank)


def _graded_breaks(lo: float, hi: float, k_max: int, floor: float = 1e-12):
    """Panel breaks geometrically refined into both endpoints.

    The slivers [lo, lo + w*2^-G] and the mirror at hi are not covered;
    their mass is width^{1-alpha} for an endpoint exponent alpha.
    """
    w = hi - lo
    depth = max(4, math.ceil(math.log2(w / floor)))
    left = [lo + w * 0.5 ** j for j in range(depth, 0, -1)]
    right = [hi - w * 0.5 ** j for j in range(1, depth + 1)]
    breaks = left + right[1:]
    refined = [breaks[0]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        extra = math.ceil((b - a) * k_max / 10)
        for i in range(1, extra):
            refined.append(a + (b - a) * i / extra)
        refined.append(b)
    return refined


def rho_crosscheck(
    rho: RhoSeries,
    pair: SymbolPair,
    N: int | None = None,
    nodes: int = 16,
    tol: float | None = None,
) -> float:
    """Max deviation between rho's series and quadrature of its closed form.

    N is the comparison order (default 64, capped by the kept range).  See
    the module docstring for the accuracy limit when rho has endpoint
    exponents steeper than about -1/2.
    """
    k_max = min(N if N is not None else 64, rho.N_keep)
    turns = {pt.turns for pt, _ in rho.c_plus.eta_exponents}
    turns |= {pt.turns for pt, _ in rho.d_plus.eta_exponents}
    turns |= {pt.turns for pt in pair.b.jump_points}
    turns |= {Fraction(0), Fraction(1, 2)}  # the (1+t)(1+1/t) sites at +-1
    angles = sorted(float(u) * 2 * math.pi for u in turns)
    breaks_all = angles + [angles[0] + 2 * math.pi]
    xs_list, ws_list = [], []
    x_nodes, w_nodes = _leggauss(nodes)
    for lo, hi in zip(breaks_all[:-1], breaks_all[1:]):
        if hi - lo < 1e-9:
            continue
        graded = _graded_breaks(lo, hi, k_max)
        for a, b in zip(graded[:-1], graded[1:]):
            xs_list.append((a + b) / 2 + (b - a) / 2 * x_nodes)
            ws_list.append((b - a) / 2 * w_nodes)
    xs = np.concatenate(xs_list)
    ws = np.concatenate(ws_list)
    vals = rho.eval_at(xs)
    quad = _fourier_integrals(xs, ws, vals, k_max)
    series = np.array([rho.get(k) for k in range(-k_max, k_max + 1)])
    deviation = float(np.max(np.abs(quad - series)))
    if tol is not None and deviation > tol:
        raise MethodDisagreement(
            f"rho series and quadrature differ by {deviation:.3e} on |k| <= {k_max}"
        )
    return deviation
