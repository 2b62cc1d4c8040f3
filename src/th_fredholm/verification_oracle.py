"""Independent cross-checks for the symbolic pipeline.

Fourier coefficients are computed two ways (factor-series convolution and
segment quadrature of the defining integral) and compared; finite sections
of the operator matrix are assembled from those coefficients; kernel
candidates are built explicitly from the factorization and pushed through
the finite section to measure residuals.

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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss

from .defect_solver import DefectReport, defect_numbers
from .symbol_core import CanonicalSymbol, SymbolPair, eval_many
from .wiener_hopf import (
    RhoSeries,
    convolve,
    eta_series,
    rho_coefficients,
    smooth_minus_factor,
    smooth_plus_factor,
    xi_series,
    build_plus_factor,
)

_METHODS = ("series-convolution", "sampled-fft", "quadrature")


class MethodDisagreement(RuntimeError):
    """Two independent computations of the same numbers disagree."""


class ResidualTooLarge(RuntimeError):
    """A constructed kernel candidate fails its finite-section residual."""


@dataclass(frozen=True, eq=False)
class TwoSidedSeries:
    """Coefficients f_k for |k| <= N, stored with k = 0 at the center."""

    coeffs: np.ndarray
    method: str
    cross_deviation: float | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
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
        return TwoSidedSeries(self.coeffs[::-1].copy(), self.method, self.cross_deviation)

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


def _embed(series, L: int) -> np.ndarray:
    out = np.zeros(2 * L + 1, dtype=complex)
    c = series.coeffs[: L + 1]
    if series.orientation == "analytic":
        out[L : L + c.size] = c
    else:
        out[L - c.size + 1 : L + 1] = c[::-1]
    return out


def _series_route(s: CanonicalSymbol, N: int, inner: int | None) -> np.ndarray:
    if inner is None:
        inner = max(8 * N, 1 << 17) if s.jumps else max(4 * N, 1024)
    L = max(inner, N + abs(s.kappa) + 1)
    base = np.zeros(2 * L + 1, dtype=complex)
    log = s.log_smooth.as_dict()
    base[L + s.kappa] = s.scale * np.exp(log.get(0, 0.0))
    factors = []
    if any(k >= 1 for k in log):
        factors.append(smooth_plus_factor(s.log_smooth, L))
    if any(k <= -1 for k in log):
        factors.append(smooth_minus_factor(s.log_smooth, L))
    for j in s.jumps:
        factors.append(eta_series(j.point, j.beta, L))
        factors.append(xi_series(j.point, -j.beta.value, L))
    for f in factors:
        base = convolve(base, _embed(f, L))[L : 3 * L + 1]
    return base[L - N : L + N + 1]


def _gauss_segments(breaks: list[float], panels_for, nodes: int):
    x_nodes, w_nodes = leggauss(nodes)
    xs, ws = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        count = panels_for(lo, hi)
        for i in range(count):
            a = lo + (hi - lo) * i / count
            b = lo + (hi - lo) * (i + 1) / count
            xs.append((a + b) / 2 + (b - a) / 2 * x_nodes)
            ws.append((b - a) / 2 * w_nodes)
    return np.concatenate(xs), np.concatenate(ws)


def _fourier_integrals(xs, ws, vals, k_max: int) -> np.ndarray:
    ks = np.arange(-k_max, k_max + 1)
    out = np.empty(ks.size, dtype=complex)
    weighted = ws * vals
    for i in range(0, ks.size, 256):
        chunk = ks[i : i + 256]
        out[i : i + 256] = weighted @ np.exp(-1j * np.outer(xs, chunk))
    return out / (2 * np.pi)


def _quadrature_route(s: CanonicalSymbol, k_max: int, nodes: int = 16) -> np.ndarray:
    angles = sorted(p.angle for p in s.jump_points)
    if not angles:
        breaks = [0.0, 2 * math.pi]
    else:
        breaks = angles + [angles[0] + 2 * math.pi]

    def panels_for(lo, hi):
        return max(12, math.ceil((hi - lo) * k_max / 10))

    xs, ws = _gauss_segments(breaks, panels_for, nodes)
    vals = eval_many(s, xs)
    return _fourier_integrals(xs, ws, vals, k_max)


def fourier_coeffs(
    s: CanonicalSymbol,
    N: int,
    check: bool = True,
    inner: int | None = None,
    tol: float = 1e-6,
) -> TwoSidedSeries:
    """Coefficients f_k, |k| <= N, by factor-series convolution.

    With check on (the default) the values on |k| <= N/4 are recomputed by
    composite Gauss-Legendre quadrature over the arcs between jump points
    and the maximum deviation is recorded on the result.

    Raises
    ------
    MethodDisagreement
        When the two routes differ by more than tol on the checked range.
    """
    route1 = _series_route(s, N, inner)
    deviation = None
    if check:
        k_max = max(1, N // 4)
        route2 = _quadrature_route(s, k_max)
        deviation = float(np.max(np.abs(route1[N - k_max : N + k_max + 1] - route2)))
        if deviation > tol:
            raise MethodDisagreement(
                f"series and quadrature differ by {deviation:.3e} on |k| <= {k_max}"
            )
    return TwoSidedSeries(route1, "series-convolution", deviation)


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
    return TwoSidedSeries(out, "sampled-fft")


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


def finite_section(
    pair: SymbolPair,
    N: int,
    a_series: TwoSidedSeries | None = None,
    b_series: TwoSidedSeries | None = None,
) -> FiniteSection:
    """Dense N x N truncation of the operator matrix."""
    if a_series is None:
        a_series = fourier_coeffs(pair.a, 2 * N)
    if b_series is None:
        b_series = fourier_coeffs(pair.b, 2 * N)
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
    x_nodes, w_nodes = leggauss(nodes)
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
