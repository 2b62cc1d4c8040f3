"""Independent cross-checks for the symbolic pipeline.

Fourier coefficients of a symbol come from one route, composite
Gauss-Legendre quadrature of the defining integral over the arcs between
jump points, with a self-check that reruns it at 3/2 the node count; finite
sections of the operator matrix are assembled from those coefficients;
kernel candidates are built explicitly from the factorization and the
production rho and pushed through the finite section to measure residuals.

Quadrature notes: a piecewise-continuous symbol is analytic in the angle on
every open arc between its jump points, so plain composite Gauss-Legendre
per arc converges spectrally and no grading is needed.  rho, which can blow
up at its sites, is computed in production by graded quadrature
(wiener_hopf.rho_coefficients); the second route kept here, rho_series,
convolves the factor series instead and doubles their order until the
coefficients settle.  It is independent of the quadrature, and `verify`
compares the two on |k| <= 16.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .confidence import MethodDisagreement, ResidualTooLarge
from .defect_solver import DefectReport, defect_numbers
from .symbol_core import MINUS_ONE, CanonicalSymbol, FourierLogPoly, SymbolPair, eval_many
from .wiener_hopf import (
    PlusFactor,
    RhoSeries,
    _fourier_integrals,
    _gauss_panels,
    build_plus_factor,
    convolve,
    eta_series,
    rho_coefficients,
    rho_sites,
    smooth_minus_factor,
    smooth_plus_factor,
    xi_series,
)

# the movement below which rho_series counts as settled
SETTLE_TOL = 1e-9


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


def _arc_rule(s: CanonicalSymbol, freq: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on equal panels over the arcs of s.

    The arcs run between the jump angles of s (the whole circle when s has
    none).  Each arc gets ceil(width * freq / 10) panels, at least 12, for an
    integrand whose highest frequency is freq.
    """
    angles = sorted(p.angle for p in s.jump_points)
    breaks = np.array(angles + [angles[0] + 2 * math.pi] if angles else [0.0, 2 * math.pi])
    return _gauss_panels(breaks[:-1], breaks[1:], freq, nodes, 12)


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
    always equals the reported kernel dimension.  rho comes from
    wiener_hopf.rho_coefficients, the route the defect matrix is built from.

    Raises
    ------
    ResidualTooLarge
        When any candidate's residual exceeds tol or the truncated vectors
        are not linearly independent.
    """
    from scipy.linalg import solve_toeplitz

    if report is None:
        report = defect_numbers(pair, p)
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
        rho = rho_coefficients(c_plus, build_plus_factor(report.rep_d), pair.b, n, m, keep)
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


def rho_series(
    c_plus: PlusFactor, d_plus: PlusFactor, b: CanonicalSymbol, n: int, m: int, N_keep: int,
    start_order: int = 4096, max_order: int = 2**16, settle_tol: float = SETTLE_TOL,
) -> RhoSeries:
    """rho_k, |k| <= N_keep, by convolving the factor series: the second route.

    All same-orientation products are exact to the inner order; the lone
    analytic-against-anti convolution is refined by doubling the inner order
    until the kept coefficients move by less than settle_tol or the order
    reaches max_order.  tail_bound is the last movement, an estimate (inf
    when no doubling ran), and the series settled when it is below
    settle_tol.
    """
    b_log = b.log_smooth.as_dict()
    shift = -m - n - b.kappa
    constant = (1.0 / b.scale) * cmath.exp(-b_log.get(0, 0j))

    def compute(order: int) -> np.ndarray:
        analytic = smooth_plus_factor(FourierLogPoly.of({k: -v for k, v in b_log.items() if k >= 1}), order)
        analytic = analytic.conv(eta_series(MINUS_ONE, 1.0, order))  # (1+t)
        for j in b.jumps:
            analytic = analytic.conv(eta_series(j.point, -j.beta.value, order))
        anti = smooth_minus_factor(FourierLogPoly.of({k: -v for k, v in b_log.items() if k <= -1}), order)
        anti = anti.conv(xi_series(MINUS_ONE, 1.0, order))  # (1 + 1/t)
        for j in b.jumps:
            anti = anti.conv(xi_series(j.point, j.beta.value, order))
        anti = anti.conv(c_plus.realize(order).mirror())
        anti = anti.conv(d_plus.realize(order).mirror())
        cross = convolve(analytic.coeffs, anti.coeffs[::-1])
        # cross index r corresponds to coefficient r - order of the unshifted product
        out = np.empty(2 * N_keep + 1, dtype=complex)
        for k in range(-N_keep, N_keep + 1):
            out[k + N_keep] = constant * cross[(k - shift) + order]
        return out

    order = start_order
    while order < 2 * (N_keep + abs(shift)):
        order *= 2
    cur, move = compute(order), math.inf
    while order < max_order:
        order *= 2
        prev, cur = cur, compute(order)
        move = float(np.max(np.abs(cur - prev)))
        if move < settle_tol:
            break
    return RhoSeries(cur, N_keep, order, move, shift, n, m, c_plus, d_plus, b, rho_sites(c_plus, d_plus, b))
