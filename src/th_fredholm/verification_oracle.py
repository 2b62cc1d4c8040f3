"""Independent cross-checks for the symbolic pipeline.

A symbol's Fourier coefficients come from rho's rule, quadrature.integrate, with its a-priori bound:
symbol_parts writes the symbol as a site product whose sites, turn 0 and its jumps, are all analytic, so
the whole circle lies on the FFT-summed grid.  Kernel candidates are built from the factorization and the
production rho, and their finite-section residuals T_N f + H_N f come from two FFT convolutions with those
coefficients; the tests hold the dense N x N section (tests/helpers.py) these are checked against.  The
second route to rho kept here, rho_de, integrates rho's values by tanh-sinh quadrature in the offsets
from each site, and `verify` compares it with wiener_hopf.rho_coefficients on |k| <= 16.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from .confidence import MethodDisagreement, ResidualTooLarge
from .defect_solver import DefectReport, defect_numbers
from .fredholm_engine import build_plus_factor
from .quadrature import (
    UNIT, SiteProduct, _fourier_integrals, _integral_units, _rho_values, fft_length, integrate, site_product
)
from .symbol_core import CanonicalSymbol, FourierLogPoly, SymbolPair, _Record
from .wiener_hopf import rho_coefficients


def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two complex128 arrays through numpy.fft.

    Padding to fft_length makes the result bit-identical to
    scipy.signal.fftconvolve, which runs the same pocketfft transforms at
    that length; the product and inverse are taken in place.  A length-one
    input is a plain product, as fftconvolve skips the transform there too.
    """
    if a.size == 1 or b.size == 1:
        return a * b
    n = a.size + b.size - 1
    L = fft_length(n)
    spec = np.fft.fft(a, L)
    spec *= np.fft.fft(b, L)
    return np.fft.ifft(spec, out=spec)[:n]


class TwoSidedSeries(_Record, eq=False):
    """Coefficients f_k for |k| <= N, stored with k = 0 at the center, and a bound on their error."""

    coeffs: np.ndarray
    bound: float | None

    def __init__(self, coeffs: np.ndarray, bound: float | None = None):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "bound", bound)
        if coeffs.size % 2 != 1:
            raise ValueError("two-sided storage needs an odd length")

    @property
    def N(self) -> int:
        return self.coeffs.size // 2

    def get(self, k: int) -> complex:
        if abs(k) > self.N:
            raise IndexError(f"coefficient {k} beyond stored order {self.N}")
        return complex(self.coeffs[k + self.N])


class KernelBasis(_Record, eq=False):
    """Kernel candidates, the -n homogeneous ones first, their section residuals and Gram rank, and the
    bounds of the section's coefficients of a and b, None when no candidate leaves a section to run."""

    vectors: tuple[np.ndarray, ...]
    residuals: np.ndarray
    gram_rank: int
    fourier_bounds: tuple[float, float] | None


def symbol_parts(s: CanonicalSymbol) -> SiteProduct:
    """s as a site product (quadrature.SiteProduct): its jumps and turn 0 are sites with eta = 0 and phase -beta."""
    jumps = {j.point.turns: j.beta.value for j in s.jumps}
    turns = sorted({Fraction(0), *jumps})
    laurent = s.log_smooth.as_dict()
    const = s.scale * cmath.exp(laurent.pop(0, 0j))
    zero = [0j] * len(turns)
    top = max(map(abs, laurent), default=0)
    return site_product(turns, const, laurent, s.kappa, top, zero, zero, [-complex(jumps.get(t, 0)) for t in turns])


def fourier_coeffs(s: CanonicalSymbol, N: int, tol: float = 1e-6) -> TwoSidedSeries:
    """Coefficients f_k, |k| <= N, by quadrature.integrate over symbol_parts(s), with its bound.

    Raises
    ------
    MethodDisagreement
        When the bound exceeds tol or is NaN.
    """
    coeffs, _, terms = integrate(symbol_parts(s), range(-N, N + 1))
    bound = sum(terms.values())
    if not bound <= tol:
        raise MethodDisagreement(f"Fourier quadrature bound {bound:.3e} exceeds {tol:.1e} on |k| <= {N}")
    return TwoSidedSeries(coeffs, bound)


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
    solves (1+t) c_+ f = g, where g is read off the coefficients of
    -rho (t^k + t^{-k}): f is the convolution of g with c_+^{-1}, truncated
    to N, then divided by 1+t as the alternating running sum of
    1/(1+t) = sum (-t)^k.  For n > 0 the same division runs over the null
    vectors of the defect matrix, so the basis count always equals the
    reported kernel dimension.  One realization of c_+^{-1} to t^{N-1}
    serves every candidate, since no coefficient read depends on a higher
    one, and neither it nor rho is made when there is no candidate (n >= 0,
    m <= 0, or the F-matrix case with dim ker 0).  rho comes from
    wiener_hopf.rho_coefficients, the route the defect matrix is built from,
    over the k the right sides read.  That rho is the pair's divided by b's
    constant lam, so the section runs on a/lam's coefficients to N - 1 and
    b/lam's to 2N - 1, whose absolute bounds stay of order 1 at any lam; they
    are computed here alone, and the basis carries their bounds.  tol gates
    the residuals and the error bounds of that rho and of those coefficients.

    Raises
    ------
    ResidualTooLarge
        When any candidate's residual exceeds tol or is NaN, or the
        truncated vectors are not linearly independent.
    MethodDisagreement
        When the bound of rho or of the section's coefficients exceeds tol
        or is NaN.
    """
    if report is None:
        report = defect_numbers(pair, p)
    n, m = report.n, report.m
    particular = m > 0 and (n <= 0 or report.dim_ker > 0)  # F-matrix with dim ker 0: no null vector to weigh
    if n < 0 or particular:
        inv = np.asarray(build_plus_factor(report.rep_c).realize(N - 1, inverted=True))
    vectors: list[np.ndarray] = []

    if n < 0:
        base = convolve(np.array([1.0, -1.0], dtype=complex), inv)[:N]
        for j in range(-n):
            q2 = np.zeros(-2 * n - 1, dtype=complex)
            q2[j] += 1.0
            q2[-2 * n - 2 - j] += 1.0
            vectors.append(convolve(base, q2)[:N])

    if particular:
        ks = range(n - m + 1, N + n + m - 1)  # the k of rho_{l+n-k} and rho_{l+n+k} read below
        rho = rho_coefficients(report.rep_c, report.rep_d, pair.b, ks)
        if not rho.tail_bound <= tol:
            raise MethodDisagreement(
                f"rho bound {rho.tail_bound:.3e} exceeds {tol:.1e} on {ks.start} <= k <= {ks.stop - 1}"
            )
        alt = (-1.0) ** np.arange(N)
        # every unit vector, or for n > 0 the null vectors of the defect matrix: its right singular vectors past the rank
        weights = np.eye(m, dtype=complex) if n <= 0 else np.linalg.svd(report.matrix.matrix)[2][m - report.dim_ker :].conj()
        # sym[l, k] = rho_{l+n-k} + rho_{l+n+k}, read from the stored coefficients
        l, k = np.arange(N)[:, None], np.arange(m)[None, :]
        sym = rho.coeffs[l + n - k - ks.start] + rho.coeffs[l + n + k - ks.start]
        for x in weights:
            g = -(sym @ x)
            g[: max(0, 1 - 2 * n)] /= 2
            h = convolve(inv, g)[:N]
            vectors.append(alt * np.cumsum(alt * h))

    if len(vectors) != report.dim_ker:
        raise ResidualTooLarge(
            f"constructed {len(vectors)} candidates, expected {report.dim_ker}"
        )
    if not vectors:
        return KernelBasis((), np.zeros(0), 0, None)

    # the section's T_N f, and H_N f with (H_N f)_i = sum_j b_{i+j+1} f_j, by convolution with b_{2N-1..1}, of a
    # and b divided by b's constant lam = scale e^{log_0} as rho is; log_0 leaves through the logs
    scale, log_0 = pair.b.scale, FourierLogPoly.of({0: pair.b.log_smooth.as_dict().get(0, 0j)})
    a, b = (CanonicalSymbol(s.kappa, s.scale / scale, s.log_smooth.plus(log_0, -1), s.jumps) for s in (pair.a, pair.b))
    series_a, series_b = fourier_coeffs(a, N - 1, tol), fourier_coeffs(b, 2 * N - 1, tol)
    a, b_rev = series_a.coeffs, series_b.coeffs[: 2 * N - 1 : -1]
    images = [convolve(a, f)[N - 1 : 2 * N - 1] + convolve(b_rev, f)[N - 1 : 2 * N - 1][::-1] for f in vectors]
    residuals = np.array([np.linalg.norm(g) / np.linalg.norm(f) for g, f in zip(images, vectors)])
    gram_rank = int(np.linalg.matrix_rank(np.vstack(vectors)))
    if gram_rank != len(vectors):
        raise ResidualTooLarge(
            f"only {gram_rank} of {len(vectors)} candidates are independent"
        )
    if not residuals.max() <= tol:
        raise ResidualTooLarge(
            f"worst finite-section residual {residuals.max():.3e} exceeds {tol:.1e}"
        )
    return KernelBasis(tuple(vectors), residuals, gram_rank, (series_a.bound, series_b.bound))


def rho_de(parts: SiteProduct, N_keep: int) -> tuple[TwoSidedSeries, float]:
    """rho_k, |k| <= N_keep, by tanh-sinh quadrature over the half-arcs: the second route.

    It integrates the production parts of rho (wiener_hopf.rho_parts), and
    returns the coefficients, with no bound, and an estimate of their error.

    Each half of an arc between sites of rho, of width L, is integrated in the
    offset u from its end site, its anchor, u = L / (1 + e^{-pi sinh s}), so
    the nodes crowd the site without cancellation (Takahasi & Mori, Publ.
    RIMS 9, 1974).  On each half-arc s runs down to the node u0 where u^{1 + Re beta}
    is e^{-40} at its own anchor, or |u^eta| is e^{600} for its log exponent eta
    (beta - 2 at -1): sized for a steeper site instead, a shallow site's factors
    of rho would leave the float range and meet as 0 * inf.  Toward the midpoint
    every half-arc runs as far as the steepest one.  u0 takes half its trapezoid
    weight, and the integral below it its leading term rho(u0) |u0| / (beta + 1),
    as rho ~ C |u|^beta at the anchor.  The step in s starts at 1/8 and halves
    until the coefficients move by less than 1e-13, or down to 2^-10.
    The estimate, which is not a bound, is the last movement plus, per
    half-arc, |rho(u0) u0| / (1 + Re beta) times |u0| / L: the next term below
    u0 if the rest of rho varies on the half-arc's scale; plus a rounding floor,
    UNIT sum |w rho| _integral_units / 2 pi over the nodes, as the movement
    alone can fall below the rounding of the sums.
    """
    ks = range(-N_keep, N_keep + 1)
    turns = parts.turns
    S = len(turns)
    room = 1 + np.array([beta.real for beta in parts.betas])
    # half-arc i < S leaves site i forward, half-arc S + i reaches site i + 1 backward, both of width ahead[i]
    anchor = np.concatenate([np.arange(S), (np.arange(S) + 1) % S])
    L = np.tile(parts.ahead, 2)[:, None]
    sign = np.repeat([1.0, -1.0], S)[:, None]
    # half-arc i keeps the nodes s >= -reach[i] / 8 of the common grid |s| <= span / 8
    depth = np.minimum(600.0 / np.maximum(1.0, [-eta.real for eta in parts.etas]), 40.0 / np.minimum(1.0, room))
    reach = np.ceil(8 * np.arcsinh(depth[anchor] / np.pi))[:, None]
    span = int(reach.max())
    x0 = 2 * np.pi * np.array(turns, dtype=float)[anchor]

    def total(s: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
        """sum of rho e^{-ikx} du/ds and of |rho du/ds| over the nodes s of every half-arc, and rho and u at
        each innermost node."""
        q = np.pi * np.sinh(s)
        e = np.exp(-np.abs(q))
        u = sign * L * np.where(q >= 0, 1.0, e) / (1 + e)
        keep = s >= -reach / 8
        vals = np.zeros(u.shape, dtype=complex)
        vals[keep] = _rho_values(parts, np.broadcast_to(anchor[:, None], u.shape)[keep], u[keep])
        du = L * (np.pi * np.cosh(s) * e / (1 + e) ** 2)
        inner = s == -reach / 8  # one node u0 per half-arc on the first grid, none on the later ones
        du[inner] /= 2
        sums = _fourier_integrals((x0[:, None] + u).ravel(), du.ravel(), vals.ravel(), ks)
        return sums, float(np.sum(np.abs(du * vals))), vals[inner], u[inner]

    h, steps = 1 / 8, span
    acc, mass, v0, u0 = total(h * np.arange(-steps, steps + 1))
    tail = np.exp(-1j * np.outer(ks, x0)) @ (v0 * np.abs(u0) / (np.array(parts.betas)[anchor] + 1)) / (2 * np.pi)
    coeffs, move = h * acc + tail, math.inf
    while move >= 1e-13 and h > 2**-10:
        h, steps = h / 2, 2 * steps
        sums, more = total(h * (2 * np.arange(-steps // 2, steps // 2) + 1))[:2]
        acc, mass = acc + sums, mass + more
        coeffs, prev = h * acc + tail, coeffs
        move = float(np.max(np.abs(coeffs - prev)))
    nodes = int(np.sum((reach + span) * (steps // span) + 1))
    below = float(np.sum(np.abs(v0 * u0) / room[anchor] * np.abs(u0) / L[:, 0]))
    estimate = move + (below + UNIT * h * mass * _integral_units(nodes, len(ks))) / (2 * np.pi)
    return TwoSidedSeries(coeffs), estimate
