"""Defect numbers dim ker and dim coker from the sign pattern of (n, m).

Three of the four sign cases are pure arithmetic.  Only n > 0, m > 0 needs
numerics: the n x m matrix with entries rho_{i-j} + rho_{i+j}, whose kernel
dimension feeds both defect numbers.  Since the matrix is assembled from
coefficients computed by quadrature, the rank decision is audited: a
singular-value gap report accompanies every kernel dimension, and when rho's
a-priori error bound is large enough to move singular values across the rank
threshold the solver refuses to answer instead of guessing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .confidence import RankUndecidable
from .fredholm_engine import NotFredholm, normalized_pair
from .symbol_core import SymbolPair

if TYPE_CHECKING:  # numpy and rho load only on the F-matrix path
    import numpy as np

    from .wiener_hopf import RhoSeries


class InsufficientCoefficients(ValueError):
    """The rho series does not hold enough coefficients for the matrix."""


class IllConditionedRankWarning(UserWarning):
    """The singular-value gap at the rank cut is below the audit ratio."""


@dataclass(frozen=True, eq=False)
class DefectMatrix:
    """The n x m matrix [rho_{i-j} + rho_{i+j}] with its source series."""

    n: int
    m: int
    matrix: np.ndarray
    rho: RhoSeries


@dataclass(frozen=True, eq=False)
class RankDecision:
    rank: int
    kernel_dim: int
    singular_values: np.ndarray
    gap_ratio: float
    threshold: float


@dataclass(frozen=True, eq=False)
class DefectReport:
    n: int
    m: int
    dim_ker: int
    dim_coker: int
    case_tag: str  # "G-zero" | "G-count" | "F-count" | "F-matrix"
    matrix: DefectMatrix | None = None
    kernel_tolerance: float | None = None
    gap_ratio: float | None = None
    rho: RhoSeries | None = None
    rep_c: object = None
    rep_d: object = None

    @property
    def index(self) -> int:
        return self.m - self.n


def case_tag(n: int, m: int) -> str:
    """Which of the four sign cases (exactly one) applies."""
    if n > 0 and m <= 0:
        return "G-zero"
    if n <= 0 and m <= 0:
        return "G-count"
    if n <= 0 and m > 0:
        return "F-count"
    return "F-matrix"


def defect_matrix(rho: RhoSeries, n: int, m: int) -> DefectMatrix:
    """Assemble [rho_{i-j} + rho_{i+j}] for 0 <= i < n, 0 <= j < m."""
    import numpy as np

    if n < 1 or m < 1:
        raise ValueError("the defect matrix exists only for n >= 1 and m >= 1")
    if 1 - m not in rho.ks or n + m - 2 not in rho.ks:
        raise InsufficientCoefficients(
            f"need rho_k for {1 - m} <= k <= {n + m - 2}, kept only {rho.ks.start}..{rho.ks.stop - 1}"
        )
    i = np.arange(n)[:, None]
    j = np.arange(m)[None, :]
    out = rho.coeffs[i - j - rho.ks.start] + rho.coeffs[i + j - rho.ks.start]
    return DefectMatrix(n=n, m=m, matrix=out, rho=rho)


def rank_decision(matrix: np.ndarray, tol_rel: float = 1e-8) -> RankDecision:
    """Numerical rank with the singular-value gap around the threshold.

    Warns with IllConditionedRankWarning when the gap ratio at the rank cut
    is below 10.
    """
    import numpy as np

    a = np.asarray(matrix, dtype=complex)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return RankDecision(
            rank=0,
            kernel_dim=a.shape[1],
            singular_values=sv,
            gap_ratio=np.inf,
            threshold=0.0,
        )
    threshold = tol_rel * sv[0]
    rank = int(np.sum(sv > threshold))
    if 0 < rank < sv.size and sv[rank] > 0:
        gap = float(sv[rank - 1] / sv[rank])
    else:
        gap = np.inf
    if gap < 10:
        warnings.warn(f"singular-value gap ratio {gap:.2f} at the rank cut", IllConditionedRankWarning)
    return RankDecision(
        rank=rank,
        kernel_dim=a.shape[1] - rank,
        singular_values=sv,
        gap_ratio=gap,
        threshold=threshold,
    )


def _audit_rank(decision: RankDecision, dm: DefectMatrix) -> None:
    """Refuse when rho's error bound could move the rank."""
    tail = dm.rho.tail_bound
    if not math.isfinite(tail):
        raise RankUndecidable("rho carries no finite error bound", tail, 0.0)
    # entries off by up to 2*tail move the spectral norm by at most this
    perturbation = 2.0 * tail * math.sqrt(dm.n * dm.m)
    sv = decision.singular_values
    critical = float(abs(sv - decision.threshold).min()) if sv.size else math.inf
    if perturbation >= max(critical, 1e-300):
        raise RankUndecidable(
            f"rho error bound {tail:.3e} fails the bound gate: it perturbs singular values by up to "
            f"{perturbation:.3e}, within {critical:.3e} of the rank threshold",
            tail,
            critical,
        )


def defect_numbers(pair: SymbolPair, p, tol_rel: float = 1e-8) -> DefectReport:
    """Full defect report at p per the four-case dispatch.

    (n, m) come from normalized_pair, the one Fredholm gate, so the report
    exists only for a Fredholm operator.

    Raises
    ------
    NotFredholm
        When the conditions fail; BoundaryCase when they sit within eps of
        failing.  Both carry the ConditionReport as ``report``.
    RankUndecidable
        When the matrix path cannot commit to a rank at the requested
        confidence.
    """
    rep_c, rep_d = normalized_pair(pair, p)
    n, m = rep_c.n, rep_d.n
    tag = case_tag(n, m)
    common = dict(
        n=n,
        m=m,
        case_tag=tag,
        rep_c=rep_c,
        rep_d=rep_d,
    )
    if tag == "G-zero":
        return DefectReport(dim_ker=0, dim_coker=n - m, **common)
    if tag == "G-count":
        return DefectReport(dim_ker=-n, dim_coker=-m, **common)
    if tag == "F-count":
        return DefectReport(dim_ker=m - n, dim_coker=0, **common)

    from .wiener_hopf import build_plus_factor, rho_coefficients

    keep = max(n + m, 16)
    rho = rho_coefficients(build_plus_factor(rep_c), build_plus_factor(rep_d), pair.b, n, m, keep)
    dm = defect_matrix(rho, n, m)
    decision = rank_decision(dm.matrix, tol_rel)
    _audit_rank(decision, dm)
    r = decision.rank
    return DefectReport(
        dim_ker=m - r,
        dim_coker=n - r,
        matrix=dm,
        kernel_tolerance=tol_rel,
        gap_ratio=decision.gap_ratio,
        rho=rho,
        **common,
    )


def invertibility(pair: SymbolPair, p) -> str:
    """Verdict "invertible", "not-invertible", or "not-fredholm".

    Invertible means Fredholm with trivial kernel and cokernel, which per the
    case table happens exactly for n = m = 0 or n = m > 0 with a nonsingular
    matrix.  A RankUndecidable audit failure propagates; no verdict is
    fabricated over an unstable rank.
    """
    try:
        report = defect_numbers(pair, p)
    except NotFredholm:
        return "not-fredholm"
    if report.dim_ker == 0 and report.dim_coker == 0:
        return "invertible"
    return "not-invertible"
