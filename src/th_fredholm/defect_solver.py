"""Defect numbers dim ker and dim coker from the sign pattern of (n, m).

Three of the four sign cases are pure arithmetic.  Only n > 0, m > 0 needs
numerics: the n x m matrix A with entries rho_{i-j} + rho_{i+j}, whose rank
gives dim ker = m - rank A and dim coker = n - rank A.  A is assembled from
coefficients computed by quadrature, so the rank is certified, not cut: rho's
a-priori error bound, through Weyl's inequality, plus the SVD's backward
error under LAPACK's error model, bounds how far every singular value can lie
from the exact matrix's.  When the smallest computed singular value exceeds
that bound, A has full rank min(n, m); otherwise the solver refuses
(RankUndecidable) instead of guessing.  The certificate is as sound as that
model: Weyl's term is a proven bound, the SVD's term is not.
Floating point cannot certify an exact zero, so a truly rank-deficient A
always refuses.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .confidence import RankUndecidable
from .fredholm_engine import normalized_pair
from .symbol_core import SymbolPair, _Record

if TYPE_CHECKING:  # numpy and rho load only on the F-matrix path
    import numpy as np

    from .wiener_hopf import RhoSeries


class InsufficientCoefficients(ValueError):
    """The rho series does not hold enough coefficients for the matrix."""


class DefectMatrix(_Record, eq=False):
    """The n x m matrix [rho_{i-j} + rho_{i+j}] with its source series."""

    n: int
    m: int
    matrix: np.ndarray
    rho: RhoSeries


class DefectReport(_Record, eq=False):
    n: int
    m: int
    dim_ker: int
    dim_coker: int
    case_tag: str  # "G-zero" | "G-count" | "F-count" | "F-matrix"
    matrix: DefectMatrix | None = None
    sigma_min: float | None = None
    perturbation_bound: float | None = None
    rep_c: object = None
    rep_d: object = None

    @property
    def index(self) -> int:
        return self.m - self.n

    @property
    def gap_ratio(self) -> float | None:
        """sigma_min / perturbation_bound, the certification margin of the F-matrix case."""
        return None if self.sigma_min is None else self.sigma_min / self.perturbation_bound


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


def rank_decision(dm: DefectMatrix) -> tuple[float, float]:
    """Certify that A = dm.matrix has full rank min(n, m): (sigma_min, delta).

    With eps = dm.rho.tail_bound, each rho_k is within eps, and each entry
    is one rounded addition, so every computed entry is within
    2 eps + u |A_ij| of the exact one (u = quadrature.UNIT, 2^-53).  The
    spectral norm of that error is at most its Frobenius norm, sqrt(nm)
    (2 eps + u max |A_ij|), and by Weyl's inequality (Math. Ann. 71, 1912)
    no singular value moves by more.  The SVD returns the singular values of A + F with
    ||F|| <= c u sigma_max, c a modestly growing function of the dimensions
    (Golub & Van Loan, Matrix Computations, 4th ed., 8.6).  That is LAPACK's
    error model, not a proven bound: neither source fixes c, and u here is
    the real unit roundoff although A is complex.  LAPACK's users' guide
    takes c = 1; c = max(n, m) lets it grow linearly in the longer side and
    still keeps delta near 1e-15 sigma_max at the sizes here.  So
    delta = sqrt(nm) (2 eps + u max |A_ij|) + max(n, m) u sigma_max, and
    sigma_min > delta certifies every exact singular value nonzero under
    that model.

    Raises RankUndecidable, naming sigma_min and delta, when sigma_min does
    not exceed delta: always for a zero matrix or a non-finite eps.
    """
    import numpy as np

    from .quadrature import UNIT as u

    n, m, eps = dm.n, dm.m, dm.rho.tail_bound
    sv = np.linalg.svd(dm.matrix, compute_uv=False)
    sigma_min, sigma_max = float(sv[-1]), float(sv[0])
    delta = math.sqrt(n * m) * (2.0 * eps + u * float(np.abs(dm.matrix).max())) + max(n, m) * u * sigma_max
    if not sigma_min > delta:
        raise RankUndecidable(
            f"the {n} x {m} defect matrix has smallest singular value {sigma_min:.3e}, within its "
            f"perturbation bound {delta:.3e} (rho error bound {eps:.3e}): its rank cannot be certified",
            sigma_min,
            delta,
        )
    return sigma_min, delta


def defect_numbers(pair: SymbolPair, p) -> DefectReport:
    """Full defect report at p per the four-case dispatch.

    (n, m) come from normalized_pair, the one Fredholm gate, so the report
    exists only for a Fredholm operator.

    Raises
    ------
    NotFredholm
        When the conditions fail; BoundaryCase when they sit within eps of
        failing.  Both carry the ConditionReport as ``report``.
    RankUndecidable
        In the F-matrix case, when rho's error bound cannot certify that
        the defect matrix has full rank.
    """
    rep_c, rep_d = normalized_pair(pair, p)
    n, m = rep_c.n, rep_d.n
    tag = case_tag(n, m)
    common = dict(n=n, m=m, case_tag=tag, rep_c=rep_c, rep_d=rep_d)
    if tag == "G-zero":
        return DefectReport(dim_ker=0, dim_coker=n - m, **common)
    if tag == "G-count":
        return DefectReport(dim_ker=-n, dim_coker=-m, **common)
    if tag == "F-count":
        return DefectReport(dim_ker=m - n, dim_coker=0, **common)

    from .wiener_hopf import rho_coefficients

    dm = defect_matrix(rho_coefficients(rep_c, rep_d, pair.b, range(1 - m, n + m - 1)), n, m)
    sigma_min, delta = rank_decision(dm)
    r = min(n, m)
    return DefectReport(
        dim_ker=m - r,
        dim_coker=n - r,
        matrix=dm,
        sigma_min=sigma_min,
        perturbation_bound=delta,
        **common,
    )

