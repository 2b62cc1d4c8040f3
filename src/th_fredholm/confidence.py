"""Refusals: a numerical answer the program declines to certify (exit 4).

They live apart from the numeric modules that raise them, so the command
line can catch them without importing numpy.
"""


class RankUndecidable(RuntimeError):
    """rho's error bound cannot certify the rank of the defect matrix.

    Attributes
    ----------
    sigma_min : float
        The smallest computed singular value of A_{n,m}.
    perturbation_bound : float
        delta, the most any singular value can lie from the exact matrix's:
        rho's a-priori error bound through Weyl's inequality, plus the SVD's
        backward error as LAPACK's error model gives it (with its constant
        taken as max(n, m), not a proven bound).  The refusal means
        sigma_min <= delta.
    """

    def __init__(self, message: str, sigma_min: float, perturbation_bound: float):
        super().__init__(message)
        self.sigma_min = sigma_min
        self.perturbation_bound = perturbation_bound


class MethodDisagreement(RuntimeError):
    """Two independent computations of the same numbers disagree."""


class ResidualTooLarge(RuntimeError):
    """A constructed kernel candidate fails its finite-section residual."""


class OutsideFloatRange(RuntimeError):
    """A value the command must print lies outside the range of normal floats."""
