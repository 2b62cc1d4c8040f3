"""Refusals: a numerical answer the program declines to certify (exit 4).

They live apart from the numeric modules that raise them, so the command
line can catch them without importing numpy.
"""


class RankUndecidable(RuntimeError):
    """rho's error bound could flip the rank decision.

    Attributes
    ----------
    tail_bound : float
        rho's a-priori error bound (RhoSeries.tail_bound), the coefficient
        uncertainty propagated to the matrix.
    critical_sv : float
        Distance from the nearest singular value to the rank threshold.
    """

    def __init__(self, message: str, tail_bound: float, critical_sv: float):
        super().__init__(message)
        self.tail_bound = tail_bound
        self.critical_sv = critical_sv


class MethodDisagreement(RuntimeError):
    """Two independent computations of the same numbers disagree."""


class ResidualTooLarge(RuntimeError):
    """A constructed kernel candidate fails its finite-section residual."""
