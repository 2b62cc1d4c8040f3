"""Fredholm theory, index, and defect numbers for Toeplitz plus Hankel operators.

The public names resolve on first use (PEP 562), each from the module that
defines it, so importing the package loads no submodule and the exact
commands never load numpy.
"""

import importlib

_EXPORTS = {
    "confidence": "MethodDisagreement OutsideFloatRange RankUndecidable ResidualTooLarge",
    "defect_solver": "DefectReport InsufficientCoefficients defect_numbers",
    "fredholm_engine": (
        "BoundaryCase ConditionReport NormalizedRep NotFredholm PlusFactor"
        " build_hash_curve build_plus_factor exponent_pair fredholm_conditions normalize normalized_pair p_map"
    ),
    "special_families": "FamilyReport HankelReport classify_family family_b family_fredholm hankel_identity_report",
    "symbol_core": (
        "CanonicalSymbol ConditionViolated EvalAtJump Exponent FourierLogPoly JumpFactor SymbolPair"
        " UnitPoint invert jump_unit multiply one_sided_limits tilde validate_pair"
    ),
    "verification_oracle": "KernelBasis fourier_coeffs kernel_residual_check",
    "wiener_hopf": "RhoSeries rho_coefficients",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
