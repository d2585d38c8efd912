"""Spectral analysis of the linearized Neumann-to-Dirichlet map on the unit
ball under radial conductivity perturbations.

The map acts diagonally on spherical harmonics; this package computes its
eigenvalues from a perturbation profile by two independent routes, checks
the per-degree decay bound, truncates to finite rank, inverts regularized,
and cross-validates everything against brute-force integrals in d = 2, 3.
"""

from .jacobi import (
    JacobiExpansion,
    evaluate_table,
    monomial_coefficients,
)
from .numerics import QuadratureRule, gauss_legendre
from .operator import (
    InversionResult,
    Spectrum,
    decay_constant,
    dual_route,
    eigenvalue_moment,
    eigenvalue_series,
    forward_matrix,
    harmonic_space_dim,
    invert,
    spectrum_moment,
    spectrum_series,
    truncation_error,
    verify_decay_bound,
    verify_factorial_ratio_bound,
)
from .oracle import cross_validate
from .profiles import (
    RadialProfile,
    moment_integral,
    norm_ball,
    norm_ball_profile,
    preset,
    project,
)

__version__ = "0.1.0"

__all__ = [
    "InversionResult",
    "JacobiExpansion",
    "QuadratureRule",
    "RadialProfile",
    "Spectrum",
    "cross_validate",
    "decay_constant",
    "dual_route",
    "eigenvalue_moment",
    "eigenvalue_series",
    "evaluate_table",
    "forward_matrix",
    "gauss_legendre",
    "harmonic_space_dim",
    "invert",
    "moment_integral",
    "monomial_coefficients",
    "norm_ball",
    "norm_ball_profile",
    "preset",
    "project",
    "spectrum_moment",
    "spectrum_series",
    "truncation_error",
    "verify_decay_bound",
    "verify_factorial_ratio_bound",
    "__version__",
]
