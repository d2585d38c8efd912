"""Spectral analysis of the linearized Neumann-to-Dirichlet map on the unit
ball under radial conductivity perturbations.

The map acts diagonally on spherical harmonics; this package computes its
eigenvalues from a perturbation profile by two independent routes, checks
the per-degree decay bound, truncates to finite rank, inverts regularized,
and cross-validates everything against brute-force integrals in d = 2, 3.
"""

from .jacobi import (
    JacobiExpansion,
    JacobiFamily,
    build_family,
    evaluate_table,
    monomial_coefficients,
)
from .numerics import QuadratureRule, gauss_legendre
from .operator import (
    BoundaryField,
    InversionResult,
    InversionSettings,
    Spectrum,
    apply_operator,
    decay_constant,
    dual_route,
    eigenvalue_moment,
    eigenvalue_series,
    forward_matrix,
    harmonic_space_dim,
    invert,
    spectrum_moment,
    spectrum_series,
    truncate,
    truncation_error,
    verify_decay_bound,
    verify_factorial_ratio_bound,
)
from .oracle import (
    ExplicitHarmonic,
    brute_force_entry,
    cross_validate,
    gradient_identity,
    harmonics_up_to,
)
from .profiles import (
    RadialProfile,
    moment_integral,
    norm_ball,
    norm_ball_profile,
    preset,
    project,
    surface_area,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryField",
    "ExplicitHarmonic",
    "InversionResult",
    "InversionSettings",
    "JacobiExpansion",
    "JacobiFamily",
    "QuadratureRule",
    "RadialProfile",
    "Spectrum",
    "apply_operator",
    "brute_force_entry",
    "build_family",
    "cross_validate",
    "decay_constant",
    "dual_route",
    "eigenvalue_moment",
    "eigenvalue_series",
    "evaluate_table",
    "forward_matrix",
    "gauss_legendre",
    "gradient_identity",
    "harmonic_space_dim",
    "harmonics_up_to",
    "invert",
    "moment_integral",
    "monomial_coefficients",
    "norm_ball",
    "norm_ball_profile",
    "preset",
    "project",
    "spectrum_moment",
    "spectrum_series",
    "surface_area",
    "truncate",
    "truncation_error",
    "verify_decay_bound",
    "verify_factorial_ratio_bound",
    "__version__",
]
