"""Brute-force checks of the operator against explicit harmonics (d = 2, 3).

The defining sesquilinear form of the linearized map sends boundary data f, g
to minus the integral of eta * grad(u_f) . grad(u_g) over the ball, where u_h
is the harmonic extension of h.  In dimensions 2 and 3 we can write down
orthonormal harmonics (Fourier modes on the circle; zonal Legendre harmonics
on the sphere), assemble that integral by plain tensor quadrature, and
compare the resulting matrix against the predicted diagonal.  Nothing here
uses the eigenvalue formulas, so agreement is evidence, not tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import kernels
from .numerics import gauss_legendre
from .profiles import RadialProfile

__all__ = [
    "CrossValidationReport",
    "ExplicitHarmonic",
    "GradientIdentityReport",
    "brute_force_entry",
    "cross_validate",
    "gradient_identity",
    "harmonics_up_to",
]

_KINDS = {2: ("cos", "sin"), 3: ("zonal",)}


@dataclass(frozen=True)
class ExplicitHarmonic:
    """One orthonormal spherical harmonic with a closed form.

    d = 2: cos(k theta)/sqrt(pi) or sin(k theta)/sqrt(pi) on the circle.
    d = 3: sqrt((2k+1)/(4 pi)) P_k(cos theta), the zonal harmonic.
    """

    d: int
    degree: int
    kind: str

    def __post_init__(self) -> None:
        if self.d not in _KINDS:
            raise ValueError(f"explicit harmonics exist only for d in (2, 3), got {self.d}")
        if self.kind not in _KINDS[self.d]:
            raise ValueError(f"kind {self.kind!r} invalid for d={self.d}")
        if not isinstance(self.degree, (int, np.integer)) or self.degree < 1:
            raise ValueError(f"degree must be an integer >= 1, got {self.degree!r}")

    @property
    def label(self) -> str:
        return f"{self.kind}{self.degree}"

    def _norm_const(self) -> float:
        if self.d == 2:
            return 1.0 / math.sqrt(math.pi)
        return math.sqrt((2 * self.degree + 1) / (4.0 * math.pi))

    def value(self, theta) -> np.ndarray:
        """Harmonic at polar angle theta (colatitude for d = 3)."""
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.d == 2:
            base = np.cos(self.degree * th) if self.kind == "cos" else np.sin(self.degree * th)
        else:
            p, _ = kernels.legendre_table(np.cos(th), self.degree)
            base = p[self.degree]
        return self._norm_const() * base

    def theta_derivative(self, theta) -> np.ndarray:
        """d/dtheta of the harmonic at polar angle theta."""
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        if self.d == 2:
            if self.kind == "cos":
                base = -self.degree * np.sin(self.degree * th)
            else:
                base = self.degree * np.cos(self.degree * th)
        else:
            _, dp = kernels.legendre_table(np.cos(th), self.degree)
            base = dp[self.degree] * (-np.sin(th))
        return self._norm_const() * base


def harmonics_up_to(d: int, max_degree: int) -> list[ExplicitHarmonic]:
    """All explicit harmonics with 1 <= degree <= max_degree, degree-major."""
    if max_degree < 1:
        raise ValueError(f"max_degree must be >= 1, got {max_degree}")
    return [
        ExplicitHarmonic(d=d, degree=ell, kind=kind)
        for ell in range(1, max_degree + 1)
        for kind in _KINDS[d]
    ]


def _angular_rule(d: int, degree_sum: int) -> tuple[np.ndarray, np.ndarray]:
    """Angle nodes and surface weights integrating our angular factors exactly.

    d = 2: uniform trapezoid on the circle (exact for trig polynomials of
    degree < n).  d = 3: Gauss-Legendre in t = cos(theta) carrying the 2 pi
    azimuth factor; the angular integrands are polynomials in t of degree
    degree_sum (the derivative terms pick up exactly one factor 1 - t**2).
    """
    if d == 2:
        n = 4 * degree_sum + 8
        theta = 2.0 * math.pi * np.arange(n) / n
        return theta, np.full(n, 2.0 * math.pi / n)
    rule = gauss_legendre(degree_sum + 4)
    t = 2.0 * rule.nodes - 1.0
    return np.arccos(t), 2.0 * math.pi * (2.0 * rule.weights)


def brute_force_entry(
    profile: RadialProfile, h1: ExplicitHarmonic, h2: ExplicitHarmonic
) -> float:
    """<(F eta) h1, h2> assembled directly from the defining integral.

    The harmonic extension of a degree-ell harmonic f is r**ell f / ell (unit
    Neumann data), so the gradients' dot product at (r, theta) is
    r**(l1+l2-2) (f1 f2 + f1' f2' / (l1 l2)); this is integrated against
    -eta(r) r**(d-1) by per-piece radial Gauss-Legendre tensored with the
    angular rule.  All rules are of exactly sufficient order, so the result
    is the integral up to roundoff.
    """
    if h1.d != h2.d:
        raise ValueError(f"harmonics live in different dimensions: {h1.d} vs {h2.d}")
    d = h1.d
    l1, l2 = h1.degree, h2.degree
    theta, ang_w = _angular_rule(d, l1 + l2)
    g = h1.value(theta) * h2.value(theta) + (
        h1.theta_derivative(theta) * h2.theta_derivative(theta)
    ) / (l1 * l2)
    p = l1 + l2 - 2
    total = 0.0
    for lo, hi, c in profile.intervals():
        rule = gauss_legendre(((c.size - 1) + p + d) // 2 + 2)
        r = lo + (hi - lo) * rule.nodes
        w = (hi - lo) * rule.weights
        grid = r[:, None] ** p * g[None, :]  # grad(u1) . grad(u2) on the tensor grid
        total += (w * npoly.polyval(r, c) * r ** (d - 1)) @ grid @ ang_w
    return -total


@dataclass(frozen=True)
class GradientIdentityReport:
    """Surface-gradient identity for a pair of explicit harmonics:
    integral of grad_S f1 . grad_S f2 over the sphere must equal
    l1 (l1 + d - 2) times the integral of f1 f2."""

    h1: ExplicitHarmonic
    h2: ExplicitHarmonic
    lhs: float
    rhs: float
    defect: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.defect <= self.tol


def gradient_identity(
    h1: ExplicitHarmonic, h2: ExplicitHarmonic, tol: float = 1e-10
) -> GradientIdentityReport:
    """Quadrature check of the surface-gradient identity for one pair."""
    if h1.d != h2.d:
        raise ValueError(f"harmonics live in different dimensions: {h1.d} vs {h2.d}")
    theta, ang_w = _angular_rule(h1.d, h1.degree + h2.degree)
    lhs = float(ang_w @ (h1.theta_derivative(theta) * h2.theta_derivative(theta)))
    rhs = float(ang_w @ (h1.value(theta) * h2.value(theta)))
    factor = h1.degree * (h1.degree + h1.d - 2)
    return GradientIdentityReport(
        h1=h1, h2=h2, lhs=lhs, rhs=rhs, defect=abs(lhs - factor * rhs), tol=tol
    )


@dataclass(frozen=True)
class CrossValidationReport:
    """Brute-force matrix of the form against the predicted diagonal."""

    d: int
    labels: tuple[str, ...]
    degrees: tuple[int, ...]
    entries: np.ndarray  # brute-force values, symmetric
    reference: np.ndarray  # predicted eigenvalue per harmonic
    tol_offdiag: float
    tol_diag: float

    def __post_init__(self) -> None:
        self.entries.flags.writeable = False
        self.reference.flags.writeable = False

    @property
    def max_offdiag(self) -> float:
        off = self.entries - np.diag(np.diag(self.entries))
        return float(np.abs(off).max()) if self.entries.shape[0] > 1 else 0.0

    @property
    def max_diag_scaled(self) -> float:
        err = np.abs(np.diag(self.entries) - self.reference)
        return float((err / np.maximum(1.0, np.abs(self.reference))).max())

    @property
    def ok(self) -> bool:
        return self.max_offdiag <= self.tol_offdiag and self.max_diag_scaled <= self.tol_diag


def cross_validate(
    profile: RadialProfile,
    d: int,
    max_degree: int,
    tol_offdiag: float = 1e-9,
    tol_diag: float = 1e-8,
) -> CrossValidationReport:
    """Assemble the full brute-force matrix over all explicit harmonics up to
    max_degree and compare with the moment-route eigenvalues.

    The import of the reference route is local: the brute-force side above
    must stay computable without it.
    """
    from .operator import spectrum_moment

    hs = harmonics_up_to(d, max_degree)
    n = len(hs)
    entries = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            v = brute_force_entry(profile, hs[i], hs[j])
            entries[i, j] = entries[j, i] = v
    reference = spectrum_moment(profile, d, max_degree).eigenvalues[[h.degree - 1 for h in hs]]
    return CrossValidationReport(
        d=d,
        labels=tuple(h.label for h in hs),
        degrees=tuple(h.degree for h in hs),
        entries=entries,
        reference=reference,
        tol_offdiag=tol_offdiag,
        tol_diag=tol_diag,
    )
