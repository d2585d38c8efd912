"""Brute-force checks of the operator against explicit harmonics (d = 2, 3).

The defining sesquilinear form of the linearized map sends boundary data f, g
to minus the integral of eta * grad(u_f) . grad(u_g) over the ball, where u_h
is the harmonic extension of h.  In dimensions 2 and 3 we can write down
orthonormal harmonics (Fourier modes on the circle; zonal Legendre harmonics
on the sphere), assemble that integral by plain tensor quadrature, and
compare the resulting matrix against the predicted diagonal.  Nothing here
uses the eigenvalue formulas, so agreement is evidence, not tautology.

The integrand of a pair depends on its degrees only through their sum S, so
``cross_validate`` builds one grid per S: the angular rule, every harmonic's
value and theta-derivative rows on it (one Legendre table per grid in d = 3)
and each piece's radial factor.  Every entry of that S is then one product of
shared tables.  The single-pair functions ``brute_force_entry`` and
``gradient_identity`` build the same tables for their two harmonics and call
the same per-pair helpers, so each formula exists once and both paths give
the same bits.  The tables live for one call.
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
_TOL_IDENTITY = 1e-10  # surface-gradient identity, on the scaled defect


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
        return _harmonic_rows((self,), np.atleast_1d(np.asarray(theta, dtype=float)))[0][0]

    def theta_derivative(self, theta) -> np.ndarray:
        """d/dtheta of the harmonic at polar angle theta."""
        return _harmonic_rows((self,), np.atleast_1d(np.asarray(theta, dtype=float)))[1][0]


def _harmonic_rows(hs, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and theta-derivative rows of each harmonic (all of one dimension)
    at the angles theta.

    d = 3 runs one Legendre recurrence up to the highest degree; row k of it
    does not depend on how far the recurrence runs, so every row equals the
    one a single-harmonic table gives.
    """
    values = np.empty((len(hs), theta.size))
    derivs = np.empty((len(hs), theta.size))
    if hs[0].d == 3:
        p, dp = kernels.legendre_table(np.cos(theta), max(h.degree for h in hs))
        minus_sin = -np.sin(theta)
    for i, h in enumerate(hs):
        k = h.degree
        if h.d == 3:
            base, dbase = p[k], dp[k] * minus_sin
        elif h.kind == "cos":
            base, dbase = np.cos(k * theta), -k * np.sin(k * theta)
        else:
            base, dbase = np.sin(k * theta), k * np.cos(k * theta)
        c = h._norm_const()
        values[i] = c * base
        derivs[i] = c * dbase
    return values, derivs


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


@dataclass(frozen=True)
class _AngularTables:
    """The angular rule of one degree sum with harmonic rows on its nodes."""

    degrees: tuple[int, ...]
    ang_w: np.ndarray
    values: np.ndarray
    derivs: np.ndarray


def _angular_tables(hs, degree_sum: int) -> _AngularTables:
    theta, ang_w = _angular_rule(hs[0].d, degree_sum)
    values, derivs = _harmonic_rows(hs, theta)
    return _AngularTables(tuple(h.degree for h in hs), ang_w, values, derivs)


def _radial_factors(profile: RadialProfile, d: int, degree_sum: int) -> list:
    """Per piece: the radial weights w * eta(r) * r**(d-1) of its Gauss rule
    and the column r**(degree_sum - 2) of the gradient product."""
    p = degree_sum - 2
    out = []
    for lo, hi, c in profile.intervals():
        rule = gauss_legendre(((c.size - 1) + p + d) // 2 + 2)
        r = lo + (hi - lo) * rule.nodes
        w = (hi - lo) * rule.weights
        out.append((w * npoly.polyval(r, c) * r ** (d - 1), r[:, None] ** p))
    return out


def _entry(tab: _AngularTables, radial: list, a: int, b: int) -> float:
    """Brute-force entry of rows a and b (see ``brute_force_entry``)."""
    g = tab.values[a] * tab.values[b] + (tab.derivs[a] * tab.derivs[b]) / (
        tab.degrees[a] * tab.degrees[b]
    )
    total = 0.0
    for weight, r_pow in radial:
        total += weight @ (r_pow * g) @ tab.ang_w  # grad(u1) . grad(u2) on the tensor grid
    return -total


def _identity_sums(tab: _AngularTables, a: int, b: int) -> tuple[float, float, float, float]:
    """Sphere integrals of grad_S f_a . grad_S f_b and of f_a f_b, then of
    their absolute values (the angular weights are positive)."""
    grad = tab.derivs[a] * tab.derivs[b]
    prod = tab.values[a] * tab.values[b]
    lhs = float(tab.ang_w @ grad)
    rhs = float(tab.ang_w @ prod)
    return lhs, rhs, float(tab.ang_w @ np.abs(grad)), float(tab.ang_w @ np.abs(prod))


def _identity_defect(d: int, degree: int, sums: tuple) -> tuple[float, float]:
    """|lhs - l (l + d - 2) rhs| for the first harmonic's degree l, absolute
    and divided by max(1, abs_lhs + l (l + d - 2) abs_rhs).  The rounding
    error of both sums grows with that scale, which grows with the degree, so
    only the scaled defect can be held to a fixed tolerance at every degree;
    the max(1, .) keeps it no looser than the absolute one."""
    lhs, rhs, abs_lhs, abs_rhs = sums
    factor = degree * (degree + d - 2)
    defect = abs(lhs - factor * rhs)
    return defect, defect / max(1.0, abs_lhs + factor * abs_rhs)


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
    s = h1.degree + h2.degree
    return _entry(_angular_tables((h1, h2), s), _radial_factors(profile, h1.d, s), 0, 1)


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
    scaled_defect: float  # the gated one: see _identity_defect
    tol: float

    @property
    def ok(self) -> bool:
        return self.scaled_defect <= self.tol


def gradient_identity(
    h1: ExplicitHarmonic, h2: ExplicitHarmonic, tol: float = _TOL_IDENTITY
) -> GradientIdentityReport:
    """Quadrature check of the surface-gradient identity for one pair."""
    if h1.d != h2.d:
        raise ValueError(f"harmonics live in different dimensions: {h1.d} vs {h2.d}")
    sums = _identity_sums(_angular_tables((h1, h2), h1.degree + h2.degree), 0, 1)
    defect, scaled = _identity_defect(h1.d, h1.degree, sums)
    return GradientIdentityReport(
        h1=h1, h2=h2, lhs=sums[0], rhs=sums[1], defect=defect, scaled_defect=scaled, tol=tol
    )


@dataclass(frozen=True)
class CrossValidationReport:
    """Brute-force matrix of the form against the predicted diagonal, plus the
    largest surface-gradient identity defect over all ordered pairs, absolute
    and scaled (the scaled one is gated)."""

    d: int
    labels: tuple[str, ...]
    degrees: tuple[int, ...]
    entries: np.ndarray  # brute-force values, symmetric
    reference: np.ndarray  # predicted eigenvalue per harmonic
    tol_offdiag: float
    tol_diag: float
    identity_defect: float
    identity_scaled_defect: float
    tol_identity: float = _TOL_IDENTITY

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
        return (
            self.max_offdiag <= self.tol_offdiag
            and self.max_diag_scaled <= self.tol_diag
            and self.identity_scaled_defect <= self.tol_identity
        )


def cross_validate(
    profile: RadialProfile,
    d: int,
    max_degree: int,
    tol_offdiag: float = 1e-9,
    tol_diag: float = 1e-8,
) -> CrossValidationReport:
    """Assemble the full brute-force matrix over all explicit harmonics up to
    max_degree and compare with the moment-route eigenvalues.

    Pairs are grouped by degree sum; each group shares one angular grid with
    its harmonic rows and one set of radial factors.  Every entry equals
    ``brute_force_entry`` of its pair, and ``identity_defect`` equals the
    largest ``gradient_identity(h1, h2).defect`` (``identity_scaled_defect``
    the largest ``scaled_defect``), bit for bit.

    The import of the reference route is local: the brute-force side above
    must stay computable without it.
    """
    from .operator import spectrum_moment

    hs = harmonics_up_to(d, max_degree)
    n = len(hs)
    by_sum: dict[int, list[tuple[int, int]]] = {}
    for i in range(n):
        for j in range(i, n):
            by_sum.setdefault(hs[i].degree + hs[j].degree, []).append((i, j))
    entries = np.empty((n, n))
    identity_defect = identity_scaled_defect = 0.0
    for s, pairs in by_sum.items():
        # harmonics are degree-major, so the pairs of one sum span a slice of hs
        lo, hi = pairs[0][0], max(j for _, j in pairs) + 1
        tab = _angular_tables(hs[lo:hi], s)
        radial = _radial_factors(profile, d, s)
        for i, j in pairs:
            a, b = i - lo, j - lo
            entries[i, j] = entries[j, i] = _entry(tab, radial, a, b)
            sums = _identity_sums(tab, a, b)  # the same for (i, j) and (j, i)
            for ell in (hs[i].degree, hs[j].degree):
                defect, scaled = _identity_defect(d, ell, sums)
                identity_defect = max(identity_defect, defect)
                identity_scaled_defect = max(identity_scaled_defect, scaled)
    reference = spectrum_moment(profile, d, max_degree).eigenvalues[[h.degree - 1 for h in hs]]
    return CrossValidationReport(
        d=d,
        labels=tuple(h.label for h in hs),
        degrees=tuple(h.degree for h in hs),
        entries=entries,
        reference=reference,
        tol_offdiag=tol_offdiag,
        tol_diag=tol_diag,
        identity_defect=identity_defect,
        identity_scaled_defect=identity_scaled_defect,
    )
