"""Brute-force checks of the operator against explicit harmonics (d = 2, 3).

The defining sesquilinear form of the linearized map sends boundary data f, g
to minus the integral of eta * grad(u_f) . grad(u_g) over the ball, where u_h
is the harmonic extension of h.  In dimensions 2 and 3 we can write down
orthonormal harmonics (Fourier modes on the circle; zonal Legendre harmonics
on the sphere), assemble that integral by plain tensor quadrature, and
compare the resulting matrix against the predicted diagonal.  Nothing here
uses the eigenvalue formulas or the radial basis: the zonal harmonics come
from the oracle's own Legendre recurrence (``_legendre_table``), so agreement
is evidence, not tautology.

For radial eta the integral of a pair splits into a radial moment and a
sphere integral (see ``_form_factors``), so the whole matrix is

    -m[l_i + l_j - 2] * (V W V^T + D W D^T / (l l^T))

with m_p the integral of eta(r) r**(d-1) r**p (one Gauss rule per piece), and
V and D the harmonics' value and theta-derivative rows on one angular rule
with weights W, exact for the largest degree sum.  ``cross_validate`` forms
the sphere half over all harmonics up to a degree, and that half does not
depend on eta: it is built once per (d, max_degree) and process
(``_sphere_plan``, the last 32 settings kept), so a call then computes only the
radial moments, one product with the angular factor and its reference.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .numerics import gauss_legendre
from .profiles import RadialProfile, piece_rule_size

__all__ = [
    "CrossValidationReport",
    "ExplicitHarmonic",
    "GradientIdentityReport",
    "UnsupportedDimensionError",
    "cross_validate",
    "gradient_identity",
    "harmonics_up_to",
]

_KINDS = {2: ("cos", "sin"), 3: ("zonal",)}
_TOL_IDENTITY = 1e-13  # surface-gradient identity, on the scaled defect


class UnsupportedDimensionError(ValueError):
    """A dimension without explicit harmonics: anything but the integers 2 and 3."""


def _kinds(d: int) -> tuple[str, ...]:
    """The kinds of explicit harmonic in dimension d, an integer 2 or 3."""
    if not isinstance(d, (int, np.integer)) or d not in _KINDS:
        raise UnsupportedDimensionError(f"explicit harmonics exist only for d in (2, 3), got {d}")
    return _KINDS[d]


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
        if self.kind not in _kinds(self.d):
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
        p, dp = _legendre_table(np.cos(theta), max(h.degree for h in hs))
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


def _legendre_table(t: np.ndarray, lmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Legendre polynomials P_0..P_lmax and their t-derivatives at t, as two
    (lmax + 1, len(t)) arrays, by Bonnet's recurrence and
    P'_{k+1} = (2k + 1) P_k + P'_{k-1}: the oracle's own recurrence, sharing
    no floating-point code with the eigenvalue routes."""
    p = np.empty((lmax + 1, t.size), dtype=float)
    dp = np.empty((lmax + 1, t.size), dtype=float)
    p[0] = 1.0
    dp[0] = 0.0
    if lmax == 0:
        return p, dp
    p[1] = t
    dp[1] = 1.0
    for k in range(1, lmax):
        p[k + 1] = ((2 * k + 1) * t * p[k] - k * p[k - 1]) / (k + 1)
        dp[k + 1] = (2 * k + 1) * p[k] + dp[k - 1]
    return p, dp


def harmonics_up_to(d: int, max_degree: int) -> list[ExplicitHarmonic]:
    """All explicit harmonics with 1 <= degree <= max_degree, degree-major."""
    kinds = _kinds(d)
    if not isinstance(max_degree, (int, np.integer)) or max_degree < 1:
        raise ValueError(f"max_degree must be an integer >= 1, got {max_degree!r}")
    return [
        ExplicitHarmonic(d=d, degree=ell, kind=kind)
        for ell in range(1, max_degree + 1)
        for kind in kinds
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


def _gram(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """rows W rows^T, mirrored from its upper triangle: a matrix product is not
    bitwise symmetric, and the brute-force matrix must be."""
    g = (rows * weights) @ rows.T
    return np.triu(g) + np.triu(g, 1).T


def _sphere_forms(hs) -> tuple[np.ndarray, ...]:
    """Sphere integrals over all pairs of harmonics: grad_S f_i . grad_S f_j,
    f_i f_j, then the same two of absolute values (the weights are positive).

    One angular rule, exact for the largest degree sum, serves every pair.
    """
    if len({h.d for h in hs}) > 1:
        raise ValueError(f"harmonics live in different dimensions: {sorted({h.d for h in hs})}")
    theta, weights = _angular_rule(hs[0].d, 2 * max(h.degree for h in hs))
    values, derivs = _harmonic_rows(hs, theta)
    return tuple(_gram(rows, weights) for rows in (derivs, values, abs(derivs), abs(values)))


def _radial_moments(profile: RadialProfile, d: int, max_power: int) -> np.ndarray:
    """m_p = integral_0^1 eta(r) r**(d-1) r**p dr for p = 0..max_power, by one
    Gauss-Legendre rule per piece, exact for the highest power."""
    powers = np.arange(max_power + 1)
    moments = np.zeros(max_power + 1)
    for lo, hi, c in profile.intervals():
        rule = gauss_legendre(piece_rule_size(max_power, c.size - 1, d))
        r = lo + (hi - lo) * rule.nodes
        w = (hi - lo) * rule.weights
        moments += (w * np.polyval(c[::-1], r) * r ** (d - 1)) @ r[:, None] ** powers
    return moments


def _form_factors(hs, forms) -> tuple[np.ndarray, np.ndarray]:
    """The moment index l_i + l_j - 2 and the angular factor
    prod + grad / (l l^T) of every pair of harmonics, from their
    ``_sphere_forms``.

    The harmonic extension of a degree-ell harmonic f is r**ell f / ell (unit
    Neumann data), so the gradients' dot product at (r, theta) is
    r**(l1+l2-2) (f1 f2 + f1' f2' / (l1 l2)); integrated against
    -eta(r) r**(d-1), it is the radial moment of r**(l1+l2-2) (per-piece
    Gauss-Legendre) times the sphere integral of the angular factor (the
    angular rule).  All rules are of sufficient order, so each entry is the
    integral up to roundoff.
    """
    degrees = np.array([h.degree for h in hs])
    return degrees[:, None] + degrees - 2, forms[1] + forms[0] / np.outer(degrees, degrees)


def _entries(profile: RadialProfile, d: int, index: np.ndarray, angular: np.ndarray) -> np.ndarray:
    """The brute-force matrix -m[index] * angular: the only part that depends
    on the profile."""
    return -_radial_moments(profile, d, int(index.max()))[index] * angular


def _identity_defect(d: int, degrees: np.ndarray, forms) -> tuple[np.ndarray, np.ndarray]:
    """|lhs - l (l + d - 2) rhs| for every pair, l the row harmonic's degree,
    absolute and divided by max(1, abs_lhs + l (l + d - 2) abs_rhs).  The
    rounding error of both sums grows with that scale, which grows with the
    degree, so only the scaled defect can be held to a fixed tolerance at
    every degree; the max(1, .) keeps it no looser than the absolute one."""
    lhs, rhs, abs_lhs, abs_rhs = forms
    factor = (degrees * (degrees + d - 2))[:, None]
    defect = np.abs(lhs - factor * rhs)
    return defect, defect / np.maximum(1.0, abs_lhs + factor * abs_rhs)


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
    tol: ClassVar[float] = _TOL_IDENTITY

    @property
    def ok(self) -> bool:
        return self.scaled_defect <= self.tol


def gradient_identity(h1: ExplicitHarmonic, h2: ExplicitHarmonic) -> GradientIdentityReport:
    """Quadrature check of the surface-gradient identity for one pair."""
    forms = _sphere_forms((h1, h2))
    defect, scaled = _identity_defect(h1.d, np.array([h1.degree, h2.degree]), forms)
    return GradientIdentityReport(
        h1=h1,
        h2=h2,
        lhs=float(forms[0][0, 1]),
        rhs=float(forms[1][0, 1]),
        defect=float(defect[0, 1]),
        scaled_defect=float(scaled[0, 1]),
    )


@dataclass(frozen=True)
class _SpherePlan:
    """Everything ``cross_validate`` needs that does not depend on eta, for all
    harmonics up to one degree in one dimension (arrays read-only).

    It also holds ``verify``'s row layout (``rows`` to ``on_diag``), which
    only the CLI reads, through the report that carries the plan.  Deriving
    the layout per call instead costs 25-35 us per job: moved into the CLI,
    it cut the CI verify sweep's peak from 83 MB to 69 MB at equal time, but
    the crossval benchmark's median jobs_per_s fell from 851 to 774 (six
    alternating 10 s pairs, 2 vCPUs)."""

    labels: tuple[str, ...]
    degrees: tuple[int, ...]
    reference_index: np.ndarray  # degree - 1 per harmonic
    moment_index: np.ndarray  # l_i + l_j - 2
    angular: np.ndarray  # prod + grad / (l l^T)
    identity_defect: float  # largest over all ordered pairs
    identity_scaled_defect: float
    # the upper triangle row by row (the order verify writes it in)
    rows: np.ndarray
    cols: np.ndarray
    h1: tuple[str, ...]  # labels[rows]
    h2: tuple[str, ...]  # labels[cols]
    on_diag: np.ndarray  # rows == cols


@dataclass(frozen=True)
class CrossValidationReport:
    """Brute-force matrix of the form against the predicted diagonal, with the
    sphere plan it was built on: the harmonics' labels and degrees, and the
    largest surface-gradient identity defect over all ordered pairs, absolute
    and scaled (the scaled one is gated).

    The gate and its maxima are computed once, when the report is made:
    ``passes`` is |e_ii - ref_i| / max(1, |ref_i|) <= tol_diag on the diagonal
    and |e_ij| <= tol_offdiag off it, ``ok`` is all of it and the scaled
    identity defect within tol_identity.  Its arrays are read-only."""

    plan: _SpherePlan
    entries: np.ndarray  # brute-force values, symmetric
    reference: np.ndarray  # predicted eigenvalue per harmonic
    tol_offdiag: ClassVar[float] = 1e-9
    tol_diag: ClassVar[float] = 1e-8
    tol_identity: ClassVar[float] = _TOL_IDENTITY
    passes: np.ndarray = field(init=False, repr=False, compare=False)
    max_offdiag: float = field(init=False, compare=False)
    max_diag_scaled: float = field(init=False, compare=False)
    ok: bool = field(init=False, compare=False)

    def __post_init__(self) -> None:
        on_diag = np.eye(len(self.plan.labels), dtype=bool)
        errors = np.abs(self.entries)
        diag = np.abs(np.diag(self.entries) - self.reference)
        np.fill_diagonal(errors, diag / np.maximum(1.0, np.abs(self.reference)))
        passes = errors <= np.where(on_diag, self.tol_diag, self.tol_offdiag)
        for arr in (self.entries, self.reference, passes):
            arr.flags.writeable = False
        put = functools.partial(object.__setattr__, self)
        put("passes", passes)
        put("max_offdiag", float(np.where(on_diag, 0.0, errors).max()))
        put("max_diag_scaled", float(np.diag(errors).max()))
        put("ok", bool(passes.all() and self.plan.identity_scaled_defect <= self.tol_identity))


@functools.lru_cache(maxsize=32)
def _sphere_plan(d: int, max_degree: int) -> _SpherePlan:
    """The sphere half of ``cross_validate`` at (d, max_degree), built once per
    process for each of the 32 most recently used settings: from the same
    ``_sphere_forms`` as ``gradient_identity``.  The largest plan verify
    asks for (d = 2, max_degree = 90) holds about 1.1 MB, and the 32 largest
    together about 23 MB."""
    hs = harmonics_up_to(d, max_degree)
    forms = _sphere_forms(hs)
    degrees = np.array([h.degree for h in hs])
    moment_index, angular = _form_factors(hs, forms)
    defect, scaled = _identity_defect(d, degrees, forms)
    rows, cols = np.triu_indices(len(hs))
    labels = tuple(h.label for h in hs)
    plan = _SpherePlan(
        labels=labels,
        degrees=tuple(degrees.tolist()),
        reference_index=degrees - 1,
        moment_index=moment_index,
        angular=angular,
        identity_defect=float(defect.max()),
        identity_scaled_defect=float(scaled.max()),
        rows=rows,
        cols=cols,
        h1=tuple(labels[i] for i in rows.tolist()),
        h2=tuple(labels[j] for j in cols.tolist()),
        on_diag=rows == cols,
    )
    for arr in (plan.reference_index, moment_index, angular, rows, cols, plan.on_diag):
        arr.flags.writeable = False
    return plan


def cross_validate(profile: RadialProfile, d: int, max_degree: int) -> CrossValidationReport:
    """Assemble the full brute-force matrix over all explicit harmonics up to
    max_degree and compare with the moment-route eigenvalues.

    The sphere integrals of all pairs come from one angular rule, built once
    per (d, max_degree) (``_sphere_plan``, which the report carries), and the
    radial moments from one rule per piece; the plan's ``identity_defect``
    and ``identity_scaled_defect`` are the largest ``gradient_identity``
    defects over all ordered pairs, read from the same sphere integrals.  The
    reference comes first, so a profile whose ball norm is past the float
    range is refused before any entry is built.

    The import of the reference route is local: the brute-force side above
    must stay computable without it.
    """
    from .operator import spectrum_moment

    plan = _sphere_plan(d, max_degree)
    reference = spectrum_moment(profile, d, max_degree).eigenvalues[plan.reference_index]
    return CrossValidationReport(
        plan=plan,
        entries=_entries(profile, d, plan.moment_index, plan.angular),
        reference=reference,
    )
