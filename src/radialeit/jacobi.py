"""Shifted Jacobi basis on (0, 1), orthonormal under the weight r**(d-1).

For each ambient dimension d >= 2 this is the family of polynomials P_k with

    integral_0^1 P_j(r) P_k(r) r**(d-1) dr = delta_jk,

i.e. the orthonormalised Jacobi polynomials with parameters (d-1, 0) mapped
to the unit interval.  Degree-graded tables are produced by a three-term
recurrence in ``r``, run by ``radialeit.kernels`` (whole, or a block of
degrees at a time); an exact rational
evaluation of the explicit monomial sum is kept alongside as a low-degree
oracle.  The expansion of r**k in the basis uses exact integer ratios,
rounded once per coefficient; each expansion is built once per process per
(d, k) (up to a fixed number of rows) and every caller shares the same
read-only row.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from . import kernels

__all__ = [
    "JacobiFamily",
    "MonomialExpansion",
    "build_family",
    "evaluate",
    "evaluate_blocks",
    "evaluate_direct",
    "evaluate_table",
    "leading_coefficient",
    "monomial_coefficients",
]

# Past this degree the explicit alternating sum has binomial factors around
# 1e9 and exact rational evaluation gets slow; the recurrence is the intended
# evaluator anyway.
_DIRECT_DEGREE_CAP = 20

# Memoized monomial rows: enough for basis checks up to K = 150 in a dozen
# dimensions, and at most about 25 MB even when every row is the longest the
# CLI asks for (K = 1,500).
_MONOMIAL_ROWS = 2_048


@dataclass(frozen=True)
class JacobiFamily:
    """Recurrence data for the basis of one dimension, degrees 0..max_degree.

    The arrays encode  r P_k = rec_a[k] P_{k-1} + rec_b[k] P_k + rec_c[k] P_{k+1}
    (rec_a[0] is fixed to 0: P_{-1} = 0, and the closed form for it is
    singular at k = 0 in dimension 2).
    """

    d: int
    max_degree: int
    rec_a: np.ndarray
    rec_b: np.ndarray
    rec_c: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.rec_a, self.rec_b, self.rec_c):
            arr.flags.writeable = False


def _check_dimension(d: int) -> int:
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    return int(d)


def build_family(d: int, max_degree: int) -> JacobiFamily:
    """Precompute recurrence coefficients for degrees 0..max_degree."""
    d = _check_dimension(d)
    if not isinstance(max_degree, (int, np.integer)) or max_degree < 0:
        raise ValueError(f"max_degree must be an integer >= 0, got {max_degree!r}")
    k = np.arange(max_degree + 1, dtype=float)
    m = 2.0 * k + d
    with np.errstate(divide="ignore", invalid="ignore"):
        rec_a = -np.sqrt(m / (m - 2.0)) * k * (k + d - 1.0) / ((m - 1.0) * m)
    rec_a[0] = 0.0
    rec_b = 0.5 * ((d - 1.0) ** 2 / ((m - 1.0) * (m + 1.0)) + 1.0)
    rec_c = -np.sqrt(m / (m + 2.0)) * (k + 1.0) * (k + d) / (m * (m + 1.0))
    return JacobiFamily(
        d=d, max_degree=int(max_degree), rec_a=rec_a, rec_b=rec_b, rec_c=rec_c
    )


def _as_points(r) -> np.ndarray:
    pts = np.ascontiguousarray(np.atleast_1d(r), dtype=float)
    if pts.ndim != 1:
        raise ValueError("evaluation points must be a scalar or 1-d array")
    if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")
    return pts


def _recurrence(family: JacobiFamily, max_degree: int | None) -> tuple:
    # the recurrence arguments of the kernels for degrees 0..max_degree
    kmax = family.max_degree if max_degree is None else int(max_degree)
    if not 0 <= kmax <= family.max_degree:
        raise ValueError(f"degree {kmax} outside the family's range 0..{family.max_degree}")
    s = slice(0, kmax + 1)
    return family.rec_a[s], family.rec_b[s], family.rec_c[s], math.sqrt(family.d)


def evaluate_table(family: JacobiFamily, r, max_degree: int | None = None) -> np.ndarray:
    """Table of basis values, shape (max_degree + 1, len(r))."""
    rec = _recurrence(family, max_degree)
    return kernels.jacobi_table(*rec, _as_points(r))


def evaluate_blocks(family: JacobiFamily, r, height: int):
    """The rows of ``evaluate_table`` in blocks of ``height`` degrees, as
    (first degree, rows) pairs from one recurrence; the blocks share one
    buffer, so use each before asking for the next."""
    if not isinstance(height, (int, np.integer)) or height < 1:
        raise ValueError(f"block height must be an integer >= 1, got {height!r}")
    return kernels.jacobi_blocks(*_recurrence(family, None), _as_points(r), int(height))


def evaluate(family: JacobiFamily, k: int, r):
    """P_k at the given points (scalar in, scalar out)."""
    table = evaluate_table(family, r, max_degree=int(k))
    vals = table[int(k)]
    if np.ndim(r) == 0:
        return float(vals[0])
    return vals


def evaluate_direct(d: int, k: int, r):
    """P_k from its explicit alternating monomial sum, in exact arithmetic.

    Every float point is converted to the rational it represents, the integer
    coefficient sum is run over the rationals, and only the final value is
    rounded, so this is an oracle for the recurrence rather than a second
    victim of cancellation.  Degrees above 20 are rejected.
    """
    d = _check_dimension(d)
    if not 0 <= k <= _DIRECT_DEGREE_CAP:
        raise ValueError(f"direct evaluation supports 0 <= k <= {_DIRECT_DEGREE_CAP}, got {k}")
    pts = _as_points(r)
    coeffs = [
        (-1) ** q * math.comb(k, q) * math.comb(k + q + d - 1, k) for q in range(k + 1)
    ]
    scale = math.sqrt(2 * k + d)
    out = np.empty(pts.size)
    for i, x in enumerate(pts):
        xf = Fraction(float(x))
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * xf + c
        out[i] = scale * float(acc)
    if np.ndim(r) == 0:
        return float(out[0])
    return out


def leading_coefficient(d: int, k: int) -> float:
    """Coefficient of r**k in P_k: sqrt(2k + d) * C(2k + d - 1, k) * (-1)**k."""
    d = _check_dimension(d)
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    return (-1.0) ** k * math.sqrt(2 * k + d) * float(math.comb(2 * k + d - 1, k))


@dataclass(frozen=True)
class MonomialExpansion:
    """Coefficients of r**degree in the basis: coeffs[q] multiplies P_q."""

    d: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs.flags.writeable = False

    def reconstruct(self, r):
        """Sum the expansion at the given points (should give back r**degree)."""
        family = build_family(self.d, self.degree)
        vals = self.coeffs @ evaluate_table(family, r)
        if np.ndim(r) == 0:
            return float(vals[0])
        return vals


def monomial_coefficients(d: int, k: int) -> MonomialExpansion:
    """Expand r**k over basis degrees 0..k.

    The q-th coefficient is (-1)**q sqrt(2q + d) (k+d-1)! k! / ((k+d+q)! (k-q)!),
    an exact rational times one square root.  The rational is carried as an
    integer numerator and denominator, each a running product of one factor
    per q; the int / int division rounds correctly, so each coefficient is the
    exact ratio rounded once.  Each row is built once per process per (d, k),
    and every call with the same arguments returns the same (read-only)
    expansion.
    """
    d = _check_dimension(d)
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"monomial degree must be an integer >= 0, got {k!r}")
    return _monomial_row(d, int(k))


@functools.lru_cache(maxsize=_MONOMIAL_ROWS)
def _monomial_row(d: int, k: int) -> MonomialExpansion:
    # the ratio at q = 0 is 1 / (k + d); step q multiplies the numerator by
    # k - q and the denominator by k + d + q + 1
    nums = accumulate(range(k, 0, -1), operator.mul, initial=1)
    dens = accumulate(range(k + d + 1, 2 * k + d + 1), operator.mul, initial=k + d)
    ratios = np.fromiter(map(operator.truediv, nums, dens), dtype=float, count=k + 1)
    q = np.arange(k + 1)
    signed_roots = np.where(q % 2, -1.0, 1.0) * np.sqrt(2.0 * q + d)
    return MonomialExpansion(d=d, degree=k, coeffs=signed_roots * ratios)
