"""Shifted Jacobi basis on (0, 1), orthonormal under the weight r**(d-1).

For each ambient dimension d >= 2 this is the family of polynomials P_k with

    integral_0^1 P_j(r) P_k(r) r**(d-1) dr = delta_jk,

i.e. the orthonormalised Jacobi polynomials with parameters (d-1, 0) mapped
to the unit interval.  The table of degrees 0..K in dimension d comes from
one three-term recurrence in ``r`` (its coefficients formed per call by
``_recurrence``), a few in-place NumPy operations per degree over all
points, run a block of degrees at a time (``evaluate_blocks(d, K, r)``) or
whole (``evaluate_table(d, K, r)``, the one-block case).  A set of basis
coefficients is a ``JacobiExpansion``, profile projections and monomial
expansions alike.  The expansion of r**k in the basis uses exact integer
ratios, rounded once per coefficient; each expansion is built once per
process per (d, k) (up to a fixed number of rows) and every caller shares
the same read-only row.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = [
    "BasisOverflowError",
    "FloatRangeError",
    "JacobiExpansion",
    "evaluate_blocks",
    "evaluate_table",
    "monomial_coefficients",
]

# Memoized monomial rows: enough for basis checks up to K = 150 in a dozen
# dimensions, and at most about 25 MB even when every row is the longest the
# CLI asks for (K = 1,500).
_MONOMIAL_ROWS = 2_048


class FloatRangeError(ValueError):
    """A value a result needs lies past the float range, raised where it is computed."""


class BasisOverflowError(FloatRangeError):
    """The orthonormal basis leaves the float range at the evaluation points."""


def _check_int(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int, if it is a Python or NumPy integer (not a bool) in
    low..high; every scalar degree, count, cutoff and size is checked here."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if low <= value and (high is None or value <= high):
            return int(value)
    limits = f"be an integer >= {low}" if high is None else f"lie in {low}..{high}"
    raise ValueError(f"{name} must {limits}, got {value!r}")


def _check_dimension(d: int) -> int:
    return _check_int(d, "dimension", 2)


def _recurrence(d: int, max_degree: int) -> tuple[list[float], list[float], list[float]]:
    """Coefficients a_k, b_k, c_k of r P_k = a_k P_{k-1} + b_k P_k + c_k P_{k+1}
    for k = 0..max_degree, as lists (a_0 is fixed to 0: P_{-1} = 0, and the
    closed form for it is singular at k = 0 in dimension 2)."""
    k = np.arange(max_degree + 1, dtype=float)
    m = 2.0 * k + d
    with np.errstate(divide="ignore", invalid="ignore"):
        a = -np.sqrt(m / (m - 2.0)) * k * (k + d - 1.0) / ((m - 1.0) * m)
    a[0] = 0.0
    b = 0.5 * ((d - 1.0) ** 2 / ((m - 1.0) * (m + 1.0)) + 1.0)
    c = -np.sqrt(m / (m + 2.0)) * (k + 1.0) * (k + d) / (m * (m + 1.0))
    return a.tolist(), b.tolist(), c.tolist()


def _arguments(d: int, max_degree: int, r) -> tuple[int, int, np.ndarray]:
    """The dimension, the largest degree and the evaluation points, checked."""
    d = _check_dimension(d)
    max_degree = _check_int(max_degree, "max_degree", 0)
    pts = np.ascontiguousarray(np.atleast_1d(r), dtype=float)
    if pts.ndim != 1:
        raise ValueError("evaluation points must be a scalar or 1-d array")
    if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")
    return d, max_degree, pts


def evaluate_table(d: int, max_degree: int, r) -> np.ndarray:
    """Table of basis values in dimension d, shape (max_degree + 1, len(r)):
    the one-block case of ``evaluate_blocks``."""
    d, max_degree, r = _arguments(d, max_degree, r)
    return next(_blocks(d, max_degree, r, max_degree + 1))[1]


# Degrees per block of ``evaluate_blocks``.  Both block rules exist so that
# a matrix product over each block sums exactly as the rows of one whole
# table: the height is a multiple of the BLAS row unroll, and a last block of
# one row joins the block before it, because a one-row matrix product is a
# plain dot, which sums in another order than a row of a taller product.
_BLOCK_HEIGHT = 64


def evaluate_blocks(d: int, max_degree: int, r):
    """The rows of ``evaluate_table`` in blocks of 64 degrees (the last up to
    65), as (first degree, rows) pairs from one recurrence, the rows a
    (<= 65, len(r)) array.  The blocks share one buffer, so use each before
    asking for the next.  A block that leaves the float range raises
    ``BasisOverflowError`` in place of being handed out."""
    return _blocks(*_arguments(d, max_degree, r), _BLOCK_HEIGHT)


def _blocks(d: int, max_degree: int, r: np.ndarray, height: int):
    # degrees 0..max_degree by r P_k = a_k P_{k-1} + b_k P_k + c_k P_{k+1},
    # P_{-1} = 0 and P_0 = sqrt(d)
    num = max_degree + 1
    starts = list(range(0, num, height))
    if len(starts) > 1 and num - starts[-1] == 1:
        starts.pop()
    buf = np.empty((min(height + 1, num), r.size), dtype=float)
    tmp, term = np.empty(r.size), np.empty(r.size)
    prev, cur = np.zeros(r.size), np.full(r.size, math.sqrt(d))  # P_{-1}, P_0
    a, b, c = _recurrence(d, max_degree)
    for start, stop in zip(starts, starts[1:] + [num]):
        block = buf[: stop - start]
        # closed before the yield: errstate is a context variable the caller shares
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for row, k in zip(block, range(start, stop)):
                if k == 0:
                    row[:] = cur
                    continue
                # P_k = ((r - b) * P_{k-1} - a * P_{k-2}) / c in place: the same
                # operations in the same order as that expression, so the same bits
                np.subtract(r, b[k - 1], out=tmp)
                tmp *= cur
                np.multiply(a[k - 1], prev, out=term)
                tmp -= term
                prev, cur = cur, np.divide(tmp, c[k - 1], out=row)
        # the basis grows like binomial(k + d/2, k) near r = 0; a row past the
        # float range makes every later one inf or nan, so the last row decides
        if not np.all(np.isfinite(block[-1])):
            where = f"by degree {stop - 1} at the evaluation points in d = {d}"
            raise BasisOverflowError(f"the basis overflows {where}")
        yield start, block
        prev, cur = prev.copy(), cur.copy()  # the next block overwrites the buffer


@dataclass(frozen=True)
class JacobiExpansion:
    """Basis coefficients of a radial function: coeffs[k] multiplies P_k."""

    d: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.array(self.coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d array")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        coeffs.flags.writeable = False
        object.__setattr__(self, "d", _check_dimension(self.d))
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def max_degree(self) -> int:
        return self.coeffs.size - 1

    def evaluate(self, r):
        """Partial sum sum_k coeffs[k] P_k(r)."""
        vals = self.coeffs @ evaluate_table(self.d, self.max_degree, r)
        if np.ndim(r) == 0:
            return float(vals[0])
        return vals


def monomial_coefficients(d: int, k: int) -> JacobiExpansion:
    """Expand r**k over basis degrees 0..k.

    The q-th coefficient is (-1)**q sqrt(2q + d) (k+d-1)! k! / ((k+d+q)! (k-q)!),
    an exact rational times one square root.  The rational is carried as an
    integer numerator and denominator, each a running product of one factor
    per q; the int / int division rounds correctly, so each coefficient is the
    exact ratio rounded once.  Each row is built once per process per (d, k),
    and every call with the same arguments returns the same (read-only)
    expansion.
    """
    return _monomial_row(_check_dimension(d), _check_int(k, "monomial degree", 0))


@functools.lru_cache(maxsize=_MONOMIAL_ROWS)
def _monomial_row(d: int, k: int) -> JacobiExpansion:
    # the ratio at q = 0 is 1 / (k + d); step q multiplies the numerator by
    # k - q and the denominator by k + d + q + 1
    nums = accumulate(range(k, 0, -1), operator.mul, initial=1)
    dens = accumulate(range(k + d + 1, 2 * k + d + 1), operator.mul, initial=k + d)
    ratios = np.fromiter(map(operator.truediv, nums, dens), dtype=float, count=k + 1)
    q = np.arange(k + 1)
    signed_roots = np.where(q % 2, -1.0, 1.0) * np.sqrt(2.0 * q + d)
    return JacobiExpansion(d=d, coeffs=signed_roots * ratios)
