"""Quadrature rules and log-domain special functions shared across the package.

Everything downstream (basis projection, eigenvalue formulas, decay bounds)
leans on two things: Gauss-Legendre rules rescaled to (0, 1) and stable
log-gamma ratios.  The factorial ratios of the eigenvalue series are handled
in log space here, for the check of the paper's bound on them
(``operator.verify_factorial_ratio_bound``); the series itself builds each
ratio row by its recurrence in ``radialeit.operator``, which is more accurate
than lgamma differences (about 2e-15 against 1e-11 at ell = 2000).

Rules are memoized per order: ``gauss_legendre(n)`` builds each order once per
process (up to a fixed number of distinct orders) and hands every caller the
same ``QuadratureRule``.  Sharing is safe because the rule is frozen and its
arrays are read-only.  The package's other module-level caches are the
series weights, in ``radialeit.operator`` (fixed blocks of rows under one cap
on the weights held, read one block at a time, the least recently used block
dropped first), and the exact monomial expansions per ``(d, k)``
(``jacobi.monomial_coefficients``, each a ``JacobiExpansion``), which are
shared read-only in the same way.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "log_gamma",
    "log_factorial_ratio",
]


@dataclass(frozen=True)
class QuadratureRule:
    """An n-point rule for integrals over the open interval (0, 1)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if not (nodes[0] > 0.0 and nodes[-1] < 1.0 and np.all(np.diff(nodes) > 0.0)):
            raise ValueError("nodes must be strictly increasing and lie inside (0, 1)")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def order(self) -> int:
        return self.nodes.size

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """Apply the rule to a vectorised integrand."""
        return float(self.weights @ np.asarray(f(self.nodes), dtype=float))


def gauss_legendre(n: int) -> QuadratureRule:
    """Gauss-Legendre rule with ``n`` points, mapped from (-1, 1) to (0, 1).

    Exact for polynomials of degree <= 2n - 1.  Every call with the same
    ``n`` returns the same (read-only) rule object.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"need a positive integer point count, got {n!r}")
    return _gauss_legendre(int(n))


@functools.lru_cache(maxsize=256)
def _gauss_legendre(n: int) -> QuadratureRule:
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadratureRule(0.5 * (x + 1.0), 0.5 * w)


def log_gamma(z: float) -> float:
    """log Gamma(z) for z > 0."""
    z = float(z)
    if not math.isfinite(z) or z <= 0.0:
        raise ValueError(f"log_gamma requires a finite z > 0, got {z!r}")
    return math.lgamma(z)


def log_factorial_ratio(ell, k, d: int) -> float | np.ndarray:
    """Log of (2l-2+d)! (2l-2)! / ((2l-2+d+k)! (2l-2-k)!).

    This ratio multiplies the k-th basis coefficient in the eigenvalue series
    for eigenvalue index ``ell``; it is <= 1 and decays super-exponentially in
    k, so only its log is exposed here.  The two lgamma differences below each
    pair arguments that coincide at k = 0, which keeps the result exactly 0.0
    there and keeps the sign of the log reliable near 0 (a naive four-term sum
    can come out at +2e-13 for large ell).

    ``ell`` and ``k`` may be integer arrays that broadcast; lgamma then runs
    once per integer argument, so each entry equals the scalar call exactly.
    """
    ell_arr, k_arr = np.broadcast_arrays(ell, k)
    if not all(np.asarray(x).dtype.kind in "iu" for x in (ell_arr, k_arr, d)):
        raise ValueError(f"ell, k and d must be integers, got {ell!r}, {k!r}, {d!r}")
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if np.any(ell_arr < 1):
        raise ValueError(f"eigenvalue index must be >= 1, got {ell_arr[ell_arr < 1][0]}")
    n = 2 * ell_arr - 2
    bad = (k_arr < 0) | (k_arr > n)
    if np.any(bad):
        raise ValueError(f"need 0 <= k <= 2*ell - 2, got k={k_arr[bad][0]}, ell={ell_arr[bad][0]}")
    top = int((n + d + k_arr).max(initial=0))
    log_fact = np.array([math.lgamma(j + 1) for j in range(top + 1)])  # log j!
    out = (log_fact[n + d] - log_fact[n + d + k_arr]) + (log_fact[n] - log_fact[n - k_arr])
    return float(out) if out.ndim == 0 else out
