"""Gauss-Legendre quadrature on (0, 1), shared across the package.

Basis projection, the oracle's radial moments and the basis checks all
integrate with these rules.  The factorial ratios of the eigenvalue series
are not here: the series weights and the check of the paper's bound on them
both read one ratio recurrence in ``radialeit.operator``.

Rules are memoized per order: ``gauss_legendre(n)`` builds each order once per
process (up to a fixed number of distinct orders) and hands every caller the
same ``QuadratureRule``.  Sharing is safe because the rule is frozen and its
arrays are read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
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

