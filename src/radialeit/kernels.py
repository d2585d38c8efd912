"""Recurrence kernels: the degree-by-degree loops behind every basis table.

Each step of a three-term recurrence is one vectorised NumPy expression over
all evaluation points, so a table of K + 1 degrees costs K array operations.
"""

from __future__ import annotations

import numpy as np


def jacobi_table(rec_a, rec_b, rec_c, p0, r):
    """Evaluate degrees 0..K of a three-term recurrence at every point of r.

    The recurrence coefficient arrays have length K + 1 and encode
    r * p_k = rec_a[k] * p_{k-1} + rec_b[k] * p_k + rec_c[k] * p_{k+1}
    with p_{-1} = 0 and p_0 = ``p0`` constant.  Returns a (K + 1, len(r))
    float array.
    """
    r = np.asarray(r, dtype=float)
    kmax = len(rec_b) - 1
    out = np.empty((kmax + 1, r.size), dtype=float)
    out[0] = p0
    prev = np.zeros(r.size)
    for k in range(kmax):
        out[k + 1] = ((r - rec_b[k]) * out[k] - rec_a[k] * prev) / rec_c[k]
        prev = out[k]
    return out


def legendre_table(t, lmax):
    """Legendre polynomials and their t-derivatives, degrees 0..lmax.

    Uses the standard Bonnet recurrence for P and the derivative recurrence
    P'_{k+1} = (2k + 1) P_k + P'_{k-1}.  Returns a pair of
    (lmax + 1, len(t)) arrays (values, derivatives).
    """
    t = np.asarray(t, dtype=float)
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
