"""Recurrence kernels: the degree-by-degree loops behind every basis table.

Each step of a three-term recurrence is a few in-place NumPy operations over
all evaluation points, so a table of K + 1 degrees costs O(K) array operations.
The Jacobi recurrence yields its table a block of degrees at a time; the whole
table is the one-block case.
"""

from __future__ import annotations

import numpy as np


def jacobi_blocks(rec_a, rec_b, rec_c, p0, r, height):
    """Evaluate degrees 0..K of a three-term recurrence at every point of r,
    ``height`` degrees at a time.

    The recurrence coefficient arrays have length K + 1 and encode
    r * p_k = rec_a[k] * p_{k-1} + rec_b[k] * p_k + rec_c[k] * p_{k+1}
    with p_{-1} = 0 and p_0 = ``p0`` constant.  Yields (first degree, rows)
    pairs, the rows a (<= height + 1, len(r)) float array: a last block of one
    row joins the block before it, because a one-row matrix product is a plain
    dot, which sums in another order than a row of a taller product.  All
    blocks share one buffer: use each before asking for the next.
    """
    r = np.asarray(r, dtype=float)
    num = len(rec_b)
    starts = list(range(0, num, height))
    if len(starts) > 1 and num - starts[-1] == 1:
        starts.pop()
    buf = np.empty((min(height + 1, num), r.size), dtype=float)
    tmp, term = np.empty(r.size), np.empty(r.size)
    prev, cur = np.zeros(r.size), np.full(r.size, float(p0))  # p_{-1}, p_0
    a, b, c = (np.asarray(x).tolist() for x in (rec_a, rec_b, rec_c))
    for start, stop in zip(starts, starts[1:] + [num]):
        block = buf[: stop - start]
        for row, k in zip(block, range(start, stop)):
            if k == 0:
                row[:] = cur
                continue
            # p_k = ((r - b) * p_{k-1} - a * p_{k-2}) / c in place: the same
            # operations in the same order as that expression, so the same bits
            np.subtract(r, b[k - 1], out=tmp)
            tmp *= cur
            np.multiply(a[k - 1], prev, out=term)
            tmp -= term
            prev, cur = cur, np.divide(tmp, c[k - 1], out=row)
        yield start, block
        prev, cur = prev.copy(), cur.copy()  # the next block overwrites the buffer


def jacobi_table(rec_a, rec_b, rec_c, p0, r):
    """All degrees of ``jacobi_blocks`` as one (K + 1, len(r)) array."""
    return next(jacobi_blocks(rec_a, rec_b, rec_c, p0, r, len(rec_b)))[1]


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
