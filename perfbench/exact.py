"""Exact-rational reference values for the benchmark's output checks.

Nothing here imports radialeit.  Every float input (breakpoint, coefficient)
is taken as the dyadic rational it represents, and every eigenvalue is an
exact rational until a single correctly rounded conversion at the end, so the
reference shares no floating-point code with either of the library's routes.

Moment eigenvalue (the paper's closed form, degree ell, dimension d):

    lambda_ell = -(2 ell + d - 2) / ell * integral_0^1 eta(r) r**(2 ell + d - 3) dr

The piece integrals are sums of c_j (hi**m - lo**m) / m with m up to about
2 L + d + 8.  For L in the thousands those powers have hundreds of thousands
of bits, so the sums are accumulated as integers over one common denominator
(a power of two times an lcm of small integers) instead of as ``Fraction``
objects, whose gcd normalisation after every addition would dominate.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "ExactProfile",
    "ball_norm",
    "eigenvalue_bound",
    "forward_row",
    "moment_eigenvalues",
    "surface_area",
]


def _pow2_exponent(den: int) -> int:
    # denominators of floats are powers of two
    if den & (den - 1):
        raise ValueError(f"{den} is not a power of two")
    return den.bit_length() - 1


class ExactProfile:
    """A piecewise polynomial held as exact rationals.

    ``breakpoints`` and ``pieces`` are the same floats the profile file holds;
    each is converted exactly.  The scaled integer form used for fast moment
    sums is precomputed: breakpoint b = B / 2**g, coefficient c = C / 2**q.
    """

    def __init__(self, breakpoints, pieces):
        if len(pieces) != len(breakpoints) - 1:
            raise ValueError("need one piece per interval")
        self.breakpoints = [Fraction(float(b)) for b in breakpoints]
        self.pieces = [[Fraction(float(c)) for c in p] for p in pieces]
        self._g = max(_pow2_exponent(b.denominator) for b in self.breakpoints)
        self._q = max(_pow2_exponent(c.denominator) for p in self.pieces for c in p)
        self._deg = max(len(p) for p in self.pieces) - 1
        self._ints = []
        for i, p in enumerate(self.pieces):
            lo, hi = self.breakpoints[i], self.breakpoints[i + 1]
            lo_i = lo.numerator << (self._g - _pow2_exponent(lo.denominator))
            hi_i = hi.numerator << (self._g - _pow2_exponent(hi.denominator))
            c_i = [c.numerator << (self._q - _pow2_exponent(c.denominator)) for c in p]
            self._ints.append((lo_i, hi_i, c_i))

    def moment(self, power: int) -> Fraction:
        """integral_0^1 eta(r) r**power dr, exactly (Fraction arithmetic)."""
        total = Fraction(0)
        for i, p in enumerate(self.pieces):
            lo, hi = self.breakpoints[i], self.breakpoints[i + 1]
            for j, c in enumerate(p):
                m = power + j + 1
                total += c * (hi**m - lo**m) / m
        return total

    def moment_sweep(self, first_power: int, step: int):
        """Yield integral eta r**p for p = first_power + i*step, i = 0, 1, ...
        (without end), each as an exact (numerator, denominator) integer pair.

        With B = breakpoint * 2**g and C_j = c_j * 2**q, a piece contributes
        sum_j C_j (Hi**m - Lo**m) / (m 2**(q + g m)),  m = p + j + 1.
        Over the common denominator 2**(q + g (p + 1 + J)) * lcm(m) this is
        Hi**(p+1) * S(Hi) - Lo**(p+1) * S(Lo) with the small integer
        S(X) = sum_j C_j X**j 2**(g (J - j)) lcm / m_j, so only two big
        products per piece and degree are needed.
        """
        g, q, big_j = self._g, self._q, self._deg
        his = [hi ** (first_power + 1) for _, hi, _ in self._ints]
        los = [lo ** (first_power + 1) for lo, _, _ in self._ints]
        steps_hi = [hi**step for _, hi, _ in self._ints]
        steps_lo = [lo**step for lo, _, _ in self._ints]
        p = first_power
        while True:
            ms = range(p + 1, p + big_j + 2)
            lcm = math.lcm(*ms)
            num = 0
            for k, (lo, hi, cs) in enumerate(self._ints):
                s_hi = s_lo = 0
                for j in range(len(cs) - 1, -1, -1):
                    scale = cs[j] * (lcm // (p + j + 1)) << (g * (big_j - j))
                    s_hi = s_hi * hi + scale
                    s_lo = s_lo * lo + scale
                num += his[k] * s_hi - los[k] * s_lo
                his[k] *= steps_hi[k]
                los[k] *= steps_lo[k]
            yield num, lcm << (q + g * (p + 1 + big_j))
            p += step


def moment_eigenvalues(profile: ExactProfile, d: int):
    """Yield lambda_1, lambda_2, ... (without end), each the correctly
    rounded exact value."""
    sweep = profile.moment_sweep(d - 1, 2)
    for ell, (num, den) in enumerate(sweep, start=1):
        # int / int is correctly rounded in CPython, however large the operands
        yield -(2 * ell + d - 2) * num / (ell * den)


def eigenvalue_bound(profile: ExactProfile, d: int, ell: int) -> float:
    """An upper bound on |lambda_l'| for every l' >= ell.

    |lambda_ell| <= (2 ell + d - 2)/ell * sum_pieces sup|eta| integral_lo^hi r**(2 ell + d - 3)
                 <= sum_pieces sup|eta| hi**(2 ell + d - 2) / ell,
    which decreases in ell; sup|eta| on a piece is bounded by sum |c_j|.
    The factor 2 absorbs the rounding of this float evaluation.
    """
    total = 0.0
    for i, p in enumerate(profile.pieces):
        s = float(sum(abs(c) for c in p))
        if s:
            total += s * float(profile.breakpoints[i + 1]) ** (2 * ell + d - 2)
    return 2.0 * total / ell


def surface_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def ball_norm(profile: ExactProfile, d: int) -> float:
    """L2 norm of eta over the unit ball in R**d (exact radial integral)."""
    total = Fraction(0)
    for i, p in enumerate(profile.pieces):
        lo, hi = profile.breakpoints[i], profile.breakpoints[i + 1]
        for a, ca in enumerate(p):
            for b, cb in enumerate(p):
                m = a + b + d
                total += ca * cb * (hi**m - lo**m) / m
    return math.sqrt(surface_area(d) * float(total))


def forward_row(d: int, ell: int, count: int) -> list[float]:
    """Weights of basis coefficients a_0..a_{count-1} in lambda_ell:
    (-1)**(k+1) sqrt(2k+d)/ell * (n+d)! n! / ((n+d+k)! (n-k)!),  n = 2 ell - 2,
    zero for k > n.  The factorial ratio is kept as an exact integer fraction
    (the product of (n-i)/(n+d+i+1) over i < k) and rounded once."""
    n = 2 * ell - 2
    num = den = 1
    row = []
    for k in range(count):
        if k > n:
            row.append(0.0)
            continue
        sign = -1.0 if k % 2 == 0 else 1.0
        row.append(sign * math.sqrt(2 * k + d) / ell * (num / den))
        num *= n - k
        den *= n + d + k + 1
    return row
