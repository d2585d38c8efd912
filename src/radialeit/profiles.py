"""Radial perturbation profiles and their expansion in the orthonormal basis.

A profile is a piecewise polynomial in the radius on a partition of [0, 1].
That class is closed under everything we need (presets, products, moments)
and lets every radial integral be evaluated either exactly from monomial
antiderivatives or by per-piece Gauss-Legendre rules of sufficient order, so
the two routes can be played against each other in tests.  Projection runs
one basis recurrence over the quadrature nodes of all pieces together, a
block of degrees at a time, so it never holds the whole basis table.  A
profile of one piece of degree m is orthogonal to every P_k with k > m, so
its projection runs the recurrence to degree m only and the coefficients
above are exact zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import jacobi
from .jacobi import InputError, JacobiExpansion
from .numerics import gauss_legendre

__all__ = [
    "MAX_PIECE_DEGREE",
    "RadialProfile",
    "log_surface_area",
    "moment_integral",
    "norm_ball",
    "norm_ball_profile",
    "piece_rule_size",
    "preset",
    "profile_from_dict",
    "profile_to_dict",
    "project",
]

MAX_PIECE_DEGREE = 32

PRESET_NAMES = ("constant", "annulus", "polynomial", "ramp")


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise polynomial on [0, 1].

    ``breakpoints`` is the partition (first 0, last 1, strictly increasing);
    ``pieces[i]`` holds the polynomial coefficients (constant term first) on
    [breakpoints[i], breakpoints[i+1]].  The arrays are read-only.
    """

    breakpoints: np.ndarray
    pieces: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        bp = np.array(self.breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise InputError("breakpoints must be a 1-d array with at least two entries")
        if bp[0] != 0.0 or bp[-1] != 1.0 or not np.all(np.diff(bp) > 0.0):
            raise InputError("breakpoints must increase strictly from 0.0 to 1.0")
        pieces = tuple(np.array(p, dtype=float) for p in self.pieces)
        if len(pieces) != bp.size - 1:
            raise InputError(
                f"{bp.size - 1} pieces needed for {bp.size} breakpoints, got {len(pieces)}"
            )
        for p in pieces:
            if p.ndim != 1 or p.size == 0:
                raise InputError("each piece must be a non-empty 1-d coefficient array")
            if p.size - 1 > MAX_PIECE_DEGREE:
                raise InputError(
                    f"piece degree {p.size - 1} exceeds the cap {MAX_PIECE_DEGREE}"
                )
            if not np.all(np.isfinite(p)):
                raise InputError("piece coefficients must be finite")
            p.flags.writeable = False
        bp.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "pieces", pieces)

    def intervals(self) -> Iterator[tuple[float, float, np.ndarray]]:
        """Yield (lo, hi, coefficients) for each piece."""
        for i, p in enumerate(self.pieces):
            yield float(self.breakpoints[i]), float(self.breakpoints[i + 1]), p


def preset(name: str, params: Sequence[float]) -> RadialProfile:
    """Build one of the stock profiles.

    constant:   [c]             -> c everywhere
    annulus:    [r1, r2, c]     -> c on [r1, r2], 0 elsewhere
    polynomial: [c0, c1, ...]   -> one global polynomial
    ramp:       [c]             -> c * r
    """
    params = [float(p) for p in params]
    if name == "constant":
        if len(params) != 1:
            raise InputError("constant takes one parameter")
        return RadialProfile(np.array([0.0, 1.0]), (np.array([params[0]]),))
    if name == "ramp":
        if len(params) != 1:
            raise InputError("ramp takes one parameter")
        return RadialProfile(np.array([0.0, 1.0]), (np.array([0.0, params[0]]),))
    if name == "polynomial":
        if not params:
            raise InputError("polynomial needs at least one coefficient")
        return RadialProfile(np.array([0.0, 1.0]), (np.array(params),))
    if name == "annulus":
        if len(params) != 3:
            raise InputError("annulus takes r1, r2, value")
        r1, r2, value = params
        if not 0.0 <= r1 < r2 <= 1.0:
            raise InputError(f"annulus needs 0 <= r1 < r2 <= 1, got {r1}, {r2}")
        cuts = [0.0, r1, r2, 1.0]
        vals = [0.0, value, 0.0]
        keep = [i for i in range(3) if cuts[i] < cuts[i + 1]]
        return RadialProfile(
            np.array([cuts[i] for i in keep] + [1.0]),
            tuple(np.array([vals[i]]) for i in keep),
        )
    raise InputError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")


def profile_from_dict(doc: dict) -> tuple[RadialProfile, int | None]:
    """Parse the on-disk profile document; returns the profile and its
    declared dimension (None when the document leaves it out)."""
    if not isinstance(doc, dict):
        raise InputError("profile document must be a mapping")
    unknown = set(doc) - {"dimension", "breakpoints", "pieces"}
    if unknown:
        raise InputError(f"unknown profile fields: {sorted(unknown)}")
    try:
        breakpoints = np.array(doc["breakpoints"], dtype=float)
        pieces = tuple(np.array(p, dtype=float) for p in doc["pieces"])
    except KeyError as exc:
        raise InputError(f"profile document missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed profile document: {exc}") from None
    d = doc.get("dimension")
    if d is not None:
        d = jacobi._check_int(d, "profile dimension", 2)
    return RadialProfile(breakpoints, pieces), d


def profile_to_dict(profile: RadialProfile) -> dict:
    return {
        "breakpoints": [float(b) for b in profile.breakpoints],
        "pieces": [[float(c) for c in p] for p in profile.pieces],
    }


def log_surface_area(d: int) -> float:
    """log of the surface measure of the unit sphere in R**d; finite in every d,
    where the measure itself underflows from d = 438 on."""
    d = jacobi._check_dimension(d)
    return math.log(2.0) + d / 2.0 * math.log(math.pi) - math.lgamma(d / 2.0)


# A power below 2**-1100 is past half the smallest subnormal, 2**-1074, by a
# margin far wider than the rounding of the test, so ``pow`` returns exactly
# 0.0 there, and takes its slow path (about 60 ns an element, against 5) to
# do so.
_LOG2_UNDERFLOW = -1100.0


def _powers(x: float, p: np.ndarray, top: float) -> np.ndarray:
    """x**p per entry of p >= 1, bit for bit, where ``top`` is the largest
    entry; for 0 < x < 1, ``pow`` runs only where p log2(x) >= -1100, and
    every entry skipped is the 0.0 it returns.  The cut is one division,
    never a search: near x = 1 it is past every p.  Where it skips nothing,
    the call is ``x**p`` itself: NumPy's vector ``pow`` can differ from its
    scalar one in the last bit, and a masked call on one element takes the
    scalar one."""
    if 0.0 < x < 1.0:
        cut = _LOG2_UNDERFLOW / math.log2(x)
        if top > cut:
            return np.power(x, p, out=np.zeros_like(p), where=p <= cut)
    return x**p


def _piece_integral(coeffs: np.ndarray, lo: float, hi: float, power, top_power: int) -> np.ndarray:
    # integral_lo^hi (sum_j c_j r**j) r**power dr per entry of power (the largest
    # top_power), from exact antiderivatives; stable because 0 <= lo < hi <= 1
    # makes every term's magnitude <= |c_j| / p.
    p = np.arange(coeffs.size, dtype=float) + np.expand_dims(power, -1) + 1.0
    top = top_power + coeffs.size
    return np.sum(coeffs * (_powers(hi, p, top) - _powers(lo, p, top)) / p, axis=-1)


def moment_integral(profile: RadialProfile, power) -> float | np.ndarray:
    """integral_0^1 profile(r) r**power dr, exactly (per-piece antiderivatives);
    ``power`` may be an integer array, and the result then has its shape."""
    powers = np.asarray(power)
    if powers.dtype.kind not in "iu" or np.any(powers < 0):
        raise InputError(f"power must be an integer >= 0, got {power!r}")
    top = int(powers.max(initial=0))
    total = sum(_piece_integral(c, lo, hi, powers, top) for lo, hi, c in profile.intervals())
    return float(total) if total.ndim == 0 else total


def _trimmed(c: np.ndarray) -> np.ndarray:
    # c without its trailing zeros, but at least one coefficient
    nonzero = np.flatnonzero(c)
    return c[: nonzero[-1] + 1] if nonzero.size else c[:1]


def _squared(c: np.ndarray) -> np.ndarray:
    """Coefficients of c(r)**2, constant term first: bit for bit those of
    numpy's ``polymul(c, c)``, which trims trailing zeros before and after."""
    c = _trimmed(c)
    return _trimmed(np.convolve(c, c))


def norm_ball_profile(profile: RadialProfile, d: int) -> float:
    """L2 norm of the profile over the unit ball in R**d.  A norm past the
    float range (finite coefficients can have one) raises FloatRangeError."""
    root_area = math.exp(0.5 * log_surface_area(d))
    # the pieces scaled by a power of two, as in _norm2
    e = math.frexp(float(np.abs(np.concatenate(profile.pieces)).max()))[1] - 1
    pieces = ((lo, hi, np.ldexp(c, -e)) for lo, hi, c in profile.intervals())
    total = sum(_piece_integral(_squared(c), lo, hi, d - 1, d - 1) for lo, hi, c in pieces)
    # squaring can leave a tiny negative residue for the zero profile
    norm = root_area * math.sqrt(max(total, 0.0)) * math.ldexp(1.0, e)
    if math.isfinite(norm):
        return norm
    raise jacobi.FloatRangeError(f"the profile's L2 norm over the ball in d = {d} is not finite")


def piece_rule_size(degree: int, piece_degree: int, d: int) -> int:
    """Gauss-Legendre points for one piece, exact with room to spare for a
    polynomial of ``degree`` times a piece of ``piece_degree`` times the ball
    weight r**(d-1).  Projection, the oracle's radial moments and the CLI's
    size estimates all take their rule sizes from here."""
    return (degree + piece_degree + d) // 2 + 2


def project(profile: RadialProfile, d: int, max_degree: int) -> JacobiExpansion:
    """Coefficients <profile, P_k> for k = 0..max_degree.

    Each piece is integrated with a Gauss-Legendre rule whose order covers
    the full integrand degree (basis degree + piece degree + weight), so the
    only error is roundoff.  One recurrence runs over the nodes of all pieces,
    a block of degrees at a time, and each block adds its pieces' sums in
    piece order: every coefficient is the same sum as with one table per piece.

    A profile of one piece of degree m is a combination of P_0..P_m, so it
    is projected to degree min(max_degree, m) only (recurrence, rule and all)
    and the coefficients above are exact zeros, not rounding noise.
    """
    max_degree = jacobi._check_int(max_degree, "max_degree", 0)
    d = jacobi._check_dimension(d)
    pieces = profile.pieces
    degree = max_degree if len(pieces) > 1 else min(max_degree, pieces[0].size - 1)
    nodes, integrands = [], []
    for lo, hi, c in profile.intervals():
        rule = gauss_legendre(piece_rule_size(degree, c.size - 1, d))
        r = lo + (hi - lo) * rule.nodes
        nodes.append(r)
        integrands.append((hi - lo) * rule.weights * np.polyval(c[::-1], r) * r ** (d - 1))
    cuts = np.cumsum([0] + [g.size for g in integrands]).tolist()
    total = np.zeros(max_degree + 1)
    for start, block in jacobi.evaluate_blocks(d, degree, np.concatenate(nodes)):
        out = total[start : start + len(block)]
        for lo, hi, g in zip(cuts, cuts[1:], integrands):
            out += block[:, lo:hi] @ g
    return JacobiExpansion(d=d, coeffs=total)


def norm_ball(expansion: JacobiExpansion) -> float:
    """L2 norm over the ball implied by the coefficients (Parseval)."""
    return math.exp(0.5 * log_surface_area(expansion.d)) * _norm2(expansion.coeffs)


def _norm2(x) -> float:
    """The 2-norm of x, finite whenever the norm itself is.  It is taken of
    x * 2**-e, with max|x| in [2**e, 2**(e+1)), so no square under- or
    overflows; where none did unscaled, the scale changes no bit."""
    x = np.asarray(x, dtype=float)
    e = math.frexp(float(np.abs(x).max(initial=0.0)))[1] - 1
    a = np.ldexp(x, -e)
    return math.sqrt(float(a @ a)) * math.ldexp(1.0, e)
