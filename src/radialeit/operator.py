"""Eigenstructure of the linearized boundary-measurement operator.

For a radial conductivity perturbation of the unit ball in R**d, the
linearized Neumann-to-Dirichlet map acts diagonally on spherical harmonics,
with one eigenvalue per degree ell >= 1 shared by the whole degree-ell
eigenspace.  Two independent routes to those eigenvalues are implemented:

* a finite series in the profile's orthonormal-basis coefficients, with
  weights built by their factorial-ratio recurrence, and
* a single weighted moment of the profile itself.

The series weight of coefficient k in eigenvalue ell depends on (d, ell, k)
only, and by the paper's factorial-ratio bound it falls below double
precision past k ~ sqrt(ell).  Row ell is therefore cut at k*(ell), the first
k at which a rigorous bound on the dropped weights' norm is at most 2**-53
times the leading weight; what the cut drops from an eigenvalue is bounded
by that norm times ||eta|| / sqrt(|S^(d-1)|) (Cauchy-Schwarz and Parseval),
and ``dual_route`` reports this tail bound per degree.  The rows are kept in
fixed read-only blocks of 64 degrees, each one dense matrix built whole and
exactly 0 past each row's cut, and all blocks of all dimensions share one cap
on the weights held, the least recently used block dropped first.  A request
builds at most 63 rows it does not read.  A block is allocated once, as wide
as its last row's cut, and built 32 rows at a time, so a build holds the block
and one chunk's transients, four arrays of half its size; a row sum holds one
block-sized array, the products it sums.
``spectrum_series`` sums these rows and ``forward_matrix`` copies them, a block
at a time from the last one down, so a request past the cap holds at most the
cap plus one block; ``eigenvalue_series`` builds its one row the same way.
Row lengths never fall with ell, so the first block read holds the longest
row, and ``dual_route`` projects the profile only to that row's cut.  A row
is summed only up to the expansion's last non-zero coefficient: the
projection of a one-piece profile of degree m is exactly 0 past a_m, so its
eigenvalues cost m + 1 terms per degree.

On top of that sit the decay estimate per degree, the finite-rank truncation
error and a regularized least-squares inversion from observed eigenvalues back
to basis coefficients.  The operator is diagonal, so dropping the degrees
above a cutoff N costs the largest |lambda_ell| past N in operator norm;
``truncation_error`` reports it for every cutoff in one pass, next to the
decay bound at the first dropped degree, ell = N + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jacobi import FloatRangeError, InputError, JacobiExpansion, _check_dimension, _check_int
from .profiles import (
    RadialProfile,
    _norm2,
    _trimmed,
    log_surface_area,
    moment_integral,
    norm_ball,
    norm_ball_profile,
    project,
)

__all__ = [
    "DecayBoundReport",
    "DualRouteReport",
    "FactorialRatioBoundReport",
    "InversionResult",
    "Spectrum",
    "TruncationErrorReport",
    "cut_estimate",
    "decay_constant",
    "dual_route",
    "eigenvalue_moment",
    "eigenvalue_series",
    "forward_matrix",
    "harmonic_space_dim",
    "invert",
    "spectrum_moment",
    "spectrum_series",
    "truncation_error",
    "verify_decay_bound",
    "verify_factorial_ratio_bound",
]


def harmonic_space_dim(ell: int, d: int) -> int:
    """Dimension of the space of degree-ell spherical harmonics on S^(d-1)."""
    d = _check_dimension(d)
    ell = _check_int(ell, "degree", 0)
    below = math.comb(ell + d - 3, d - 1) if ell + d >= 3 else 0
    return math.comb(ell + d - 1, d - 1) - below


# --------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues for degrees 1..max_index of one operator.

    ``eigenvalues[i]`` belongs to degree i + 1.  ``eta_norm`` is the ball
    L2 norm of the generating perturbation, kept with the eigenvalues so the
    decay bound can be checked without re-deriving it.
    """

    d: int
    eigenvalues: np.ndarray
    eta_norm: float

    def __post_init__(self) -> None:
        vals = np.array(self.eigenvalues, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise InputError("eigenvalues must be a non-empty 1-d array")
        if not np.all(np.isfinite(vals)):
            raise InputError("eigenvalues must be finite")
        if not (math.isfinite(self.eta_norm) and self.eta_norm >= 0.0):
            raise InputError(f"eta_norm must be finite and >= 0, got {self.eta_norm!r}")
        vals.flags.writeable = False
        object.__setattr__(self, "d", _check_dimension(self.d))
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def max_index(self) -> int:
        return self.eigenvalues.size


# Series weights.  The weight of a_k in lambda_ell is
#     w(ell, k) = (-1)**(k+1) sqrt(2k+d)/ell * R(ell, k),   n = 2 ell - 2,
# with R(ell, 0) = 1 and R(ell, k+1) = R(ell, k) (n - k)/(n + d + k + 1), so
# R(ell, k) = (n+d)! n! / ((n+d+k)! (n-k)!).  Each row is built by this ratio
# recurrence on its own (a cumulative product along k, never across rows), so a
# row's bits do not depend on which other rows are built with it.  The check of
# the paper's bound on R (``verify_factorial_ratio_bound``) reads the same
# ratios (``_ratios``) and sums their logs along k.
#
# The ratio |w(ell, j+1)/w(ell, j)| = sqrt((2j+2+d)/(2j+d)) (n-j)/(n+d+j+1) =: rho_j
# falls with j, so once rho_{k+1} < 1,
#     ||w(ell, >k)||_2 <= |w(ell, k+1)| / sqrt(1 - rho_{k+1}**2).
# Row ell is cut at k*(ell), the smallest k at which this bound is at most
# 2**-53 |w(ell, 0)| = 2**-53 sqrt(d)/ell; past it a block stores exactly 0.0,
# as wide as its longest row, and the series reads nothing.
_CUT = 2.0**-53
# The computed test must err on the safe side.  With u = 2**-53: each ratio
# rounds once (a division) and each step of the cumulative product once, so
# |R(ell, k+1)| is within a factor 1 +- (2k + 1) u, and ``head`` after its
# root, product and slack within 1 +- (2k + 4) u; rho_{k+1}**2 is within
# 1 +- 8u, so 1 - rho**2 within 1 +- u (1 + 8 rho**2 / (1 - rho**2)).  With
# one more rounding on each side of the squared test, a pass implies the true
# bound while
#     (2k + 6 + 4 rho**2 / (1 - rho**2)) u <= _SLACK - 1 = 1e-12.
# k*(ell) falls as d grows, so d = 2 is the worst case: there the left side
# passes 1e-12 at ell = 232,635 (k* = 4,450, 1 - rho**2 = 0.037).  Every entry
# point refuses degrees past _MAX_DEGREE, a whole number of blocks, where it is
# 9.93e-13 (k* = 4,418); --L stops at 30,000.
_SLACK = 1.0 + 1e-12
_ROW_BLOCK = 64  # rows per block
_MAX_DEGREE = 3584 * _ROW_BLOCK  # 229,376


@dataclass(frozen=True)
class _RowBlock:
    """Cut weight rows first..first + len(tails) - 1 of one dimension as one
    matrix, with each row's cut and tail bound (all arrays read-only)."""

    first: int
    weights: np.ndarray  # row first + i is weights[i], exactly 0.0 past cuts[i]
    cuts: np.ndarray  # k*(ell)
    tails: np.ndarray  # bound on ||w(ell, >k*(ell))||_2; 0 where the row is whole


def cut_estimate(d: int, ell: int) -> int:
    """The paper's Gaussian estimate of the cut k*(ell), with room to spare:
    above k*(ell) at every d <= 520 and ell <= _MAX_DEGREE tried, by 2-23% for
    d <= 9 and ell >= 100, and up to 6x at d = 520.  Far past the cap it falls
    below (94,296 against k* = 95,501 at ell = 10**8 in d = 2)."""
    return int(1.1 * math.sqrt((4.0 * ell - 2 + d) / 2 * 53 * math.log(2))) + 8


def _ratios(d: int, n: np.ndarray, width: int) -> np.ndarray:
    """R(ell, j+1) / R(ell, j) = (n - j)/(n + d + j + 1) for j = 0..width,
    one row per n = 2 ell - 2 (a float array)."""
    j = np.arange(width + 1.0)
    ratio = np.subtract.outer(n, j)
    ratio /= np.add.outer(n, j + (d + 1.0))
    return ratio


def _tail_sides(
    d: int, r: np.ndarray, ratio: np.ndarray, k: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """ell |w(ell, k+1)| (inflated) and 1 - rho_{k+1}**2, from r = R(ell, k+1)
    and ratio = R(ell, k+2) / R(ell, k+1): two new arrays of r's shape."""
    head = np.abs(r)
    head *= np.sqrt(2.0 * k + 2 + d)
    head *= _SLACK
    room = ratio * np.sqrt((2.0 * k + 4 + d) / (2.0 * k + 2 + d))  # rho_{k+1}
    room *= room
    np.subtract(1.0, room, out=room)
    return head, room


def _tail_test(d: int, n: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R(ell, k) for k = 0..width, the ratios beside it, and at each column
    k < width whether the tail bound past k is at most 2**-53 |w(ell, 0)|,
    one row per n = 2 ell - 2; both sides of the squared test are formed in
    place."""
    ratio = _ratios(d, n, width)
    r = np.ones((n.size, width + 1))
    np.cumprod(ratio[:, :width], axis=1, out=r[:, 1:])
    head, room = _tail_sides(d, r[:, 1:], ratio[:, 1:], np.arange(width))
    head *= head
    room *= _CUT * _CUT * d
    return r, ratio, head <= room


def _last_cut(d: int, last: int) -> int:
    """k*(last), from row ``last`` alone: tested at ``cut_estimate``'s width,
    and at its full width 2 last - 1 only when the estimate falls short."""
    n = np.array([2.0 * last - 2.0])
    full = 2 * last - 1  # columns k = 0..n
    ok = _tail_test(d, n, min(cut_estimate(d, last), full))[2][0]
    if not ok.any():  # the row is cut by k = n
        ok = _tail_test(d, n, full)[2][0]
    return int(ok.argmax())


# Rows built at once into a block: each chunk's ratios, cumulative products and
# tail test are half a block of 64 rows.
_ROW_CHUNK = 32


def _row_block(d: int, first: int, last: int) -> _RowBlock:
    """Rows first..last, each built by its own cumulative product along k,
    cut at k*(ell) and zero past it, as wide as the longest.  Row lengths
    never fall with ell, so the last row's cut sets the width; the weights
    are allocated once at that width and built _ROW_CHUNK rows at a time.
    Beside the weights a build holds one chunk's ratios, cumulative products
    and the two sides of its tail test, each (_ROW_CHUNK, width + 1) floats:
    about three block-sized arrays in all for 64 rows (3.2-4.2 measured in
    d = 2), and under two for 256 (1.6-1.8)."""
    ell = np.arange(first, last + 1)
    width = _last_cut(d, last) + 1  # weights k = 0..k*(last)
    k = np.arange(width)
    sign_root = np.where(k % 2 == 0, -1.0, 1.0) * np.sqrt(2.0 * k + d)
    w = np.empty((ell.size, width))
    cuts = np.empty(ell.size, dtype=np.intp)
    tails = np.empty(ell.size)
    for lo in range(0, ell.size, _ROW_CHUNK):
        chunk = slice(lo, lo + _ROW_CHUNK)
        e = ell[chunk]
        r, ratio, ok = _tail_test(d, 2.0 * e - 2.0, width)
        hi = ok.argmax(axis=1)  # k*(ell): the first k that passes
        rows = np.arange(e.size)
        if not ok[rows, hi].all():
            raise RuntimeError(
                f"a row of degrees {first}..{last} in d = {d} is not cut by k = {width - 1}"
            )
        head, room = _tail_sides(d, r[rows, hi + 1], ratio[rows, hi + 1], hi)
        tails[chunk] = head / np.sqrt(room) / e  # room > 0 wherever the test passes
        out = w[chunk]
        np.multiply(sign_root, r[:, :width], out=out)
        del r, ratio, ok  # before the next chunk's rows are built
        out /= e[:, None]
        out[k > hi[:, None]] = 0.0
        cuts[chunk] = hi
    for arr in (w, cuts, tails):
        arr.flags.writeable = False
    return _RowBlock(first, w, cuts, tails)


# Rows depend on (d, ell) alone.  Block b of dimension d holds rows
# 64 b + 1 .. 64 (b + 1) and is always built whole, so a request for L degrees
# reads blocks 0 .. ceil(L / 64) - 1 whatever came before it.  All blocks share
# one store of at most _BAND_CAP weights, zeros included (32 MB), the least
# recently used block dropped first.  A request reads its blocks one at a time,
# so one that needs more than the cap holds at most the cap plus one block.
_BAND_CAP = 1 << 22
_weight_blocks: dict[tuple[int, int], _RowBlock] = {}  # least recently used first


def _weight_block(d: int, b: int) -> _RowBlock:
    """Block b of dimension d, now the most recently used; building it first
    drops the least recently used blocks until it fits under the cap."""
    block = _weight_blocks.pop((d, b), None)
    if block is None:
        block = _row_block(d, b * _ROW_BLOCK + 1, (b + 1) * _ROW_BLOCK)
        held = block.weights.size + sum(blk.weights.size for blk in _weight_blocks.values())
        for key in list(_weight_blocks):
            if held <= _BAND_CAP:
                break
            held -= _weight_blocks.pop(key).weights.size
    _weight_blocks[d, b] = block
    return block


def _weight_band(d: int, max_index: int):
    """Yield (block, number of its rows in degrees 1..max_index) for each
    block the degrees reach, one at a time, from the last one down: the
    first row read is the longest, and nothing drops its block before it is
    summed."""
    d = _check_dimension(d)
    for b in reversed(range(-(-max_index // _ROW_BLOCK))):
        yield _weight_block(d, b), min(_ROW_BLOCK, max_index - b * _ROW_BLOCK)


def _row_length(block: _RowBlock, count: int) -> int:
    """The number of weights in the block's row ``count`` (from 1).  Row
    lengths never fall with ell: every ratio (n - j)/(n + d + j + 1) grows
    with n, so a tail test that passes at ell + 1 passes at ell.  The first
    row a request reads, its last degree, is therefore its longest."""
    return int(block.cuts[count - 1]) + 1


def _row_sums(block: _RowBlock, count: int, coeffs: np.ndarray) -> np.ndarray:
    """sum_k w(ell, k) a_k over the block's first ``count`` rows, a_k = 0 past
    the coefficients, which end at the expansion's last non-zero one
    (``_trimmed``, once per request: a one-piece profile of degree m has none
    past m).  Each row stops there and at its cut (zeros would regroup its
    pairwise sum), and one reduction runs over the block's (count, width)
    products, one segment per row and one, dropped, between rows: a row reads
    nothing from its neighbours, so a degree's value is the same in every
    spectrum.  A call holds the products alone."""
    width = min(coeffs.size, block.weights.shape[1])
    terms = block.weights[:count, :width] * coeffs[:width]
    bounds = np.empty(2 * count, dtype=np.intp)
    bounds[0::2] = np.arange(0, count * width, width)
    bounds[1::2] = bounds[0::2] + np.minimum(block.cuts[:count] + 1, width)
    if bounds[-1] == terms.size:  # the last row runs to the end
        bounds = bounds[:-1]
    return np.add.reduceat(terms.ravel(), bounds)[0::2]


def eigenvalue_series(expansion: JacobiExpansion, ell: int) -> float:
    """Degree-ell eigenvalue from the basis coefficients.

    Only coefficients up to degree k*(ell) <= 2*ell - 2 enter; if the
    expansion carries fewer, the partial sum is returned (the eigenvalue of
    the truncated profile).
    """
    ell = _check_int(ell, "degree", 1, _MAX_DEGREE)
    return float(_row_sums(_row_block(expansion.d, ell, ell), 1, _trimmed(expansion.coeffs))[0])


def _series_sums(expansion: JacobiExpansion, max_index: int) -> tuple[np.ndarray, np.ndarray]:
    # the eigenvalues of degrees 1..max_index and their tail bounds, read
    # from the last block down
    coeffs, sums, tails = _trimmed(expansion.coeffs), [], []
    for block, count in _weight_band(expansion.d, max_index):
        sums.append(_row_sums(block, count, coeffs))
        tails.append(block.tails[:count])
    return np.concatenate(sums[::-1]), np.concatenate(tails[::-1])


def spectrum_series(expansion: JacobiExpansion, max_index: int) -> Spectrum:
    """Eigenvalues for degrees 1..max_index from the coefficient series, with
    the ball norm the coefficients imply (Parseval).

    Degree ell reads a_k for k <= k*(ell); an expansion that stops short of
    that gives the eigenvalues of the truncated profile.
    """
    max_index = _check_int(max_index, "max_index", 1, _MAX_DEGREE)
    values = _series_sums(expansion, max_index)[0]
    return Spectrum(d=expansion.d, eigenvalues=values, eta_norm=norm_ball(expansion))


def eigenvalue_moment(profile: RadialProfile, d: int, ell) -> float | np.ndarray:
    """Degree-ell eigenvalue as a single weighted moment of the profile:
    -(2*ell + d - 2)/ell * integral_0^1 profile(r) r**(2*ell - 2) r**(d-1) dr.
    ``ell`` may be an integer array, list or tuple of degrees; all moments come
    from one call."""
    d = _check_dimension(d)
    if np.ndim(ell) == 0:
        ell = _check_int(ell, "degree", 1)
    else:
        ell = np.asarray(ell)
        if ell.dtype.kind not in "iu" or np.any(ell < 1):
            raise InputError(f"degree must be integers >= 1, got {ell}")
    return -(2.0 * ell + d - 2.0) / ell * moment_integral(profile, 2 * ell + d - 3)


def spectrum_moment(profile: RadialProfile, d: int, max_index: int) -> Spectrum:
    """Eigenvalues for degrees 1..max_index from the moment formula, the ball
    norm taken first.  A norm or eigenvalue past the float range raises
    FloatRangeError (|lambda_ell| <= C_d ||eta|| allows one past it)."""
    max_index = _check_int(max_index, "max_index", 1)
    eta_norm = norm_ball_profile(profile, d)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = eigenvalue_moment(profile, d, np.arange(1, max_index + 1))
    if not np.all(np.isfinite(vals)):
        raise FloatRangeError(f"a moment eigenvalue of the profile in d = {d} is not finite")
    return Spectrum(d=d, eigenvalues=vals, eta_norm=eta_norm)


@dataclass(frozen=True)
class DualRouteReport:
    """Per-degree agreement of the two eigenvalue routes.

    ``tail_bounds[i]`` bounds the series terms that degree i + 1 drops past
    its cut k*(ell): ||w(ell, >k*)||_2 ||eta||_{L2(ball)} / sqrt(|S^(d-1)|), by
    Cauchy-Schwarz and Parseval (0 where the row is whole).
    """

    series: Spectrum
    moment: Spectrum
    scaled_diffs: np.ndarray  # |series - moment| / max(1, |moment|) per degree
    tol: float
    tail_bounds: np.ndarray
    coeff_degree: int  # the expansion degree the series route projected to
    decay: DecayBoundReport  # verify_decay_bound(moment), checked before the series

    def __post_init__(self) -> None:
        self.scaled_diffs.flags.writeable = False
        self.tail_bounds.flags.writeable = False

    @property
    def max_scaled_diff(self) -> float:
        return float(self.scaled_diffs.max())

    @property
    def ok(self) -> bool:
        return bool(self.max_scaled_diff <= self.tol)


def dual_route(
    profile: RadialProfile,
    d: int,
    max_index: int,
    tol: float = 1e-8,
) -> DualRouteReport:
    """Compute the spectrum both ways and compare degree by degree.

    The moment spectrum and its decay check come first, so a ball norm or a
    decay bound past the float range is refused before any series weight or
    projection.  Both spectra carry the profile's ball norm.  The series route
    projects to the largest cut k*(ell) of the degrees (<= 2*max_index - 2).
    A ``tol`` that is not finite and >= 0 is refused before any of it.
    """
    max_index = _check_int(max_index, "max_index", 1, _MAX_DEGREE)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"tol must be finite and >= 0, got {tol!r}")
    moment = spectrum_moment(profile, d, max_index)
    decay = verify_decay_bound(moment)
    top = _row_length(*next(_weight_band(d, max_index))) - 1  # the longest row
    values, tails = _series_sums(project(profile, d, top), max_index)
    series = Spectrum(d=d, eigenvalues=values, eta_norm=moment.eta_norm)
    diffs = np.abs(series.eigenvalues - moment.eigenvalues) / np.maximum(
        1.0, np.abs(moment.eigenvalues)
    )
    # ||eta|| / sqrt(|S^(d-1)|) bounds the coefficient norm (Parseval)
    scale = moment.eta_norm * math.exp(-0.5 * log_surface_area(d))
    return DualRouteReport(
        series=series,
        moment=moment,
        scaled_diffs=diffs,
        tol=tol,
        tail_bounds=tails * scale,
        coeff_degree=top,
        decay=decay,
    )


# --------------------------------------------------------------------------
# decay bounds


_LOG_MAX = math.log(np.finfo(float).max)


def decay_constant(d: int) -> float:
    """Constant C_d in the bound |lambda_ell| <= C_d ||eta||_{L2(ball)} ell**(-1/2):
    C_d = d * (e**2/pi)**(d/4) * sqrt(2 * Gamma(d/2)), evaluated in log space
    (finite up to d = 520; inf above)."""
    d = _check_dimension(d)
    log_c = math.log(d) + d / 4.0 * (2.0 - math.log(math.pi))
    log_c += 0.5 * (math.log(2.0) + math.lgamma(d / 2.0))
    return math.exp(log_c) if log_c < _LOG_MAX else math.inf


@dataclass(frozen=True)
class DecayBoundReport:
    """Check of |lambda_ell| <= C_d ||eta|| ell**(-1/2) for every degree."""

    eta_norm: float
    values: np.ndarray  # |lambda_ell|, degree ell = index + 1
    bounds: np.ndarray
    violations: tuple[int, ...]

    def __post_init__(self) -> None:
        self.values.flags.writeable = False
        self.bounds.flags.writeable = False

    @property
    def margins(self) -> np.ndarray:
        return self.bounds - self.values

    @property
    def scaled_sup(self) -> float:
        """Observed sup of sqrt(ell) |lambda_ell| / ||eta|| (0 for the zero profile)."""
        if self.eta_norm == 0.0:
            return 0.0
        ells = np.arange(1, self.values.size + 1, dtype=float)
        return float((np.sqrt(ells) * self.values).max() / self.eta_norm)

    @property
    def ok(self) -> bool:
        return not self.violations


def _decay_bounds(spectrum: Spectrum, max_degree: int) -> np.ndarray:
    """C_d ||eta|| ell**(-1/2) for ell = 1..max_degree; C_d ||eta|| is formed
    only here.  One past the float range (C_d itself from d = 521) raises
    FloatRangeError: an infinite bound, or a nan one for eta = 0, could not fail."""
    c, eta = decay_constant(spectrum.d), spectrum.eta_norm
    if not math.isfinite(c * eta):
        raise FloatRangeError(
            f"the decay bound C_d ||eta|| = {c!r} * {eta!r} is not finite in d = {spectrum.d}"
        )
    ells = np.arange(1, max_degree + 1, dtype=float)
    return c * eta / np.sqrt(ells)


def verify_decay_bound(spectrum: Spectrum) -> DecayBoundReport:
    """Check every eigenvalue in the spectrum against the decay bound."""
    values = np.abs(spectrum.eigenvalues)
    bounds = _decay_bounds(spectrum, spectrum.max_index)
    bad = np.nonzero(values > bounds)[0]
    return DecayBoundReport(
        eta_norm=spectrum.eta_norm,
        values=values,
        bounds=bounds,
        violations=tuple(int(i) + 1 for i in bad),
    )


@dataclass(frozen=True)
class FactorialRatioBoundReport:
    """Check of log-ratio <= -2k(k+d)/(2L+d), L = 2*ell - 1, over all (ell, k)."""

    d: int
    max_index: int
    pairs_checked: int
    max_excess: float  # max of (log ratio - log bound); <= 0 when all pass
    violations: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _log_ratio_rows(d: int, first: int, last: int) -> np.ndarray:
    """log R(ell, k), ell = first..last by k = 0..2*last - 2: along each row the
    cumulative sum of the logs of its ``_ratios``, -inf past k = 2*ell - 2."""
    n = 2.0 * np.arange(first, last + 1) - 2.0
    logs = _ratios(d, n, 2 * last - 3)  # their logs, in place
    keep = np.arange(2 * last - 2) < n[:, None]  # ratio 0 at j = n
    np.log(logs, out=logs, where=keep)
    logs[~keep] = -np.inf
    out = np.zeros((n.size, 2 * last - 1))
    np.cumsum(logs, axis=1, out=out[:, 1:])
    return out


def verify_factorial_ratio_bound(d: int, max_index: int) -> FactorialRatioBoundReport:
    """Sweep ell = 1..max_index, k = 0..2*ell-2, comparing in log space."""
    d = _check_dimension(d)
    max_index = _check_int(max_index, "max_index", 1)
    pairs, worst, violations = 0, -math.inf, []
    for first in range(1, max_index + 1, _ROW_BLOCK):
        last = min(first + _ROW_BLOCK - 1, max_index)
        ell = np.arange(first, last + 1)[:, None]
        k = np.arange(2 * last - 1)
        excess = _log_ratio_rows(d, first, last)
        excess += 2.0 * k * (k + d) / (2 * (2 * ell - 1) + d)
        pairs += int(np.isfinite(excess).sum())
        worst = max(worst, float(excess.max()))
        rows, cols = np.nonzero(excess > 0.0)
        violations += zip((rows + first).tolist(), cols.tolist())
        del excess  # before the next block's rows are built
    return FactorialRatioBoundReport(
        d=d,
        max_index=max_index,
        pairs_checked=pairs,
        max_excess=worst,
        violations=tuple(violations),
    )


# --------------------------------------------------------------------------
# truncation error, inversion


@dataclass(frozen=True)
class TruncationErrorReport:
    """Operator-norm truncation error (within the represented range) at every
    cutoff N = 0..max_cutoff, index N, next to its a-priori bound: the decay
    bound at the first dropped degree, C_d ||eta|| (N + 1)**(-1/2)."""

    tail_norms: np.ndarray  # max over ell > N of |lambda_ell|; 0 past the top degree
    apriori_bounds: np.ndarray

    def __post_init__(self) -> None:
        self.tail_norms.flags.writeable = False
        self.apriori_bounds.flags.writeable = False

    @property
    def passes(self) -> np.ndarray:
        return self.tail_norms <= self.apriori_bounds

    @property
    def ok(self) -> bool:
        return bool(self.passes.all())


def truncation_error(spectrum: Spectrum, max_cutoff: int) -> TruncationErrorReport:
    """Truncation error and its bound at every cutoff 0..max_cutoff, in one
    pass: the tail norms are one running max of |lambda| from the top degree
    down, and the bounds the decay bounds of degrees 1..max_cutoff + 1."""
    max_cutoff = _check_int(max_cutoff, "max_cutoff", 0, spectrum.max_index)
    tails = np.maximum.accumulate(np.abs(spectrum.eigenvalues[::-1]))[::-1]
    tails = np.append(tails, 0.0)[: max_cutoff + 1]
    return TruncationErrorReport(tails, _decay_bounds(spectrum, max_cutoff + 1))


def forward_matrix(d: int, max_index: int, num_coeffs: int) -> np.ndarray:
    """Matrix taking basis coefficients a_0..a_{num_coeffs-1} to eigenvalues
    lambda_1..lambda_max_index: the series route's cut rows, so entry (ell, k)
    is 0 for k > k*(ell) (and k*(ell) <= 2*ell - 2)."""
    max_index = _check_int(max_index, "max_index", 1, _MAX_DEGREE)
    num_coeffs = _check_int(num_coeffs, "num_coeffs", 1, 2 * max_index - 1)
    m = np.zeros((max_index, num_coeffs))
    for block, count in _weight_band(d, max_index):
        rows = block.weights[:count, :num_coeffs]
        m[block.first - 1 : block.first - 1 + count, : rows.shape[1]] = rows
    return m


@dataclass(frozen=True)
class InversionResult:
    expansion: JacobiExpansion
    singular_values: np.ndarray
    effective_rank: int
    residual_norm: float

    def __post_init__(self) -> None:
        self.singular_values.flags.writeable = False


def invert(
    spectrum: Spectrum, num_coeffs: int, rel_cutoff: float = 1e-10, ridge: float = 0.0
) -> InversionResult:
    """Recover basis coefficients from observed eigenvalues by truncated SVD.

    Solves the least-squares problem for the forward matrix, discarding the
    singular values below rel_cutoff * s_max; a positive ridge weight filters
    the rest by s / (s**2 + ridge) instead of 1/s.  A zero spectrum recovers
    exactly zero coefficients; coefficients or a residual past the float
    range raise FloatRangeError.
    """
    if not 0.0 <= rel_cutoff < 1.0:
        raise InputError(f"rel_cutoff must lie in [0, 1), got {rel_cutoff!r}")
    if not (math.isfinite(ridge) and ridge >= 0.0):
        raise InputError(f"ridge must be finite and >= 0, got {ridge!r}")
    m = forward_matrix(spectrum.d, spectrum.max_index, num_coeffs)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = s > rel_cutoff * s[0]
    if ridge > 0.0:
        filt = s[keep] / (s[keep] ** 2 + ridge)
    else:
        filt = 1.0 / s[keep]
    with np.errstate(over="ignore", invalid="ignore"):
        coef = vt[keep].T @ (filt * (u[:, keep].T @ spectrum.eigenvalues))
        residual = _norm2(m @ coef - spectrum.eigenvalues)
    if not (np.all(np.isfinite(coef)) and math.isfinite(residual)):
        raise FloatRangeError("the recovered coefficients or their residual are not finite")
    return InversionResult(
        expansion=JacobiExpansion(d=spectrum.d, coeffs=coef),
        singular_values=s,
        effective_rank=int(np.count_nonzero(keep)),
        residual_norm=residual,
    )
