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
and ``dual_route`` reports this tail bound per degree.  ``spectrum_series``
keeps one read-only band of cut rows per dimension, grown by appending rows
and bounded in total size; ``dual_route`` projects the profile only to the
largest cut it reads, and ``forward_matrix`` and ``eigenvalue_series`` read
the same rows.  A row is summed only up to the expansion's last non-zero
coefficient: the projection of a one-piece profile of degree m is exactly 0
past a_m, so its eigenvalues cost m + 1 terms per degree.

On top of that sit the decay estimate per degree, finite-rank truncation with
its error split, and a regularized least-squares inversion from observed
eigenvalues back to basis coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .jacobi import _check_dimension
from .numerics import log_factorial_ratio, log_gamma
from .profiles import (
    JacobiExpansion,
    RadialProfile,
    log_surface_area,
    moment_integral,
    norm_ball,
    norm_ball_profile,
)

__all__ = [
    "BoundaryField",
    "DecayBoundReport",
    "DualRouteReport",
    "FactorialRatioBoundReport",
    "InversionResult",
    "InversionSettings",
    "Spectrum",
    "TruncatedOperator",
    "TruncationErrorReport",
    "apply_operator",
    "decay_constant",
    "dual_route",
    "eigenvalue_moment",
    "eigenvalue_series",
    "forward_matrix",
    "harmonic_space_dim",
    "invert",
    "spectrum_moment",
    "spectrum_series",
    "truncate",
    "truncation_error",
    "verify_decay_bound",
    "verify_factorial_ratio_bound",
]


def harmonic_space_dim(ell: int, d: int) -> int:
    """Dimension of the space of degree-ell spherical harmonics on S^(d-1)."""
    d = _check_dimension(d)
    if not isinstance(ell, (int, np.integer)) or ell < 0:
        raise ValueError(f"degree must be an integer >= 0, got {ell!r}")

    below = math.comb(ell + d - 3, d - 1) if ell + d >= 3 else 0
    return math.comb(ell + d - 1, d - 1) - below


# --------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues for degrees 1..max_index of one operator.

    ``eigenvalues[i]`` belongs to degree i + 1.  ``eta_norm`` is the ball
    L2 norm of the generating perturbation (kept with the eigenvalues so the
    decay bound can be checked without re-deriving it); ``source`` records
    which route produced the values.
    """

    d: int
    eigenvalues: np.ndarray
    source: str
    eta_norm: float

    def __post_init__(self) -> None:
        vals = np.array(self.eigenvalues, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("eigenvalues must be a non-empty 1-d array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("eigenvalues must be finite")
        if not (math.isfinite(self.eta_norm) and self.eta_norm >= 0.0):
            raise ValueError(f"eta_norm must be finite and >= 0, got {self.eta_norm!r}")
        vals.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def max_index(self) -> int:
        return self.eigenvalues.size

    def eigenvalue(self, ell: int) -> float:
        if not 1 <= ell <= self.max_index:
            raise ValueError(f"degree {ell} outside 1..{self.max_index}")
        return float(self.eigenvalues[ell - 1])


# Series weights.  The weight of a_k in lambda_ell is
#     w(ell, k) = (-1)**(k+1) sqrt(2k+d)/ell * R(ell, k),   n = 2 ell - 2,
# with R(ell, 0) = 1 and R(ell, k+1) = R(ell, k) (n - k)/(n + d + k + 1), so
# R(ell, k) = (n+d)! n! / ((n+d+k)! (n-k)!).  Each row is built by this ratio
# recurrence on its own (a cumulative product along k, never across rows), so a
# row's bits do not depend on which other rows are built with it.
#
# The ratio |w(ell, j+1)/w(ell, j)| = sqrt((2j+2+d)/(2j+d)) (n-j)/(n+d+j+1) =: rho_j
# falls with j, so once rho_{k+1} < 1,
#     ||w(ell, >k)||_2 <= |w(ell, k+1)| / sqrt(1 - rho_{k+1}**2).
# Row ell is cut at k*(ell), the smallest k at which this bound is at most
# 2**-53 |w(ell, 0)| = 2**-53 sqrt(d)/ell; past it the series reads nothing.
_CUT = 2.0**-53
# The recurrence rounds R(ell, k) by at most about k ulps; inflating the bound
# by 1e-12 covers that up to k ~ 9000 (ell ~ 10**6; --L stops at 30,000).
_SLACK = 1.0 + 1e-12
_ROW_BLOCK = 256  # rows per block of the band


@dataclass(frozen=True)
class _RowBlock:
    """Cut weight rows first..first + len(tails) - 1 of one dimension, back
    to back, with each row's tail bound (all arrays read-only)."""

    first: int
    weights: np.ndarray
    starts: np.ndarray  # row first + i is weights[starts[i] : starts[i + 1]]
    tails: np.ndarray  # bound on ||w(ell, >k*(ell))||_2; 0 where the row is whole

    @property
    def last(self) -> int:
        return self.first + self.tails.size - 1


def _row_block(d: int, first: int, last: int) -> _RowBlock:
    """Rows first..last, each built by its own cumulative product along k,
    padded to a common width and cut at k*(ell)."""
    ell = np.arange(first, last + 1)
    n = 2.0 * ell - 2.0
    rows = np.arange(ell.size)
    full = 2 * last - 1  # columns k = 0..n of the longest row
    # the paper's Gaussian estimate of the cut, with room to spare
    width = min(int(1.1 * math.sqrt((4.0 * last - 2 + d) / 2 * 53 * math.log(2))) + 8, full)
    while True:
        j = np.arange(width + 1.0)
        ratio = np.subtract.outer(n, j)
        ratio /= np.add.outer(n, j + (d + 1.0))  # R(ell, j+1) / R(ell, j)
        r = np.ones((ell.size, width + 1))
        np.cumprod(ratio[:, :width], axis=1, out=r[:, 1:])
        # at column k: ell |w(ell, k+1)| (inflated) and 1 - rho_{k+1}**2, and
        # whether the tail bound past k is at most 2**-53 |w(ell, 0)|
        k = np.arange(width)
        head = np.abs(r[:, 1:])
        head *= np.sqrt(2.0 * k + 2 + d)
        head *= _SLACK
        room = ratio[:, 1:] * np.sqrt((2.0 * k + 4 + d) / (2.0 * k + 2 + d))  # rho_{k+1}
        room *= room
        np.subtract(1.0, room, out=room)
        ok = head * head <= (_CUT * _CUT * d) * room
        if width == full or ok[:, -1].all():  # every row is cut by k = n
            break
        width = min(2 * width, full)
    hi = ok.argmax(axis=1)  # k*(ell): the first k that passes
    tails = head[rows, hi] / np.sqrt(room[rows, hi]) / ell  # room > 0 wherever the test passes
    w = np.where(k % 2 == 0, -1.0, 1.0) * np.sqrt(2.0 * k + d) * r[:, :width] / ell[:, None]
    weights = w[k <= hi[:, None]]
    starts = np.concatenate(([0], np.cumsum(hi + 1)))
    for arr in (weights, starts, tails):
        arr.flags.writeable = False
    return _RowBlock(first, weights, starts, tails)


# Rows depend on (d, ell) alone, so the band for L degrees is a prefix of the
# band for any larger L: one band per dimension, a tuple of row blocks grown by
# appending blocks.  At most _BAND_CAP weights (32 MB) are held over all
# dimensions; a larger band is used and then dropped.
_BAND_CAP = 1 << 22
_weight_bands: dict[int, tuple[_RowBlock, ...]] = {}


def _weight_band(d: int, max_index: int) -> tuple[_RowBlock, ...]:
    held = _weight_bands.get(d, ())
    top = held[-1].last if held else 0
    if max_index <= top:
        return held
    band = held + tuple(
        _row_block(d, lo, min(lo + _ROW_BLOCK - 1, max_index))
        for lo in range(top + 1, max_index + 1, _ROW_BLOCK)
    )
    if sum(b.weights.size for b in band) <= _BAND_CAP:
        _weight_bands.pop(d, None)
        _weight_bands[d] = band
        held_total = sum(b.weights.size for bs in _weight_bands.values() for b in bs)
        for other in list(_weight_bands)[:-1]:  # oldest first
            if held_total <= _BAND_CAP:
                break
            held_total -= sum(b.weights.size for b in _weight_bands.pop(other))
    return band


def _rows(band: tuple[_RowBlock, ...], max_index: int):
    # (block, number of its rows that lie in degrees 1..max_index) for each block used
    for block in band:
        if block.first > max_index:
            break
        yield block, min(block.tails.size, max_index - block.first + 1)


def _cut_rows(
    block: _RowBlock, count: int, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block's first ``count`` rows, each cut to its first ``width``
    weights: where each cut row starts in the run of kept weights, the k of
    each kept weight, and the kept weights (the block's own leading run when
    no row is cut, so nothing is gathered then)."""
    lengths = np.minimum(np.diff(block.starts[: count + 1]), width)
    seg = np.cumsum(lengths) - lengths
    k = np.arange(seg[-1] + lengths[-1]) - np.repeat(seg, lengths)
    if k.size == block.starts[count]:
        return seg, k, block.weights[: k.size]
    return seg, k, block.weights[k + np.repeat(block.starts[:count], lengths)]


def _row_sums(block: _RowBlock, count: int, coeffs: np.ndarray) -> np.ndarray:
    """sum_k w(ell, k) a_k over the block's first ``count`` rows, a_k = 0 past
    the coefficients.  Each row stops at the last non-zero coefficient (a
    one-piece profile of degree m has none past m), and one reduction runs
    over the block, one segment per row: a row reads nothing from its
    neighbours, so a degree's value is the same in every spectrum."""
    nonzero = np.flatnonzero(coeffs)
    seg, k, weights = _cut_rows(block, count, int(nonzero[-1]) + 1 if nonzero.size else 1)
    return np.add.reduceat(weights * coeffs[k], seg)


def _longest_row(band: tuple[_RowBlock, ...], max_index: int) -> int:
    return max(int(np.diff(b.starts[: m + 1]).max()) for b, m in _rows(band, max_index))


def eigenvalue_series(expansion: JacobiExpansion, ell: int) -> float:
    """Degree-ell eigenvalue from the basis coefficients.

    Only coefficients up to degree k*(ell) <= 2*ell - 2 enter; if the
    expansion carries fewer, the partial sum is returned (the eigenvalue of
    the truncated profile).
    """
    if ell < 1:
        raise ValueError(f"degree must be >= 1, got {ell}")
    return float(_row_sums(_row_block(expansion.d, ell, ell), 1, expansion.coeffs)[0])


def _series_spectrum(
    expansion: JacobiExpansion, band: tuple[_RowBlock, ...], max_index: int
) -> tuple[Spectrum, np.ndarray]:
    # the spectrum from the band's rows 1..max_index, and their tail bounds
    used = list(_rows(band, max_index))
    cut_short = _longest_row(band, max_index) > expansion.coeffs.size
    spectrum = Spectrum(
        d=expansion.d,
        eigenvalues=np.concatenate([_row_sums(b, m, expansion.coeffs) for b, m in used]),
        source="series-truncated" if cut_short else "series",
        eta_norm=norm_ball(expansion),
    )
    return spectrum, np.concatenate([b.tails[:m] for b, m in used])


def spectrum_series(expansion: JacobiExpansion, max_index: int) -> Spectrum:
    """Eigenvalues for degrees 1..max_index from the coefficient series.

    Degree ell reads a_k for k <= k*(ell); the source is "series-truncated"
    when the expansion stops short of that for some degree.
    """
    if max_index < 1:
        raise ValueError(f"max_index must be >= 1, got {max_index}")
    return _series_spectrum(expansion, _weight_band(expansion.d, max_index), max_index)[0]


def eigenvalue_moment(profile: RadialProfile, d: int, ell) -> float | np.ndarray:
    """Degree-ell eigenvalue as a single weighted moment of the profile:
    -(2*ell + d - 2)/ell * integral_0^1 profile(r) r**(2*ell - 2) r**(d-1) dr.
    ``ell`` may be an integer array of degrees; all moments come from one call."""
    if np.min(ell) < 1:
        raise ValueError(f"degree must be >= 1, got {ell}")
    return -(2.0 * ell + d - 2.0) / ell * moment_integral(profile, 2 * ell + d - 3)


def spectrum_moment(profile: RadialProfile, d: int, max_index: int) -> Spectrum:
    """Eigenvalues for degrees 1..max_index from the moment formula."""
    if max_index < 1:
        raise ValueError(f"max_index must be >= 1, got {max_index}")
    vals = eigenvalue_moment(profile, d, np.arange(1, max_index + 1))
    return Spectrum(
        d=d, eigenvalues=vals, source="moment", eta_norm=norm_ball_profile(profile, d)
    )


@dataclass(frozen=True)
class DualRouteReport:
    """Per-degree agreement of the two eigenvalue routes.

    ``tail_bounds[i]`` bounds the series terms that degree i + 1 drops past
    its cut k*(ell): ||w(ell, >k*)||_2 ||eta||_{L2(ball)} / sqrt(|S^(d-1)|), by
    Cauchy-Schwarz and Parseval (0 where the row is whole).  It does not cover
    coefficients that ``coeff_degree`` leaves out; the series source says
    "series-truncated" then.
    """

    series: Spectrum
    moment: Spectrum
    scaled_diffs: np.ndarray  # |series - moment| / max(1, |moment|) per degree
    tol: float
    tail_bounds: np.ndarray
    coeff_degree: int  # the expansion degree the series route projected to

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
    coeff_degree: int | None = None,
    tol: float = 1e-8,
) -> DualRouteReport:
    """Compute the spectrum both ways and compare degree by degree.

    ``coeff_degree`` is the expansion degree used for the series route; the
    default, the largest cut k*(ell) over the requested degrees (at most
    2*max_index - 2), is the smallest that every degree reads in full.  The
    series reads no coefficient above it, so a larger ``coeff_degree`` is cut
    down to it.
    """
    from .profiles import project  # local import keeps module deps one-way

    band = _weight_band(d, max_index)
    top = _longest_row(band, max_index) - 1
    coeff_degree = top if coeff_degree is None else min(coeff_degree, top)
    series, tails = _series_spectrum(project(profile, d, coeff_degree), band, max_index)
    moment = spectrum_moment(profile, d, max_index)
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
        coeff_degree=coeff_degree,
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
    log_c += 0.5 * (math.log(2.0) + log_gamma(d / 2.0))
    return math.exp(log_c) if log_c < _LOG_MAX else math.inf


@dataclass(frozen=True)
class DecayBoundReport:
    """Check of |lambda_ell| <= C_d ||eta|| ell**(-1/2) for every degree."""

    d: int
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


def verify_decay_bound(spectrum: Spectrum) -> DecayBoundReport:
    """Check every eigenvalue in the spectrum against the decay bound."""
    ells = np.arange(1, spectrum.max_index + 1, dtype=float)
    values = np.abs(spectrum.eigenvalues)
    bounds = decay_constant(spectrum.d) * spectrum.eta_norm / np.sqrt(ells)
    bad = np.nonzero(values > bounds)[0]
    return DecayBoundReport(
        d=spectrum.d,
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


def verify_factorial_ratio_bound(d: int, max_index: int) -> FactorialRatioBoundReport:
    """Sweep ell = 1..max_index, k = 0..2*ell-2, comparing in log space."""
    if max_index < 1:
        raise ValueError(f"max_index must be >= 1, got {max_index}")
    rows, k = np.nonzero(np.arange(2 * max_index - 1) <= 2 * np.arange(max_index)[:, None])
    ell = rows + 1
    excess = log_factorial_ratio(ell, k, d) + 2.0 * k * (k + d) / (2 * (2 * ell - 1) + d)
    bad = excess > 0.0
    return FactorialRatioBoundReport(
        d=d,
        max_index=max_index,
        pairs_checked=excess.size,
        max_excess=float(excess.max()),
        violations=tuple(zip(ell[bad].tolist(), k[bad].tolist())),
    )


# --------------------------------------------------------------------------
# applying, truncating, inverting


@dataclass(frozen=True)
class BoundaryField:
    """Boundary data by harmonic degree.

    ``blocks[ell]`` holds the coefficients of the degree-ell harmonics in an
    orthonormal basis of that eigenspace; each block must have exactly the
    eigenspace dimension.  Degree 0 is excluded (the operator acts on
    mean-free data).
    """

    d: int
    blocks: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        clean: dict[int, np.ndarray] = {}
        for ell, block in self.blocks.items():
            if not isinstance(ell, (int, np.integer)) or ell < 1:
                raise ValueError(f"field degrees must be integers >= 1, got {ell!r}")
            arr = np.array(block, dtype=float)
            want = harmonic_space_dim(int(ell), self.d)
            if arr.ndim != 1 or arr.size != want:
                raise ValueError(
                    f"degree {ell} block must have length {want}, got shape {arr.shape}"
                )
            arr.flags.writeable = False
            clean[int(ell)] = arr
        object.__setattr__(self, "blocks", clean)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.blocks))

    @property
    def max_degree(self) -> int:
        return max(self.blocks, default=0)

    def block(self, ell: int) -> np.ndarray:
        return self.blocks[ell]


def apply_operator(spectrum: Spectrum, boundary: BoundaryField) -> BoundaryField:
    """Diagonal action: scale every degree-ell block by lambda_ell."""
    if boundary.d != spectrum.d:
        raise ValueError(f"dimension mismatch: field d={boundary.d}, spectrum d={spectrum.d}")
    if boundary.max_degree > spectrum.max_index:
        raise ValueError(
            f"field degree {boundary.max_degree} exceeds spectrum range {spectrum.max_index}"
        )
    return BoundaryField(
        d=boundary.d,
        blocks={ell: spectrum.eigenvalue(ell) * blk for ell, blk in boundary.blocks.items()},
    )


@dataclass(frozen=True)
class TruncatedOperator:
    """The operator with all degrees above ``cutoff`` dropped."""

    spectrum: Spectrum
    cutoff: int

    def __post_init__(self) -> None:
        if not 0 <= self.cutoff <= self.spectrum.max_index:
            raise ValueError(
                f"cutoff must lie in 0..{self.spectrum.max_index}, got {self.cutoff}"
            )

    def apply(self, boundary: BoundaryField) -> BoundaryField:
        """Like the full operator, but degree blocks above the cutoff go to 0."""
        out = apply_operator(self.spectrum, boundary)
        blocks = {
            ell: (blk if ell <= self.cutoff else np.zeros_like(blk))
            for ell, blk in out.blocks.items()
        }
        return BoundaryField(d=out.d, blocks=blocks)


def truncate(spectrum: Spectrum, cutoff: int) -> TruncatedOperator:
    return TruncatedOperator(spectrum=spectrum, cutoff=cutoff)


@dataclass(frozen=True)
class TruncationErrorReport:
    """Operator-norm truncation error (within the represented range) next to
    its a-priori bound C_d ||eta|| (cutoff + 1)**(-1/2)."""

    cutoff: int
    max_index: int
    tail_norm: float
    apriori_bound: float

    @property
    def ok(self) -> bool:
        return self.tail_norm <= self.apriori_bound


def truncation_error(op: TruncatedOperator) -> TruncationErrorReport:
    spec = op.spectrum
    tail = spec.eigenvalues[op.cutoff :]
    tail_norm = float(np.abs(tail).max()) if tail.size else 0.0
    bound = decay_constant(spec.d) * spec.eta_norm / math.sqrt(op.cutoff + 1.0)
    return TruncationErrorReport(
        cutoff=op.cutoff, max_index=spec.max_index, tail_norm=tail_norm, apriori_bound=bound
    )


def forward_matrix(d: int, max_index: int, num_coeffs: int) -> np.ndarray:
    """Matrix taking basis coefficients a_0..a_{num_coeffs-1} to eigenvalues
    lambda_1..lambda_max_index: the series route's cut rows, so entry (ell, k)
    is 0 for k > k*(ell) (and k*(ell) <= 2*ell - 2)."""
    if max_index < 1:
        raise ValueError(f"max_index must be >= 1, got {max_index}")
    if not 1 <= num_coeffs <= 2 * max_index - 1:
        raise ValueError(
            f"num_coeffs must lie in 1..{2 * max_index - 1} for max_index={max_index}"
        )
    m = np.zeros((max_index, num_coeffs))
    for block, count in _rows(_weight_band(d, max_index), max_index):
        _, k, weights = _cut_rows(block, count, num_coeffs)
        rows = block.first - 2 + np.cumsum(k == 0)  # each cut row starts at k = 0
        m[rows, k] = weights
    return m


@dataclass(frozen=True)
class InversionSettings:
    """Regularization: singular values below rel_cutoff * s_max are discarded;
    a positive ridge weight applies the filter s / (s**2 + ridge) instead of 1/s."""

    rel_cutoff: float = 1e-10
    ridge: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rel_cutoff < 1.0:
            raise ValueError(f"rel_cutoff must lie in [0, 1), got {self.rel_cutoff!r}")
        if not (math.isfinite(self.ridge) and self.ridge >= 0.0):
            raise ValueError(f"ridge must be finite and >= 0, got {self.ridge!r}")


@dataclass(frozen=True)
class InversionResult:
    expansion: JacobiExpansion
    singular_values: np.ndarray
    effective_rank: int
    residual_norm: float
    settings: InversionSettings

    def __post_init__(self) -> None:
        self.singular_values.flags.writeable = False


def invert(
    spectrum: Spectrum, num_coeffs: int, settings: InversionSettings | None = None
) -> InversionResult:
    """Recover basis coefficients from observed eigenvalues by truncated SVD.

    Solves the least-squares problem for the forward matrix, discarding the
    singular directions below the relative cutoff (and, if requested, ridge-
    filtering the rest).  A zero spectrum recovers exactly zero coefficients.
    """
    if settings is None:
        settings = InversionSettings()
    m = forward_matrix(spectrum.d, spectrum.max_index, num_coeffs)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = s > settings.rel_cutoff * s[0]
    if settings.ridge > 0.0:
        filt = s[keep] / (s[keep] ** 2 + settings.ridge)
    else:
        filt = 1.0 / s[keep]
    coef = vt[keep].T @ (filt * (u[:, keep].T @ spectrum.eigenvalues))
    residual = float(np.linalg.norm(m @ coef - spectrum.eigenvalues))
    return InversionResult(
        expansion=JacobiExpansion(d=spectrum.d, coeffs=coef),
        singular_values=s,
        effective_rank=int(np.count_nonzero(keep)),
        residual_norm=residual,
        settings=settings,
    )
