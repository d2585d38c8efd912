"""Eigenstructure of the linearized boundary-measurement operator.

For a radial conductivity perturbation of the unit ball in R**d, the
linearized Neumann-to-Dirichlet map acts diagonally on spherical harmonics,
with one eigenvalue per degree ell >= 1 shared by the whole degree-ell
eigenspace.  Two independent routes to those eigenvalues are implemented:

* a finite series in the profile's orthonormal-basis coefficients, with
  factorial-ratio weights handled in log space, and
* a single weighted moment of the profile itself.

The series weight of coefficient k in eigenvalue ell depends on (d, ell, k)
only, so ``spectrum_series`` keeps one read-only band of weights per
dimension, grown to cover each request and bounded in total size, and reads
every degree's weights as a slice of it.

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


def _band(max_index: int, num_coeffs: int) -> tuple[np.ndarray, np.ndarray]:
    # (ell, k) of every weight that can be non-zero, row by row; int32 saves memory
    rows, k = np.nonzero(np.arange(num_coeffs) <= 2 * np.arange(max_index)[:, None])
    return (rows + 1).astype(np.int32), k.astype(np.int32)


def _row_lengths(max_index: int, num_coeffs: int) -> np.ndarray:
    # entries per row of _band: degree ell has min(num_coeffs, 2*ell - 1)
    return np.minimum(num_coeffs, 2 * np.arange(max_index) + 1)


def _series_weights(d: int, ell, k) -> np.ndarray:
    # weight of coefficient a_k in lambda_ell: (-1)**(k+1) sqrt(2k+d)/ell * ratio;
    # integer arrays ell and k broadcast
    ratio = np.exp(log_factorial_ratio(ell, k, d))
    return np.where(k % 2 == 0, -1.0, 1.0) * np.sqrt(2.0 * k + d) / ell * ratio


@dataclass(frozen=True)
class _WeightBand:
    """The series weights of one dimension for degrees 1..max_index and
    coefficients 0..num_coeffs - 1: the rows of ``_band``, back to back."""

    max_index: int
    num_coeffs: int
    weights: np.ndarray  # read-only
    starts: list  # row ell begins at weights[starts[ell - 1]]


# Every weight depends on (d, ell, k) alone, so the rows of a smaller band are
# prefixes of a larger band's rows: one band per dimension serves every request
# inside it.  At most _BAND_CAP weights (32 MB) are held over all dimensions.
_BAND_CAP = 1 << 22
_weight_bands: dict[int, _WeightBand] = {}


def _weight_band(d: int, max_index: int, num_coeffs: int) -> _WeightBand:
    held = _weight_bands.get(d)
    if held is not None:
        if max_index <= held.max_index and num_coeffs <= held.num_coeffs:
            return held
        both = max(max_index, held.max_index), max(num_coeffs, held.num_coeffs)
        if _row_lengths(*both).sum() <= _BAND_CAP:
            max_index, num_coeffs = both
    weights = _series_weights(d, *_band(max_index, num_coeffs))
    weights.flags.writeable = False
    lengths = _row_lengths(max_index, num_coeffs)
    starts = (np.cumsum(lengths) - lengths).tolist()
    band = _WeightBand(max_index, num_coeffs, weights, starts)
    if weights.size <= _BAND_CAP:
        _weight_bands.pop(d, None)
        _weight_bands[d] = band
        held_total = sum(b.weights.size for b in _weight_bands.values())
        for other in list(_weight_bands)[:-1]:  # oldest first
            if held_total <= _BAND_CAP:
                break
            held_total -= _weight_bands.pop(other).weights.size
    return band


def eigenvalue_series(expansion: JacobiExpansion, ell: int) -> float:
    """Degree-ell eigenvalue from the basis coefficients.

    Only coefficients up to degree 2*ell - 2 enter; if the expansion carries
    fewer, the partial sum is returned (the eigenvalue of the truncated
    profile).
    """
    if ell < 1:
        raise ValueError(f"degree must be >= 1, got {ell}")
    kmax = min(expansion.max_degree, 2 * ell - 2)
    weights = _series_weights(expansion.d, ell, np.arange(kmax + 1))
    return float(weights @ expansion.coeffs[: kmax + 1])


def spectrum_series(expansion: JacobiExpansion, max_index: int) -> Spectrum:
    """Eigenvalues for degrees 1..max_index from the coefficient series."""
    if max_index < 1:
        raise ValueError(f"max_index must be >= 1, got {max_index}")
    kmax = min(expansion.max_degree, 2 * max_index - 2)
    band = _weight_band(expansion.d, max_index, kmax + 1)
    # One dot product per degree, over its band k <= min(kmax, 2*ell - 2) only:
    # a single dense weights @ coeffs sums in another order and moves the last bits.
    lengths = _row_lengths(max_index, kmax + 1).tolist()
    w, c = band.weights, expansion.coeffs
    vals = np.array([w[s : s + n] @ c[:n] for s, n in zip(band.starts, lengths)])
    return Spectrum(
        d=expansion.d,
        eigenvalues=vals,
        source="series" if kmax == 2 * max_index - 2 else "series-truncated",
        eta_norm=norm_ball(expansion),
    )


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
    """Per-degree agreement of the two eigenvalue routes."""

    series: Spectrum
    moment: Spectrum
    scaled_diffs: np.ndarray  # |series - moment| / max(1, |moment|) per degree
    tol: float

    def __post_init__(self) -> None:
        self.scaled_diffs.flags.writeable = False

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
    default 2*max_index - 2 is the smallest that makes the series complete
    for every requested degree.  The series reads no coefficient above it, so
    a larger ``coeff_degree`` is cut down to it.
    """
    from .profiles import project  # local import keeps module deps one-way

    complete = max(2 * max_index - 2, 0)
    coeff_degree = complete if coeff_degree is None else min(coeff_degree, complete)
    series = spectrum_series(project(profile, d, coeff_degree), max_index)
    moment = spectrum_moment(profile, d, max_index)
    diffs = np.abs(series.eigenvalues - moment.eigenvalues) / np.maximum(
        1.0, np.abs(moment.eigenvalues)
    )
    return DualRouteReport(series=series, moment=moment, scaled_diffs=diffs, tol=tol)


# --------------------------------------------------------------------------
# decay bounds


def decay_constant(d: int) -> float:
    """Constant C_d in the bound |lambda_ell| <= C_d ||eta||_{L2(ball)} ell**(-1/2):
    C_d = d * (e**2/pi)**(d/4) * sqrt(2 * Gamma(d/2))."""
    d = _check_dimension(d)
    return d * (math.e**2 / math.pi) ** (d / 4.0) * math.sqrt(2.0 * math.exp(log_gamma(d / 2.0)))


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
    ell, k = _band(max_index, 2 * max_index - 1)
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
    lambda_1..lambda_max_index; entry (ell, k) vanishes for k > 2*ell - 2.
    These are the series-route weights, all from one log-factorial table."""
    if max_index < 1:
        raise ValueError(f"max_index must be >= 1, got {max_index}")
    if not 1 <= num_coeffs <= 2 * max_index - 1:
        raise ValueError(
            f"num_coeffs must lie in 1..{2 * max_index - 1} for max_index={max_index}"
        )
    ell, k = _band(max_index, num_coeffs)
    w = _series_weights(d, ell, k)
    m = np.zeros((max_index, num_coeffs))  # allocated last: keeps the peak low
    m[ell - 1, k] = w
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
