"""Command-line front end.

Subcommands:

* ``eigvals``   - spectrum by both routes, per-degree agreement and decay margins
* ``basis``     - orthonormality and monomial-reconstruction self-checks
* ``verify``    - brute-force cross-validation against explicit harmonics (d = 2, 3)
* ``truncate``  - finite-rank truncation error against its a-priori bound
* ``invert``    - recover basis coefficients from a spectrum

Exit codes: 0 success, 1 a numerical check failed, 2 bad configuration or
input (sizes past the caps below ``MAX_DIM`` included), 3 requested
verification is unsupported in that dimension.

Output goes to stdout or ``--out`` as CSV (records table, then ``# key = value``
summary lines) or JSON (metadata + records + summary).  Floats are printed
with ``repr``, i.e. shortest round-trip form; the JSON metadata carries a
timestamp, which is the only field that varies between identical runs.  Each
subcommand hands its records over as columns, and ``_emit`` formats each
column once: the JSON is byte for byte ``json.dumps(doc, indent=2)`` and the
CSV the same as written cell by cell, without walking every cell in Python's
pure-Python JSON encoder.  ``main`` builds its argument parser once per
process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import jacobi, operator, profiles
from .numerics import gauss_legendre
from .oracle import cross_validate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_UNSUPPORTED = 3


class ConfigError(Exception):
    """Bad flags or malformed input files; maps to exit code 2."""


# --------------------------------------------------------------------------
# input handling


def _parse_preset(text: str) -> profiles.RadialProfile:
    name, _, tail = text.partition(":")
    params = [p for p in tail.split(",") if p] if tail else []
    try:
        values = [float(p) for p in params]
    except ValueError:
        raise ConfigError(f"preset parameters must be numbers, got {tail!r}") from None
    try:
        return profiles.preset(name, values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _resolve_profile(args) -> tuple[profiles.RadialProfile, int]:
    """Profile plus dimension from --preset/--profile/--dim."""
    sources = (args.preset is not None) + (args.profile is not None)
    if sources != 1:
        raise ConfigError("exactly one of --preset or --profile is required")
    if args.preset is not None:
        if args.dim is None:
            raise ConfigError("--dim is required with --preset")
        profile, d = _parse_preset(args.preset), args.dim
    else:
        profile, d = _read_profile_file(args)
    # finite coefficients can still square past the float range, and the
    # decay bound C_d ||eta|| past it again
    norm = profiles.norm_ball_profile(profile, d)
    if not math.isfinite(operator.decay_constant(d) * norm):
        raise ConfigError(
            f"the profile's L2 norm over the ball in d = {d} is not finite, "
            "or its decay bound C_d * norm is not"
        )
    return profile, d


def _read_profile_file(args) -> tuple[profiles.RadialProfile, int]:
    try:
        doc = json.loads(Path(args.profile).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read profile file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"profile file is not valid JSON: {exc}") from None
    try:
        profile, d_doc = profiles.profile_from_dict(doc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.dim is not None and d_doc is not None and args.dim != d_doc:
        raise ConfigError(
            f"--dim {args.dim} contradicts the profile file's dimension {d_doc}"
        )
    d = args.dim if args.dim is not None else d_doc
    if d is None:
        raise ConfigError("no dimension given: pass --dim or put one in the profile file")
    return profile, d


def _load_spectrum(path: str, d: int) -> operator.Spectrum:
    """Two-column (ell, lambda) CSV; degrees must be exactly 1..L."""
    rows: list[tuple[int, float]] = []
    header_seen = False
    try:
        with open(path, newline="") as fh:
            for i, row in enumerate(csv.reader(fh)):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                try:
                    rows.append((int(row[0]), float(row[1])))
                except (ValueError, IndexError):
                    if not rows and not header_seen:  # tolerate one header line
                        header_seen = True
                        continue
                    raise ConfigError(
                        f"line {i + 1} of {path}: expected 'ell,lambda', got {row!r}"
                    ) from None
                if len(rows) > MAX_INVERT_L:
                    raise ConfigError(f"{path} holds more than {MAX_INVERT_L} spectrum rows")
    except OSError as exc:
        raise ConfigError(f"cannot read spectrum file: {exc}") from None
    if not rows:
        raise ConfigError(f"no spectrum rows found in {path}")
    rows.sort()
    ells = [e for e, _ in rows]
    if ells != list(range(1, len(rows) + 1)):
        raise ConfigError(f"spectrum degrees must be exactly 1..L, got {ells}")
    values = np.array([v for _, v in rows])
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"spectrum values in {path} must be finite")
    # the generating profile (and hence its norm) is unknown for external data
    return operator.Spectrum(d=d, eigenvalues=values, source="external", eta_norm=0.0)


# --------------------------------------------------------------------------
# output handling


def _plain(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    raise TypeError(f"cannot serialise {type(value).__name__}")


# json.dumps's spelling of the floats that float.__repr__ writes as nan/inf
_JSON_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _cells(values, json_out: bool) -> list[str]:
    """Every cell of one column as text, formatted by the type of its first
    value: floats by ``float.__repr__`` (what json.dumps writes, and the
    shortest round-trip form), bools as true/false, strings quoted in JSON
    by the encoder json.dumps itself uses for a str (so the same bytes) and
    as they are in CSV."""
    items = values.tolist() if isinstance(values, np.ndarray) else list(values)
    if not items:
        return []
    first = items[0]
    if isinstance(first, bool):
        return ["true" if v else "false" for v in items]
    if isinstance(first, float):
        cells = list(map(float.__repr__, items))
        if json_out and not all(map(math.isfinite, items)):
            cells = [_JSON_CONSTANTS.get(c, c) for c in cells]
        return cells
    if isinstance(first, int):
        return list(map(int.__repr__, items))
    if isinstance(first, str):
        return list(map(encode_basestring_ascii, items)) if json_out else items
    raise TypeError(f"cannot serialise a column of {type(first).__name__}")


def _json_value(value) -> str:
    """json.dumps(value, indent=2) as it reads one level deep in a document."""
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def _emit(args, meta: dict, columns: dict, summary: dict) -> None:
    """Write one result.  ``columns`` maps each record field, in order, to a
    1-d array or list with one value per record.

    The bytes equal those of ``json.dumps(doc, indent=2)`` (JSON) or of the
    record-by-record CSV writer, but each column is formatted once and the
    JSON records come from one per-record template: the generic encoder
    would walk every cell in pure Python.
    """
    meta = _plain(meta)
    summary = _plain(summary)
    json_out = args.format == "json"
    keys = list(columns)
    rows = list(zip(*(_cells(columns[k], json_out) for k in keys), strict=True))
    if json_out:
        meta = {**meta, "timestamp": datetime.now(timezone.utc).isoformat()}
        records = "[]"
        if rows:
            fields = ",\n".join(f"      {json.dumps(k).replace('%', '%%')}: %s" for k in keys)
            template = "    {\n" + fields + "\n    }"
            records = "[\n" + ",\n".join(map(template.__mod__, rows)) + "\n  ]"
        text = (
            f'{{\n  "meta": {_json_value(meta)},\n  "records": {records},\n'
            f'  "summary": {_json_value(summary)}\n}}\n'
        )
    else:
        lines = []
        if rows:
            lines.append(",".join(keys))
            lines.extend(map(",".join, rows))
        for key, value in {**summary, **{f"meta.{k}": v for k, v in meta.items()}}.items():
            lines.append(f"# {key} = {json.dumps(value)}")
        text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# subcommands


def _cmd_eigvals(args) -> int:
    profile, d = _resolve_profile(args)
    report = operator.dual_route(profile, d, args.L, coeff_degree=args.K, tol=args.tol_dual)
    decay = operator.verify_decay_bound(report.moment)
    columns = {
        "ell": np.arange(1, args.L + 1),
        "lambda_series": report.series.eigenvalues,
        "lambda_moment": report.moment.eigenvalues,
        "scaled_diff": report.scaled_diffs,
        "decay_bound": decay.bounds,
        "margin": decay.margins,
    }
    summary = {
        "max_scaled_diff": report.max_scaled_diff,
        "dual_ok": report.ok,
        "decay_ok": decay.ok,
        "decay_violations": list(decay.violations),
        "eta_norm": report.moment.eta_norm,
        "decay_constant": operator.decay_constant(d),
        "scaled_sup": decay.scaled_sup,
        "series_source": report.series.source,
        "series_tail_bound": float(report.tail_bounds.max()),
    }
    meta = {
        "command": "eigvals",
        "dimension": d,
        "L": args.L,
        "coeff_degree": report.coeff_degree,
        "tol_dual": args.tol_dual,
        "profile": profiles.profile_to_dict(profile),
    }
    _emit(args, meta, columns, summary)
    return EXIT_OK if (report.ok and decay.ok) else EXIT_CHECK_FAILED


def _cmd_basis(args) -> int:
    d, kmax = args.dim, args.K
    family = jacobi.build_family(d, kmax)
    rule = gauss_legendre(kmax + d)  # covers degree 2*kmax + d - 1
    pts = np.linspace(0.0, 1.0, 50)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        table = jacobi.evaluate_table(family, rule.nodes)
        pts_table = jacobi.evaluate_table(family, pts)  # one table serves every degree
    if not (np.all(np.isfinite(table)) and np.all(np.isfinite(pts_table))):
        # as in profiles.project: the basis grows like binomial(k + d/2, k) near r = 0
        raise profiles.BasisOverflowError(
            f"the basis up to degree {kmax} overflows at the check points in d = {d}"
        )
    # Gram matrix A A^T with A = table * sqrt(w r**(d-1)), the root formed in
    # log space: w r**(d-1) itself goes subnormal at the smallest nodes from
    # about d = 200 on, and the rounded weights then fail a correct basis
    root = np.exp(0.5 * (np.log(rule.weights) + (d - 1) * np.log(rule.nodes)))
    scaled = table * root
    gram = scaled @ scaled.T
    gram_diag = float(np.abs(np.diag(gram) - 1.0).max())
    gram_off = float(np.abs(gram - np.diag(np.diag(gram))).max())
    # the rounding error of sum_j c_j P_j(x) grows with sum_j |c_j P_j(x)|, which
    # grows with d and k, so the reconstruction error is divided by max(1, that
    # sum) before it is gated, as the surface-gradient identity is in verify.
    # Row k of the lower-triangular ``coeffs`` expands r**k, so one product
    # checks every degree at once.
    coeffs = np.zeros((kmax + 1, kmax + 1))
    for k in range(kmax + 1):
        coeffs[k, : k + 1] = jacobi.monomial_coefficients(d, k).coeffs
    err = np.abs(coeffs @ pts_table - pts ** np.arange(kmax + 1)[:, None])
    np.abs(coeffs, out=coeffs)  # in place: one (K+1)^2 array, not two
    scale = np.maximum(1.0, coeffs @ np.abs(pts_table))
    recon = float((err / scale).max())
    tol = args.tol_basis
    errors = {"gram_offdiag": gram_off, "gram_diag": gram_diag, "monomial_reconstruction": recon}
    passed = [err <= tol for err in errors.values()]
    columns = {
        "check": list(errors),
        "max_error": list(errors.values()),
        "tol": [tol] * len(errors),
        "pass": passed,
    }
    summary = {"all_ok": all(passed)}
    meta = {
        "command": "basis",
        "dimension": d,
        "K": kmax,
        "tol_basis": tol,
    }
    _emit(args, meta, columns, summary)
    return EXIT_OK if summary["all_ok"] else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    profile, d = _resolve_profile(args)
    if d not in (2, 3):
        print(
            f"error: brute-force verification needs explicit harmonics, which are "
            f"only available for d = 2 and d = 3 (got d = {d})",
            file=sys.stderr,
        )
        return EXIT_UNSUPPORTED
    report = cross_validate(profile, d, args.L)
    # the upper triangle row by row; fmax is Python's max(1.0, x), NaN included
    i, j = np.triu_indices(len(report.labels))
    diag = i == j
    entry = report.entries[i, j]
    reference = np.where(diag, report.reference[i], 0.0)
    abs_error = np.abs(entry - reference)
    tol = np.where(
        diag, report.tol_diag * np.fmax(1.0, np.abs(reference)), report.tol_offdiag
    )
    labels = np.array(report.labels)
    columns = {
        "h1": labels[i],
        "h2": labels[j],
        "entry": entry,
        "reference": reference,
        "abs_error": abs_error,
        "pass": abs_error <= tol,
    }
    summary = {
        "max_offdiag": report.max_offdiag,
        "max_diag_scaled": report.max_diag_scaled,
        "gradient_identity_max_defect": report.identity_defect,
        "gradient_identity_scaled_defect": report.identity_scaled_defect,
        "ok": report.ok,
    }
    meta = {
        "command": "verify",
        "dimension": d,
        "L": args.L,
        "tol_offdiag": report.tol_offdiag,
        "tol_diag": report.tol_diag,
        "profile": profiles.profile_to_dict(profile),
    }
    _emit(args, meta, columns, summary)
    return EXIT_OK if summary["ok"] else EXIT_CHECK_FAILED


def _cmd_truncate(args) -> int:
    profile, d = _resolve_profile(args)
    if args.N > args.L:
        raise ConfigError(f"--N must lie in 0..L={args.L}, got {args.N}")
    spectrum = operator.spectrum_moment(profile, d, args.L)
    reports = [
        operator.truncation_error(operator.truncate(spectrum, cutoff))
        for cutoff in range(args.N + 1)
    ]
    columns = {
        "cutoff": [rep.cutoff for rep in reports],
        "tail_norm": [rep.tail_norm for rep in reports],
        "apriori_bound": [rep.apriori_bound for rep in reports],
        "pass": [rep.ok for rep in reports],
    }
    monotone = all(b.tail_norm <= a.tail_norm for a, b in zip(reports, reports[1:]))
    bounded = all(columns["pass"])
    summary = {"monotone": monotone, "all_bounded": bounded, "ok": monotone and bounded}
    meta = {
        "command": "truncate",
        "dimension": d,
        "L": args.L,
        "N": args.N,
        "profile": profiles.profile_to_dict(profile),
    }
    _emit(args, meta, columns, summary)
    return EXIT_OK if summary["ok"] else EXIT_CHECK_FAILED


def _cmd_invert(args) -> int:
    if args.spectrum is not None:
        if args.preset is not None or args.profile is not None:
            raise ConfigError("--spectrum cannot be combined with --preset/--profile")
        if args.dim is None:
            raise ConfigError("--dim is required with --spectrum")
        spectrum = _load_spectrum(args.spectrum, args.dim)
    else:
        profile, d = _resolve_profile(args)
        spectrum = operator.spectrum_moment(profile, d, args.L)
    try:
        settings = operator.InversionSettings(rel_cutoff=args.tau, ridge=args.alpha)
        result = operator.invert(spectrum, args.K, settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    coeffs = result.expansion.coeffs
    columns = {"k": np.arange(coeffs.size), "coefficient": coeffs}
    summary = {
        "singular_values": list(result.singular_values),
        "effective_rank": result.effective_rank,
        "residual_norm": result.residual_norm,
    }
    meta = {
        "command": "invert",
        "dimension": spectrum.d,
        "L": spectrum.max_index,
        "K": args.K,
        "tau": args.tau,
        "alpha": args.alpha,
        "spectrum_source": spectrum.source,
    }
    _emit(args, meta, columns, summary)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


# Largest accepted sizes.  MAX_DIM is the largest d with a finite decay
# constant C_d (log C_d = 709.74 at d = 520), so every output of eigvals,
# truncate and invert stays finite.  The others keep the largest accepted
# run of each subcommand under 5 s and 500 MB, measured with
# annulus:0.3,0.8,1 on a shared 2-vCPU host: eigvals --L 30000 at d = 2
# 2.5 s and 300 MB; basis --K 1500 4 s and 110 MB; truncate --L 30000
# --N 30000 0.8 s and 60 MB; verify --L 90 at d = 2 0.5 s and 47 MB (0.7 s
# for a profile of 1,000 pieces: the oracle's cost is linear in the piece
# count); invert --L 1500 --K 2999 3.6 s and 240 MB (the SVD of the L x K
# forward matrix; a --spectrum file may hold as many degrees).
MAX_DIM = 520
MAX_L = 30_000
MAX_BASIS_K = 1_500
MAX_VERIFY_L = 90
MAX_INVERT_L = 1_500


def _at_least(low: float, cast=int, high: float = math.inf):
    """argparse type: a finite ``cast(text)`` in low..high (out of range exits 2)."""

    def parse(text: str):
        value = cast(text)
        if not (math.isfinite(value) and low <= value <= high):
            limits = f">= {low}" if high == math.inf else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {limits}, got {text!r}")
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


_dimension = _at_least(2, high=MAX_DIM)


def _add_io_flags(sub) -> None:
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", help="write output here instead of stdout")


def _add_profile_flags(sub) -> None:
    sub.add_argument("--dim", type=_dimension, help=f"ambient dimension (2..{MAX_DIM})")
    sub.add_argument(
        "--preset",
        help="stock profile, e.g. constant:1, ramp:0.5, annulus:0.3,0.8,1, "
        "polynomial:1,0,-2",
    )
    sub.add_argument("--profile", help="JSON profile file (breakpoints/pieces/dimension)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radialeit",
        description="Spectral analysis of the linearized boundary-measurement map "
        "for radial perturbations of the unit ball",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eigvals", help="eigenvalues by both routes, with decay margins")
    _add_profile_flags(p)
    p.add_argument(
        "--L", type=_at_least(1, high=MAX_L), default=20, help="largest harmonic degree"
    )
    p.add_argument(
        "--K", type=_at_least(0), default=None, help="expansion degree for the series route"
    )
    p.add_argument("--tol-dual", type=_at_least(0.0, float), default=1e-8, dest="tol_dual")
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_eigvals)

    p = subs.add_parser("basis", help="orthonormality / reconstruction self-checks")
    p.add_argument(
        "--dim", type=_dimension, required=True, help=f"ambient dimension (2..{MAX_DIM})"
    )
    p.add_argument(
        "--K", type=_at_least(0, high=MAX_BASIS_K), default=40, help="largest basis degree checked"
    )
    p.add_argument("--tol-basis", type=_at_least(0.0, float), default=1e-10, dest="tol_basis")
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_basis)

    p = subs.add_parser("verify", help="brute-force cross-validation (d = 2, 3)")
    _add_profile_flags(p)
    p.add_argument(
        "--L", type=_at_least(1, high=MAX_VERIFY_L), default=5, help="largest harmonic degree"
    )
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser("truncate", help="finite-rank truncation error report")
    _add_profile_flags(p)
    p.add_argument("--L", type=_at_least(1, high=MAX_L), default=50, help="spectrum length")
    p.add_argument(
        "--N", type=_at_least(0, high=MAX_L), default=10, help="largest cutoff to report"
    )
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_truncate)

    p = subs.add_parser("invert", help="recover coefficients from a spectrum")
    _add_profile_flags(p)
    p.add_argument(
        "--L",
        type=_at_least(1, high=MAX_INVERT_L),
        default=10,
        help="spectrum length (profile input)",
    )
    p.add_argument("--K", type=int, default=5, help="number of coefficients to recover")
    p.add_argument("--spectrum", help="two-column (ell,lambda) CSV file")
    p.add_argument("--tau", type=float, default=1e-10, help="relative SVD cutoff")
    p.add_argument("--alpha", type=float, default=0.0, help="ridge weight")
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_invert)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state in the parser, so
    # every call (a failed one included) starts from the same parser
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return EXIT_OK if code == 0 else EXIT_CONFIG
    try:
        return args.handler(args)
    except (ConfigError, profiles.BasisOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
