"""Command-line front end.

Subcommands:

* ``eigvals``   - spectrum by both routes, per-degree agreement and decay margins
* ``basis``     - orthonormality and monomial-reconstruction self-checks
* ``verify``    - brute-force cross-validation against explicit harmonics (d = 2, 3)
* ``truncate``  - finite-rank truncation error against its a-priori bound
* ``invert``    - recover basis coefficients from a spectrum

Exit codes: 0 success, 1 a numerical check failed, 2 bad configuration or
input, 3 requested verification is unsupported in that dimension.

Output goes to stdout or ``--out`` as CSV (records table, then ``# key = value``
summary lines) or JSON (metadata + records + summary).  Floats are printed
with ``repr``, i.e. shortest round-trip form; the JSON metadata carries a
timestamp, which is the only field that varies between identical runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
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


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(args, meta: dict, records: list[dict], summary: dict) -> None:
    meta = _plain(meta)
    records = [_plain(r) for r in records]
    summary = _plain(summary)
    if args.format == "json":
        doc = {
            "meta": {**meta, "timestamp": datetime.now(timezone.utc).isoformat()},
            "records": records,
            "summary": summary,
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = []
        if records:
            keys = list(records[0])
            lines.append(",".join(keys))
            for rec in records:
                lines.append(",".join(_csv_cell(rec[k]) for k in keys))
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
    try:
        report = operator.dual_route(profile, d, args.L, coeff_degree=args.K, tol=args.tol_dual)
    except profiles.BasisOverflowError as exc:
        raise ConfigError(str(exc)) from None
    decay = operator.verify_decay_bound(report.moment)
    records = [
        {
            "ell": i + 1,
            "lambda_series": report.series.eigenvalues[i],
            "lambda_moment": report.moment.eigenvalues[i],
            "scaled_diff": report.scaled_diffs[i],
            "decay_bound": decay.bounds[i],
            "margin": decay.margins[i],
        }
        for i in range(args.L)
    ]
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
    _emit(args, meta, records, summary)
    return EXIT_OK if (report.ok and decay.ok) else EXIT_CHECK_FAILED


def _cmd_basis(args) -> int:
    d, kmax = args.dim, args.K
    family = jacobi.build_family(d, kmax)
    rule = gauss_legendre(kmax + d)  # covers degree 2*kmax + d - 1
    table = jacobi.evaluate_table(family, rule.nodes)
    gram = (table * (rule.weights * rule.nodes ** (d - 1))) @ table.T
    gram_diag = float(np.abs(np.diag(gram) - 1.0).max())
    gram_off = float(np.abs(gram - np.diag(np.diag(gram))).max())
    pts = np.linspace(0.0, 1.0, 50)
    pts_table = jacobi.evaluate_table(family, pts)  # one table serves every degree
    recon = 0.0
    for k in range(kmax + 1):
        coeffs = jacobi.monomial_coefficients(d, k).coeffs
        recon = max(recon, float(np.abs(coeffs @ pts_table[: k + 1] - pts**k).max()))
    tol = args.tol_basis
    records = [
        {"check": "gram_offdiag", "max_error": gram_off, "tol": tol, "pass": gram_off <= tol},
        {"check": "gram_diag", "max_error": gram_diag, "tol": tol, "pass": gram_diag <= tol},
        {
            "check": "monomial_reconstruction",
            "max_error": recon,
            "tol": tol,
            "pass": recon <= tol,
        },
    ]
    summary = {"all_ok": all(r["pass"] for r in records)}
    meta = {
        "command": "basis",
        "dimension": d,
        "K": kmax,
        "tol_basis": tol,
    }
    _emit(args, meta, records, summary)
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
    records = []
    n = len(report.labels)
    for i in range(n):
        for j in range(i, n):
            ref = report.reference[i] if i == j else 0.0
            err = abs(report.entries[i, j] - ref)
            tol = (
                report.tol_diag * max(1.0, abs(ref)) if i == j else report.tol_offdiag
            )
            records.append(
                {
                    "h1": report.labels[i],
                    "h2": report.labels[j],
                    "entry": report.entries[i, j],
                    "reference": ref,
                    "abs_error": err,
                    "pass": err <= tol,
                }
            )
    summary = {
        "max_offdiag": report.max_offdiag,
        "max_diag_scaled": report.max_diag_scaled,
        "gradient_identity_max_defect": report.identity_defect,
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
    _emit(args, meta, records, summary)
    return EXIT_OK if summary["ok"] else EXIT_CHECK_FAILED


def _cmd_truncate(args) -> int:
    profile, d = _resolve_profile(args)
    if not 0 <= args.N <= args.L:
        raise ConfigError(f"--N must lie in 0..L={args.L}, got {args.N}")
    spectrum = operator.spectrum_moment(profile, d, args.L)
    reports = [
        operator.truncation_error(operator.truncate(spectrum, cutoff))
        for cutoff in range(args.N + 1)
    ]
    records = [
        {
            "cutoff": rep.cutoff,
            "tail_norm": rep.tail_norm,
            "apriori_bound": rep.apriori_bound,
            "pass": rep.ok,
        }
        for rep in reports
    ]
    monotone = all(b.tail_norm <= a.tail_norm for a, b in zip(reports, reports[1:]))
    summary = {
        "monotone": monotone,
        "all_bounded": all(r["pass"] for r in records),
        "ok": monotone and all(r["pass"] for r in records),
    }
    meta = {
        "command": "truncate",
        "dimension": d,
        "L": args.L,
        "N": args.N,
        "profile": profiles.profile_to_dict(profile),
    }
    _emit(args, meta, records, summary)
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
    records = [{"k": k, "coefficient": c} for k, c in enumerate(result.expansion.coeffs)]
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
    _emit(args, meta, records, summary)
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


# Largest accepted sizes.  MAX_DIM is the largest d with a finite decay
# constant C_d (log C_d = 709.74 at d = 520), so every output of eigvals,
# truncate and invert stays finite.  MAX_L and MAX_BASIS_K keep the largest
# accepted eigvals and basis runs under 5 s and 500 MB (measured on a shared
# 2-vCPU host: 2.5 s and 300 MB for eigvals --L 30000 at d = 2, 3.5 s and
# 120 MB for basis --K 1500).
MAX_DIM = 520
MAX_L = 30_000
MAX_BASIS_K = 1_500


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
    p.add_argument("--L", type=_at_least(1), default=5, help="largest harmonic degree")
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser("truncate", help="finite-rank truncation error report")
    _add_profile_flags(p)
    p.add_argument("--L", type=_at_least(1), default=50, help="spectrum length")
    p.add_argument("--N", type=int, default=10, help="largest cutoff to report")
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_truncate)

    p = subs.add_parser("invert", help="recover coefficients from a spectrum")
    _add_profile_flags(p)
    p.add_argument("--L", type=_at_least(1), default=10, help="spectrum length (profile input)")
    p.add_argument("--K", type=int, default=5, help="number of coefficients to recover")
    p.add_argument("--spectrum", help="two-column (ell,lambda) CSV file")
    p.add_argument("--tau", type=float, default=1e-10, help="relative SVD cutoff")
    p.add_argument("--alpha", type=float, default=0.0, help="ridge weight")
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_invert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return EXIT_OK if code == 0 else EXIT_CONFIG
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
