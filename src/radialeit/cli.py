"""Command-line front end.

Subcommands:

* ``eigvals``   - spectrum by both routes, per-degree agreement and decay margins
* ``basis``     - orthonormality and monomial-reconstruction self-checks
* ``verify``    - brute-force cross-validation against explicit harmonics (d = 2, 3)
* ``truncate``  - finite-rank truncation error against its a-priori bound
* ``invert``    - recover basis coefficients from a spectrum

Exit codes: 0 success, 1 a numerical check failed, 2 a refused input (bad
flags, sizes and profiles past the caps below ``MAX_DIM``, an unwritable
``--out``, a value past the float range), 3 no explicit harmonics for
``verify`` in that dimension.  Every refusal, the CLI's own and the library's,
is a ``jacobi.InputError`` raised where it is checked; ``main`` maps that one
class (``oracle.UnsupportedDimensionError`` to 3) and lets the rest propagate.

Output goes to stdout or ``--out`` as CSV (records table, then ``# key = value``
summary lines) or JSON (metadata + records + summary).  Floats are printed
with ``repr``, i.e. shortest round-trip form; the JSON metadata carries a
timestamp, which is the only field that varies between identical runs.  Each
subcommand returns its metadata, records (as columns), summary and verdict;
``main`` alone writes them and maps the verdict to the exit code.  ``_emit``
chooses each record column's cell type once, formats metadata and summary
with the standard library's JSON encoder (NumPy values taken as they are)
before the first write, and then formats and writes the records 4,096 at a
time, so the whole text is never held: the JSON is byte for byte
``json.dumps(doc, indent=2)``, the CSV as written cell by cell and each
``# key = value`` value ``json.dumps(value)``.  ``--out`` is rewritten in
place: opened without truncating, then cut after the new bytes if it was
longer, so it ends with the same bytes as a fresh file (not atomically: a
reader may see a mix of the old and the new text while it is written).
``main`` builds its argument parser once per process, and ``verify`` reads
its row layout from the per-(d, L) sphere plan its report carries.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import stat
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import jacobi, operator, profiles
from .jacobi import InputError
from .numerics import gauss_legendre
from .oracle import UnsupportedDimensionError, cross_validate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_UNSUPPORTED = 3

# the gate of each of basis's three self-checks (a fixed one: it takes no flag)
TOL_BASIS = 1e-12


# --------------------------------------------------------------------------
# input handling


def _parse_preset(text: str) -> profiles.RadialProfile:
    name, _, tail = text.partition(":")
    params = [p for p in tail.split(",") if p] if tail else []
    try:
        values = [float(p) for p in params]
    except ValueError:
        raise InputError(f"preset parameters must be numbers, got {tail!r}") from None
    return profiles.preset(name, values)


def _resolve_profile(args) -> tuple[profiles.RadialProfile, int]:
    """Profile plus dimension from --preset/--profile/--dim."""
    sources = (args.preset is not None) + (args.profile is not None)
    if sources != 1:
        raise InputError("exactly one of --preset or --profile is required")
    if args.preset is not None:
        if args.dim is None:
            raise InputError("--dim is required with --preset")
        profile, d = _parse_preset(args.preset), args.dim
    else:
        profile, d = _read_profile_file(args)
    _check_profile_size(args, profile, d)
    return profile, d


def _read_profile_file(args) -> tuple[profiles.RadialProfile, int]:
    try:
        doc = json.loads(Path(args.profile).read_text())
    except OSError as exc:
        raise InputError(f"cannot read profile file: {exc}") from None
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"profile file is not valid JSON: {exc}") from None
    pieces = doc.get("pieces") if isinstance(doc, dict) else None
    if isinstance(pieces, list) and len(pieces) > MAX_PIECES:  # before they are built
        raise InputError(
            f"the profile file holds {len(pieces)} pieces; at most {MAX_PIECES} are accepted"
        )
    profile, d_doc = profiles.profile_from_dict(doc)
    if d_doc is not None and d_doc > MAX_DIM:
        raise InputError(f"the profile file's dimension must be in 2..{MAX_DIM}, got {d_doc}")
    if args.dim is not None and d_doc is not None and args.dim != d_doc:
        raise InputError(f"--dim {args.dim} contradicts the profile file's dimension {d_doc}")
    d = args.dim if args.dim is not None else d_doc
    if d is None:
        raise InputError("no dimension given: pass --dim or put one in the profile file")
    return profile, d


def _check_profile_size(args, profile: profiles.RadialProfile, d: int) -> None:
    """Refuse a profile whose run would pass MAX_PROFILE_STEPS or
    MAX_PROJECTION_NODES, before any projection or moment is computed."""
    sizes = [p.size for p in profile.pieces]
    L = args.L
    steps = _PIECE_STEPS * len(sizes) + _MOMENT_STEPS * L * sum(sizes)
    nodes = 0
    if args.command == "eigvals":
        # the projection degree: the largest cut k*(ell) over ell <= L; one
        # piece of degree m is projected to degree m at most
        k = min(2 * L - 2, operator.cut_estimate(d, L))
        if len(sizes) == 1:
            k = min(k, sizes[0] - 1)
        nodes = sum(profiles.piece_rule_size(k, m - 1, d) for m in sizes)  # one rule per piece
        steps += (k + 1) * nodes
    elif args.command == "verify":
        # one Gauss rule per piece, exact for power 2L - 2, times 2L - 1 powers
        steps += (2 * L - 1) * sum(profiles.piece_rule_size(2 * L - 2, m - 1, d) for m in sizes)
    if steps > MAX_PROFILE_STEPS or nodes > MAX_PROJECTION_NODES:
        raise InputError(
            f"a profile of {len(sizes)} pieces and {sum(sizes)} coefficients is too large "
            f"for {args.command} at L = {L} in d = {d}: about {steps:.2g} steps "
            f"(at most {MAX_PROFILE_STEPS:.2g})"
            + (f" and {nodes} projection nodes (at most {MAX_PROJECTION_NODES})" if nodes else "")
        )


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


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
                    entry = int(row[0]), float(row[1])
                except (ValueError, IndexError):
                    entry = None
                    # tolerate one header line, whose first field is no number
                    if not rows and not header_seen and not _is_number(row[0]):
                        header_seen = True
                        continue
                if entry is None or len(row) != 2:
                    raise InputError(f"line {i + 1} of {path}: expected 'ell,lambda', got {row!r}")
                rows.append(entry)
                if len(rows) > MAX_INVERT_L:
                    raise InputError(f"{path} holds more than {MAX_INVERT_L} spectrum rows")
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"cannot read spectrum file: {exc}") from None
    if not rows:
        raise InputError(f"no spectrum rows found in {path}")
    rows.sort()
    ells = [e for e, _ in rows]
    if ells != list(range(1, len(rows) + 1)):
        raise InputError(f"spectrum degrees must be exactly 1..L, got {ells}")
    values = np.array([v for _, v in rows])
    if not np.all(np.isfinite(values)):
        raise InputError(f"spectrum values in {path} must be finite")
    # the generating profile (and hence its norm) is unknown for external data
    return operator.Spectrum(d=d, eigenvalues=values, eta_norm=0.0)


# --------------------------------------------------------------------------
# output handling


# json.dumps's spelling of the floats that float.__repr__ writes as nan/inf
_JSON_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# records formatted and written at a time: the text of at most this many is
# held at once, whatever the record count
_CHUNK_RECORDS = 4096


def _items(values, start: int, stop: int) -> list:
    """values[start:stop] of one column as plain Python values."""
    part = values[start:stop]
    return part.tolist() if isinstance(part, np.ndarray) else list(part)


def _float_cells(items: list, json_out: bool):
    cells = map(float.__repr__, items)
    if json_out and not all(map(math.isfinite, items)):
        return [_JSON_CONSTANTS.get(c, c) for c in cells]
    return cells


def _cell_writer(first, json_out: bool):
    """The function that turns a run of one column's values into cells of
    text, chosen once per column by the type of its first value: floats by
    ``float.__repr__`` (what json.dumps writes, and the shortest round-trip
    form), bools as true/false, strings quoted in JSON by the encoder
    json.dumps itself uses for a str (so the same bytes) and as they are in
    CSV."""
    if isinstance(first, bool):
        return lambda items: ["true" if v else "false" for v in items]
    if isinstance(first, float):
        return functools.partial(_float_cells, json_out=json_out)
    if isinstance(first, int):
        return lambda items: map(int.__repr__, items)
    if isinstance(first, str):
        return (lambda items: map(encode_basestring_ascii, items)) if json_out else list
    raise TypeError(f"cannot serialise a column of {type(first).__name__}")


def _plain(value):
    """``default`` of the encoders below: a NumPy array or scalar as the plain
    value it holds (np.float64 is a float, which the encoder writes itself)."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value).__name__}")


# json.dumps(value, indent=2) and json.dumps(value), NumPy values taken as they are
_indented = json.JSONEncoder(indent=2, default=_plain).encode
_compact = json.JSONEncoder(default=_plain).encode


def _emit(args, meta: dict, columns: dict, summary: dict) -> None:
    """Write one result.  ``columns`` maps each record field, in order, to a
    1-d array or list with one value per record.

    The bytes equal those of ``json.dumps(doc, indent=2)`` (JSON) or of the
    record-by-record CSV writer, but each column's cell type is chosen once
    and the JSON records come from one per-record template: with an indent,
    json.dumps runs its pure-Python encoder, which would walk every value.
    Meta and summary, which are small, go through the standard encoder
    (indented one level deep in JSON, compact on the CSV ``# key = value``
    lines) and may hold NumPy scalars and arrays as they are.  They are
    formatted before the first write; the records are then formatted and
    written ``_CHUNK_RECORDS`` at a time, so the whole text is never held.
    """
    json_out = args.format == "json"
    keys = list(columns)
    count = len(columns[keys[0]]) if keys else 0
    if any(len(columns[k]) != count for k in keys):
        raise ValueError("every record column must hold one value per record")
    cells = [_cell_writer(_items(columns[k], 0, 1)[0], json_out) for k in keys] if count else []
    if json_out:
        meta = {**meta, "timestamp": datetime.now(timezone.utc).isoformat()}
        meta, summary = (_indented(x).replace("\n", "\n  ") for x in (meta, summary))
        fields = ",\n".join(f"      {json.dumps(k).replace('%', '%%')}: %s" for k in keys)
        record, sep = ("    {\n" + fields + "\n    }").__mod__, ",\n"
        head = f'{{\n  "meta": {meta},\n  "records": ' + ("[\n" if count else "[]")
        tail = ("\n  ]" if count else "") + f',\n  "summary": {summary}\n}}\n'
    else:
        record, sep = ",".join, "\n"
        head = ",".join(keys) + "\n" if count else ""
        trailer = {**summary, **{f"meta.{k}": v for k, v in meta.items()}}
        trailer = "".join(f"# {key} = {_compact(value)}\n" for key, value in trailer.items())
        tail = "\n" + trailer if count else (trailer or "\n")

    def texts():
        yield head
        for start in range(0, count, _CHUNK_RECORDS):
            stop = start + _CHUNK_RECORDS
            rows = zip(*(cell(_items(columns[k], start, stop)) for cell, k in zip(cells, keys)))
            yield (sep if start else "") + sep.join(map(record, rows))
        yield tail

    _write(args.out, texts())


def _write(out: str | None, texts) -> None:
    """Write the strings of ``texts`` in turn to stdout, or to the file
    ``out`` from its first byte.  ``out`` is opened without O_TRUNC (on
    ext4, truncating a file whose last contents are not yet on disk makes
    its close start a flush, which the next truncate waits for) and a
    regular file is cut after the new bytes only when it was longer; other
    targets (/dev/null, a FIFO, /dev/stdout) are written as they are."""
    if not out:
        sys.stdout.writelines(texts)
        return
    try:
        with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
            before = os.fstat(fh.fileno())
            fh.writelines(texts)
            if stat.S_ISREG(before.st_mode) and before.st_size > fh.tell():
                fh.truncate()
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from None


# --------------------------------------------------------------------------
# subcommands


def _cmd_eigvals(args):
    profile, d = _resolve_profile(args)
    report = operator.dual_route(profile, d, args.L, tol=args.tol_dual)
    decay = report.decay
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
        "series_tail_bound": float(report.tail_bounds.max()),
    }
    meta = {
        "dimension": d,
        "L": args.L,
        "coeff_degree": report.coeff_degree,
        "tol_dual": args.tol_dual,
        "profile": profiles.profile_to_dict(profile),
    }
    return meta, columns, summary, report.ok and decay.ok


def _cmd_basis(args):
    d, kmax = args.dim, args.K
    rule = gauss_legendre(kmax + d)  # covers degree 2*kmax + d - 1
    pts = np.linspace(0.0, 1.0, 50)
    # one recurrence over the nodes and the check points: it runs point by
    # point, so its columns are the bits of a table per point set
    both = jacobi.evaluate_table(d, kmax, np.concatenate([rule.nodes, pts]))
    pts_table = both[:, rule.nodes.size :].copy()
    # Gram matrix A A^T with A = table * sqrt(w r**(d-1)), the root formed in
    # log space: w r**(d-1) itself goes subnormal at the smallest nodes from
    # about d = 200 on, and the rounded weights then fail a correct basis.
    # The table is scaled in place and dropped after its one product, so at
    # most the table and one (K+1)^2 array are held at once
    root = np.exp(0.5 * (np.log(rule.weights) + (d - 1) * np.log(rule.nodes)))
    scaled = both[:, : rule.nodes.size]
    scaled *= root
    gram = scaled @ scaled.T  # one product, so NumPy runs it as syrk
    del both, scaled
    diag = np.diagonal(gram)
    gram_diag = float(np.abs(diag - 1.0).max())
    # off the diagonal the entries as they are, on it d - d: an inf diagonal
    # reads NaN, as it would in gram - diag(diag(gram))
    np.fill_diagonal(gram, diag - diag)
    gram_off = float(np.abs(gram, out=gram).max())
    del gram, diag
    # the rounding error of sum_j c_j P_j(x) grows with sum_j |c_j P_j(x)|, which
    # grows with d and k, so the reconstruction error is divided by max(1, that
    # sum) before it is gated, as the surface-gradient identity is in verify.
    # Row k of the lower-triangular ``coeffs`` expands r**k, so one product
    # checks every degree at once; the abs values are taken in place.
    coeffs = np.zeros((kmax + 1, kmax + 1))
    for k in range(kmax + 1):
        coeffs[k, : k + 1] = jacobi.monomial_coefficients(d, k).coeffs
    err = coeffs @ pts_table
    err -= pts ** np.arange(kmax + 1)[:, None]
    np.abs(err, out=err)
    scale = np.abs(coeffs, out=coeffs) @ np.abs(pts_table, out=pts_table)
    np.maximum(1.0, scale, out=scale)
    err /= scale
    recon = float(err.max())
    tol = TOL_BASIS
    errors = {"gram_offdiag": gram_off, "gram_diag": gram_diag, "monomial_reconstruction": recon}
    passed = [err <= tol for err in errors.values()]
    columns = {
        "check": list(errors),
        "max_error": list(errors.values()),
        "tol": [tol] * len(errors),
        "pass": passed,
    }
    summary = {"all_ok": all(passed)}
    meta = {"dimension": d, "K": kmax, "tol_basis": tol}
    return meta, columns, summary, summary["all_ok"]


def _cmd_verify(args):
    profile, d = _resolve_profile(args)
    report = cross_validate(profile, d, args.L)
    plan = report.plan  # the upper triangle row by row
    i, j = plan.rows, plan.cols
    entry = report.entries[i, j]
    reference = np.where(plan.on_diag, report.reference[i], 0.0)
    columns = {
        "h1": plan.h1,
        "h2": plan.h2,
        "entry": entry,
        "reference": reference,
        "abs_error": np.abs(entry - reference),
        "pass": report.passes[i, j],
    }
    summary = {
        "max_offdiag": report.max_offdiag,
        "max_diag_scaled": report.max_diag_scaled,
        "gradient_identity_max_defect": plan.identity_defect,
        "gradient_identity_scaled_defect": plan.identity_scaled_defect,
        "ok": report.ok,
    }
    meta = {
        "dimension": d,
        "L": args.L,
        "tol_offdiag": report.tol_offdiag,
        "tol_diag": report.tol_diag,
        "profile": profiles.profile_to_dict(profile),
    }
    return meta, columns, summary, report.ok


def _cmd_truncate(args):
    profile, d = _resolve_profile(args)
    n = min(10, args.L) if args.N is None else args.N
    if n > args.L:
        raise InputError(f"--N must lie in 0..L={args.L}, got {n}")
    report = operator.truncation_error(operator.spectrum_moment(profile, d, args.L), n)
    columns = {
        "cutoff": np.arange(n + 1),
        "tail_norm": report.tail_norms,
        "apriori_bound": report.apriori_bounds,
        "pass": report.passes,
    }
    summary = {"ok": report.ok}
    meta = {"dimension": d, "L": args.L, "N": n, "profile": profiles.profile_to_dict(profile)}
    return meta, columns, summary, report.ok


def _cmd_invert(args):
    if args.spectrum is not None:
        if args.preset is not None or args.profile is not None:
            raise InputError("--spectrum cannot be combined with --preset/--profile")
        if args.L is not None:
            raise InputError("--L cannot be combined with --spectrum: the file sets L")
        if args.dim is None:
            raise InputError("--dim is required with --spectrum")
        spectrum, source = _load_spectrum(args.spectrum, args.dim), "external"
    else:
        args.L = 10 if args.L is None else args.L
        profile, d = _resolve_profile(args)
        spectrum, source = operator.spectrum_moment(profile, d, args.L), "moment"
    k_max = 2 * spectrum.max_index - 1
    k = min(5, k_max) if args.K is None else args.K
    if not 1 <= k <= k_max:
        raise InputError(f"--K must lie in 1..{k_max} (2L - 1), got {k}")
    result = operator.invert(spectrum, k, rel_cutoff=args.tau, ridge=args.alpha)
    coeffs = result.expansion.coeffs
    columns = {"k": np.arange(coeffs.size), "coefficient": coeffs}
    summary = {
        "singular_values": list(result.singular_values),
        "effective_rank": result.effective_rank,
        "residual_norm": result.residual_norm,
    }
    meta = {
        "dimension": spectrum.d,
        "L": spectrum.max_index,
        "K": k,
        "tau": args.tau,
        "alpha": args.alpha,
        "spectrum_source": source,
    }
    return meta, columns, summary, True


# --------------------------------------------------------------------------
# parser


# Largest accepted sizes.  MAX_DIM is the largest d with a finite decay
# constant C_d (log C_d = 709.74 at d = 520): past it the decay bound that
# eigvals and truncate print is never finite.  The others keep the largest accepted
# run of each subcommand under 5 s and 500 MB, measured with
# annulus:0.3,0.8,1 on a shared 2-vCPU host: eigvals --L 30000 at d = 2
# 1.5 s and 68 MB; basis --K 1500 2-3 s and 72 MB; truncate --L 30000
# --N 30000 0.3 s and 46 MB (every cutoff comes from one pass over the
# spectrum); verify --L 90 at d = 2 0.5 s and 47 MB (0.7 s for a profile of
# 1,000 pieces: the oracle's cost is linear in the piece count); invert
# --L 1500 --K 2999 3.6 s and 240 MB (the SVD of the L x K forward matrix; a
# --spectrum file may hold as many degrees).
MAX_DIM = 520
MAX_L = 30_000
MAX_BASIS_K = 1_500
MAX_VERIFY_L = 90
MAX_INVERT_L = 1_500

# Largest accepted profile.  The sizes above are measured with a profile of
# three pieces; a profile's own cost grows with its piece count P, its
# coefficient count C (over all pieces) and L.  On the host above, in steps
# of about 10 ns: each piece costs 10,000 (building it, its norm and its turn
# in every loop over pieces), each moment term (one power of one coefficient,
# L * C of them per spectrum) 20, and each step of eigvals's projection
# recurrence (one degree at one Gauss node) and each power at one node of
# verify's radial moments 1.  The projection also holds about 0.6 KB per node.
# A profile is refused past MAX_PROFILE_STEPS (about 1.5 s, on top of at most
# 3 s for the rest of the run: invert's SVD at the caps above, or eigvals's
# series weights at L = 30,000, 1.5 s and 68 MB) or MAX_PROJECTION_NODES
# (150 MB).  MAX_PIECES refuses a file that could not pass before its pieces
# are built.  The largest accepted runs then measured 1.2 s and 68 MB
# (eigvals --L 30000 at d = 2, 76 constant pieces), 3.0 s and 235 MB (invert
# --L 1500 --K 2999, 150 pieces of degree 32), 0.4 s (truncate --L 30000 --N
# 30000, 245 constant pieces: the moments skip every power that underflows),
# 1.1 s (verify --L 90, 5,306 constant pieces) and 1.3 s (eigvals --L 1,
# 14,965 pieces).
MAX_PROFILE_STEPS = 150_000_000
MAX_PROJECTION_NODES = 250_000
_PIECE_STEPS = 10_000
_MOMENT_STEPS = 20
MAX_PIECES = MAX_PROFILE_STEPS // _PIECE_STEPS


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
        "--N", type=_at_least(0, high=MAX_L), help="largest cutoff to report (default min(10, L))"
    )
    _add_io_flags(p)
    p.set_defaults(handler=_cmd_truncate)

    p = subs.add_parser("invert", help="recover coefficients from a spectrum")
    _add_profile_flags(p)
    p.add_argument(
        "--L",
        type=_at_least(1, high=MAX_INVERT_L),
        help="spectrum length (profile input only; default 10)",
    )
    p.add_argument("--K", type=int, help="coefficients to recover (default min(5, 2L - 1))")
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
        meta, columns, summary, ok = args.handler(args)
        _emit(args, {"command": args.command, **meta}, columns, summary)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED if isinstance(exc, UnsupportedDimensionError) else EXIT_CONFIG
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
