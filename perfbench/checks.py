"""Output checks: parse each job's output and compare it with the exact reference.

The tolerances are the repository's own pinned ones: 1e-8 (scaled by
max(1, |lambda|)) for eigenvalues, 1e-9 off-diagonal and 1e-8 diagonal for
the brute-force matrix, and 1e-10 for the basis self-checks.  Truncation tail
norms are eigenvalue magnitudes and use the eigenvalue tolerance.

The repo pins no tolerance for ``invert``.  Its output is compared with the
truncated-SVD solution that numpy computes from the exact-weight forward
matrix F: singular values to 1e-8 s_max, the effective rank, coefficients to
1e-10 per unit of condition number, and the residual, which must match the
reported one and be no larger than the reference solution's, to 1e-8 of the
size of the terms it subtracts, ||lambda|| + ||F|| ||c||.  The basis command
reports only the library's own self-check errors, so those are what is
checked against 1e-10.

Errors of reported eigenvalues and brute-force entries, and the coefficient
error of an inversion mapped through F, are also returned divided by the
profile's ball L2 norm (|lambda| <= C_d ||eta||), which is the scale
``err_max`` and ``err_gmean`` are reported in.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

import exact

TOL_EIG = 1e-8
TOL_OFFDIAG = 1e-9
TOL_DIAG = 1e-8
TOL_BASIS = 1e-10
TOL_IDENTITY = 1e-10
TOL_RESIDUAL = 1e-8
TOL_SINGULAR = 1e-8  # relative to s_max
TOL_COEF = 1e-10  # relative, per unit of the kept directions' condition number
REL_BAD = 1e-8  # a degree is "relatively bad" past this relative error


@dataclass
class JobCheck:
    ok: bool = True
    reasons: list[str] = field(default_factory=list)
    err: float | None = None  # largest error / ball norm over the job's eigenvalues and entries
    rel_bad: dict[str, int] = field(default_factory=lambda: {"series": 0, "moment": 0})

    def fail(self, reason: str) -> None:
        self.ok = False
        self.reasons.append(reason)

    def note_err(self, scaled: float) -> None:
        self.err = scaled if self.err is None else max(self.err, scaled)


class References:
    """Exact values for the run's profiles, computed on demand and cached
    per (profile, dimension)."""

    def __init__(self) -> None:
        self._docs: list[dict] = []
        self._exact: dict[int, exact.ExactProfile] = {}
        self._spectra: dict[tuple[int, int], tuple[list[float], object]] = {}
        self._norms: dict[tuple[int, int], float] = {}
        self._rows: dict[tuple[int, int], list[float]] = {}

    def add(self, doc: dict) -> int:
        """Register a profile document; returns its index."""
        self._docs.append(doc)
        return len(self._docs) - 1

    def profile(self, p: int) -> exact.ExactProfile:
        if p not in self._exact:
            doc = self._docs[p]
            self._exact[p] = exact.ExactProfile(doc["breakpoints"], doc["pieces"])
        return self._exact[p]

    def eigenvalues(self, p: int, d: int, count: int) -> list[float]:
        """Correctly rounded lambda_1..lambda_count of profile p."""
        if (p, d) not in self._spectra:
            self._spectra[p, d] = ([], exact.moment_eigenvalues(self.profile(p), d))
        values, sweep = self._spectra[p, d]
        while len(values) < count:
            values.append(next(sweep))
        return values[:count]

    def norm(self, p: int, d: int) -> float:
        if (p, d) not in self._norms:
            self._norms[p, d] = exact.ball_norm(self.profile(p), d)
        return self._norms[p, d]

    def tail_norms(self, p: int, d: int, max_index: int, max_cutoff: int) -> list[float]:
        """max |lambda_ell| over cutoff < ell <= max_index, for cutoff 0..max_cutoff.

        Eigenvalues are computed only until the decreasing bound of
        ``exact.eigenvalue_bound`` shows no later degree can reach the
        largest one already found past ``max_cutoff``.
        """
        values: list[float] = []
        past = 0.0  # max |lambda| over max_cutoff < ell <= len(values)
        while len(values) < max_index:
            ell = len(values) + 1
            if ell > max_cutoff + 1 and exact.eigenvalue_bound(self.profile(p), d, ell) < past:
                break
            values = self.eigenvalues(p, d, ell)
            if ell > max_cutoff:
                past = max(past, abs(values[-1]))
        tails = []
        for cutoff in range(max_cutoff + 1):
            tails.append(max((abs(v) for v in values[cutoff:]), default=0.0))
        return tails

    def forward_matrix(self, d: int, max_index: int, count: int) -> np.ndarray:
        return np.array([self.forward_row(d, ell, count) for ell in range(1, max_index + 1)])

    def forward_row(self, d: int, ell: int, count: int) -> list[float]:
        row = self._rows.get((d, ell))
        if row is None or len(row) < count:
            row = self._rows[d, ell] = exact.forward_row(d, ell, count)
        return row[:count]


# --------------------------------------------------------------------------
# parsing


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_output(text: str, fmt: str) -> tuple[list[dict], dict]:
    """Records and summary of one CLI output, CSV or JSON."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["records"], doc["summary"]
    lines = text.splitlines()
    table = [line for line in lines if not line.startswith("#")]
    records = [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO("\n".join(table)))]
    summary = {}
    for line in lines:
        if line.startswith("# "):
            key, sep, value = line[2:].partition(" = ")
            if not sep:
                raise ValueError(f"malformed summary line {line!r}")
            if not key.startswith("meta."):
                summary[key] = json.loads(value)
    return records, summary


# --------------------------------------------------------------------------
# per-command checks


def _eig_error(check: JobCheck, what: str, got: float, want: float, norm: float) -> float:
    err = abs(got - want)
    if not err <= TOL_EIG * max(1.0, abs(want)):
        check.fail(f"{what}: {got!r} vs exact {want!r}")
    check.note_err(err / norm)
    return err


def _check_eigvals(job, records, summary, refs, check):
    L, p, d = job["L"], job["profile"], job["d"]
    if [r["ell"] for r in records] != list(range(1, L + 1)):
        check.fail("records are not degrees 1..L")
        return
    want, norm = refs.eigenvalues(p, d, L), refs.norm(p, d)
    for rec, lam in zip(records, want):
        for route in ("series", "moment"):
            err = _eig_error(check, f"lambda_{route}[{rec['ell']}]", rec[f"lambda_{route}"], lam, norm)
            if err > REL_BAD * abs(lam):
                check.rel_bad[route] += 1


def _degree(label: str) -> int:
    m = re.search(r"(\d+)$", label)
    if m is None:
        raise ValueError(f"harmonic label {label!r} carries no degree")
    return int(m.group(1))


def _check_verify(job, records, summary, refs, check):
    L, p, d = job["L"], job["profile"], job["d"]
    want, norm = refs.eigenvalues(p, d, L), refs.norm(p, d)
    seen = set()
    for rec in records:
        entry = rec["entry"]
        if rec["h1"] == rec["h2"]:
            ell = _degree(rec["h1"])
            seen.add(ell)
            lam = want[ell - 1]
            err = abs(entry - lam)
            if not err <= TOL_DIAG * max(1.0, abs(lam)):
                check.fail(f"diagonal {rec['h1']}: {entry!r} vs exact {lam!r}")
        else:
            err = abs(entry)
            if not err <= TOL_OFFDIAG:
                check.fail(f"off-diagonal ({rec['h1']}, {rec['h2']}) = {entry!r}")
        check.note_err(err / norm)
    if seen != set(range(1, L + 1)):
        check.fail("diagonal does not cover degrees 1..L")
    if not summary["gradient_identity_max_defect"] <= TOL_IDENTITY:
        check.fail(f"gradient identity defect {summary['gradient_identity_max_defect']!r}")


def _check_basis(job, records, summary, refs, check):
    if not records:
        check.fail("no basis checks reported")
    for rec in records:
        if not rec["max_error"] <= TOL_BASIS:
            check.fail(f"{rec['check']}: {rec['max_error']!r} > {TOL_BASIS}")


def _check_truncate(job, records, summary, refs, check):
    L, N, p, d = job["L"], job["N"], job["profile"], job["d"]
    if [r["cutoff"] for r in records] != list(range(N + 1)):
        check.fail("records are not cutoffs 0..N")
        return
    want, norm = refs.tail_norms(p, d, L, N), refs.norm(p, d)
    for rec, tail in zip(records, want):
        _eig_error(check, f"tail_norm[{rec['cutoff']}]", rec["tail_norm"], tail, norm)


def _reference_inversion(m: np.ndarray, lam: np.ndarray, tau: float, alpha: float):
    """Singular values, kept-direction mask, coefficients and condition number
    (s_max times the largest filter factor) of the truncated (for alpha > 0
    also ridge-filtered) SVD solution of m c = lam, by numpy."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = s > tau * s[0]
    filt = s[keep] / (s[keep] ** 2 + alpha) if alpha > 0.0 else 1.0 / s[keep]
    return s, keep, vt[keep].T @ (filt * (u[:, keep].T @ lam)), s[0] * filt.max()


def _exact_residual(m: np.ndarray, coeffs: np.ndarray, lam: np.ndarray) -> float:
    return math.sqrt(math.fsum(math.fsum([*(row * coeffs), -v]) ** 2 for row, v in zip(m, lam)))


def _check_invert(job, records, summary, refs, check):
    L, K, d, p = job["L"], job["K"], job["d"], job["profile"]
    if [r["k"] for r in records] != list(range(K)):
        check.fail("records are not coefficients 0..K-1")
        return
    coeffs = np.array([r["coefficient"] for r in records])
    lam = np.array(refs.eigenvalues(p, d, L))  # what the spectrum CSV holds
    m = refs.forward_matrix(d, L, K)
    s, keep, want, kappa = _reference_inversion(m, lam, job["tau"], job["alpha"])

    got_s = np.array(summary["singular_values"], dtype=float)
    if got_s.shape != s.shape or not np.abs(got_s - s).max() <= TOL_SINGULAR * s[0]:
        check.fail(f"singular values differ from the exact-weight matrix's by more than {TOL_SINGULAR} s_max")
    # a singular value within tolerance of the cutoff may fall on either side
    cut, band = job["tau"] * s[0], TOL_SINGULAR * s[0]
    if not np.count_nonzero(s > cut + band) <= summary["effective_rank"] <= np.count_nonzero(s > cut - band):
        check.fail(f"effective rank {summary['effective_rank']} but {np.count_nonzero(keep)} values exceed tau * s_max")
    elif not np.linalg.norm(coeffs - want) <= TOL_COEF * kappa * np.linalg.norm(want):
        check.fail(f"coefficients differ from the exact-weight solution by {np.linalg.norm(coeffs - want)!r}")

    residual = _exact_residual(m, coeffs, lam)
    scale = np.linalg.norm(lam) + np.linalg.norm(m) * np.linalg.norm(coeffs)
    if not abs(summary["residual_norm"] - residual) <= TOL_RESIDUAL * scale:
        check.fail(f"residual {summary['residual_norm']!r} vs exact-weight residual {residual!r}")
    if not residual <= _exact_residual(m, want, lam) + TOL_RESIDUAL * scale:
        check.fail(f"residual {residual!r} exceeds the exact-weight solution's")
    # the coefficient error seen through the exact forward map, in eigenvalue units
    check.note_err(float(np.abs(m @ (coeffs - want)).max()) / refs.norm(p, d))


_CHECKS = {
    "eigvals": _check_eigvals,
    "verify": _check_verify,
    "basis": _check_basis,
    "truncate": _check_truncate,
    "invert": _check_invert,
}


def check_job(job: dict, code: int, text: str | None, refs: References, raised: str | None = None) -> JobCheck:
    """Check one job: no exception, exit code 0, parseable output, values
    within tolerance."""
    check = JobCheck()
    if raised is not None:
        check.fail(f"raised {raised}")
    elif code != 0:
        check.fail(f"exit code {code}")
    if text is None:
        check.fail("no output file")
        return check
    try:
        records, summary = parse_output(text, job["format"])
        _CHECKS[job["cmd"]](job, records, summary, refs, check)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        check.fail(f"unparseable output: {type(exc).__name__}: {exc}")
    return check


def gmean_err(errs: list[float]) -> float:
    """Geometric mean of per-job largest scaled errors.  An error below half
    an ulp (2**-53) counts as 2**-53, since the reference is itself rounded
    to the nearest double."""
    return math.exp(math.fsum(math.log(max(e, 2.0**-53)) for e in errs) / len(errs))
