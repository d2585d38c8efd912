import argparse
import csv
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialeit import cli, operator, oracle, profiles
from radialeit.cli import main
from radialeit.operator import eigenvalue_moment
from radialeit.profiles import preset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    """Records plus the '# key = value' trailer entries."""
    lines = text.strip().splitlines()
    table = "\n".join(line for line in lines if not line.startswith("#"))
    extras = {}
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            extras[key] = json.loads(value)
    return list(csv.DictReader(io.StringIO(table))), extras


# ---------------------------------------------------------------------------
# eigvals


def test_eigvals_csv(capsys):
    code, out, _ = run_cli(
        capsys, "eigvals", "--dim", "2", "--preset", "ramp:1", "--L", "5"
    )
    assert code == 0
    rows, extras = parse_csv(out)
    assert len(rows) == 5
    prof = preset("ramp", [1.0])
    for row in rows:
        ell = int(row["ell"])
        assert float(row["lambda_moment"]) == eigenvalue_moment(prof, 2, ell)
        assert float(row["margin"]) > 0.0
    assert extras["dual_ok"] is True and extras["decay_ok"] is True
    assert extras["meta.dimension"] == 2


def test_eigvals_json_structure(capsys):
    code, out, _ = run_cli(
        capsys, "eigvals", "--dim", "3", "--preset", "constant:1", "--L", "4",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"meta", "records", "summary"}
    assert "timestamp" in doc["meta"]
    assert len(doc["records"]) == 4
    assert doc["records"][0]["lambda_moment"] == -1.0
    assert doc["summary"]["dual_ok"] is True


def test_eigvals_fails_when_the_routes_disagree(capsys, starved_projection):
    argv = ("eigvals", "--dim", "2", "--preset", "annulus:0.5,1,1", "--L", "12")
    code, out, _ = run_cli(capsys, *argv)
    _, extras = parse_csv(out)
    assert code == 1 and extras["dual_ok"] is False and extras["decay_ok"] is True
    assert extras["max_scaled_diff"] > extras["meta.tol_dual"]


def test_eigvals_and_truncate_fail_past_the_decay_bound(capsys, monkeypatch):
    # a decay constant far too small: every eigenvalue lies past its bound
    monkeypatch.setattr(operator, "decay_constant", lambda d: 1e-30)
    profile = ("--dim", "3", "--preset", "annulus:0.3,0.8,1")
    code, out, _ = run_cli(capsys, "eigvals", *profile, "--L", "10")
    _, extras = parse_csv(out)
    assert code == 1 and extras["decay_ok"] is False and extras["dual_ok"] is True
    assert extras["decay_violations"] == list(range(1, 11))
    code, out, _ = run_cli(capsys, "truncate", *profile, "--L", "10", "--N", "5")
    rows, extras = parse_csv(out)
    assert code == 1 and extras["ok"] is False
    assert [r["pass"] for r in rows] == ["false"] * 6


def test_norms_leave_the_float_range_only_with_the_profile(capsys):
    # the eigenvalues are linear in eta: a norm whose square under- or
    # overflows, but which is itself a float, gives the same verdicts as at
    # unit scale (and no RuntimeWarning, which pytest raises)
    code, out, _ = run_cli(
        capsys, "eigvals", "--dim", "2", "--preset", "constant:1e-320", "--L", "3"
    )
    _, extras = parse_csv(out)
    assert code == 0 and extras["decay_ok"] is True and 0.0 < extras["eta_norm"] < 2e-320
    tiny = ("--dim", "3", "--preset", "annulus:0.3,0.8,1e-170", "--L", "5", "--N", "3")
    code, out, _ = run_cli(capsys, "truncate", *tiny)
    assert code == 0 and parse_csv(out)[1]["ok"] is True
    huge = ("--dim", "3", "--preset", "constant:1e200", "--L", "5")
    for argv in (("eigvals", *huge), ("truncate", *huge, "--N", "3"), ("invert", *huge)):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
    assert 0.0 < parse_csv(out)[1]["residual_norm"] < 1e190


def test_csv_and_json_payloads_match(capsys):
    args = ("eigvals", "--dim", "2", "--preset", "annulus:0.3,0.8,-1.5", "--L", "6")
    code, csv_out, _ = run_cli(capsys, *args)
    assert code == 0
    code, json_out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    rows, extras = parse_csv(csv_out)
    doc = json.loads(json_out)
    for row, rec in zip(rows, doc["records"]):
        for key, value in rec.items():
            got = row[key]
            assert (float(got) if isinstance(value, float) else int(got)) == value
    for key, value in doc["summary"].items():
        assert extras[key] == value


def test_output_is_deterministic(capsys):
    args = ("eigvals", "--dim", "2", "--preset", "ramp:0.5", "--L", "8")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second  # csv carries no timestamp at all
    _, j1, _ = run_cli(capsys, *args, "--format", "json")
    _, j2, _ = run_cli(capsys, *args, "--format", "json")
    d1, d2 = json.loads(j1), json.loads(j2)
    d1["meta"].pop("timestamp"), d2["meta"].pop("timestamp")
    assert d1 == d2


def test_out_file(tmp_path, capsys):
    target = tmp_path / "spec.csv"
    code, out, _ = run_cli(
        capsys, "eigvals", "--dim", "2", "--preset", "constant:1", "--L", "3",
        "--out", str(target),
    )
    assert code == 0 and out == ""
    rows, _ = parse_csv(target.read_text())
    assert len(rows) == 3


# ---------------------------------------------------------------------------
# basis


def test_basis_passes(capsys):
    code, out, _ = run_cli(capsys, "basis", "--dim", "4", "--K", "20")
    assert code == 0
    rows, extras = parse_csv(out)
    assert [r["check"] for r in rows] == ["gram_offdiag", "gram_diag", "monomial_reconstruction"]
    assert all(r["pass"] == "true" for r in rows)
    assert extras["all_ok"] is True


def test_basis_gate_is_a_fixed_1e_12(capsys):
    code, out, _ = run_cli(capsys, "basis", "--dim", "2", "--K", "10", "--tol-basis", "1e-12")
    assert code == 2 and out == ""
    code, out, _ = run_cli(capsys, "basis", "--dim", "2", "--K", "10")
    rows, extras = parse_csv(out)
    assert code == 0 and [r["tol"] for r in rows] == ["1e-12"] * 3
    assert extras["meta.tol_basis"] == 1e-12


def test_basis_passes_a_correct_high_dimensional_basis(capsys):
    # sum_j c_j P_j(x) cancels terms near 1e25 here; the gate is scaled by sum_j |c_j P_j(x)|
    code, out, _ = run_cli(capsys, "basis", "--dim", "100", "--K", "200")
    rows, extras = parse_csv(out)
    assert code == 0 and extras["all_ok"] is True
    assert float(rows[2]["max_error"]) < 1e-13


@pytest.mark.parametrize("dim, K", [("200", "600"), ("520", "300")])
def test_basis_passes_a_correct_gram_matrix_in_high_dimensions(capsys, dim, K):
    # w r**(d-1) goes subnormal at the smallest nodes; the Gram matrix is
    # formed from its root, taken in log space
    code, out, _ = run_cli(capsys, "basis", "--dim", dim, "--K", K)
    rows, extras = parse_csv(out)
    assert code == 0 and extras["all_ok"] is True
    assert max(float(r["max_error"]) for r in rows[:2]) < 1e-10


@pytest.mark.parametrize("dim, K", [("3", "40"), ("200", "300")])
def test_basis_gram_fails_a_wrong_recurrence_coefficient(capsys, monkeypatch, dim, K):
    # one recurrence coefficient off by a relative 1e-6 scales every later degree
    recurrence = cli.jacobi._recurrence

    def wrong(d, kmax):
        rec_a, rec_b, rec_c = recurrence(d, kmax)
        rec_c[kmax // 2] *= 1.0 + 1e-6
        return rec_a, rec_b, rec_c

    monkeypatch.setattr(cli.jacobi, "_recurrence", wrong)
    code, out, _ = run_cli(capsys, "basis", "--dim", dim, "--K", K)
    rows, extras = parse_csv(out)
    assert code == 1 and extras["all_ok"] is False
    assert rows[1]["check"] == "gram_diag" and rows[1]["pass"] == "false"


# (dim, K, corrupted degree): the top degree keeps the ids "3-40" and "100-200"
_WRONG_ROWS = [
    (dim, K, k) for dim, K in (("3", "40"), ("100", "200")) for k in (int(K), 1, int(K) // 2)
]


@pytest.mark.parametrize(
    "dim, K, wrong_degree",
    _WRONG_ROWS,
    ids=[f"{d}-{K}" if k == int(K) else f"{d}-{K}-k{k}" for d, K, k in _WRONG_ROWS],
)
def test_basis_fails_a_wrong_monomial_coefficient(capsys, monkeypatch, dim, K, wrong_degree):
    # the largest coefficient of one monomial off by a relative 1e-6 fails the
    # scaled gate, whichever degree's row it is in
    coefficients = cli.jacobi.monomial_coefficients

    def wrong(d, k):
        coeffs = coefficients(d, k).coeffs.copy()
        if k == wrong_degree:
            coeffs[np.abs(coeffs).argmax()] *= 1.0 + 1e-6
        return cli.jacobi.JacobiExpansion(d=d, coeffs=coeffs)

    monkeypatch.setattr(cli.jacobi, "monomial_coefficients", wrong)
    code, out, _ = run_cli(capsys, "basis", "--dim", dim, "--K", K)
    rows, extras = parse_csv(out)
    assert code == 1 and extras["all_ok"] is False
    assert rows[2]["pass"] == "false" and float(rows[2]["max_error"]) > 1e-9


def test_basis_builds_each_monomial_row_once(capsys):
    rows = cli.jacobi._monomial_row
    rows.cache_clear()
    built = []
    for K in ("40", "30", "50"):
        before = rows.cache_info().misses
        assert run_cli(capsys, "basis", "--dim", "3", "--K", K)[0] == 0
        built.append(rows.cache_info().misses - before)
    assert built == [41, 0, 10]
    row = cli.jacobi.monomial_coefficients(3, 7)
    assert cli.jacobi.monomial_coefficients(3, 7) is row
    assert not row.coeffs.flags.writeable
    with pytest.raises(ValueError):
        row.coeffs[0] = 0.0


def test_basis_runs_one_basis_table(capsys, monkeypatch):
    # the quadrature nodes and the check points share one recurrence
    table = cli.jacobi.evaluate_table
    points = []

    def counted(d, max_degree, r):
        points.append(len(r))
        return table(d, max_degree, r)

    monkeypatch.setattr(cli.jacobi, "evaluate_table", counted)
    for K in (0, 20):
        assert run_cli(capsys, "basis", "--dim", "3", "--K", str(K))[0] == 0
    assert points == [0 + 3 + 50, 20 + 3 + 50]  # K + d Gauss nodes and 50 points


def _reconstruction_by_degree(d, K):
    # the per-degree form of the basis reconstruction check
    pts = np.linspace(0.0, 1.0, 50)
    pts_table = cli.jacobi.evaluate_table(d, K, pts)
    abs_table = np.abs(pts_table)
    recon = 0.0
    for k in range(K + 1):
        coeffs = cli.jacobi.monomial_coefficients(d, k).coeffs
        err = np.abs(coeffs @ pts_table[: k + 1] - pts**k)
        scale = np.maximum(1.0, np.abs(coeffs) @ abs_table[: k + 1])
        recon = max(recon, float((err / scale).max()))
    return recon


@pytest.mark.parametrize("dim", [2, 3, 5, 100])
def test_basis_reconstruction_matches_the_per_degree_check(capsys, dim):
    # one matrix product for all degrees sums in another order than the loop
    for K in (0, 1, 20, 150):
        code, out, _ = run_cli(capsys, "basis", "--dim", str(dim), "--K", str(K))
        rows, _ = parse_csv(out)
        assert code == 0
        assert abs(float(rows[2]["max_error"]) - _reconstruction_by_degree(dim, K)) <= 1e-15


def test_basis_requires_dim(capsys):
    code, _, err = run_cli(capsys, "basis")
    assert code == 2 and "dim" in err


# ---------------------------------------------------------------------------
# verify


def test_verify_d2(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--dim", "2", "--preset", "annulus:0.5,1,1", "--L", "3"
    )
    assert code == 0
    rows, extras = parse_csv(out)
    assert extras["ok"] is True
    n = 6  # cos/sin for ell = 1..3
    assert len(rows) == n * (n + 1) // 2


@pytest.mark.xfail(strict=True, reason="the off-diagonal gate is absolute in the units of eta")
@pytest.mark.parametrize("dim", ["2", "3"])
def test_verify_passes_a_scaled_profile(capsys, dim):
    # the off-diagonal entries are 0 in exact arithmetic at every scale, but
    # tol_offdiag = 1e-9 is absolute: c = 1e6 passes, c = 1e9 fails
    argv = ("verify", "--dim", dim, "--preset", "annulus:0.3,0.8,1e9", "--L", "10")
    assert run_cli(capsys, *argv)[0] == 0


def test_verify_gates_the_scaled_identity_defect(capsys, monkeypatch):
    # the identity's rounding error grows with the degree: in d = 3 the
    # absolute defect is about 1.3e-11, 4.2e-11 and 1.2e-10 at L = 40, 60 and
    # 90, while the scaled one stays below 2e-14
    defects = []
    for L in ("90", "60", "40"):
        argv = ("verify", "--dim", "3", "--preset", "annulus:0.3,0.8,1", "--L", L)
        code, out, _ = run_cli(capsys, *argv)
        _, extras = parse_csv(out)
        assert code == 0 and extras["ok"] is True
        assert extras["gradient_identity_scaled_defect"] < 1e-13
        defects.append(extras["gradient_identity_max_defect"])
    assert defects[0] > defects[1] > defects[2]
    # a wrong eigenvalue factor l (l + d - 1) still fails the scaled gate
    defect = oracle._identity_defect
    monkeypatch.setattr(
        oracle, "_identity_defect", lambda d, degrees, forms: defect(d + 1, degrees, forms)
    )
    oracle._sphere_plan.cache_clear()  # the plan of (3, 40) holds the defect
    code, out, _ = run_cli(capsys, *argv)
    _, extras = parse_csv(out)
    assert code == 1 and extras["ok"] is False
    assert extras["gradient_identity_scaled_defect"] > 1e-3


def test_verify_pass_column_is_the_report_gate(capsys):
    argv = ("verify", "--dim", "3", "--preset", "annulus:0.3,0.8,1", "--L", "6")
    code, out, _ = run_cli(capsys, *argv)
    rows, extras = parse_csv(out)
    report = oracle.cross_validate(preset("annulus", [0.3, 0.8, 1.0]), 3, 6)
    i, j = np.triu_indices(len(report.plan.labels))
    assert [r["pass"] == "true" for r in rows] == report.passes[i, j].tolist()
    assert code == 0 and extras["ok"] is report.ok is True


def test_verify_fails_a_wrong_diagonal_entry_in_its_row(capsys, monkeypatch):
    # one diagonal entry past tol_diag: its row, ok and the exit code all fail
    entries_of = oracle._entries

    def skewed(profile, d, index, angular):
        entries = entries_of(profile, d, index, angular)
        entries[3, 3] *= 1.0 + 1e-6
        return entries

    monkeypatch.setattr(oracle, "_entries", skewed)
    argv = ("verify", "--dim", "2", "--preset", "annulus:0.3,0.8,1", "--L", "3")
    code, out, _ = run_cli(capsys, *argv)
    rows, extras = parse_csv(out)
    failed = [(r["h1"], r["h2"]) for r in rows if r["pass"] == "false"]
    assert failed == [("sin2", "sin2")]
    assert extras["ok"] is False and extras["max_diag_scaled"] > 1e-8
    assert code == 1


def test_each_run_integrates_the_squared_profile_once(capsys, monkeypatch):
    # the ball norm is taken once per run, by the moment spectrum: each of the
    # three pieces is squared once
    square, squared = profiles._squared, []
    monkeypatch.setattr(profiles, "_squared", lambda c: squared.append(1) or square(c))
    profile = ("--dim", "3", "--preset", "annulus:0.3,0.8,1", "--L", "4")
    for cmd in ("verify", "eigvals", "truncate", "invert"):
        squared.clear()
        code, _, _ = run_cli(capsys, cmd, *profile)
        assert code == 0 and len(squared) == 3, cmd


def test_a_profile_past_the_float_range_is_refused_before_its_work(capsys, monkeypatch):
    # constant:1e308 has a ball norm of 2.05e308 in d = 3: every subcommand
    # refuses it where the norm is taken, before eigvals projects the profile
    # or verify assembles a brute-force entry
    def forbidden(*args):
        raise AssertionError("the profile was used before its norm was checked")

    monkeypatch.setattr(operator, "project", forbidden)
    monkeypatch.setattr(oracle, "_entries", forbidden)
    for cmd in ("eigvals", "truncate", "invert", "verify"):
        code, out, err = run_cli(capsys, cmd, "--dim", "3", "--preset", "constant:1e308")
        assert code == 2 and out == "", cmd
        assert err == "error: the profile's L2 norm over the ball in d = 3 is not finite\n"
    for cmd in ("eigvals", "verify"):  # the patches are in the way of a float norm
        with pytest.raises(AssertionError, match="before its norm was checked"):
            main([cmd, "--dim", "3", "--preset", "constant:1e307"])
    # the dimension refusal of verify comes first
    code, out, _ = run_cli(capsys, "verify", "--dim", "4", "--preset", "constant:1e308")
    assert code == 3 and out == ""


def test_only_eigvals_and_truncate_refuse_a_decay_bound_past_the_float_range(capsys):
    # at d = 520 constant:1e200 has a norm of 2.2e6, but C_d ||eta|| is not a
    # float: eigvals and truncate print that bound, invert prints none
    base = ("--dim", "520", "--preset", "constant:1e200", "--L", "5")
    for cmd in ("eigvals", "truncate"):
        code, out, err = run_cli(capsys, cmd, *base)
        assert code == 2 and out == ""
        assert err.startswith("error: the decay bound C_d ||eta|| = ")
        assert err.endswith(" is not finite in d = 520\n")
    code, out, _ = run_cli(capsys, "invert", *base, "--format", "json")
    assert code == 0
    coeffs = [rec["coefficient"] for rec in _strict_json(out)["records"]]
    assert len(coeffs) == 5 and all(map(np.isfinite, coeffs)) and coeffs[0] != 0.0


def test_moment_eigenvalues_past_the_float_range_are_refused(capsys, tmp_path):
    # polynomial:1e308,1e308 has a float norm (3e307) in d = 20, but
    # lambda_1 = -20 * (1e308/20 + 1e308/21) is not a float: the moment
    # spectrum refuses it, and nothing warns (RuntimeWarning is an error here)
    base = ("--dim", "20", "--preset", "polynomial:1e308,1e308", "--L", "5")
    for cmd in ("eigvals", "truncate", "invert"):
        code, out, err = run_cli(capsys, cmd, *base)
        assert code == 2 and out == "", cmd
        assert err == "error: a moment eigenvalue of the profile in d = 20 is not finite\n"
    # finite eigenvalues whose coefficients are not floats are refused by invert
    path = tmp_path / "huge.csv"
    path.write_text("".join(f"{ell},{-1.7e308 / ell!r}\n" for ell in range(1, 13)))
    code, out, err = run_cli(capsys, "invert", "--spectrum", str(path), "--dim", "20", "--K", "6")
    assert code == 2 and out == ""
    assert err == "error: the recovered coefficients or their residual are not finite\n"


def test_verify_unsupported_dimension(capsys):
    # the oracle's refusal, mapped to exit 3 before any sphere plan is built
    code, out, err = run_cli(capsys, "verify", "--dim", "4", "--preset", "constant:1")
    assert code == 3 and out == ""
    assert err == "error: explicit harmonics exist only for d in (2, 3), got 4\n"
    assert oracle._sphere_plan.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# truncate


def test_truncate(capsys):
    code, out, _ = run_cli(
        capsys, "truncate", "--dim", "2", "--preset", "constant:1", "--L", "10", "--N", "3"
    )
    assert code == 0
    rows, extras = parse_csv(out)
    assert [float(r["tail_norm"]) for r in rows] == [1.0, 0.5, 1.0 / 3.0, 0.25]
    assert [key for key in extras if not key.startswith("meta.")] == ["ok"]
    assert extras["ok"] is True and all(r["pass"] == "true" for r in rows)


def test_truncate_default_cutoff_follows_L(capsys):
    # without --N the largest cutoff is min(10, L), echoed in meta
    base = ("truncate", "--dim", "2", "--preset", "constant:1")
    code, out, _ = run_cli(capsys, *base, "--L", "5")
    rows, extras = parse_csv(out)
    assert code == 0 and extras["meta.N"] == 5 and len(rows) == 6
    assert float(rows[-1]["tail_norm"]) == 0.0 and extras["ok"] is True
    code, out, _ = run_cli(capsys, *base, "--L", "30")
    rows, extras = parse_csv(out)
    assert code == 0 and extras["meta.N"] == 10 and len(rows) == 11


def test_truncate_rejects_bad_cutoff(capsys):
    code, _, err = run_cli(
        capsys, "truncate", "--dim", "2", "--preset", "constant:1", "--L", "5", "--N", "9"
    )
    assert code == 2 and "--N" in err


# ---------------------------------------------------------------------------
# invert


def test_invert_from_profile(capsys):
    code, out, _ = run_cli(
        capsys, "invert", "--dim", "2", "--preset", "constant:1", "--L", "10", "--K", "5"
    )
    assert code == 0
    rows, extras = parse_csv(out)
    coeffs = np.array([float(r["coefficient"]) for r in rows])
    assert abs(coeffs[0] - 2.0**-0.5) < 1e-12
    assert np.abs(coeffs[1:]).max() < 1e-12
    assert extras["effective_rank"] == 5
    assert len(extras["singular_values"]) == 5


def test_invert_from_spectrum_file(tmp_path, capsys):
    path = tmp_path / "lam.csv"
    lines = ["ell,lambda"] + [f"{ell},{-1.0 / ell!r}" for ell in range(1, 11)]
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "invert", "--spectrum", str(path), "--dim", "2", "--K", "5")
    assert code == 0
    rows, _ = parse_csv(out)
    assert abs(float(rows[0]["coefficient"]) - 2.0**-0.5) < 1e-12


def test_spectrum_header_after_comments(tmp_path, capsys):
    # the header is the first row that is neither blank nor a comment
    data = [f"{ell},{-1.0 / ell!r}" for ell in range(1, 11)]
    path = tmp_path / "lam.csv"
    path.write_text("\n".join(["# note", "", "ell,lambda", *data]) + "\n")
    args = ("invert", "--spectrum", str(path), "--dim", "2", "--K", "5")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    rows, _ = parse_csv(out)
    assert abs(float(rows[0]["coefficient"]) - 2.0**-0.5) < 1e-12
    # a non-numeric row after data is still an error
    path.write_text("\n".join(["# note", "ell,lambda", *data[:5], "six,-0.1", *data[6:]]) + "\n")
    code, _, err = run_cli(capsys, *args)
    assert code == 2 and "line 8" in err


def test_spectrum_rows_have_exactly_two_fields(tmp_path, capsys):
    data = [f"{ell},{-1.0 / ell!r}" for ell in range(1, 6)]
    path = tmp_path / "lam.csv"
    args = ("invert", "--spectrum", str(path), "--dim", "2", "--K", "3")
    for bad in ("3,-1,3", "3,-1,junk", "3,-1,", "3"):
        path.write_text("\n".join(["# note", "ell,lambda", *data[:2], bad, *data[3:]]) + "\n")
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert err == f"error: line 5 of {path}: expected 'ell,lambda', got {bad.split(',')!r}\n"
    # a first row led by a number is data, not a header, even where it is no
    # integer degree ("1.0") or lacks a value
    for first in ("1,-1,3", "1.0,-1", "1", "nan,-1"):
        path.write_text("\n".join([first, *data[1:]]) + "\n")
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert err == f"error: line 1 of {path}: expected 'ell,lambda', got {first.split(',')!r}\n"


def test_invert_default_K_follows_the_spectrum_length(tmp_path, capsys):
    # without --K at most 2L - 1 coefficients are recovered, echoed in meta
    base = ("invert", "--dim", "2", "--preset", "constant:1")
    code, out, _ = run_cli(capsys, *base, "--L", "2")
    rows, extras = parse_csv(out)
    assert code == 0 and extras["meta.K"] == 3 and len(rows) == 3
    assert extras["effective_rank"] == 2  # lambda_1 reads a_0 only: 2 equations
    two = tmp_path / "two.csv"
    two.write_text("1,-1.0\n2,-0.5\n")
    code, out, _ = run_cli(capsys, "invert", "--spectrum", str(two), "--dim", "2")
    rows, extras = parse_csv(out)
    assert code == 0 and extras["meta.K"] == 3 and len(rows) == 3
    code, out, _ = run_cli(capsys, *base, "--L", "10")
    assert code == 0 and parse_csv(out)[1]["meta.K"] == 5
    # an explicit --K keeps its range check
    code, _, err = run_cli(capsys, *base, "--L", "2", "--K", "4")
    assert code == 2 and "num_coeffs must lie in 1..3" in err


def test_invert_input_validation(tmp_path, capsys):
    code, _, err = run_cli(capsys, "invert", "--spectrum", "nope.csv", "--preset", "constant:1")
    assert code == 2
    # a spectrum file sets L, so an explicit --L is refused, not ignored
    two = tmp_path / "two.csv"
    two.write_text("1,-1.0\n2,-0.5\n")
    code, out, err = run_cli(capsys, "invert", "--dim", "2", "--spectrum", str(two), "--L", "40")
    assert code == 2 and out == "" and "--L" in err
    code, _, err = run_cli(capsys, "invert", "--spectrum", str(tmp_path / "missing.csv"), "--dim", "2")
    assert code == 2
    gap = tmp_path / "gap.csv"
    gap.write_text("1,-1.0\n3,-0.3\n")
    code, _, err = run_cli(capsys, "invert", "--spectrum", str(gap), "--dim", "2", "--K", "2")
    assert code == 2 and "1..L" in err
    code, _, err = run_cli(
        capsys, "invert", "--dim", "2", "--preset", "constant:1", "--L", "5", "--K", "40"
    )
    assert code == 2


@pytest.mark.parametrize(
    "flag, value, message",
    [("--tau", "-0.1", "rel_cutoff must lie in [0, 1), got -0.1"),
     ("--tau", "1", "rel_cutoff must lie in [0, 1), got 1.0"),
     ("--tau", "nan", "rel_cutoff must lie in [0, 1), got nan"),
     ("--alpha", "-1", "ridge must be finite and >= 0, got -1.0"),
     ("--alpha", "nan", "ridge must be finite and >= 0, got nan"),
     ("--alpha", "inf", "ridge must be finite and >= 0, got inf")],
)
def test_invert_refuses_bad_regularization(capsys, flag, value, message):
    # invert's own check, before the forward matrix is built
    argv = ("invert", "--dim", "2", "--preset", "constant:1", flag, value)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err == f"error: {message}\n"
    assert not operator._weight_blocks


# ---------------------------------------------------------------------------
# profile files and general config errors


def test_profile_file_carries_dimension(tmp_path, capsys):
    doc = {"dimension": 3, "breakpoints": [0.0, 0.5, 1.0], "pieces": [[1.0], [0.0, 2.0]]}
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "eigvals", "--profile", str(path), "--L", "4")
    assert code == 0
    _, extras = parse_csv(out)
    assert extras["meta.dimension"] == 3
    # an explicit matching --dim is fine, a contradicting one is not
    code, _, _ = run_cli(capsys, "eigvals", "--profile", str(path), "--dim", "3", "--L", "2")
    assert code == 0
    code, _, err = run_cli(capsys, "eigvals", "--profile", str(path), "--dim", "2", "--L", "2")
    assert code == 2 and "contradicts" in err


def test_config_errors(tmp_path, capsys):
    assert run_cli(capsys, "eigvals", "--preset", "constant:1")[0] == 2  # no dim
    assert run_cli(capsys, "eigvals", "--dim", "2")[0] == 2  # no profile
    assert run_cli(capsys, "eigvals", "--dim", "2", "--preset", "constant:x")[0] == 2
    assert run_cli(capsys, "eigvals", "--dim", "2", "--preset", "blob:1")[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "eigvals", "--profile", str(bad))[0] == 2
    both = ("--preset", "constant:1", "--profile", str(bad))
    assert run_cli(capsys, "eigvals", "--dim", "2", *both)[0] == 2
    # malformed files are bad input too, not a failed check: invalid UTF-8, JSON
    # nested past the parser's recursion limit and a CSV field past csv's limit
    for content in (b'{"pieces": [[1.0\xff]]}', b"[" * 100_000):
        bad.write_bytes(content)
        code, _, err = run_cli(capsys, "eigvals", "--dim", "2", "--profile", str(bad))
        assert code == 2 and err.startswith("error:")
    observed = tmp_path / "observed.csv"
    for content in (b"1,-1.0\n2,-0.5\xff\n", b"1," + b"1" * 131_073 + b"\n"):
        observed.write_bytes(content)
        code, _, err = run_cli(capsys, "invert", "--spectrum", str(observed), "--dim", "2", "--K", "1")
        assert code == 2 and err.startswith("error:")
    # dimensions below 2 and a negative series degree
    assert run_cli(capsys, "basis", "--dim", "1")[0] == 2
    for cmd in ("eigvals", "truncate", "invert", "verify"):
        assert run_cli(capsys, cmd, "--preset", "constant:1", "--dim", "1")[0] == 2
    observed.write_text("1,-1.0\n2,-0.5\n")
    assert run_cli(capsys, "invert", "--spectrum", str(observed), "--dim", "1", "--K", "1")[0] == 2
    observed.write_text("1,nan\n2,-0.5\n")  # non-finite spectrum values
    assert run_cli(capsys, "invert", "--spectrum", str(observed), "--dim", "2", "--K", "1")[0] == 2
    # eigvals always projects to the cut: it takes no series degree
    assert run_cli(capsys, "eigvals", "--dim", "2", "--preset", "constant:1", "--K", "5")[0] == 2
    # ridge weight and tolerances must be finite and >= 0
    base = ("--dim", "2", "--preset", "constant:1")
    for value in ("nan", "inf", "-1"):
        assert run_cli(capsys, "invert", *base, "--alpha", value)[0] == 2
        assert run_cli(capsys, "eigvals", *base, "--tol-dual", value)[0] == 2
    # oversized dimensions, degrees and basis orders are refused before any work
    assert run_cli(capsys, "basis", "--dim", "521")[0] == 2
    for cmd in ("eigvals", "truncate", "invert", "verify"):
        assert run_cli(capsys, cmd, "--preset", "constant:1", "--dim", "521")[0] == 2
    big_l = ("eigvals", "--dim", "3", "--preset", "constant:1", "--L", "30001")
    assert run_cli(capsys, *big_l)[0] == 2
    assert run_cli(capsys, "basis", "--dim", "2", "--K", "1501")[0] == 2
    profile = ("--dim", "2", "--preset", "constant:1")
    assert run_cli(capsys, "verify", *profile, "--L", "91")[0] == 2
    assert run_cli(capsys, "truncate", *profile, "--L", "30001", "--N", "0")[0] == 2
    assert run_cli(capsys, "truncate", *profile, "--L", "30000", "--N", "30001")[0] == 2
    assert run_cli(capsys, "invert", *profile, "--L", "1501", "--K", "1")[0] == 2
    long_csv = tmp_path / "long.csv"
    long_csv.write_text("".join(f"{ell},-1.0\n" for ell in range(1, 1502)))
    code, _, err = run_cli(capsys, "invert", "--spectrum", str(long_csv), "--dim", "2", "--K", "1")
    assert code == 2 and "1500" in err
    # finite coefficients whose ball norm overflows: 2.05e308 in d = 3
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"breakpoints": [0.0, 1.0], "pieces": [[1e308]]}))
    for cmd in ("eigvals", "truncate", "invert", "verify"):
        for source in (("--preset", "constant:1e308"), ("--profile", str(huge))):
            code, _, err = run_cli(capsys, cmd, "--dim", "3", *source)
            assert code == 2 and "norm" in err
    # an --out that cannot be written is bad input, not a failed check
    for fmt in ("csv", "json"):
        target = str(tmp_path / "missing" / f"x.{fmt}")
        argv = ("eigvals", *profile, "--L", "3", "--format", fmt, "--out", target)
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "cannot write" in err
    # a profile file's dimension gets the --dim range check, zero profile or not
    far = tmp_path / "far.json"
    for value in (1.0, 0.0):
        far.write_text(json.dumps({"dimension": 600, "breakpoints": [0.0, 1.0], "pieces": [[value]]}))
        code, _, err = run_cli(capsys, "eigvals", "--profile", str(far))
        assert code == 2 and "must be in 2..520" in err and "norm" not in err
    # profiles too large for the run are refused before any moment is taken;
    # the limit follows the piece count, the coefficients and L
    many = tmp_path / "many.json"
    n = 1000
    many.write_text(json.dumps({"breakpoints": [i / n for i in range(n + 1)],
                                "pieces": [[(-1.0) ** i] for i in range(n)]}))
    code, _, err = run_cli(capsys, "eigvals", "--dim", "2", "--profile", str(many), "--L", "30000")
    assert code == 2 and "1000 pieces" in err
    assert run_cli(capsys, "eigvals", "--dim", "2", "--profile", str(many), "--L", "20")[0] == 0
    assert run_cli(capsys, "verify", "--dim", "2", "--profile", str(many), "--L", "90")[0] == 0
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"breakpoints": [i / n for i in range(n + 1)],
                                "pieces": [[0.5] * 33 for _ in range(n)]}))
    for argv in (("eigvals", "--L", "2000"), ("invert", "--L", "1500", "--K", "2999"),
                 ("truncate", "--L", "2000", "--N", "1")):
        code, _, err = run_cli(capsys, argv[0], "--dim", "2", "--profile", str(wide), *argv[1:])
        assert code == 2 and "33000 coefficients" in err
    n = cli.MAX_PIECES + 1
    many.write_text(json.dumps({"breakpoints": [i / n for i in range(n + 1)], "pieces": [[1.0]] * n}))
    code, _, err = run_cli(capsys, "verify", "--dim", "2", "--profile", str(many), "--L", "1")
    assert code == 2 and f"{n} pieces" in err


_BAD_PROFILE_FILES = {
    "short-breakpoints": ({"breakpoints": [0.0, 0.5], "pieces": [[1.0]]},
                          "breakpoints must increase strictly from 0.0 to 1.0"),
    "empty-piece": ({"breakpoints": [0.0, 0.5, 1.0], "pieces": [[1.0], []]},
                    "each piece must be a non-empty 1-d coefficient array"),
    "unknown-field": ({"breakpoints": [0.0, 1.0], "pieces": [[1.0]], "colour": 1},
                      "unknown profile fields: ['colour']"),
    "text-coefficient": ({"breakpoints": [0.0, 1.0], "pieces": [["a"]]},
                         "malformed profile document"),
    "pieces-not-a-list": ({"breakpoints": [0.0, 1.0], "pieces": 5}, "malformed profile document"),
    "list-document": ([[0.0, 1.0], [[1.0]]], "profile document must be a mapping"),
    "text-dimension": ({"dimension": "3", "breakpoints": [0.0, 1.0], "pieces": [[1.0]]},
                       "profile dimension must be"),
    "no-dimension": ({"breakpoints": [0.0, 1.0], "pieces": [[1.0]]}, "no dimension given"),
}


@pytest.mark.parametrize("doc, message", _BAD_PROFILE_FILES.values(), ids=list(_BAD_PROFILE_FILES))
def test_bad_profile_files_are_refused(tmp_path, capsys, doc, message):
    path = tmp_path / "prof.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "eigvals", "--profile", str(path), "--L", "3")
    assert code == 2 and out == "" and message in err


def test_unreadable_inputs_are_refused(tmp_path, capsys):
    # a directory as the profile file, a spectrum file without rows, a spectrum
    # without its dimension and a preset with too many parameters
    code, _, err = run_cli(capsys, "eigvals", "--dim", "2", "--profile", str(tmp_path))
    assert code == 2 and "cannot read profile file" in err
    empty = tmp_path / "empty.csv"
    empty.write_text("ell,lambda\n# nothing observed\n")
    code, _, err = run_cli(capsys, "invert", "--dim", "2", "--spectrum", str(empty), "--K", "1")
    assert code == 2 and "no spectrum rows found" in err
    empty.write_text("1,-1.0\n2,-0.5\n")
    code, _, err = run_cli(capsys, "invert", "--spectrum", str(empty), "--K", "1")
    assert code == 2 and "--dim is required with --spectrum" in err
    code, _, err = run_cli(capsys, "eigvals", "--dim", "2", "--preset", "ramp:1,2", "--L", "3")
    assert code == 2 and "ramp takes one parameter" in err


def test_size_gate_counts_the_nodes_project_uses(tmp_path, capsys, monkeypatch):
    # at an L whose rows are all whole, the gate and project both take degree
    # 2L - 2, and the gate's projection node count is the sum of the rule
    # sizes project asks gauss_legendre for
    path = tmp_path / "pieces.json"
    path.write_text(json.dumps({"breakpoints": [0.0, 0.3, 0.7, 1.0],
                                "pieces": [[1.0], [0.5, -2.0, 1.0], [0.0, 0.0, 0.0, 3.0]]}))
    for source in (("--preset", "annulus:0.3,0.8,1"), ("--profile", str(path))):
        argv = ("eigvals", "--dim", "3", *source, "--L", "10")
        sizes = []
        gauss = profiles.gauss_legendre
        with monkeypatch.context() as m:
            m.setattr(profiles, "gauss_legendre", lambda n: sizes.append(n) or gauss(n))
            assert run_cli(capsys, *argv)[0] == 0
        assert len(sizes) == 3  # one rule per piece
        with monkeypatch.context() as m:
            m.setattr(cli, "MAX_PROJECTION_NODES", 0)
            code, _, err = run_cli(capsys, *argv)
        assert code == 2 and f" and {sum(sizes)} projection nodes " in err


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-finite {name} in JSON output")

    return json.loads(text, parse_constant=refuse)


def test_largest_dimension_gives_finite_output(capsys):
    # d = 520 is the cap: every number eigvals, truncate and invert write is
    # finite there, so the JSON is strict; d = 521 exits 2
    base = ("--dim", "520", "--preset", "annulus:0.3,0.8,1", "--format", "json")
    for argv in (("eigvals", "--L", "40"), ("truncate", "--L", "40", "--N", "5"),
                 ("invert", "--L", "10", "--K", "5")):
        code, out, _ = run_cli(capsys, *argv, *base)
        assert code == 0
        doc = _strict_json(out)
        assert doc["meta"]["dimension"] == 520
    code, out, _ = run_cli(capsys, "eigvals", *base)
    assert 1e300 < _strict_json(out)["summary"]["decay_constant"] < float("inf")
    assert run_cli(capsys, "eigvals", *base[:1], "521", *base[2:])[0] == 2


def test_eigvals_reports_the_cut_and_its_tail_bound(capsys):
    argv = ("eigvals", "--dim", "3", "--preset", "annulus:0.3,0.8,1", "--L", "400")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows, extras = parse_csv(out)
    assert "series_tail_bound" not in rows[0]  # a summary key, not a column
    assert 0.0 < extras["series_tail_bound"] < 1e-16
    kstar = extras["meta.coeff_degree"]
    assert 150 < kstar < 2 * 400 - 2  # projected to k*(400), not to 2L - 2


def test_basis_refuses_a_basis_past_the_float_range(capsys):
    # the table leaves the float range at the small nodes: exit 2 with a
    # message, not NaN in the output after overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "basis", "--dim", "520", "--K", "600", "--format", "json")
    assert code == 2 and out == "" and "overflows" in err


def test_eigvals_refuses_a_basis_past_the_float_range(capsys):
    # a profile of several pieces needs the basis to degree k*(L)
    code, out, err = run_cli(
        capsys, "eigvals", "--dim", "520", "--preset", "annulus:0.3,0.8,1", "--L", "7000"
    )
    assert code == 2 and out == "" and "overflows" in err


def test_eigvals_one_piece_profile_in_the_largest_dimension(capsys):
    # a one-piece profile of degree m needs the basis to degree m only
    for preset in ("constant:1", "polynomial:1,0,-2"):
        code, out, err = run_cli(
            capsys, "eigvals", "--dim", "520", "--preset", preset, "--L", "7000"
        )
        assert code == 0 and err == ""
        assert "# dual_ok = true" in out.splitlines()


def test_argparse_errors_map_to_config_exit(capsys):
    assert main([]) == 2
    assert main(["bogus"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()  # swallow argparse output


# ---------------------------------------------------------------------------
# output bytes


def _reference_emit(fmt, meta, columns, summary, timestamp):
    """The record-by-record writer: json.dumps of the whole document, or one
    formatted CSV cell at a time."""
    records = [dict(zip(columns, row)) for row in zip(*columns.values())]
    if fmt == "json":
        doc = {"meta": {**meta, "timestamp": timestamp}, "records": records, "summary": summary}
        return json.dumps(doc, indent=2) + "\n"

    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return repr(value) if isinstance(value, float) else str(value)

    lines = []
    if records:
        lines.append(",".join(records[0]))
        lines += [",".join(cell(v) for v in rec.values()) for rec in records]
    trailer = {**summary, **{f"meta.{k}": v for k, v in meta.items()}}
    lines += [f"# {k} = {json.dumps(v)}" for k, v in trailer.items()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_emit_matches_the_record_by_record_writer(capsys, fmt):
    profile = {"breakpoints": [0.0, 1.0], "pieces": [[1.5]]}
    meta = {"command": "t", "dimension": np.int64(3), "K": 5, "profile": profile, "pair": (1, 2.5)}
    summary = {
        "ok": np.bool_(False),
        "all": True,
        "values": np.array([1.0, 2.5, -np.inf]),
        "worst": np.float64("nan"),
        "best": np.float64(0.1),
        "plain": float("nan"),
        "rank": np.int64(-7),
        "violations": (),
    }
    floats = [0.1, -0.0, 1e300, 5e-324, float("nan"), float("inf"), -float("inf")]
    cases = [
        {
            "k": np.arange(len(floats)),
            "x": np.array(floats),
            "y": floats[::-1],
            "pass": np.array(floats) > 0.0,
            "name": [
                "a", 'q"uote', "back\\slash", "100%s", "\u00e9", "tab\t",
                "\x00\x1f\x7f\u2028\U0001f600",  # controls, a line separator, a surrogate pair
            ],
        },
        {"only": [2.0]},
        {"k": np.arange(0), "x": []},  # no records
    ]
    for columns in cases:
        cli._emit(argparse.Namespace(format=fmt, out=None), meta, columns, summary)
        out = capsys.readouterr().out
        stamp = json.loads(out)["meta"]["timestamp"] if fmt == "json" else None
        plain = {k: np.asarray(v).tolist() for k, v in columns.items()}
        assert out == _reference_emit(fmt, _python(meta), plain, _python(summary), stamp)


def _python(value):
    """value with every NumPy array and scalar made the plain value json.dumps takes."""
    if isinstance(value, np.ndarray):
        return _python(value.tolist())
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_python(v) for v in value]
    if isinstance(value, dict):
        return {k: _python(v) for k, v in value.items()}
    return value


_texts = st.one_of(st.text(), st.sampled_from(["", "\u00e9\u2028", '"\\%s\t', "\x00\x7f\U0001f600"]))
_leaves = st.one_of(
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and +-inf included
    _texts,
    st.booleans().map(np.bool_),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.lists(st.floats(), max_size=4).map(np.array),
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=3).map(
        lambda rows: np.array(rows, dtype=np.int64).reshape(-1, 2)
    ),
)
_json_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_texts, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(value=_json_values)
def test_emit_encoders_match_json_dumps(value):
    # the encoders _emit writes meta and summary with take NumPy values as they are
    plain = _python(value)
    assert cli._compact(value) == json.dumps(plain)
    assert cli._indented(value) == json.dumps(plain, indent=2)


def test_emit_encoders_refuse_other_types():
    for value in (object(), {1, 2}, {"a": [1, (object(),)]}, [{"b": {2, 3}}]):
        for encode in (cli._compact, cli._indented):
            with pytest.raises(TypeError):
                encode(value)


_EVERY_SUBCOMMAND = [
    ("eigvals", "--dim", "3", "--preset", "annulus:0.3,0.8,-1.5", "--L", "6"),
    ("basis", "--dim", "3", "--K", "8"),
    ("verify", "--dim", "2", "--preset", "annulus:0.3,0.8,1", "--L", "3"),
    ("verify", "--dim", "3", "--preset", "ramp:0.5", "--L", "4"),
    ("truncate", "--dim", "2", "--preset", "constant:1", "--L", "10", "--N", "3"),
    ("invert", "--dim", "2", "--preset", "ramp:0.5", "--L", "10", "--K", "5"),
    ("invert", "--spectrum", "SPECTRUM", "--dim", "2", "--K", "5"),
]


@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=lambda a: a[0] + "-" + a[1])
def test_output_is_canonical(tmp_path, capsys, argv):
    spectrum = tmp_path / "lam.csv"
    spectrum.write_text("".join(f"{ell},{-1.0 / ell!r}\n" for ell in range(1, 11)))
    argv = [str(spectrum) if a == "SPECTRUM" else a for a in argv]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(_strict_json(out), indent=2) + "\n"
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows, _ = parse_csv(out)
    floats = 0
    for row in rows:
        for cell in row.values():
            if cell in ("true", "false") or cell.lstrip("-").isdigit():
                continue
            try:
                value = float(cell)
            except ValueError:
                continue  # a label
            assert cell == repr(value)
            floats += 1
    assert floats > 0


def test_parser_is_built_once(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        argv = ("eigvals", "--dim", "2", "--preset", "ramp:1", "--L", "3")
        first = run_cli(capsys, *argv)
        assert run_cli(capsys, "eigvals", "--dim", "2", "--L", "nope")[0] == 2
        assert run_cli(capsys, "truncate", "--bogus")[0] == 2
        assert run_cli(capsys, *argv) == first and first[0] == 0
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()
