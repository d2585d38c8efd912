"""Self-tests of the benchmark: exact reference, generator, output gate, tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import exact  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _exact_lambdas(profile: exact.ExactProfile, d: int, count: int) -> list[Fraction]:
    sweep = profile.moment_sweep(d - 1, 2)
    return [-Fraction(2 * ell + d - 2, ell) * Fraction(*next(sweep)) for ell in range(1, count + 1)]


# --------------------------------------------------------------------------
# exact reference


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_constant_profile_closed_form(d):
    c = 0.7
    got = _exact_lambdas(exact.ExactProfile([0.0, 1.0], [[c]]), d, 60)
    assert got == [-Fraction(c) / ell for ell in range(1, 61)]


@pytest.mark.parametrize("d", [2, 3, 5])
def test_ramp_profile_closed_form(d):
    c = -1.3
    got = _exact_lambdas(exact.ExactProfile([0.0, 1.0], [[0.0, c]]), d, 60)
    want = [-Fraction(c) * (2 * ell + d - 2) / (ell * (2 * ell + d - 1)) for ell in range(1, 61)]
    assert got == want


def test_integer_sweep_matches_fraction_moments():
    rng = random.Random(7)
    for _ in range(5):
        doc = workloads.make_profile(rng, "piecewise", rng.randint(2, 6))
        prof = exact.ExactProfile(doc["breakpoints"], doc["pieces"])
        sweep = prof.moment_sweep(2, 3)
        for i in range(12):
            assert Fraction(*next(sweep)) == prof.moment(2 + 3 * i)


def test_inner_annulus_sign_and_size():
    # the exact value at ell = 40 is about -1.5e-34 (the series route gets +3.7e-16)
    prof = exact.ExactProfile([0.0, 0.1, 0.4, 1.0], [[0.0], [1.0], [0.0]])
    lam = list(itertools.islice(exact.moment_eigenvalues(prof, 3), 40))
    assert lam[0] < 0.0
    assert -1.6e-34 < lam[39] < -1.4e-34


def test_forward_row_matches_factorials():
    for d in (2, 3, 5):
        for ell in (1, 2, 7, 30):
            row = exact.forward_row(d, ell, 2 * ell + 2)
            n = 2 * ell - 2
            for k, w in enumerate(row):
                if k > n:
                    assert w == 0.0
                    continue
                ratio = Fraction(math.factorial(n + d) * math.factorial(n),
                                 math.factorial(n + d + k) * math.factorial(n - k))
                want = (-1) ** (k + 1) * math.sqrt(2 * k + d) / ell * float(ratio)
                assert w == pytest.approx(want, rel=1e-15)


def test_tail_norms_stop_early_without_changing_the_result():
    rng = random.Random(3)
    refs = checks.References()
    for kind in ("inner-annulus", "annulus", "piecewise", "binomial"):
        p = refs.add(workloads.make_profile(rng, kind, 4))
        full = [abs(v) for v in refs.eigenvalues(p, 3, 300)]
        want = [max(full[c:]) for c in range(21)]
        assert refs.tail_norms(p, 3, 300, 20) == want


# --------------------------------------------------------------------------
# generator


def _tree(path: Path) -> dict[str, bytes]:
    return {str(f.relative_to(path)): f.read_bytes() for f in sorted(path.rglob("*")) if f.is_file()}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(tmp_path, workload):
    trees = []
    for i, seed in enumerate((5, 5, 6)):
        work = tmp_path / str(i)
        workloads.generate(workload, seed, work, checks.References())
        trees.append(_tree(work))
    assert trees[0] == trees[1]
    assert trees[0]["jobs.json"] != trees[2]["jobs.json"]


def test_rounds_cover_every_setting():
    spec_jobs = list(workloads._ROUNDS["spectrum"](random.Random(1), {**workloads.WORKLOADS["spectrum"], "rounds": 2}))
    settings = [(j["d"], j["L"]) for j in spec_jobs]
    assert sorted(settings[:9]) == sorted(settings[9:]) and len(set(settings)) == 9


# --------------------------------------------------------------------------
# the output gate can fail


class _Perturbed(checks.References):
    def eigenvalues(self, p, d, count):
        values = super().eigenvalues(p, d, count)
        values[count // 2] += 1e-6
        return values


@pytest.mark.parametrize("cmd, L", [("eigvals", 12), ("verify", 4)])
def test_perturbed_reference_fails_the_job(tmp_path, monkeypatch, cmd, L):
    cli = pytest.importorskip("radialeit.cli")
    doc = {"breakpoints": [0.0, 0.3, 1.0], "pieces": [[1.0, -0.5], [0.25, 0.0, 2.0]]}
    (tmp_path / "p.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    job = {"cmd": cmd, "d": 3, "L": L, "format": "csv", "out": "out.csv"}
    code = cli.main([cmd, "--profile", "p.json", "--dim", "3", "--L", str(L), "--out", "out.csv"])
    text = (tmp_path / "out.csv").read_text()
    results = []
    for refs in (checks.References(), _Perturbed()):
        job["profile"] = refs.add(doc)
        results.append(checks.check_job(job, code, text, refs))
    good, bad = results
    assert good.ok and good.err < 1e-12
    assert not bad.ok and bad.err > 1e-7
    assert checks.gmean_err([bad.err]) > checks.gmean_err([good.err])


def _invert_job(tmp_path, monkeypatch, tau, alpha):
    """Run one invert job through the CLI; returns (job, exit code, output, refs)."""
    cli = pytest.importorskip("radialeit.cli")
    refs = checks.References()
    doc = {"breakpoints": [0.0, 0.4, 1.0], "pieces": [[0.5, 1.0], [-1.0, 0.0, 0.75]]}
    job = {"cmd": "invert", "d": 3, "L": 40, "K": 20, "tau": tau, "alpha": alpha, "format": "json",
           "out": "out.json", "profile": refs.add(doc)}
    lam = refs.eigenvalues(job["profile"], 3, 40)
    lines = ["ell,lambda"] + [f"{ell},{v!r}" for ell, v in enumerate(lam, start=1)]
    (tmp_path / "s.csv").write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    code = cli.main(["invert", "--spectrum", "s.csv", "--dim", "3", "--K", "20", "--tau", repr(tau),
                     "--alpha", repr(alpha), "--format", "json", "--out", "out.json"])
    return job, code, (tmp_path / "out.json").read_text(), refs


@pytest.mark.parametrize("tau, alpha", [(1e-10, 0.0), (1e-6, 1e-9)])
def test_invert_check_catches_wrong_coefficients(tmp_path, monkeypatch, tau, alpha):
    job, code, text, refs = _invert_job(tmp_path, monkeypatch, tau, alpha)
    good = checks.check_job(job, code, text, refs)
    assert good.ok, good.reasons
    assert good.err < 1e-13
    doc = json.loads(text)
    coeffs = [r["coefficient"] for r in doc["records"]]
    # all-zero coefficients with the residual they really have: self-consistent, but wrong
    zero = {**doc, "records": [{**r, "coefficient": 0.0} for r in doc["records"]],
            "summary": {**doc["summary"], "residual_norm": math.hypot(*refs.eigenvalues(job["profile"], 3, 40))}}
    # the leading singular direction dropped (the rank still reported as before)
    _, _, vt = np.linalg.svd(refs.forward_matrix(3, 40, 20), full_matrices=False)
    shifted = np.array(coeffs) - vt[0] * (vt[0] @ np.array(coeffs))
    dropped = {**doc, "records": [{**r, "coefficient": float(c)} for r, c in zip(doc["records"], shifted)]}
    for bad_doc in (zero, dropped):
        bad = checks.check_job(job, code, json.dumps(bad_doc), refs)
        assert not bad.ok and bad.err > 1e-6


def test_wrong_exit_code_and_garbage_output_fail():
    refs = checks.References()
    job = {"cmd": "eigvals", "d": 2, "L": 3, "format": "json", "profile": refs.add(
        {"breakpoints": [0.0, 1.0], "pieces": [[1.0]]})}
    assert not checks.check_job(job, 1, None, refs).ok
    assert not checks.check_job(job, 0, "{not json", refs).ok


def test_csv_and_json_parse_alike():
    text_csv = "ell,lambda_series,ok\n1,-0.5,true\n2,0.25,false\n# dual_ok = true\n# meta.L = 2\n"
    doc = {"meta": {"L": 2}, "records": [{"ell": 1, "lambda_series": -0.5, "ok": True},
                                         {"ell": 2, "lambda_series": 0.25, "ok": False}],
           "summary": {"dual_ok": True}}
    assert checks.parse_output(text_csv, "csv") == checks.parse_output(json.dumps(doc), "json")


# --------------------------------------------------------------------------
# tracer


def test_tracer_self_time_counts_and_restore():
    inner = types.ModuleType("inner")
    outer = types.ModuleType("outer")

    def gauss_legendre(n):
        return n

    def project(n):
        return outer.gauss_legendre(n) + outer.gauss_legendre(n)

    inner.gauss_legendre = outer.gauss_legendre = gauss_legendre
    outer.project = project
    tracer = tracing.Tracer({"numerics": inner, "profiles": outer})
    with tracer:
        assert outer.gauss_legendre is not gauss_legendre
        outer.project(4)
        outer.project(5)
    assert outer.gauss_legendre is gauss_legendre and outer.project is project
    assert tracer.counts["numerics.gauss_legendre.calls"] == 4
    assert tracer.counts["numerics.gauss_legendre.repeats"] == 2
    assert tracer.counts["numerics.gauss_legendre.points"] == 18
    parents = [s[3] for s in tracer.spans]
    assert parents == [-1, 0, 0, -1, 3, 3]
    self_s = tracer.self_times()
    total = sum(s[2] - s[1] for s in tracer.spans if s[3] == -1)
    assert self_s["profiles.project"] + self_s["numerics.gauss_legendre"] == pytest.approx(total)


# --------------------------------------------------------------------------
# whole runs in a copied checkout


def _checkout(tmp_path: Path, with_sources: bool = True) -> Path:
    """A copy of the benchmark (and, if asked, of the library sources) under tmp_path."""
    ignore = shutil.ignore_patterns("__pycache__", "*.so", "*.c")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", "crossval", "--seed", "1", *args],
                          cwd=root, capture_output=True, text=True, timeout=170,
                          env={**os.environ, "PYTHONPATH": ""})


def test_refuses_without_sources(tmp_path):
    proc = _run(_checkout(tmp_path, with_sources=False), "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_job_that_raises_is_counted_failed(tmp_path):
    root = _checkout(tmp_path)
    with open(root / "src" / "radialeit" / "cli.py", "a") as f:
        f.write(
            "\n\n_benchmark_main = main\n\n\n"
            "def main(argv=None):\n"
            "    if any(a.startswith('out/j00002.') for a in argv):\n"
            "        raise RuntimeError('injected')\n"
            "    return _benchmark_main(argv)\n"
        )
    proc = _run(root, "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 3
    assert result["failed"] == 1 and result["correct"] is False
    assert "RuntimeError: injected" in proc.stdout
