"""radialeit end-to-end benchmark.

    python3 perfbench/run.py --workload {spectrum,crossval,small-jobs}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its ``src/``.
The seed generates the run's inputs (profile JSON files, spectrum CSVs and
the job list) under ``.perfbench_work/``, which is removed afterwards.

Load model: closed loop, one client (this process), one worker process that
calls ``radialeit.cli.main(argv)`` in-process for each job, back to back,
with BLAS pinned to one thread.  Every job's output is checked against an
exact-rational reference (``exact.py``, ``checks.py``) that shares no code
with the library.

--trace 0 measures for S seconds and prints the ``end_to_end`` metrics of
BENCHMARK.json.  --trace 1 runs the workload's fixed traced job prefix once
untraced and once traced, each in a fresh worker, and prints its
``per_layer`` metrics.  Metric names and units are read from BENCHMARK.json.
Either way the last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7  # fresh workers whose set-up time is measured; the median is reported
WORKER_TIMEOUT_S = 150.0  # a worker past this is killed and the run fails
P90_MIN_JOBS = 100  # p90 needs at least 10 samples beyond it
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

class BenchError(Exception):
    """The benchmark could not produce a result; exit non-zero, print none."""


def _worker(root: Path, work: Path, tag: str, *flags: str) -> dict:
    result = work / f"result-{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root), "--work", str(work),
           "--result", str(result), *flags]
    try:
        proc = subprocess.run(cmd, env={**os.environ, **PINNED_ENV}, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited with code {proc.returncode}")
    return json.loads(result.read_text())


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "n/a (not a git checkout; see source_sha256)"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _check_runs(spec: dict, runs: list, work: Path, refs: checks.References) -> list[checks.JobCheck]:
    out = []
    for job, (code, _, _, raised) in zip(spec["jobs"], runs):
        path = work / job["out"]
        text = path.read_text() if path.exists() and raised is None else None
        out.append(checks.check_job(job, code, text, refs, raised))
    return out


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = -(-q * len(ordered) // 1)  # ceil
    return ordered[max(0, int(rank) - 1)]


def _end_to_end(root, work, spec, seconds, refs):
    """Returns (provenance, job checks, metrics, extra report lines); each
    metric is (value, note)."""
    setups = [_worker(root, work, f"setup{i}", "--setup-only")["setup_s"] for i in range(SETUP_REPEATS - 1)]
    main = _worker(root, work, "main", "--seconds", repr(seconds))
    setups.append(main["setup_s"])
    runs = main["runs"]
    if not runs:
        raise BenchError("the worker completed no job")
    results = _check_runs(spec, runs, work, refs)
    errs = [r.err for r in results if r.err is not None]
    if not errs:
        raise BenchError("no job reported eigenvalues to measure errors on")
    times_ms = [dt * 1e3 for _, dt, _, _ in runs]
    n, failed = len(runs), sum(not r.ok for r in results)
    if n < P90_MIN_JOBS:
        print(f"warning: only {n} jobs; job_ms_p90 needs {P90_MIN_JOBS} to have 10 samples beyond it",
              file=sys.stderr)
    metrics = {
        "jobs_per_s": (n / main["loop_s"], f"{n} jobs in {main['loop_s']:.2f} s"),
        "job_ms_p50": (statistics.median(times_ms), f"n={n}"),
        "job_ms_p90": (_percentile(times_ms, 0.9), f"n={n}"),
        "setup_s": (statistics.median(setups), f"median of {len(setups)} fresh workers"),
        "peak_rss_mb": (main["peak_rss_mb"], "worker ru_maxrss"),
        "err_gmean": (checks.gmean_err(errs), f"geometric mean over {len(errs)} jobs"),
    }
    report = {
        "err_max": (max(errs), "max |error| / ||eta||_ball"),
        "job_fail_frac": (failed / n, f"{failed}/{n} jobs"),
    }
    return main["provenance"], results, metrics, report


def _per_layer(root, work, spec, refs, names):
    """Same shape as ``_end_to_end``, over the fixed traced job prefix.  A
    metric of a function the library no longer has stays 0."""
    n = spec["params"]["trace_jobs"]
    plain = _worker(root, work, "untraced", "--max-jobs", str(n))
    traced = _worker(root, work, "traced", "--max-jobs", str(n), "--trace")
    runs = traced["runs"]
    results = _check_runs(spec, runs, work, refs)
    self_s, counts, errors = traced["self_s"], traced["counts"], traced["errors"]
    values = {f"{name}.self_ms": s * 1e3 for name, s in self_s.items()}
    values.update(counts)
    for name in ("numerics.gauss_legendre", "jacobi.build_family"):
        calls = counts.get(f"{name}.calls", 0)
        values[f"{name}.repeat_frac"] = counts.get(f"{name}.repeats", 0) / calls if calls else 0.0
    values.update({f"{layer}.errors": errors.get(layer, 0) for layer in tracing.LAYERS})
    values["cli.bytes_out"] = sum(b for _, _, b, _ in runs)
    values["operator.series.rel_bad"] = sum(r.rel_bad["series"] for r in results)
    values["operator.moment.rel_bad"] = sum(r.rel_bad["moment"] for r in results)
    untraced_s = sum(dt for _, dt, _, _ in plain["runs"])
    values["trace.overhead_frac"] = sum(dt for _, dt, _, _ in runs) / untraced_s - 1.0
    metrics = {name: (values.get(name, 0), "") for name in names}
    failed = sum(not r.ok for r in results)
    report = {"job_fail_frac": (failed / len(runs), f"{failed}/{len(runs)} traced jobs")}
    return traced["provenance"], results, metrics, report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = HERE.parent
    if not (root / "src" / "radialeit" / "cli.py").is_file():
        print(f"error: no radialeit sources under {root / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    t0 = time.perf_counter()
    try:
        refs = checks.References()
        spec = workloads.generate(args.workload, args.seed, work, refs)
        gen_s = time.perf_counter() - t0
        if args.trace:
            prov, results, metrics, report = _per_layer(root, work, spec, refs, names)
        else:
            prov, results, metrics, report = _end_to_end(root, work, spec, args.seconds, refs)
        missing = set(names) - set(metrics)
        if missing:
            raise BenchError(f"BENCHMARK.json names metrics this benchmark does not measure: {sorted(missing)}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r.ok for r in results)
    print(f"# radialeit benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for key, value in {"commit": _commit(root), **prov}.items():
        print(f"# provenance.{key} = {value}")
    print(f"# inputs generated in {gen_s:.2f} s; total {time.perf_counter() - t0:.2f} s")
    for name, (value, note) in {**metrics, **report}.items():
        print(f"{name:40s} {value:>16.6g} {units.get(name, '1'):6s} {note}")
    for job, r in zip(spec["jobs"], results):
        if not r.ok:
            print(f"# FAILED {job['name']} {' '.join(job['argv'])}: {'; '.join(r.reasons[:3])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
