"""Benchmark worker: one fresh process that drives ``radialeit.cli.main``.

It imports the CLI from the checkout's ``src/``, runs the warm-up jobs, then
runs the job list back to back (closed loop, no think time) until the clock
or the job limit stops it, and writes one JSON result file.  ``run.py``
starts it with BLAS pinned to one thread.

    python3 perfbench/worker.py --root . --work DIR --result FILE
        [--seconds S] [--max-jobs N] [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

EXIT_STALE_INSTALL = 3
EXIT_RAISED = -1  # recorded for a job whose cli.main call raised


def _provenance(radialeit, numpy, src: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted(src.joinpath("radialeit").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": getattr(radialeit, "BACKEND", "n/a"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "radialeit_file": str(Path(radialeit.__file__).relative_to(src.parent)),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=float("inf"))
    ap.add_argument("--max-jobs", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    src = args.root.resolve() / "src"
    spec = json.loads((args.work / "jobs.json").read_text())
    os.chdir(args.work)  # job argv paths are relative to the work directory
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import radialeit.cli as cli

    import radialeit
    import numpy

    if not Path(radialeit.__file__).resolve().is_relative_to(src):
        print(f"refusing to measure radialeit from {radialeit.__file__}, not from {src}", file=sys.stderr)
        return EXIT_STALE_INSTALL
    for job in spec["warmup"]:
        cli.main(job["argv"])
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "provenance": _provenance(radialeit, numpy, src)}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    jobs = spec["jobs"][: args.max_jobs]
    tracer = None
    if args.trace:
        import tracing

        modules = {}
        for layer in tracing.LAYERS:
            try:
                modules[layer] = importlib.import_module(f"radialeit.{layer}")
            except ImportError:  # a layer a later version may have removed
                pass
        tracer = tracing.Tracer(modules)
        tracer.__enter__()
    runs = []  # [exit code, seconds, bytes out, exception or None] per job
    clock = time.perf_counter
    try:
        start = clock()
        for job in jobs:
            t = clock()
            try:
                code, raised = cli.main(job["argv"]), None
            except Exception as exc:  # a crashing job fails; the run goes on
                code, raised = EXIT_RAISED, f"{type(exc).__name__}: {exc}"
            dt = clock() - t
            out = Path(job["out"])
            runs.append([code, dt, out.stat().st_size if out.exists() and raised is None else 0, raised])
            if clock() - start >= args.seconds:
                break
        loop_s = clock() - start
    finally:
        if tracer is not None:
            tracer.__exit__(None, None, None)
    result.update(runs=runs, loop_s=loop_s, peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        result["self_s"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
        result["errors"] = dict(tracer.errors)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
