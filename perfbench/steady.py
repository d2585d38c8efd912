"""Steadiness mode: run one workload several times, each with its own seed,
and print every end-to-end metric's median and quartile spread beside its
bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload spectrum [--runs 10] [--first-seed 1]

Each run measures ``run_seconds`` of BENCHMARK.json.  The spread is
(Q3 - Q1) / median with the quartiles of ``statistics.quantiles(values, n=4)``.
A metric's regression bound should be at least three times its spread.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCHMARK = HERE.parent / "BENCHMARK.json"


def spread(values: list[float]) -> tuple[float, float, float]:
    """(median, Q1, Q3) of the values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to have quartiles")
    bench = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"run with seed {seed} exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"{'metric':40s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med, q1, q3 = spread(vals)
        rel = (q3 - q1) / med if med else float("nan")
        print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} {bounds[name]:6.2f} {units[name]}")
    print(json.dumps(values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
