"""Seeded inputs for the benchmark: profile files, spectrum CSVs, job list.

Everything is drawn from ``random.Random`` seeded with the workload name and
the seed, so the same seed gives byte-identical files on any platform.  The
library only ever sees what is written here: profile JSON files, spectrum
CSV files and the argv of each job.

Jobs come in rounds.  Each round covers every setting of its workload once,
in a seeded order, so the mix of sizes in a run does not depend on where the
timed loop happens to stop, and the seed changes the run's total work little.
Every job that takes a profile gets a fresh one, of a kind fixed by its place
in the round; its shape and values are random.  Invert jobs read spectrum
CSVs made from a small pool of profiles instead, because each CSV needs its
exact eigenvalues before the run starts.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# Generation parameters.  "trace_jobs" is the fixed job prefix the traced run
# measures, so its counts repeat exactly for a seed.  "rounds" is far more
# than a run at today's speed completes; the timed loop stops on the clock.
WORKLOADS = {
    "spectrum": {
        "dims": [2, 3, 5],
        "degrees": [100, 200, 400],
        "rounds": 150,
        "trace_jobs": 36,
    },
    "crossval": {
        "dims": [2, 3],
        "degrees": [4, 5, 6, 7, 8, 9, 10],
        "rounds": 150,
        "trace_jobs": 56,
    },
    "small-jobs": {
        "dims": [2, 3, 4, 5],
        "basis_K": [20, 150],
        "invert_L": [50, 300],
        "invert_K": [10, 60],
        "invert_pool": 8,
        "truncate_L": [50, 2000],
        "truncate_N": [5, 40],
        "eigvals_L": [2, 30],
        "rounds": 400,
        "trace_jobs": 96,
    },
}

PROFILE_KINDS = ("constant", "ramp", "annulus", "inner-annulus", "polynomial", "binomial", "piecewise")


def _breakpoints(rng: random.Random, count: int, lo: float = 0.02, hi: float = 0.98) -> list[float]:
    """``count`` strictly increasing interior cuts, at least 0.02 apart."""
    while True:
        cuts = sorted(rng.uniform(lo, hi) for _ in range(count))
        if all(b - a >= 0.02 for a, b in zip([0.0] + cuts, cuts + [1.0])):
            return cuts


def _value(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 3.0)


def make_profile(rng: random.Random, kind: str, pieces: int) -> dict:
    """One profile document (breakpoints/pieces) of the given kind.

    ``pieces`` is used by the piecewise kind only.  Every kind is non-zero,
    so its ball norm is positive.
    """
    if kind == "constant":
        return {"breakpoints": [0.0, 1.0], "pieces": [[_value(rng)]]}
    if kind == "ramp":
        return {"breakpoints": [0.0, 1.0], "pieces": [[0.0, _value(rng)]]}
    if kind in ("annulus", "inner-annulus"):
        # an inner annulus ends well inside the ball: its eigenvalues decay
        # geometrically and the series route loses their sign
        r1, r2 = (_breakpoints(rng, 2, 0.05, 0.5) if kind == "inner-annulus"
                  else (*_breakpoints(rng, 1, 0.1, 0.9), 1.0))
        cuts, vals = [0.0, r1, r2, 1.0], [[0.0], [_value(rng)], [0.0]]
        keep = [i for i in range(3) if cuts[i] < cuts[i + 1]]
        return {"breakpoints": [cuts[i] for i in keep] + [1.0], "pieces": [vals[i] for i in keep]}
    if kind == "polynomial":
        degree = rng.randint(2, 8)
        return {"breakpoints": [0.0, 1.0], "pieces": [[rng.uniform(-1.0, 1.0) for _ in range(degree + 1)]]}
    if kind == "binomial":
        # s (a - r)**k in monomial form: cancelling coefficients, like (1 - r)**8
        k, a, s = rng.randint(4, 8), rng.uniform(0.8, 1.2), _value(rng)
        coeffs = [s * math.comb(k, j) * a ** (k - j) * (-1.0) ** j for j in range(k + 1)]
        return {"breakpoints": [0.0, 1.0], "pieces": [coeffs]}
    if kind == "piecewise":
        cuts = _breakpoints(rng, pieces - 1)
        return {
            "breakpoints": [0.0] + cuts + [1.0],
            "pieces": [[rng.uniform(-1.0, 1.0) for _ in range(rng.randint(1, 4))] for _ in range(pieces)],
        }
    raise ValueError(f"unknown profile kind {kind!r}")


GOLDEN = 0.6180339887498949


def _even(rng: random.Random):
    """Seeded low-discrepancy points in [0, 1): a random start plus multiples
    of the golden ratio.  Sizes drawn from it cover their range evenly over
    any stretch of a run, so the run's total work varies little by seed."""
    u, i = rng.random(), 0
    while True:
        yield (u + i * GOLDEN) % 1.0
        i += 1


def _pick(x: float, lo: int, hi: int) -> int:
    """Integer in lo..hi from x in [0, 1)."""
    return lo + int(x * (hi - lo + 1))


def _kind(i: int) -> tuple[str, int]:
    """Profile kind number i (cyclic) and, for piecewise, its piece count."""
    n = len(PROFILE_KINDS)
    return PROFILE_KINDS[i % n], 2 + (i // n) % 5


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _grid_rounds(cmd: str):
    """Every (d, L) setting once per round.  Setting s gets profile kind
    s + r in round r, so over seven rounds each setting meets every kind."""

    def rounds(rng, params):
        settings = [(d, L) for d in params["dims"] for L in params["degrees"]]
        for r in range(params["rounds"]):
            jobs = [{"cmd": cmd, "d": d, "L": L, "kind": s + r} for s, (d, L) in enumerate(settings)]
            rng.shuffle(jobs)
            yield from jobs

    return rounds


def _small_rounds(rng, params):
    """Each round: two each of basis, invert, truncate and eigvals (one CSV,
    one JSON), sizes spread evenly over their ranges by ``_even``."""
    dims = params["dims"]
    seq = {name: _even(rng) for name in ("basis_K", "basis_d", "invert_L", "invert_K", "truncate_L",
                                         "truncate_N", "eigvals_L", "eigvals_d")}

    def pick(name, lo, hi):
        return _pick(next(seq[name]), lo, hi)

    for r in range(params["rounds"]):
        jobs = []
        for half in (0, 1):
            jobs.append({"cmd": "basis", "d": dims[pick("basis_d", 0, len(dims) - 1)],
                         "K": pick("basis_K", *params["basis_K"])})
            jobs.append({
                "cmd": "invert", "pool": (2 * r + half) % params["invert_pool"], "d": dims[half],
                "L": pick("invert_L", *params["invert_L"]), "K": pick("invert_K", *params["invert_K"]),
                "tau": _log_uniform(rng, 1e-10, 1e-4),
                "alpha": rng.choice((0.0, _log_uniform(rng, 1e-12, 1e-6))),
            })
            jobs.append({"cmd": "truncate", "d": dims[half], "L": pick("truncate_L", *params["truncate_L"]),
                         "N": pick("truncate_N", *params["truncate_N"]), "kind": 4 * r + half})
            jobs.append({"cmd": "eigvals", "d": dims[pick("eigvals_d", 0, len(dims) - 1)],
                         "L": pick("eigvals_L", *params["eigvals_L"]), "format": ("csv", "json")[half],
                         "kind": 4 * r + 2 + half})
        rng.shuffle(jobs)
        yield from jobs


_ROUNDS = {"spectrum": _grid_rounds("eigvals"), "crossval": _grid_rounds("verify"), "small-jobs": _small_rounds}

# one cheap job per subcommand the workload runs, before the timed loop
_WARMUP = {
    "spectrum": [{"cmd": "eigvals", "d": 2, "L": 100, "kind": 0}],
    "crossval": [{"cmd": "verify", "d": 2, "L": 4, "kind": 0}],
    "small-jobs": [
        {"cmd": "basis", "d": 2, "K": 20},
        {"cmd": "invert", "pool": 0, "d": 2, "L": 50, "K": 10, "tau": 1e-10, "alpha": 0.0},
        {"cmd": "truncate", "d": 2, "L": 50, "N": 5, "kind": 0},
        {"cmd": "eigvals", "d": 2, "L": 5, "kind": 0},
    ],
}


def _argv(job: dict) -> list[str]:
    name, cmd = job["name"], job["cmd"]
    io = ["--format", job["format"], "--out", job["out"]]
    if cmd == "basis":
        return ["basis", "--dim", str(job["d"]), "--K", str(job["K"])] + io
    if cmd == "invert":
        return ["invert", "--spectrum", f"spectra/{name}.csv", "--dim", str(job["d"]),
                "--K", str(job["K"]), "--tau", repr(job["tau"]), "--alpha", repr(job["alpha"])] + io
    argv = [cmd, "--profile", f"profiles/{name}.json", "--dim", str(job["d"]), "--L", str(job["L"])]
    if cmd == "truncate":
        argv += ["--N", str(job["N"])]
    return argv + io


def generate(workload: str, seed: int, work: Path, refs) -> dict:
    """Write the inputs of one run under ``work`` and return the job list.

    ``refs`` is the run's ``checks.References``; each job's ``profile`` is
    its index there.  Invert spectra are the exact eigenvalues of a pool
    profile, rounded once.
    """
    params = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    pool = [refs.add(make_profile(rng, *_kind(i))) for i in range(params.get("invert_pool", 0))]
    for sub in ("profiles", "spectra", "out"):
        (work / sub).mkdir(parents=True)

    def finish(job: dict, name: str) -> dict:
        job.setdefault("format", rng.choice(("csv", "json")))
        job = {"name": name, **job, "out": f"out/{name}.{job['format']}"}
        if job["cmd"] == "invert":
            job["profile"] = pool[job.pop("pool")]
            values = refs.eigenvalues(job["profile"], job["d"], job["L"])
            lines = ["ell,lambda"] + [f"{ell},{v!r}" for ell, v in enumerate(values, start=1)]
            (work / "spectra" / f"{name}.csv").write_text("\n".join(lines) + "\n")
        elif job["cmd"] != "basis":
            doc = make_profile(rng, *_kind(job.pop("kind")))
            job["profile"] = refs.add(doc)
            (work / "profiles" / f"{name}.json").write_text(json.dumps(doc))
        job["argv"] = _argv(job)
        return job

    warmup = [finish(dict(job), f"w{i}") for i, job in enumerate(_WARMUP[workload])]
    jobs = [finish(job, f"j{i:05d}") for i, job in enumerate(_ROUNDS[workload](rng, params))]
    spec = {"workload": workload, "seed": seed, "params": params, "warmup": warmup, "jobs": jobs}
    (work / "jobs.json").write_text(json.dumps(spec, indent=1) + "\n")
    return spec
