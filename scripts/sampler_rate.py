#!/usr/bin/env python3
"""How fast does the classical birthday sampler run, and in how much memory?

Run from the repository root:

    python3 scripts/sampler_rate.py

Times ``birthday_tmto`` at P = 31,3,0 on a fixed budget of ROUNDS rounds
(B = ROUNDS, so no run stops early), for w = 4 (the unbalanced (1, 2)
split, as in the benchmark's ``sample-n31`` no-log route) and w = 5
(the balanced (2, 2) split, one shared table), both at D = 65536.  Each
of the REPS runs of a case is one call in a fresh process, with seed
0, 1, ..., REPS - 1: the field set-up is done before the clock starts,
and the process's peak RSS is read after the call, beside its RSS
before it (the interpreter, numpy and the field).

Writes BENCH_sampler.json at the repository root: per case, the median
and quartiles of rounds per second, call seconds, peak RSS and the RSS
before the call, and every run's numbers.
"""

import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bench_env import env  # noqa: E402

from lowmult import SampleParams, birthday_tmto, make_context, parse_poly  # noqa: E402

POLY = "31,3,0"
CASES = [(4, 65536), (5, 65536)]
ROUNDS = 100_000
REPS = 5
OUT = ROOT / "BENCH_sampler.json"


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def one_run(w, D, seed):
    """One call in this process: its numbers as a dict."""
    ctx = make_context(parse_poly(POLY))
    params = SampleParams(w=w, D=D, B=ROUNDS, seed=seed, max_iterations=ROUNDS)
    before = _rss_mb()
    t0 = perf_counter()
    res = birthday_tmto(ctx, params)
    seconds = perf_counter() - t0
    if res.iterations != ROUNDS:
        raise SystemExit(f"stopped after {res.iterations} of {ROUNDS} rounds")
    return {"seed": seed, "seconds": seconds, "rounds_per_s": ROUNDS / seconds,
            "peak_rss_mb": _rss_mb(), "rss_before_mb": before,
            "found": res.found, "duplicates": res.duplicates}


def _summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def case(w, D):
    runs = []
    for seed in range(REPS):
        out = subprocess.run(
            [sys.executable, __file__, "--one", str(w), str(D), str(seed)],
            capture_output=True, text=True, check=True)
        runs.append(json.loads(out.stdout))
    row = {"instance": {"poly": POLY, "w": w, "D": D, "rounds": ROUNDS}}
    for key in ("rounds_per_s", "seconds", "peak_rss_mb", "rss_before_mb"):
        row[key] = _summary([run[key] for run in runs])
    row["runs"] = runs
    print(f"P={POLY} w={w} D={D}: {row['rounds_per_s']['median']:,.0f} rounds/s "
          f"({row['seconds']['median']:.3f} s), peak RSS "
          f"{row['peak_rss_mb']['median']:.1f} MB", flush=True)
    return row


def main():
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(one_run(*map(int, sys.argv[2:5]))))
        return
    cases = [case(w, D) for w, D in CASES]
    OUT.write_text(json.dumps({
        "reps": REPS,
        "env": env(),
        "cases": cases,
    }, indent=1) + "\n")


if __name__ == "__main__":
    main()
