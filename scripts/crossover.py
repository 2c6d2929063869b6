#!/usr/bin/env python3
"""Where does the log route overtake the classical route?

Run from the repository root:

    python3 scripts/crossover.py

Two sweeps: D = 512, 1024, ..., 16384 at P = 30,6,4,1,0 (all subgroups
tabulated), w = 4, where the log route's cost is its logs; and D = 48,
96, 192, 384 at P = 18,7,0, w = 6, where it is the match kernel (about
19,600 rows at D = 192, one per multiple).  For each D it alternates REPS calls of
``logtmto_find_all`` and ``tmto_find_all`` in this process, checks that
both return the same record set, and records every call's time.  The
engine is built REPS times before any timing, and one untimed call of
each route comes first so that lazy set-up is not timed.

Writes BENCH_crossover.json at the repository root, one entry per
sweep: per D, each route's median and quartiles; the engine build's
median over REPS builds; and ``crossover_D``, the smallest D of the
sweep from which ``logtmto`` wins at every larger D too.  A win is
``logtmto``'s median plus the build's below ``tmto``'s lower quartile:
``find-all --algorithm auto`` pays the build, and a tie within the
run-to-run spread goes to ``tmto``.  ``cli.AUTO_LOG_MIN_DEGREE`` (2048)
was set from the w = 4 sweep's value when a batched log cost about
10 us; the sweep now gives 1024, and the constant stays at 2048 until
ROADMAP item 3, a rule that weighs predicted work, replaces it.
"""

import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bench_env import env  # noqa: E402

from lowmult import (  # noqa: E402
    SearchParams,
    build_engine,
    logtmto_find_all,
    make_context,
    parse_poly,
    tmto_find_all,
)

SWEEPS = [
    ("30,6,4,1,0", 4, [2**k for k in range(9, 15)]),
    ("18,7,0", 6, [48, 96, 192, 384]),
]
REPS = 5
OUT = ROOT / "BENCH_crossover.json"


def _summary(samples):
    q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median_s": med, "q1_s": q1, "q3_s": q3, "samples_s": samples}


def sweep(poly, weight, degrees):
    """One instance's rows, engine build and crossover_D."""
    ctx = make_context(parse_poly(poly))
    builds = []
    for _ in range(REPS):
        t0 = perf_counter()
        engine = build_engine(ctx)
        builds.append(perf_counter() - t0)
    build = _summary(builds)
    routes = {
        "logtmto": lambda D: logtmto_find_all(
            ctx, engine, SearchParams.balanced(weight, D, "logarithmic")),
        "tmto": lambda D: tmto_find_all(
            ctx, SearchParams.balanced(weight, D, "classical")),
    }
    for run in routes.values():
        run(degrees[0])
    rows = []
    for D in degrees:
        times = {name: [] for name in routes}
        sets = {}
        for _ in range(REPS):
            for name, run in routes.items():
                t0 = perf_counter()
                result = run(D)
                times[name].append(perf_counter() - t0)
                sets.setdefault(name, result.exponent_sets())
                del result
        if sets["logtmto"] != sets["tmto"]:
            raise SystemExit(f"P={poly} w={weight} D={D}: "
                             "the routes return different record sets")
        row = {"D": D, "records": len(sets["tmto"])}
        del sets
        row.update({name: _summary(t) for name, t in times.items()})
        row["tmto_over_logtmto"] = (
            row["tmto"]["median_s"] / row["logtmto"]["median_s"])
        rows.append(row)
        print(f"P={poly} w={weight} D={D:6d}  "
              f"logtmto {row['logtmto']['median_s']:.4f} s  "
              f"tmto {row['tmto']['median_s']:.4f} s  "
              f"ratio {row['tmto_over_logtmto']:.2f}", flush=True)
    crossover = None
    for row in reversed(rows):
        if row["logtmto"]["median_s"] + build["median_s"] >= row["tmto"]["q1_s"]:
            break
        crossover = row["D"]
    print(f"engine build {build['median_s']:.4f} s; crossover_D = {crossover}")
    return {"instance": {"poly": poly, "w": weight}, "engine_build": build,
            "rows": rows, "crossover_D": crossover}


def main():
    sweeps = [sweep(*args) for args in SWEEPS]
    OUT.write_text(json.dumps({
        "reps": REPS,
        "env": env(),
        "sweeps": sweeps,
    }, indent=1) + "\n")


if __name__ == "__main__":
    main()
