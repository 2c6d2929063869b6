#!/usr/bin/env python3
"""What do an engine build, a cache save and a cache load cost?

Run from the repository root:

    python3 scripts/engine_cache.py

For n = 43 (the benchmark's ``engine-n43`` modulus, a 2,099,863-entry
table) and the n = 53 README modulus (a 20,394,401-entry table), every
prime tabulated, it times REPS engine builds, REPS ``save_engine``
calls and REPS ``load_engine`` calls of the last build's engine, in a
temporary directory, and then traces one build, one save and one load
with tracemalloc.  Every loaded engine must give the built engine's
plan and its logs of CHECKS seeded elements.

Writes BENCH_cache.json at the repository root: per instance, its
table entries, the median and every run of build, save and load
seconds, the cache file's size, and the traced peaks.  The n = 53
instance holds its engine (330 MB) beside each build or load (about
0.5 GB traced), so the run needs about 1 GB.
"""

import json
import random
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bench_env import env  # noqa: E402

from lowmult import (  # noqa: E402
    build_engine,
    load_engine,
    make_context,
    parse_poly,
    save_engine,
)

README_53 = ("53,47,45,44,42,40,39,38,36,33,32,31,30,28,27,26,25,21,20,17,"
             "16,15,13,11,10,7,6,3,2,1,0")
INSTANCES = ["43,6,4,3,0", README_53]
REPS = 5
CHECKS = 64
OUT = ROOT / "BENCH_cache.json"


def _timed(run):
    t0 = perf_counter()
    out = run()
    return perf_counter() - t0, out


def _traced_mb(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _seconds(runs):
    return {"median": statistics.median(runs), "runs": runs}


def instance(spec, path):
    poly = parse_poly(spec)
    build_s = []
    for _ in range(REPS):
        engine = None  # one engine at a time
        seconds, engine = _timed(lambda: build_engine(make_context(poly)))
        build_s.append(seconds)
    ctx = engine.ctx
    rng = random.Random(spec)
    elems = [rng.randrange(1, ctx.order + 1) for _ in range(CHECKS)]
    want = [engine.discrete_log(a) for a in elems]
    save_s = [_timed(lambda: save_engine(engine, path))[0] for _ in range(REPS)]
    load_s = []
    for _ in range(REPS):
        seconds, loaded = _timed(lambda: load_engine(path))
        load_s.append(seconds)
        if (loaded.strategy_summary() != engine.strategy_summary()
                or [loaded.discrete_log(a) for a in elems] != want):
            raise SystemExit(f"P={spec}: the loaded engine differs from the built one")
        del loaded
    peaks = {"build": _traced_mb(lambda: build_engine(make_context(poly))),
             "save": _traced_mb(lambda: save_engine(engine, path)),
             "load": _traced_mb(lambda: load_engine(path))}
    row = {
        "poly": spec,
        "n": ctx.n,
        "entries": sum(m for _, _, _, m in engine.strategy_summary()),
        "largest_table": max(m for _, _, _, m in engine.strategy_summary()),
        "build_s": _seconds(build_s),
        "save_s": _seconds(save_s),
        "load_s": _seconds(load_s),
        "file_mb": Path(path).stat().st_size / 1e6,
        "traced_peak_mb": peaks,
    }
    print(f"n={ctx.n}: build {row['build_s']['median']:.3f} s, save "
          f"{row['save_s']['median']:.3f} s, load {row['load_s']['median']:.3f} s, "
          f"file {row['file_mb']:.1f} MB, traced peaks (MB) build "
          f"{peaks['build']:.1f} save {peaks['save']:.3f} load {peaks['load']:.1f}",
          flush=True)
    return row


def main():
    with tempfile.TemporaryDirectory() as tmp:
        rows = [instance(spec, str(Path(tmp) / "engine.bin"))
                for spec in INSTANCES]
    OUT.write_text(json.dumps({
        "reps": REPS,
        "env": env(),
        "instances": rows,
    }, indent=1) + "\n")


if __name__ == "__main__":
    main()
