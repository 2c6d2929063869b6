#!/usr/bin/env python3
"""What does one discrete log cost on the array path?

Run from the repository root:

    python3 scripts/log_cost.py

For each instance it builds the engine and times REPS calls of
``discrete_log`` on a seeded array of BATCH nonzero elements, REPS
calls on a one-element array, and one scalar call (an int, not an
array) on each element of the batch.  The instances are n = 18, 30 and
43 of the benchmark workloads, a dense n = 36 modulus and the n = 53
README modulus, every prime tabulated (a batch of 2048, 30 calls); and
n = 31 of the ``sample-n31`` workload, where 2^31 - 1 is prime and
every log is a baby-step giant-step search, with the default baby
table and with 2^18 and 2^20 entries (a batch of 64, 10 calls, in runs
of 8 elements that take 2048 giant steps each a pass).  It checks every
answer of the first batch by ``ctx.pow(2, y)``, and the scalar answers
against it.  The scalar field kernel under the scalar log is timed over the
batch's elements too, REPS loops each: ``ctx.mul`` (each element times
the next), ``ctx.sqr`` and the flat projection, ``ctx.pows`` of the
engine's cofactors M/q, which is most of a scalar log.

It also counts the array products of one batch: those of the
projections by the flat method (one product per set bit of each
cofactor M/q after the first, Pohlig-Hellman's direct projection) and
by the engine's product tree, every ``mul_table`` call the batch makes
(the elementwise products of the projections and of the digits'
powers), every ``mul_grid`` call (one per lifted digit and one per
giant pass) and the giant passes alone, as calls of
``_SubgroupLog._filter``, which runs once a pass.  The tracemalloc
peak of one batch, per element, is what
``dlog.BATCH_LOG_BYTES`` models on tabulated engines; at n = 31 it
holds a giant pass (``dlog.giant_pass_bytes``) shared by a run of 8
elements.

Where the engine has a baby-step giant-step solver (the n = 31
instances) it also times the giant-step passes of one scalar log of
each element: the passes per log (``_filter`` calls), and a pass's
mean µs in its grid product (``mul_grid``), its bit filter and its
confirmation in the baby table; and REPS builds of the engine, split
into the baby table's powers and sort, the giant block's powers and
digits, and the bit filter (medians).

Writes BENCH_logs.json at the repository root: per instance, its baby
table size (null for the default), batch, calls and strategies, the
build time, the minimum and median µs per log over the REPS calls, the
minimum and median µs of the scalar logs over the batch's elements,
the minimum and median µs per call of the three scalar kernels over
the REPS loops, both product counts, the measured calls and the bytes
per element, and on the n = 31 instances the pass and build splits.
The n = 53 build takes about 15 s and 0.5 GB.
"""

import json
import statistics
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from bench_env import env  # noqa: E402

from lowmult import build_engine, dlog, make_context, parse_poly  # noqa: E402

README_53 = ("53,47,45,44,42,40,39,38,36,33,32,31,30,28,27,26,25,21,20,17,"
             "16,15,13,11,10,7,6,3,2,1,0")
# (modulus, bsgs_baby_entries, BATCH, REPS)
INSTANCES = [
    ("18,7,0", None, 2048, 30),
    ("30,6,4,1,0", None, 2048, 30),
    ("36,35,33,32,30,28,27,25,24,19,18,15,12,11,7,3,0", None, 2048, 30),
    ("43,6,4,3,0", None, 2048, 30),
    (README_53, None, 2048, 30),
    ("31,3,0", None, 64, 10),
    ("31,3,0", 2**18, 64, 10),
    ("31,3,0", 2**20, 64, 10),
]
SEED = 2
OUT = ROOT / "BENCH_logs.json"


def _tree_products(node):
    """Products of the projections through a dlog._product_tree."""
    if isinstance(node, int):
        return 0
    children, exps = node
    return (sum(e.bit_count() - 1 for e in exps)
            + sum(map(_tree_products, children)))


def _us_per_log(engine, elems, reps):
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        engine.discrete_log(elems)
        times.append((perf_counter() - t0) / len(elems) * 1e6)
    return {"min": min(times), "median": statistics.median(times)}


def _us_per_scalar_log(engine, elems, ys):
    times = []
    for a, y in zip(elems.tolist(), ys.tolist()):
        t0 = perf_counter()
        got = engine.discrete_log(a)
        times.append((perf_counter() - t0) * 1e6)
        if got != y:
            raise SystemExit(f"scalar log of {a} is {got}, the array's {y}")
    return {"min": min(times), "median": statistics.median(times)}


def _us_per_call(fn, args, reps):
    """µs per call of fn over the argument tuples, a loop over all of
    them reps times."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        for a in args:
            fn(*a)
        times.append((perf_counter() - t0) / len(args) * 1e6)
    return {"min": min(times), "median": statistics.median(times)}


def measure(poly, baby, batch, reps):
    ctx = make_context(parse_poly(poly))
    M = ctx.order
    t0 = perf_counter()
    engine = build_engine(ctx, bsgs_baby_entries=baby)
    build_s = perf_counter() - t0
    rng = np.random.default_rng(SEED)
    elems = rng.integers(1, M, batch, endpoint=True, dtype=np.uint64)
    ys = engine.discrete_log(elems)
    bad = [(int(a), int(y)) for a, y in zip(elems, ys)
           if ctx.pow(2, int(y)) != int(a)]
    if bad:
        raise SystemExit(f"P={poly}: x^{bad[0][1]} != {bad[0][0]}")

    acc = {}
    with (_timing(ctx.batch, "mul_table", acc),
          _timing(ctx.batch, "mul_grid", acc),
          _timing(dlog._SubgroupLog, "_filter", acc)):
        engine.discrete_log(elems)
    calls = {name: count for name, (_, count) in acc.items()}

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        engine.discrete_log(elems)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()

    ints = elems.tolist()
    pairs = list(zip(ints, ints[1:] + ints[:1]))
    row = {
        "poly": poly,
        "n": ctx.n,
        "bsgs_baby_entries": baby,
        "batch": batch,
        "reps": reps,
        "prime_powers": [[p, e] for p, e in ctx.factorization],
        "strategies": [s for _, _, s, _ in engine.strategy_summary()],
        "engine_build_s": build_s,
        "us_per_log_batch": _us_per_log(engine, elems, reps),
        "us_per_log_single": _us_per_log(engine, elems[:1], reps),
        "us_per_scalar_log": _us_per_scalar_log(engine, elems, ys),
        "us_per_scalar_mul": _us_per_call(ctx.mul, pairs, reps),
        "us_per_scalar_sqr": _us_per_call(ctx.sqr, [(a,) for a in ints],
                                          reps),
        "us_per_flat_projection": _us_per_call(
            ctx.pows, [(a, *engine._flat[1]) for a in ints], reps),
        "projection_products_flat": sum(
            (M // p**e).bit_count() - 1 for p, e in ctx.factorization),
        "projection_products_tree": _tree_products(engine._tree),
        "mul_table_calls_per_batch": calls["mul_table"],
        "mul_grid_calls_per_batch": calls["mul_grid"],
        "giant_passes_per_batch": calls["_filter"],
        "traced_bytes_per_element": peak / batch,
    }
    print(f"n={ctx.n} baby={baby or 'default'}: "
          f"{row['us_per_log_batch']['min']:.2f} us/log "
          f"(batch of {batch}), {row['us_per_log_single']['min']:.0f} us "
          f"(batch of one), {row['us_per_scalar_log']['median']:.0f} us "
          f"(scalar, median); scalar mul "
          f"{row['us_per_scalar_mul']['median'] * 1e3:.0f} ns, sqr "
          f"{row['us_per_scalar_sqr']['median'] * 1e3:.0f} ns, flat "
          f"projection {row['us_per_flat_projection']['median']:.0f} us; "
          f"projection products "
          f"{row['projection_products_flat']} flat, "
          f"{row['projection_products_tree']} tree; "
          f"{calls['mul_table']} mul_table and {calls['mul_grid']} mul_grid "
          f"calls, {calls['_filter']} giant passes; "
          f"{row['traced_bytes_per_element']:.0f} B "
          f"per element", flush=True)
    if "bsgs" in row["strategies"]:
        row.update(_bsgs_split(ctx, engine, baby, ints, reps))
        passes, us = row["scalar_passes_per_log"], row["scalar_pass_us"]
        build = row["build_split_s"]
        print(f"  {passes:.2f} passes per scalar log; a pass "
              f"{us['grid']:.0f} us grid, {us['filter']:.0f} us filter, "
              f"{us['confirm']:.0f} us confirm; build "
              f"{build['total'] * 1e3:.2f} ms: baby powers and sort "
              f"{build['baby'] * 1e3:.2f}, giant powers and digits "
              f"{build['giant'] * 1e3:.2f}, filter "
              f"{build['filter'] * 1e3:.2f}", flush=True)
    return row


@contextmanager
def _timing(owner, name, acc):
    """Add the seconds and the count of every call of owner.name to
    acc[name] = [seconds, calls] while the block runs."""
    fn, own = getattr(owner, name), name in vars(owner)
    acc[name] = [0.0, 0]

    def timed(*args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            acc[name][0] += perf_counter() - t0
            acc[name][1] += 1
    setattr(owner, name, timed)
    try:
        yield
    finally:
        if own:
            setattr(owner, name, fn)
        else:
            delattr(owner, name)


def _bsgs_split(ctx, engine, baby, ints, reps):
    """Passes per scalar log and a pass's grid, filter and confirm µs,
    over one scalar log of each element; and the median seconds of the
    build's parts over reps builds (baby powers and sort, giant powers
    and digits, filter)."""
    pass_acc = {}
    with (_timing(ctx.batch, "mul_grid", pass_acc),
          _timing(dlog._SubgroupLog, "_filter", pass_acc),
          _timing(dlog._SubgroupLog, "_confirm", pass_acc)):
        for a in ints:
            engine.discrete_log(a)
    passes = pass_acc["_filter"][1]  # one a pass
    parts = {"total": [], "baby": [], "giant": [], "filter": []}
    for _ in range(reps):
        acc = {}
        with (_timing(dlog, "_tabulate", acc),
              _timing(dlog, "_giant_digits", acc),
              _timing(dlog, "_bit_filter", acc)):
            t0 = perf_counter()
            build_engine(ctx, bsgs_baby_entries=baby)
            parts["total"].append(perf_counter() - t0)
        for part, name in (("baby", "_tabulate"), ("giant", "_giant_digits"),
                           ("filter", "_bit_filter")):
            parts[part].append(acc[name][0])
    return {
        "scalar_passes_per_log": passes / len(ints),
        "scalar_pass_us": {part: pass_acc[name][0] / passes * 1e6
                           for part, name in
                           (("grid", "mul_grid"), ("filter", "_filter"),
                            ("confirm", "_confirm"))},
        "build_split_s": {part: statistics.median(t)
                          for part, t in parts.items()},
    }


def main():
    rows = [measure(*instance) for instance in INSTANCES]
    OUT.write_text(json.dumps({
        "seed": SEED,
        "env": env(),
        "instances": rows,
    }, indent=1) + "\n")


if __name__ == "__main__":
    main()
