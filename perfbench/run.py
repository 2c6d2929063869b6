#!/usr/bin/env python3
"""lowmult benchmark: fixed instances, timed end to end and by layer.

Run from the repository root:

    python3 perfbench/run.py --workload exhaustive-n30-w4 --seed 7 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

One run is one workload in this fresh process, on one thread: a closed
loop with a single caller that alternates the workload's log route and
no-log route (see workloads.py) until ``--seconds`` have passed, checking
every result.  Set-up (field context plus engine build) is timed cold,
in ``setup_reps - 1`` fresh child processes and then once here.

With ``--trace 1`` the same loop runs with spans around each library
call and each ``discrete_log``; each log-route call is also made once
untraced, and the difference is reported as the tracing overhead.

Details and the environment go to stdout as ``#`` lines and to
``perfbench/out/``.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  Exit status 0 when every
check passed, 1 when one failed, 2 when the sources or arguments are bad.

``--smoke`` runs every workload's code path, traced and untraced, on
instances of degree at most 12 in a few seconds.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # one thread, set before numpy loads

import argparse
import json
import platform
import random
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 75.0, 50.0)
MICRO_BATCH = 2000  # seeded operands per gf2poly micro-timing


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload on n <= 12 instances, in seconds")
    ap.add_argument("--setup-child", action="store_true",
                    help=argparse.SUPPRESS)  # one cold set-up, for the parent
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required without --smoke")
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    return args


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def summarize(values):
    """Median, and the highest percentile with at least ten samples
    beyond it (None when there are too few samples)."""
    n = len(values)
    tail_pct = next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10),
                    None)
    return {
        "median": statistics.median(values),
        "tail_pct": tail_pct,
        "tail": percentile(values, tail_pct) if tail_pct else None,
        "n": n,
    }


class Gate:
    """Counts checked operations and the ones whose check failed."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[tuple[str, list[str]]] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append((what, problems))
            for p in problems:
                print(f"perfbench: CHECK FAILED [{what}] {p}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return len(self.problems)


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload, seed, seconds, trace):
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def child_setup(name, smoke, trace):
    """One cold set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", name, "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def micro_ns(fn, operands, reps=5):
    """Median over reps of the mean ns per call of fn over operands."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        for ops in operands:
            fn(*ops)
        times.append(perf_counter() - t0)
    return statistics.median(times) / len(operands) * 1e9


def run_workload(name, wl, seed, seconds, trace, smoke):
    """Set up, loop until ``seconds`` have passed, check every result.

    Returns ``(gate, end_to_end, per_layer, details)`` where the first
    two metric dicts map names to values.
    """
    from lowmult import load_engine, save_engine

    from tracing import LOG_SPAN, TracedEngine, Tracer, bsgs_giant_steps
    from workloads import maxrss_mb, timed_setup

    # Children first: a child's peak RSS starts from its parent's peak at
    # the time it is spawned, which must not yet include an engine.
    setups = [child_setup(name, smoke, trace) for _ in range(wl.setup_reps - 1)]
    ctx, engine, own = timed_setup(wl.poly, wl.engine_kwargs, trace)
    setups.append(own)
    OUT.mkdir(exist_ok=True)
    wl.prepare(ctx, engine, seed, OUT)
    tracer = Tracer() if trace else None

    def span(label):
        return tracer.span(label) if trace else nullcontext()

    gate = Gate()
    gate.record("built engine", wl.engine_problems(engine))
    path = OUT / f"{name}.engine"
    save_s, load_s = [], []
    for _ in range(3):
        t0 = perf_counter()
        with span("dlog.save_engine"):
            save_engine(engine, str(path))
        t1 = perf_counter()
        with span("dlog.load_engine"):
            loaded = load_engine(str(path))
        save_s.append(t1 - t0)
        load_s.append(perf_counter() - t1)
    path.unlink()
    gate.record("loaded engine", wl.engine_problems(loaded))
    del loaded
    gate.record("once-per-run checks", wl.run_checks())

    durations = {"log": [], "nolog": []}
    untraced = []  # trace mode: the untraced twin of each traced log call
    per_call: dict[str, list] = {}
    log_us = []
    proxy = TracedEngine(engine, tracer) if trace else None
    start = perf_counter()
    k = 0
    while True:
        for route in ("log", "nolog"):
            run, check = wl.call(route)
            if trace and route == "log":
                t0 = perf_counter()
                result = run(engine)
                untraced.append(perf_counter() - t0)
                gate.record(f"untraced {route} call {k}", check(result))
            with span(wl.log_name if route == "log" else wl.nolog_name) as sid:
                t0 = perf_counter()
                result = run(proxy if trace else engine)
                durations[route].append(perf_counter() - t0)
            gate.record(f"{route} call {k}", check(result))
            if not trace:
                continue
            logs = tracer.child_durations(sid, LOG_SPAN)
            values = wl.layer_metrics(route, result, logs)
            if route == "log":
                ys = [y for _, y in proxy.answers]
                values.update({
                    "dlog.log_calls": len(logs),
                    "dlog.log_self_s": sum(logs),
                    "dlog.bsgs_giant_steps": bsgs_giant_steps(engine, ys),
                    "caller.self_s": tracer.duration(sid) - sum(logs),
                })
                log_us += [d * 1e6 for d in logs]
            proxy.answers.clear()
            for key, value in values.items():
                per_call.setdefault(key, []).append(value)
        if k == 0:
            # read after a fixed amount of work: later rounds repeat it, and
            # how many fit in the run depends on the machine's speed
            peak_rss_mb = maxrss_mb()
        k += 1
        if perf_counter() - start >= seconds:
            break

    medians = {route: statistics.median(v) for route, v in durations.items()}
    end_to_end = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "log_route_s": medians["log"],
        "nolog_route_s": medians["nolog"],
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "routes": {"log": wl.log_name, "nolog": wl.nolog_name},
        "timings": {
            "setup_s": summarize([s["setup_s"] for s in setups]),
            "log_route_s": summarize(durations["log"]),
            "nolog_route_s": summarize(durations["nolog"]),
        },
        "samples": durations,
        "named": wl.named(medians),
        "setups": setups,
    }
    per_layer = {}
    if trace:
        rng = random.Random(seed + 2)
        elems = [rng.randrange(1, ctx.order + 1) for _ in range(2 * MICRO_BATCH)]
        build_rss = statistics.median(s["build_rss_mb"] for s in setups)
        predicted = engine.predicted_bytes / 2**20
        tail = summarize(log_us)
        with span("gf2poly.mul"):
            mul_ns = micro_ns(ctx.mul, list(zip(elems[::2], elems[1::2])))
        with span("gf2poly.sqr"):
            sqr_ns = micro_ns(ctx.sqr, [(a,) for a in elems[:MICRO_BATCH]])
        per_layer = {
            "factorint.factorize_s":
                statistics.median(s["factorize_s"] for s in setups),
            "gf2poly.context_s": statistics.median(s["context_s"] for s in setups),
            "gf2poly.mul_ns": mul_ns,
            "gf2poly.sqr_ns": sqr_ns,
            "dlog.build_s": statistics.median(s["build_s"] for s in setups),
            "dlog.build_rss_mb": build_rss,
            "dlog.predicted_mb": predicted,
            "dlog.rss_over_predicted": build_rss / predicted,
            "dlog.save_s": statistics.median(save_s),
            "dlog.load_s": statistics.median(load_s),
            "dlog.log_us_p50": percentile(log_us, 50),
            "dlog.log_us_tail": tail["tail"] if tail["tail"] else max(log_us),
            "bench.trace_overhead_pct":
                (medians["log"] / statistics.median(untraced) - 1) * 100,
        }
        per_layer.update({key: statistics.median(v) for key, v in per_call.items()})
        details["log_us"] = tail
        details["untraced_log_route_s"] = summarize(untraced)
        details["trace_overhead_s"] = medians["log"] - statistics.median(untraced)
        tracer.write(OUT / f"{name}-seed{seed}.spans.json")
    return gate, end_to_end, per_layer, details


def result_line(gate, values, specs):
    """The last stdout line: every metric named in specs."""
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0),
                                "unit": m["unit"]} for m in specs},
    }


def print_details(env, gate, end_to_end, per_layer, details):
    print(f"# env {json.dumps(env)}")
    for metric, s in details["timings"].items():
        tail = (f", p{s['tail_pct']:g} {s['tail']:.6g}" if s["tail_pct"]
                else ", no percentile has 10 samples beyond it")
        print(f"# {metric}: median {s['median']:.6g} s over {s['n']}{tail}")
    print(f"# peak_rss_mb: {end_to_end['peak_rss_mb']:.6g} MB")
    for label, (value, unit) in details["named"].items():
        print(f"# {label}: {value:.6g} {unit}")
    for metric, value in sorted(per_layer.items()):
        print(f"# {metric}: {value:.6g}")
    if "log_us" in details:
        s = details["log_us"]
        print(f"# dlog.log_us_tail is p{s['tail_pct'] or 100:g} of {s['n']} logs")
    print(f"# checks: attempted {gate.attempted}, failed {gate.failed}, "
          f"fail_frac {gate.failed / gate.attempted:.6g}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lowmult" / "__init__.py").is_file():
        print(f"perfbench: no lowmult sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import SMOKE_WORKLOADS, WORKLOADS, timed_setup

    table = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    if args.setup_child:
        wl = table[args.workload]
        _, _, timings = timed_setup(wl.poly, wl.engine_kwargs, args.trace)
        print(json.dumps(timings))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [args.workload] if not args.smoke else list(table)
    if any(n not in table for n in names):
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    runs = [(n, t) for n in names for t in ((0, 1) if args.smoke else (args.trace,))]
    seconds = 0 if args.smoke else args.seconds
    attempted = failed = 0
    for name, trace in runs:
        gate, end_to_end, per_layer, details = run_workload(
            name, table[name], args.seed, seconds, trace, args.smoke)
        env = environment(name, args.seed, seconds, trace)
        print_details(env, gate, end_to_end, per_layer, details)
        line = result_line(gate, per_layer if trace else end_to_end,
                           spec["per_layer" if trace else "end_to_end"])
        out = {"env": env, "end_to_end": end_to_end, "per_layer": per_layer,
               "details": details, "problems": gate.problems, **line}
        (OUT / f"{name}-seed{args.seed}-trace{trace}.json").write_text(
            json.dumps(out, indent=1, default=str))
        attempted += gate.attempted
        failed += gate.failed
        if args.smoke:
            print(json.dumps({"workload": name, "trace": trace, **line}))
    if args.smoke:
        line = {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": {}}
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
