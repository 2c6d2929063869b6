"""The benchmark's workloads: fixed instances and the two routes on each.

Every workload times two routes in turn, in one process and one thread
(a closed loop with a single caller):

* the *log route* drives the discrete-log engine;
* the *no-log route* takes no logarithm at all, so a change to ``dlog``
  should leave it where it was.

``call(route)`` builds the next call of a route from the workload
seed: ``run(engine)`` is the timed library call (``engine`` is the real
one or the tracing stand-in) and ``check(result)`` returns the problems
found in its output.  ``layer_metrics`` reads per-layer counters off a
result.  Why each instance was chosen is recorded in BENCHMARK.json and
perfbench/README.md.
"""

from __future__ import annotations

import random
import resource
from time import perf_counter

from lowmult import (
    FieldContext,
    SampleParams,
    SearchParams,
    birthday_tmto,
    build_engine,
    factorize,
    load_engine,
    logtmto_find_all,
    parse_poly,
    poly_divides,
    random_log_sample,
    save_engine,
    tmto_find_all,
    verify_multiple,
)

from tracing import Tracer, TracedEngine

CHECK_LOGS = 8  # seeded (x^y, y) pairs every engine must answer
ORACLE_SAMPLE = 32  # records per result re-checked by long division


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_setup(poly_spec: str, engine_kwargs: dict, trace: bool):
    """Field context plus engine build, cold, as a user's process pays it.

    Returns ``(ctx, engine, timings)``.  With ``trace`` the
    factorization of 2^n - 1 is first timed on its own while its prime
    sieve is still cold; the context is then built on a warm sieve, so
    ``setup_s`` is only meaningful without ``trace``.
    """
    poly = parse_poly(poly_spec)
    out = {}
    if trace:
        t = perf_counter()
        factorize((1 << poly.degree()) - 1)
        out["factorize_s"] = perf_counter() - t
    t0 = perf_counter()
    ctx = FieldContext(poly)
    t1 = perf_counter()
    rss0 = maxrss_mb()
    engine = build_engine(ctx, **engine_kwargs)
    t2 = perf_counter()
    out.update(setup_s=t2 - t0, context_s=t1 - t0, build_s=t2 - t1,
               build_rss_mb=maxrss_mb() - rss0)
    return ctx, engine, out


def record_problems(records, ctx, w: int, D: int, rng: random.Random) -> list[str]:
    """verify_multiple and parity for every record, plus long division by
    the reference oracle for a seeded sample of them."""
    bad = [r.poly for r in records
           if not verify_multiple(r.poly, ctx, w, D) or r.weight % 2 != w % 2]
    sample = rng.sample(records, min(ORACLE_SAMPLE, len(records)))
    bad += [r.poly for r in sample if not poly_divides(ctx.poly, r.poly)]
    return [f"not a weight<={w} degree<={D} multiple of parity {w % 2}: {p}"
            for p in bad[:5]]


class Workload:
    """One instance; subclasses supply the two routes."""

    log_name = ""  # the library call the log route times
    nolog_name = ""  # the library call the no-log route times

    def __init__(self, poly: str, engine_kwargs: dict | None = None,
                 setup_reps: int = 5):
        self.poly = poly
        self.engine_kwargs = engine_kwargs or {}
        self.setup_reps = setup_reps

    def prepare(self, ctx, engine, seed: int, workdir) -> None:
        self.ctx = ctx
        self.engine = engine
        self.rng = random.Random(seed)  # inputs
        self.oracle_rng = random.Random(seed + 1)  # which records to re-check
        self.workdir = workdir
        self.check_set = [
            (ctx.pow(2, y), y)
            for y in (self.rng.randrange(ctx.order) for _ in range(CHECK_LOGS))
        ]

    def engine_problems(self, engine) -> list[str]:
        """The seeded check set: every x^y must log back to y."""
        return [f"log(x^{y}) = {got}, expected {y}"
                for a, y in self.check_set
                if (got := engine.discrete_log(a)) != y]

    def call(self, route: str):
        return self.log_call() if route == "log" else self.nolog_call()

    def run_checks(self) -> list[str]:
        """Checks made once per run, outside any timed region."""
        return []

    def layer_metrics(self, route: str, result, log_durations) -> dict:
        return {}

    def named(self, medians: dict) -> dict:
        """Per-workload names for the route medians, with their units."""
        return {}


class Exhaustive(Workload):
    """logtmto_find_all against tmto_find_all on one (P, w, D)."""

    log_name = "search.logtmto_find_all"
    nolog_name = "search.tmto_find_all"

    def __init__(self, poly: str, w: int, D: int, **kw):
        super().__init__(poly, **kw)
        self.w = w
        self.D = D

    def prepare(self, ctx, engine, seed, workdir):
        super().prepare(ctx, engine, seed, workdir)
        self.reference = None  # exponent sets of the first, fully checked result

    def log_call(self):
        params = SearchParams.balanced(self.w, self.D, "logarithmic")
        return (lambda eng: logtmto_find_all(self.ctx, eng, params)), self._check

    def nolog_call(self):
        params = SearchParams.balanced(self.w, self.D, "classical")
        return (lambda eng: tmto_find_all(self.ctx, params)), self._check

    def _check(self, result) -> list[str]:
        sets = result.exponent_sets()
        if len(sets) != len(result.records) or result.report.found != len(sets):
            return ["records are not distinct or miscounted"]
        if self.reference is None:
            self.reference = sets
            return record_problems(result.records, self.ctx, self.w, self.D,
                                   self.oracle_rng)
        if sets != self.reference:
            return [f"{len(sets ^ self.reference)} records differ between "
                    f"calls or routes"]
        return []

    def layer_metrics(self, route, result, log_durations):
        rep = result.report
        candidates = rep.found + rep.duplicates_suppressed
        prefix = "search.logtmto." if route == "log" else "search.tmto."
        out = {
            prefix + "phase1_s": rep.phase1_seconds,
            prefix + "phase2_s": rep.phase2_seconds,
            prefix + "candidates": candidates,
            prefix + "useful_ratio": rep.found / candidates if candidates else 0.0,
        }
        if route == "log":
            # phase 1 takes one log per table entry, phase 2 the rest
            phase2_logs = sum(log_durations[rep.table_entries:])
            out.update({
                "search.logtmto.match_s": rep.phase2_seconds - phase2_logs,
                "search.logtmto.table_entries": rep.table_entries,
                "search.logtmto.zero_shift_skips": rep.zero_shift_skips,
            })
        return out

    def named(self, medians):
        return {"logtmto_s": (medians["log"], "s"),
                "tmto_s": (medians["nolog"], "s")}


class Sample(Workload):
    """random_log_sample and birthday_tmto, each on a fixed draw budget.

    Budgets are fixed rather than run to B found: the number of draws
    until the B-th hit varies by about 1/(2 sqrt(B)) from seed to seed,
    which would swamp the speed being measured.
    """

    log_name = "sampler.random_log_sample"
    nolog_name = "sampler.birthday_tmto"

    def __init__(self, poly, log_w, log_D, draws, tmto_w, tmto_D, iterations,
                 check_draws, check_iterations, **kw):
        super().__init__(poly, **kw)
        self.log_w, self.log_D, self.draws = log_w, log_D, draws
        self.tmto_w, self.tmto_D, self.iterations = tmto_w, tmto_D, iterations
        self.check_draws = check_draws
        self.check_iterations = check_iterations

    def _log_params(self, draws):
        return SampleParams(w=self.log_w, D=self.log_D, B=draws,
                            seed=self.rng.getrandbits(63), max_iterations=draws)

    def _tmto_params(self, iterations):
        return SampleParams(w=self.tmto_w, D=self.tmto_D, B=iterations,
                            seed=self.rng.getrandbits(63),
                            max_iterations=iterations)

    def log_call(self):
        params = self._log_params(self.draws)
        return ((lambda eng: random_log_sample(eng, params)),
                lambda res: self._check(res, params, every_draw_counted=True))

    def nolog_call(self):
        params = self._tmto_params(self.iterations)
        return ((lambda eng: birthday_tmto(self.ctx, params)),
                lambda res: self._check(res, params, every_draw_counted=False))

    def _check(self, res, params, every_draw_counted) -> list[str]:
        out = record_problems(res.records, self.ctx, params.w, params.D,
                              self.oracle_rng)
        if res.found != len(res.records) or (
            res.iterations != params.max_iterations and res.found < params.B
        ):
            out.append(f"stopped at {res.iterations} of "
                       f"{params.max_iterations} draws with {res.found} found")
        if every_draw_counted and (
            res.found + res.duplicates + res.skipped != res.iterations
        ):
            out.append("found + duplicates + skipped != draws")
        return out

    def run_checks(self):
        """Both samplers repeat exactly for a fixed seed, and every log
        the log sampler takes round-trips through x^y."""
        out = []
        params = self._log_params(self.check_draws)
        recorders = [TracedEngine(self.engine, Tracer()) for _ in range(2)]
        runs = [random_log_sample(rec, params) for rec in recorders]
        if _sample_key(runs[0]) != _sample_key(runs[1]) or (
            recorders[0].answers != recorders[1].answers
        ):
            out.append("random_log_sample differs between runs of one seed")
        out += [f"x^{y} != {a}" for a, y in recorders[0].answers
                if self.ctx.pow(2, y) != a]
        params = self._tmto_params(self.check_iterations)
        if _sample_key(birthday_tmto(self.ctx, params)) != _sample_key(
            birthday_tmto(self.ctx, params)
        ):
            out.append("birthday_tmto differs between runs of one seed")
        return out

    def layer_metrics(self, route, result, log_durations):
        if route == "log":
            return {
                "sampler.logsample.iterations": result.iterations,
                "sampler.logsample.log_calls": result.log_calls,
                "sampler.logsample.draws_without_log":
                    result.iterations - result.log_calls,
            }
        return {
            "sampler.birthday_tmto.iterations": result.iterations,
            "sampler.birthday_tmto.found": result.found,
            "sampler.birthday_tmto.duplicates": result.duplicates,
        }

    def named(self, medians):
        return {
            "random_log_sample_s": (medians["log"], "s"),
            "sample_draws_per_s": (self.draws / medians["log"], "1/s"),
            "birthday_tmto_s": (medians["nolog"], "s"),
            "birthday_tmto_iter_per_s": (self.iterations / medians["nolog"], "1/s"),
        }


def _sample_key(res):
    return ([r.poly.exponents for r in res.records], res.iterations,
            res.found, res.duplicates, res.skipped, res.log_calls)


class EngineBatch(Workload):
    """A seeded batch of discrete logs, and the engine cache round trip."""

    log_name = "bench.discrete_log_batch"
    nolog_name = "dlog.save_and_load_engine"

    def __init__(self, poly, batch, **kw):
        super().__init__(poly, **kw)
        self.batch = batch

    def log_call(self):
        elems = [self.rng.randrange(1, self.ctx.order + 1)
                 for _ in range(self.batch)]

        def check(ys):
            bad = [(a, y) for a, y in zip(elems, ys)
                   if not 0 <= y < self.ctx.order or self.ctx.pow(2, y) != a]
            return [f"x^{y} != {a}" for a, y in bad[:5]]

        return (lambda eng: [eng.discrete_log(a) for a in elems]), check

    def nolog_call(self):
        path = self.workdir / "engine-roundtrip.bin"

        def run(eng):
            save_engine(self.engine, str(path))
            return load_engine(str(path))

        def check(loaded):
            path.unlink()  # 35 MB on the full instance; not kept
            out = self.engine_problems(loaded)
            if loaded.strategy_summary() != self.engine.strategy_summary():
                out.append("loaded engine plan differs from the built one")
            return out

        return run, check

    def named(self, medians):
        return {"log_batch_s": (medians["log"], "s"),
                "cache_roundtrip_s": (medians["nolog"], "s")}


WORKLOADS = {
    # six tabulated subgroups (largest 331): logs are cheap and
    # logtmto spends ~all its time in 16,384 of them; tmto takes none
    "exhaustive-n30-w4": Exhaustive("30,6,4,1,0", w=4, D=8192),
    # 36.7k cheap logs; the match kernel (window query, shift walk,
    # 445k dedup adds) is about a third of logtmto
    "exhaustive-n18-w6": Exhaustive("18,7,0", w=6, D=192),
    # 2^31 - 1 is prime: one baby-step giant-step solver (46,341 baby
    # entries), so each log costs tens of ms of giant steps
    "sample-n31": Sample("31,3,0", log_w=5, log_D=4096, draws=64,
                         tmto_w=4, tmto_D=65536, iterations=100_000,
                         check_draws=4, check_iterations=5_000),
    # M = 431 * 9719 * 2099863, all tabulated: a 7-13 s build that
    # dominates setup and peak RSS
    "engine-n43": EngineBatch("43,6,4,3,0", batch=10_000, setup_reps=3),
}

# The same code paths on n <= 12, for the smoke mode and its test.
SMOKE_WORKLOADS = {
    "exhaustive-n30-w4": Exhaustive("11,2,0", w=4, D=64, setup_reps=2),
    "exhaustive-n18-w6": Exhaustive("10,3,0", w=6, D=24, setup_reps=2),
    # threshold 1 forces baby-step giant-step on the prime 127
    "sample-n31": Sample("7,1,0", engine_kwargs={"tabulation_threshold": 1},
                         log_w=5, log_D=40, draws=16, tmto_w=4, tmto_D=64,
                         iterations=200, check_draws=4, check_iterations=50,
                         setup_reps=2),
    "engine-n43": EngineBatch("12,6,4,1,0", batch=200, setup_reps=2),
}
