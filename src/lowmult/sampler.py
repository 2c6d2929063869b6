"""Randomized searches: find B multiples without enumerating everything.

Three routes, all seeded and reproducible:

* ``random_log_sample`` draws random weight-(w-1) polynomials A with a
  constant term and keeps A + x^log(A) whenever the log lands at or
  below the degree bound; one multiple per about 2^n / D draws.
* ``birthday_logtmto`` precomputes the sorted log table of the stored
  side up to a degree K <= D, then probes with random tuples; a match
  happens as soon as two logs sit within about D of each other, after
  about sqrt(2^n / D) probes.
* ``birthday_tmto`` is the classical variant: random half-tuples are
  probed against each other and inserted one at a time, with a first
  collision after about sqrt(2^n) inserts.

Randomness comes from splitmix64 (documented below) and tuples are
drawn by unranking a uniform integer into the combinatorial number
system, so streams are identical across platforms for a fixed seed.

Each method supplies only its per-draw step; one loop (``_sample``)
owns the stop rule, the progress events and the result.  Found
multiples go through the exhaustive searches' dedup, so records keep
discovery order and carry the smallest provenance seen.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import WeightTooSmallError
from .gf2poly import FieldContext
from .search import (
    DEFAULT_BUDGET_BYTES,
    LogTable,
    MultipleRecord,
    build_log_table,
    default_split,
    _Dedup,
    _check_budget,
    _log_route_bytes,
    _logged_tuples,
    _power_bytes,
    _classical_exps,
    _match_blocks,
    _match_records,
    _match_rows,
    _one_plus,
    _zero_blocks,
)

_MASK64 = (1 << 64) - 1
_RESIDUE_CACHE_LIMIT = 1 << 20

DEFAULT_MAX_ITERATIONS = 1_000_000
DEFAULT_PROGRESS_STRIDE = 1024


class Rng:
    """splitmix64: state += 0x9E3779B97F4A7C15; output = mix(state).

    Chosen for its two-line spec; any implementation seeded alike
    produces the same stream.  Bounded draws use rejection against the
    largest multiple of the bound, so they stay exactly uniform.
    """

    __slots__ = ("_state", "_limits")

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._limits: dict[int, int] = {}

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        nbits = (bound - 1).bit_length()
        if nbits <= 64:
            limit = self._limits.get(bound)
            if limit is None:
                limit = (1 << 64) - ((1 << 64) % bound)
                self._limits[bound] = limit
            while True:
                v = self.next_u64()
                if v < limit:
                    return v % bound
        while True:
            v = 0
            for _ in range((nbits + 63) // 64):
                v = (v << 64) | self.next_u64()
            v >>= (64 - nbits % 64) % 64
            if v < bound:
                return v


def unrank_combination(rank: int, q: int, max_val: int) -> tuple[int, ...]:
    """The rank-th strictly increasing q-tuple over [1, max_val], in
    lexicographic order (rank 0 is (1, 2, ..., q))."""
    if not 0 <= rank < comb(max_val, q):
        raise ValueError("rank out of range")
    if q == 0:
        return ()
    if q == 1:
        return (rank + 1,)
    out = []
    lo = 1
    remaining = q
    for _ in range(q):
        if remaining == 1:
            out.append(lo + rank)
            break
        # prefix(v) = number of tuples with first element < v, starting
        # from lo: comb(max_val - lo + 1, remaining) - comb(max_val - v + 1, remaining)
        total = comb(max_val - lo + 1, remaining)
        a, b = lo, max_val - remaining + 1
        while a < b:  # smallest v with prefix(v+1) > rank
            mid = (a + b) // 2
            if total - comb(max_val - mid, remaining) > rank:
                b = mid
            else:
                a = mid + 1
        rank -= total - comb(max_val - a + 1, remaining)
        out.append(a)
        lo = a + 1
        remaining -= 1
    return tuple(out)


def _draw_tuple(rng: Rng, q: int, max_val: int) -> tuple[int, ...]:
    return unrank_combination(rng.below(comb(max_val, q)), q, max_val)


@dataclass(frozen=True)
class SampleParams:
    """Knobs for one sampling run.

    q1 is the stored-side tuple size of the log birthday route (probe
    side q2 = w - 2 - q1; unbalanced splits are allowed, smaller q1
    meaning a cheaper precompute).  K caps the stored-side degree.
    budget_bytes caps the predicted size of the power table and of the
    log birthday route's precomputed table.
    """

    w: int
    D: int
    B: int
    q1: int | None = None
    K: int | None = None
    seed: int = 0
    max_iterations: int = DEFAULT_MAX_ITERATIONS
    progress_stride: int = DEFAULT_PROGRESS_STRIDE
    budget_bytes: int = DEFAULT_BUDGET_BYTES

    def __post_init__(self):
        if self.B < 1:
            raise ValueError("need B >= 1")
        if self.D < 1:
            raise ValueError("need max degree >= 1")
        if self.q1 is not None and self.q1 < 0:
            raise ValueError("q1 must be >= 0")
        if self.K is not None and not 1 <= self.K <= self.D:
            raise ValueError("precompute degree K must be in 1..D")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.progress_stride < 1:
            raise ValueError("progress stride must be >= 1")


@dataclass(frozen=True)
class ProgressEvent:
    iteration: int
    found: int


@dataclass
class SampleResult:
    records: list[MultipleRecord]  # in discovery order
    events: list[ProgressEvent]
    iterations: int
    found: int
    exhausted: bool  # iteration budget ran out before B were found
    duplicates: int = 0
    skipped: int = 0  # draws whose log fell outside the usable range
    log_calls: int = 0
    seconds: float = 0.0

    def exponent_sets(self) -> frozenset[tuple[int, ...]]:
        return frozenset(r.poly.exponents for r in self.records)


def _sample(params: SampleParams, step, dedup: _Dedup, t0: float,
            log_calls: int = 0) -> SampleResult:
    """The sampling loop shared by the three methods.

    step() makes one draw, adds what it completes to dedup and returns
    (log calls, skipped draws).  The loop stops once dedup holds B
    distinct multiples or after max_iterations draws, and records a
    progress event every progress_stride draws plus a final one.
    """
    best = dedup.best
    events: list[ProgressEvent] = []
    skipped = 0
    iteration = 0
    while iteration < params.max_iterations and len(best) < params.B:
        iteration += 1
        logs, skip = step()
        log_calls += logs
        skipped += skip
        if iteration % params.progress_stride == 0:
            events.append(ProgressEvent(iteration, len(best)))
    found = len(best)
    if not events or events[-1] != ProgressEvent(iteration, found):
        events.append(ProgressEvent(iteration, found))
    return SampleResult(
        records=dedup.records(),
        events=events,
        iterations=iteration,
        found=found,
        exhausted=found < params.B,
        duplicates=dedup.seen - found,
        skipped=skipped,
        log_calls=log_calls,
        seconds=time.perf_counter() - t0,
    )


def random_log_sample(engine, params: SampleParams) -> SampleResult:
    """Draw random weight-(w-1) polynomials A (constant term, degree
    <= D) and emit A + x^log(A) whenever 0 < log(A) <= D and the new
    term does not collide with A.  Stops after B distinct multiples or
    the iteration budget, whichever comes first."""
    if params.w < 3:
        raise WeightTooSmallError("log sampling needs weight >= 3")
    t0 = time.perf_counter()
    q, D = params.w - 2, params.D
    rng = Rng(params.seed)
    _check_budget(_power_bytes(D), params.budget_bytes)
    xp = engine.ctx.power_table(D)
    dedup = _Dedup()
    cache: dict[int, int] = {}

    def step():
        tup = _draw_tuple(rng, q, D)
        r = _one_plus(xp, tup)
        if r == 0:
            return 0, 1  # A itself reduced to zero; no logarithm exists
        logs = 0
        lg = cache.get(r)
        if lg is None:
            lg = engine.discrete_log(r)
            logs = 1
            if len(cache) < _RESIDUE_CACHE_LIMIT:
                cache[r] = lg
        if 0 < lg <= D and lg not in tup:
            dedup.add(tuple(sorted((0, lg) + tup)), ((0,) + tup, (), lg))
            return logs, 0
        return logs, 1

    return _sample(params, step, dedup, t0)


def birthday_logtmto(
    engine, params: SampleParams, table: LogTable | None = None
) -> SampleResult:
    """Log-table birthday search.

    Phase 1 tabulates logs of (1 + q1-tuple) up to degree K once (the
    table only depends on the modulus, q1 and K, so callers may reuse
    one across seeds); the loop then draws random q2-tuples and runs
    the exhaustive search's match kernel on each, adding its matches in
    the kernel's order.
    """
    if params.w < 2:
        raise WeightTooSmallError("need weight >= 2")
    D = params.D
    q1 = params.q1 if params.q1 is not None else default_split(params.w, "logarithmic")[0]
    q2 = params.w - 2 - q1
    if q2 < 0:
        raise ValueError(f"q1={q1} too large for weight {params.w}")
    K = params.K if params.K is not None else D
    if K < q1:
        raise ValueError(f"precompute degree {K} holds no {q1}-tuple")
    t0 = time.perf_counter()
    M = engine.ctx.order
    stored = comb(K, q1) if table is None else len(table.logs)
    logged = max(_logged_tuples(K, q1), 1) if table is None else 1
    _check_budget(
        _log_route_bytes(M, D, q1, q2, stored, 1, logged, table is None),
        params.budget_bytes)
    if table is None:
        table = build_log_table(engine, q1, K)
    elif table.modulus != engine.ctx.poly:
        raise ValueError(f"prebuilt table was built for P={table.modulus}")
    elif table.max_degree != K:
        raise ValueError("prebuilt table does not match precompute degree K")
    elif table.exponents.shape[1] != q1 or any(
        len(tup) != q1 for tup in table.zero_polys
    ):
        raise ValueError(f"prebuilt table does not store {q1}-tuples")
    dedup = _Dedup()
    tuples: dict[tuple, tuple] = {}

    def add(blocks):
        for block in blocks:
            for exps, prov in _match_records(*block, D, tuples):
                dedup.add(exps, prov)

    add(_zero_blocks(table, q2, D, M))
    rng = Rng(params.seed)
    xp = engine.ctx.power_table(D)

    def step():
        tup = _draw_tuple(rng, q2, D)
        r = _one_plus(xp, tup)
        probes = np.array(tup, np.int64).reshape(1, q2)
        if r == 0:  # no log; skipped unless its own multiple has w's parity
            add(_zero_blocks(table, q2, D, M, probes))
            return 0, 1 - q1 % 2
        logs = np.array([engine.discrete_log(r)], np.int64)
        add(_match_rows(table.exponents[pos], probes[p], shift, D)
            for p, pos, shift, _ in _match_blocks(table, probes, logs, D, M))
        return 1, 0

    return _sample(params, step, dedup, t0, table.log_calls)


def birthday_tmto(ctx: FieldContext, params: SampleParams) -> SampleResult:
    """Classical birthday search: residues of random half-tuples go
    into hash tables one at a time, each probed against the opposite
    side before insertion; a collision XORing to 1 completes a
    multiple."""
    if params.w < 3:
        raise WeightTooSmallError("birthday search needs weight >= 3")
    t0 = time.perf_counter()
    q1, q2 = default_split(params.w, "classical")
    rng = Rng(params.seed)
    _check_budget(_power_bytes(params.D), params.budget_bytes)
    xp = ctx.power_table(params.D)
    dedup = _Dedup()
    # side tables: residue -> list of tuples; one shared table when the
    # split is balanced
    table_a: dict[int, list[tuple[int, ...]]] = {}
    table_b = table_a if q1 == q2 else {}
    sides = ((q1, table_a, table_b), (q2, table_b, table_a))

    def step():
        for q, own, other in sides:
            tup = _draw_tuple(rng, q, params.D)
            r = _one_plus(xp, tup)  # a mate's residue: mate + 1 + tup = 0
            for mate in other.get(r, ()):
                dedup.add(_classical_exps(mate, tup), (mate, tup, None))
            bucket = own.setdefault(r ^ 1, [])
            if tup not in bucket:
                bucket.append(tup)
            if own is other:
                break  # balanced split: one shared list, one draw per round
        return 0, 0

    return _sample(params, step, dedup, t0)


def write_progress_csv(path: str, events: list[ProgressEvent]) -> None:
    """Progress CSV: header ``iteration,found``, one row per event."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("iteration,found\n")
        for ev in events:
            fh.write(f"{ev.iteration},{ev.found}\n")
