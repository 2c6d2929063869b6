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
  probed against each other's residues, with a first collision after
  about sqrt(2^n) draws.

Randomness comes from splitmix64 (documented below) and tuples are
drawn by unranking a uniform integer into the combinatorial number
system, so streams are identical across platforms for a fixed seed.
splitmix64 is counter-based, so ``_draw_chunks`` computes a chunk of
draws at once, as numpy arrays: bounded integers by the same rejection
rule as ``Rng.below``, tuples by ``tuples.unrank`` on one comb table,
and residues by a gather from the power array.  The chunks hold exactly
the stream that ``Rng.below`` and ``unrank_combination`` give one draw
at a time; those two stay as the reference, and as the draw path where
a tuple count reaches 2^63.

Each method supplies only its per-draw step, which consumes the chunks
in draw order; one loop (``_sample``) owns the stop rule, the progress
events and the result.  ``birthday_tmto`` finds a whole chunk's
collisions on sorted residue keys, so its step only hands a round's
hits to the dedup (``_SampleDedup``), so records keep discovery order
and carry the smallest provenance seen.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

import numpy as np

from .dlog import giant_pass_bytes
from .errors import WeightTooSmallError
from .gf2poly import FieldContext, powers_bytes
from .search import (
    DEFAULT_BUDGET_BYTES,
    MATCH_BLOCK,
    LogTable,
    MultipleRecord,
    build_log_table,
    default_split,
    _check_budget,
    _log_route_bytes,
    _logged_tuples,
    _classical_exps,
    _match_blocks,
    _match_records,
    _match_rows,
    _residues,
    _zero_blocks,
)
from .tuples import comb_table, unrank, unrank_combination

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# random_log_sample's residue cache entries (a dict of 2^20 62-bit int
# keys and values traces 116 B an entry, at most 136 past a resize), and
# the Python objects of one chunk of _one_at_a_time, a round and an
# exponent (tracemalloc, 4096 rounds: 146.6 B at q = 1, 40 B more a q)
_RESIDUE_CACHE_LIMIT = 1 << 20
_RESIDUE_ENTRY_BYTES = 136
_ROUND_OBJECT_BYTES = 107
_EXPONENT_OBJECT_BYTES = 40
# Rounds in one draw chunk: at least _CHUNK_MIN (or what is left), else
# as many as were drawn before it, up to _CHUNK_MAX.
_CHUNK_MIN = 4096
_CHUNK_MAX = 1 << 16

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
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def ahead(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array, without consuming them:
        output t is mix(state + t * gamma), one array expression."""
        z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        z += np.uint64(self._state)
        z ^= z >> 30
        z *= np.uint64(_MIX1)
        z ^= z >> 27
        z *= np.uint64(_MIX2)
        return z ^ (z >> 31)

    def skip(self, n: int) -> None:
        """Consume n outputs."""
        self._state = (self._state + n * _GAMMA) & _MASK64

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


def _below_rounds(rng: Rng, bounds: list[int], rounds: int) -> np.ndarray:
    """k rounds of [rng.below(b) for b in bounds], as a (k, len(bounds))
    uint64 array, for some k in [1, rounds]; every b < 2^64.

    The outputs of all the rounds are computed at once.  A bound of 1
    takes no output.  A rejected output (one at or above the largest
    multiple of its bound) shifts every later round, so the rounds stop
    before the first round that has one; if that is the first round,
    below() draws it alone.
    """
    live = [j for j, b in enumerate(bounds) if b > 1]
    v = rng.ahead(rounds * len(live)).reshape(rounds, len(live))
    last = [(1 << 64) - (1 << 64) % bounds[j] - 1 for j in live]
    accepted = (v <= np.array(last, np.uint64)).all(axis=1)
    k = rounds if accepted.all() else int(accepted.argmin())
    if k == 0:
        return np.array([[rng.below(b) for b in bounds]], np.uint64)
    rng.skip(k * len(live))
    out = np.zeros((k, len(bounds)), np.uint64)
    out[:, live] = v[:k] % np.array([bounds[j] for j in live], np.uint64)
    return out


def _draw_chunks(seed: int, qs: tuple[int, ...], D: int, xp: np.ndarray,
                 rounds: int):
    """The tuples that Rng(seed) draws over `rounds` rounds, each round one
    unrank_combination(rng.below(C(D, q)), q, D) for each q in qs in
    turn, a chunk of rounds at a time: per chunk, one (tuples, ranks,
    residues) triple for each q, the (k, q) int64 tuples in draw order,
    their ranks and the residues of 1 + each tuple, from the power
    array xp.

    Where a C(D, q) reaches 2^63 the int64 tables cannot hold the ranks,
    and the chunk is drawn one tuple at a time instead, its ranks Python
    ints in an object array.
    """
    rng = Rng(seed)
    bounds = [comb(D, q) for q in qs]
    table = comb_table(D, max(qs)) if max(bounds) < 1 << 63 else None
    done = 0
    while done < rounds:
        k = min(max(_CHUNK_MIN, done), _CHUNK_MAX, rounds - done)
        if table is None:
            ranks = [[rng.below(b) for b in bounds] for _ in range(k)]
            ranks = np.array(ranks, object).reshape(k, len(qs))
            tuples = [np.array([unrank_combination(r, q, D) for r in ranks[:, j]],
                               np.int64).reshape(k, q)
                      for j, q in enumerate(qs)]
        else:
            ranks = _below_rounds(rng, bounds, k).astype(np.int64)
            tuples = [unrank(ranks[:, j], q, D, table)
                      for j, q in enumerate(qs)]
        done += len(ranks)
        yield [(t, ranks[:, j], _residues(xp, t) ^ 1)
               for j, t in enumerate(tuples)]


def _one_at_a_time(chunks):
    """Each draw of one-q chunks as (tuple, residue of 1 + tuple)."""
    for [(tuples, _, residues)] in chunks:
        yield from zip(map(tuple, tuples.tolist()), residues.tolist())


@dataclass(frozen=True)
class SampleParams:
    """Knobs for one sampling run.

    q1 is the stored-side tuple size of the log birthday route (probe
    side q2 = w - 2 - q1; unbalanced splits are allowed, smaller q1
    meaning a cheaper precompute).  K caps the stored-side degree.
    budget_bytes caps the predicted size of the power array and the
    draws, of the log routes' giant-step pass per scalar log (where the
    engine has a baby-step giant-step solver), of the log birthday
    route's precomputed table and of the classical birthday route's side
    tables.
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


def _check_tuple_size(q: int, params: SampleParams) -> None:
    """A q-tuple of distinct exponents in [1, D] needs q <= D."""
    if q > params.D:
        raise ValueError(
            f"weight {params.w} draws {q} distinct exponents in 1..D, "
            f"more than max degree {params.D} holds")


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


def _provenance_key(prov):
    stored, probe, shift = prov
    return (stored, probe, 0 if shift is None else shift)


class _SampleDedup:
    """The samplers' dedup: one multiple at a time, into a dict, which
    keeps first-discovery order.  Keeping the smallest provenance makes a
    record's provenance independent of the order its decompositions
    arrive in; seen counts every multiple added."""

    __slots__ = ("best", "seen")

    def __init__(self):
        self.best: dict[tuple[int, ...], tuple] = {}
        self.seen = 0

    def add(self, exps: tuple[int, ...], prov) -> None:
        self.seen += 1
        cur = self.best.get(exps)
        if cur is None or _provenance_key(prov) < _provenance_key(cur):
            self.best[exps] = prov

    def records(self) -> list[MultipleRecord]:
        """One record per distinct multiple, in discovery order.  Every
        sampler hands in canonical tuples, so they are not checked
        again."""
        return [MultipleRecord.of(exps, prov, checked=False)
                for exps, prov in self.best.items()]


def _sample(params: SampleParams, step, dedup: _SampleDedup, t0: float,
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
    _check_tuple_size(q, params)
    cached = min(params.max_iterations, _RESIDUE_CACHE_LIMIT, comb(D, q))
    chunk = _chunk_rounds(params.max_iterations)
    _check_budget(_draw_bytes(
        D, (q,), params.max_iterations, giant_pass_bytes(engine)
        + cached * _RESIDUE_ENTRY_BYTES
        + chunk * (_ROUND_OBJECT_BYTES + q * _EXPONENT_OBJECT_BYTES)),
        params.budget_bytes)
    xp = engine.ctx.powers(2, D + 1).view(np.int64)
    draws = _one_at_a_time(
        _draw_chunks(params.seed, (q,), D, xp, params.max_iterations))
    dedup = _SampleDedup()
    cache: dict[int, int] = {}

    def step():
        tup, r = next(draws)
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
    _check_tuple_size(q2, params)
    K = params.K if params.K is not None else D
    if K < q1:
        raise ValueError(f"precompute degree {K} holds no {q1}-tuple")
    t0 = time.perf_counter()
    M = engine.ctx.order
    build = table is None
    stored = comb(K, q1) if build else len(table.logs)
    logged = max(_logged_tuples(K, q1), 1) if build else 1
    # one power array up to x^D serves the table (K <= D) and the draws,
    # so it is charged once, by the draws
    _check_budget(_draw_bytes(
        D, (q2,), params.max_iterations,
        _log_route_bytes(M, D, q1, q2, stored, 1, logged, build, powers=False)
        + giant_pass_bytes(engine)), params.budget_bytes)
    xp = engine.ctx.powers(2, D + 1).view(np.int64)
    if build:
        table = build_log_table(engine, q1, K, xp)
    elif table.modulus != engine.ctx.poly:
        raise ValueError(f"prebuilt table was built for P={table.modulus}")
    elif table.max_degree != K:
        raise ValueError("prebuilt table does not match precompute degree K")
    elif table.exponents.shape[1] != q1 or any(
        len(tup) != q1 for tup in table.zero_polys
    ):
        raise ValueError(f"prebuilt table does not store {q1}-tuples")
    dedup = _SampleDedup()
    tuples: dict[tuple, tuple] = {}

    def add(blocks):
        for block in blocks:
            for exps, prov in _match_records(*block, D, tuples):
                dedup.add(exps, prov)

    add(_zero_blocks(table, q2, D, M))
    draws = _one_at_a_time(
        _draw_chunks(params.seed, (q2,), D, xp, params.max_iterations))

    def step():
        tup, r = next(draws)
        probes = np.array(tup, np.int64).reshape(1, q2)
        if r == 0:  # no log; skipped unless its own multiple has w's parity
            add(_zero_blocks(table, q2, D, M, probes))
            return 0, 1 - q1 % 2
        logs = np.array([engine.discrete_log(r)], np.int64)
        add(_match_rows(table.exponents[pos], probes[p], shift, D)
            for p, pos, shift, _ in _match_blocks(table, probes, logs, D, M))
        return 1, 0

    # a prebuilt table's logs were taken by the call that built it
    return _sample(params, step, dedup, t0, table.log_calls if build else 0)


class _SideTable:
    """One side of the classical birthday search: each distinct tuple
    drawn so far, once, at its first draw.  keys, times and tuples are
    sorted by key (the tuple's residue), equal keys in draw order; the
    tuples' ranks are sorted apart, to tell a new tuple from a held one."""

    __slots__ = ("keys", "times", "tuples", "ranks")

    def __init__(self, q: int):
        self.keys = np.empty(0, np.int64)
        self.times = np.empty(0, np.int64)
        self.tuples = np.empty((0, q), np.int64)
        self.ranks = np.empty(0, np.int64)

    def insert(self, keys: np.ndarray, times: np.ndarray, tuples: np.ndarray,
               ranks: np.ndarray) -> None:
        """Add a chunk of draws, in time order and later than every held
        one: the first draw of each tuple not held yet, merged in by one
        stable sort, so that equal keys stay in draw order."""
        distinct, first = np.unique(ranks, return_index=True)
        at = np.searchsorted(self.ranks, distinct)
        held = at < len(self.ranks)
        held[held] = self.ranks[at[held]] == distinct[held]
        self.ranks = np.sort(np.concatenate((self.ranks, distinct[~held])),
                             kind="stable")
        new = np.sort(first[~held])
        merged = np.concatenate((self.keys, keys[new]))
        order = merged.argsort(kind="stable")
        self.keys = merged[order]
        del merged
        self.times = np.concatenate((self.times, times[new]))[order]
        self.tuples = np.concatenate((self.tuples, tuples[new]))[order]

    def ranges(self, keys: np.ndarray):
        """(lo, n): the entries with key keys[i] are lo[i] to lo[i] + n[i]
        - 1.  The keys are searched in sorted order, which keeps each
        binary search near the last one (3-5x faster than in draw order)."""
        order = keys.argsort()
        lo, n = np.empty_like(order), np.empty_like(order)
        lo[order] = np.searchsorted(self.keys, keys[order])
        n[order] = np.searchsorted(self.keys, keys[order], "right")
        n -= lo
        return lo, n


def _birthday_hits(chunks, qs: tuple[int, ...]):
    """The hits of each round of the chunks, in order: a list of (tuple,
    mates) pairs, each a draw and the entries of the opposite side's
    table that sum with it to 1.

    Draws take times in order: round i's draw for side j at m*i + j, of
    m = len(qs) sides (one shared table where the split is balanced).
    A chunk's draws join their tables first; a draw's mates are then the
    opposite table's entries with key its residue and an earlier time,
    in draw order, which is what inserting and probing one draw at a
    time gives.  The rounds are taken in blocks of at most MATCH_BLOCK
    candidate (probe, entry) pairs, or one round, so that the hits of a
    chunk never all exist at once.
    """
    tables = [_SideTable(q) for q in qs]
    m, done = len(qs), 0
    for chunk in chunks:
        k = len(chunk[0][0])
        times = [m * np.arange(done, done + k) + j for j in range(m)]
        for table, (tuples, ranks, residues), t in zip(tables, chunk, times):
            table.insert(residues ^ 1, t, tuples, ranks)
        probes = []
        for j, ((tuples, _, residues), t) in enumerate(zip(chunk, times)):
            other = tables[(j + 1) % m]
            probes.append((other, tuples, t, *other.ranges(residues)))
        per_round = sum(probe[-1] for probe in probes)
        pairs = np.cumsum(per_round)
        a = 0
        while a < k:
            limit = pairs[a] - per_round[a] + MATCH_BLOCK
            b = max(a + 1, int(np.searchsorted(pairs, limit, "right")))
            hits = _block_hits(probes, a, b)
            for r in range(a, b):
                yield hits.get(r, ())
            a = b
        done += k


def _block_hits(probes, a: int, b: int) -> dict[int, list]:
    """The hits of rounds a to b - 1 of a chunk, by round: a list of
    (tuple, mates) for each of the round's draws that has mates, in side
    order, the mates in draw order."""
    rounds: dict[int, list] = {}
    for other, tuples, times, lo, n in probes:
        i = np.repeat(np.arange(a, b), n[a:b])
        e = np.arange(len(i)) + np.repeat(
            lo[a:b] - (np.cumsum(n[a:b]) - n[a:b]), n[a:b])
        before = other.times[e] < times[i]
        i, e = i[before], e[before]
        starts = np.flatnonzero(np.diff(i, prepend=-1))
        mates = list(zip(*other.tuples[e].T.tolist()))
        ends = starts[1:].tolist() + [len(i)]
        for r, tup, start, end in zip(i[starts].tolist(),
                                      zip(*tuples[i[starts]].T.tolist()),
                                      starts.tolist(), ends):
            rounds.setdefault(r, []).append((tup, mates[start:end]))
    return rounds


def _draw_bytes(D: int, qs: tuple[int, ...], iterations: int,
                beside: int = 0) -> int:
    """Bytes that the draws of `iterations` rounds allocate, counted in
    8-byte words, with `beside` more bytes that the run allocates while
    it draws: the comb table of the unranking, D words per tuple
    position; and one draw chunk of at most half the rounds (or
    _CHUNK_MIN, or _CHUNK_MAX): per round and side, about 12 + q words
    of draws, ranks, residues, times and search work.  All this beside
    the power array up to x^D, built first (powers_bytes)."""
    return powers_bytes(D + 1, D * 8 * max(qs) + beside
                        + _chunk_rounds(iterations) * 8 * sum(12 + q for q in qs))


def _chunk_rounds(iterations: int) -> int:
    """The most rounds in one chunk of _draw_chunks over `iterations`."""
    return min(_CHUNK_MAX, max(min(_CHUNK_MIN, iterations), iterations // 2))


def _birthday_bytes(D: int, qs: tuple[int, ...], iterations: int) -> int:
    """Bytes that birthday_tmto allocates over `iterations` rounds,
    counted in 8-byte words.

    The draws (_draw_bytes).  Each side's table holds at most
    min(iterations, C(D, q)) entries of 3 + q words (key, time, rank and
    tuple), and an insert holds three copies of them (the held arrays,
    their concatenation with a chunk and the merged result) and the sort
    order.  One block of candidate pairs, at most MATCH_BLOCK and at most
    a chunk's draws times the largest side: six words of indices and
    masks each, and a hit held as Python objects, a tuple of q ints and
    its share of the column lists.  The distinct multiples the dedup
    keeps are the run's output and not counted.
    """
    entries = [min(iterations, comb(D, q)) for q in qs]
    pairs = min(MATCH_BLOCK,
                _chunk_rounds(iterations) * len(qs) * max(entries))
    return _draw_bytes(
        D, qs, iterations,
        sum(n * 8 * (3 * (3 + q) + 1) for n, q in zip(entries, qs))
        + pairs * (6 * 8 + 64 + 80 * max(qs)))


def birthday_tmto(ctx: FieldContext, params: SampleParams) -> SampleResult:
    """Classical birthday search: each round draws a random half-tuple
    for each side, probes the opposite side's earlier draws for a
    residue that sums with it to 1, which completes a multiple, and
    then joins its own side.

    The draws come a chunk of rounds at a time, and the side tables are
    arrays sorted by residue key (``_SideTable``), so a chunk's
    collisions are found by searchsorted; the per-round step only hands
    its precomputed hits to the dedup.  The tables are budgeted before
    the run, at min(max_iterations, C(D, q)) entries a side.
    """
    if params.w < 3:
        raise WeightTooSmallError("birthday search needs weight >= 3")
    t0 = time.perf_counter()
    q1, q2 = default_split(params.w, "classical")
    qs = (q1,) if q1 == q2 else (q1, q2)
    _check_tuple_size(q2, params)
    _check_budget(_birthday_bytes(params.D, qs, params.max_iterations),
                  params.budget_bytes)
    xp = ctx.powers(2, params.D + 1).view(np.int64)
    rounds = _birthday_hits(
        _draw_chunks(params.seed, qs, params.D, xp, params.max_iterations), qs)
    dedup = _SampleDedup()

    def step():
        for tup, mates in next(rounds):
            for mate in mates:
                dedup.add(_classical_exps(mate, tup), (mate, tup, None))
        return 0, 0

    return _sample(params, step, dedup, t0)


def write_progress_csv(path: str, events: list[ProgressEvent]) -> None:
    """Progress CSV: header ``iteration,found``, one row per event."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("iteration,found\n")
        for ev in events:
            fh.write(f"{ev.iteration},{ev.found}\n")
