"""Exhaustive low-weight multiple search: classical and log-table routes.

Both solvers return exactly the multiples of P that have a constant
term, degree at most D, and weight at most w *of the same parity as w*
(w, w-2, ...).  Parity is inherent to the construction: a candidate is
assembled from 1 plus a fixed number of monomials, and XOR cancellation
removes terms in pairs.  Lower parity-matching weights fall out of the
same pass through cancellation, as long as D >= w - 2; below that, [1, D]
cannot hold the cancelled pair, and weight w - 2 is searched instead.

The classical route stores residues of the smaller half-decomposition as
sorted keys behind a bit filter and probes with the other half, looking
for pairs XORing to 1; the probes run on arrays, and every filter hit is
confirmed by binary search on the keys, so the lookup is exact.  The
logarithmic route stores discrete logs of the stored half sorted
ascending and range-queries a window of width about 2D around each probe
log; each match yields a shift e with the two halves congruent modulo P,
and the multiple is assembled from the shifted halves.  When the degree
bound D reaches half the group order, several shifts e may represent the
same congruence class, so the assembly walks every representative inside
the admissible window rather than only the centered one.

Each concept has one home shared with the samplers: ``_log_probe`` is
the log route's probe given the probe's log (window query, shift walk,
assembly), ``_classical_exps`` the classical assembly, and ``_Dedup``
the dedup.  Both log-table phases take their logs in batches of
LOG_CHUNK tuples (``_tuple_logs``), one array call of
``discrete_log`` per batch.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, islice
from math import comb, factorial
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import (
    MemoryBudgetExceededError,
    WeightTooSmallError,
    ZeroShiftError,
)
from .gf2poly import FieldContext, SparsePoly

ALGO_CLASSICAL = "classical"
ALGO_LOGARITHMIC = "logarithmic"

DEFAULT_BUDGET_BYTES = 2**31

# Planning model for table memory: element/log plus payload pointer per
# entry, stored at 75% hash load.  Used for budget checks and reports,
# not for actual allocation.
TABLE_ENTRY_BYTES = 16
POWER_TABLE_ENTRY_BYTES = 8

# Tuples per batched discrete_log call in both log-table phases.
LOG_CHUNK = 2048

_BITS = (1 << np.arange(8)).astype(np.uint8)  # bit j of a filter byte


def default_split(w: int, algorithm: str) -> tuple[int, int]:
    """The balanced (q1, q2) split for a target weight.

    Classical decompositions use w = q1 + q2 + 1, logarithmic ones
    w = q1 + q2 + 2; both balance the two phases with q1 = floor and
    q2 = ceil of the shared budget.
    """
    if algorithm == ALGO_CLASSICAL:
        if w < 3:
            raise WeightTooSmallError("classical split needs weight >= 3")
        q1 = (w - 1) // 2
        return q1, (w - 1) - q1
    if algorithm == ALGO_LOGARITHMIC:
        if w < 2:
            raise WeightTooSmallError("logarithmic split needs weight >= 2")
        q1 = (w - 2) // 2
        return q1, (w - 2) - q1
    raise ValueError(f"unknown algorithm {algorithm!r}")


def enumerate_tuples(q: int, max_deg: int) -> Iterator[tuple[int, ...]]:
    """All strictly increasing q-tuples over [1, max_deg], lex order.

    q = 0 yields the single empty tuple.
    """
    return combinations(range(1, max_deg + 1), q)


def second_phase_bound(D: int, w: int, q2: int) -> int:
    """Probe-tuple degree bound max(q2, ceil(D * q2 / (w - 1))), at most D.

    Proven for the balanced split with q1 <= 1 (w = 3, 4, 5), where
    logtmto_find_all uses it.  The w - 1 gaps of a weight-w multiple sum
    to at most D, so some q2 + 1 consecutive terms span at most
    ceil(D * q2 / (w - 1)): the probe half.  The other half has at most 2
    terms.  If it is nonzero the log match finds the multiple; if it is
    zero (1 + x^M, only from D = M on) so is the probe half, and the
    pairing of zero halves in _log_probe finds it.  A trinomial (w = 5)
    has a probe half spanning at most max(2, D / 2): its smaller gap plus
    a term inside it, or its adjacent pair plus a neighbour, with the
    added term cancelling.  With q1 >= 2 a 3-term half can be zero
    (P = 6,5,0, w = 6, D = 31 loses P + x^21 P).
    """
    if w < 3:
        raise WeightTooSmallError("second-phase bound needs weight >= 3")
    return min(D, max(q2, -(-D * q2 // (w - 1))))


def estimate_count(n: int, w: int, D: int) -> float:
    """Expected number of weight-w degree-<=D multiples: D^(w-1) / ((w-1)! 2^n)."""
    if w < 2:
        raise WeightTooSmallError("estimate needs weight >= 2")
    return float(Fraction(D ** (w - 1), factorial(w - 1) * (1 << n)))


@dataclass(frozen=True, eq=False)
class MultipleRecord:
    """A canonicalized found multiple.

    Equality and hashing are by the exponent set only; provenance is
    the smallest (stored tuple, probe tuple, shift) that produced it,
    with shift None for the classical route.
    """

    poly: SparsePoly
    weight: int
    degree: int
    provenance: Optional[tuple] = None

    def __eq__(self, other):
        return (
            isinstance(other, MultipleRecord)
            and self.poly.exponents == other.poly.exponents
        )

    def __hash__(self):
        return hash(self.poly.exponents)

    @classmethod
    def of(cls, exponents, provenance=None) -> "MultipleRecord":
        """The record of an exponent set; weight and degree are derived."""
        poly = SparsePoly(exponents)
        return cls(poly, poly.weight(), poly.degree(), provenance)

    def __repr__(self):
        return f"MultipleRecord({self.poly})"


class LogTableEntry(NamedTuple):
    log: int
    exponents: tuple[int, ...]
    max_exp: int


@dataclass
class LogTable:
    """Phase-1 table: logs of (1 + stored tuple), sorted ascending.

    zero_polys collects stored tuples whose polynomial reduced to the
    zero element; those are multiples in their own right and have no
    logarithm to store.  modulus is the P the logs were taken under.
    """

    modulus: SparsePoly
    entries: list[LogTableEntry]
    logs: list[int]  # parallel to entries, for bisection
    zero_polys: list[tuple[int, ...]]
    max_degree: int
    log_calls: int
    build_seconds: float


@dataclass(frozen=True)
class SearchParams:
    """Parameters of one exhaustive search.

    q1 is the stored-side tuple size, q2 the probe-side size; the split
    satisfies q1 + q2 + 1 = w (classical) or q1 + q2 + 2 = w
    (logarithmic), with q1 <= q2.
    """

    w: int
    D: int
    q1: int
    q2: int
    algorithm: str
    budget_bytes: int = DEFAULT_BUDGET_BYTES

    def __post_init__(self):
        if self.algorithm not in (ALGO_CLASSICAL, ALGO_LOGARITHMIC):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.w < 2:
            raise WeightTooSmallError("weight must be >= 2")
        if self.D < 1:
            raise ValueError("max degree must be >= 1")
        if not 0 <= self.q1 <= self.q2:
            raise ValueError("need 0 <= q1 <= q2")
        overhead = 1 if self.algorithm == ALGO_CLASSICAL else 2
        if self.q1 + self.q2 + overhead != self.w:
            raise ValueError(
                f"split ({self.q1}, {self.q2}) inconsistent with weight {self.w}"
            )

    @classmethod
    def balanced(cls, w: int, D: int, algorithm: str, **kwargs) -> "SearchParams":
        """Build params with the standard balanced split."""
        if algorithm == ALGO_CLASSICAL and w == 2:
            q1, q2 = 0, 1  # the split formula degenerates cleanly at w=2
        else:
            q1, q2 = default_split(w, algorithm)
        return cls(w=w, D=D, q1=q1, q2=q2, algorithm=algorithm, **kwargs)


@dataclass
class RunReport:
    """Counters and timings from one solver run."""

    algorithm: str
    w: int
    D: int
    q1: int
    q2: int
    found: int = 0
    duplicates_suppressed: int = 0
    zero_shift_skips: int = 0
    zero_residue_emits: int = 0
    table_entries: int = 0
    log_calls: int = 0
    phase1_seconds: float = 0.0
    phase2_seconds: float = 0.0

    def lines(self) -> list[str]:
        out = ["# run report"]
        for key in (
            "algorithm", "w", "D", "q1", "q2",
            "found", "duplicates_suppressed", "zero_shift_skips",
            "zero_residue_emits", "table_entries", "log_calls",
        ):
            out.append(f"{key}: {getattr(self, key)}")
        out.append(f"phase1_seconds: {self.phase1_seconds:.3f}")
        out.append(f"phase2_seconds: {self.phase2_seconds:.3f}")
        return out


@dataclass
class SearchResult:
    records: list[MultipleRecord]  # sorted by (degree, exponents)
    report: RunReport

    def exponent_sets(self) -> frozenset[tuple[int, ...]]:
        return frozenset(r.poly.exponents for r in self.records)


def _assemble_exps(
    stored: tuple[int, ...], probe: tuple[int, ...], shift: int
) -> tuple[int, ...]:
    if shift > 0:
        half_a = {0, *stored}
        half_b = {shift, *(shift + d for d in probe)}
    else:
        k = -shift
        half_a = {k, *(k + g for g in stored)}
        half_b = {0, *probe}
    return tuple(sorted(half_a ^ half_b))


def _classical_exps(
    stored: tuple[int, ...], probe: tuple[int, ...]
) -> tuple[int, ...]:
    """Exponents of 1 + stored half + probe half; shared terms cancel."""
    return tuple(sorted({0} | (set(stored) ^ set(probe))))


def assemble_multiple(
    stored: tuple[int, ...], probe: tuple[int, ...], shift: int
) -> MultipleRecord:
    """Assemble (1 + stored half) with x^shift * (1 + probe half).

    shift > 0 shifts the probe half up; shift < 0 shifts the stored
    half up by -shift.  Coinciding exponents cancel, so the result can
    have lower weight than the nominal q1 + q2 + 2.  shift = 0 means
    the two halves reduced to the same element and no multiple arises.
    """
    if shift == 0:
        raise ZeroShiftError("equal-residue halves assemble to zero")
    stored, probe = tuple(stored), tuple(probe)
    return MultipleRecord.of(
        _assemble_exps(stored, probe, shift), (stored, probe, shift)
    )


def range_query(table: LogTable, lo: int, hi: int, M: int) -> list[LogTableEntry]:
    """Entries whose log lies in the cyclic interval [lo, hi] mod M.

    One or two binary-searched contiguous slices of the sorted table.
    """
    lo %= M
    hi %= M
    logs = table.logs
    if lo <= hi:
        return table.entries[bisect_left(logs, lo) : bisect_right(logs, hi)]
    return (
        table.entries[bisect_left(logs, lo) :]
        + table.entries[: bisect_right(logs, hi)]
    )


def _one_plus(xp: list[int], tup: tuple[int, ...]) -> int:
    """Residue of 1 + (sum of x^e over e in tup), from the power table xp."""
    r = 1
    for e in tup:
        r ^= xp[e]
    return r


def _tuple_logs(engine, xp: list[int], tuples):
    """(tup, log of 1 + tup) for every tuple, in order; the log is None
    where 1 + tup reduces to zero.

    The logs are taken LOG_CHUNK tuples at a time, one batched
    discrete_log call per chunk.
    """
    it = iter(tuples)
    while chunk := list(islice(it, LOG_CHUNK)):
        res = [_one_plus(xp, tup) for tup in chunk]
        logs = iter(engine.discrete_log(
            np.array([r for r in res if r], dtype=np.uint64)
        ).tolist())
        for tup, r in zip(chunk, res):
            yield tup, (next(logs) if r else None)


def build_log_table(engine, q1: int, max_deg: int) -> LogTable:
    """Phase 1 of the log route: log of (1 + tuple) for every q1-tuple
    with exponents up to max_deg, sorted by log."""
    ctx = engine.ctx
    t0 = time.perf_counter()
    xp = ctx.power_table(max_deg)
    raw: list[LogTableEntry] = []
    zero_polys: list[tuple[int, ...]] = []
    for tup, lg in _tuple_logs(engine, xp, enumerate_tuples(q1, max_deg)):
        if lg is None:
            zero_polys.append(tup)
        else:
            raw.append(LogTableEntry(lg, tup, tup[-1] if tup else 0))
    raw.sort()
    return LogTable(
        modulus=ctx.poly,
        entries=raw,
        logs=[entry.log for entry in raw],
        zero_polys=zero_polys,
        max_degree=max_deg,
        log_calls=len(raw),
        build_seconds=time.perf_counter() - t0,
    )


def _window_matches(
    table: LogTable, probe_log: int, probe_max: int, D: int, M: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every (stored tuple, shift) pairing a probe with the table.

    The shift e is congruent to (stored log - probe_log) mod M and lies
    in [stored max - D, D - probe_max], which keeps both shifted halves
    at degree <= D.  Only logs in the cyclic window starting D below
    probe_log can match, so one range query finds them; once the window
    spans the whole group every entry is walked.  Shift 0 is yielded
    too (both halves reduce to the same element); callers count or skip
    it.
    """
    shift_hi = D - probe_max
    # smallest possible max exponent of a stored tuple: 0 only for q1 = 0
    stored_min = 1 if table.entries and table.entries[0].exponents else 0
    if shift_hi - (stored_min - D) + 1 >= M:
        hits = table.entries
    else:
        hits = range_query(
            table, probe_log + stored_min - D, probe_log + shift_hi, M
        )
    for stored_log, stored, stored_max in hits:
        lo = stored_max - D
        # walk every shift congruent to stored_log - probe_log inside [lo, shift_hi]
        shift = lo + ((stored_log - probe_log - lo) % M)
        while shift <= shift_hi:
            yield stored, shift
            shift += M


def _zero_poly_multiples(table: LogTable, q2: int) -> list[tuple[tuple, tuple]]:
    """(exponents, provenance) of the stored tuples reducing to zero.

    Each 1 + tuple is a multiple of weight q1 + 1, which has the parity
    of w = q1 + q2 + 2 only when q2 is odd.
    """
    if q2 % 2 == 0:
        return []
    return [((0,) + tup, (tup, (), None)) for tup in table.zero_polys]


def _log_probe(table: LogTable, q1: int, D: int, M: int, dedup: "_Dedup"):
    """The log-route probe: a function of one probe tuple and the log of
    1 + tuple that adds every multiple it completes against the table
    to dedup.

    The log is None when 1 + tuple reduces to zero: then it is a
    multiple of weight q2 + 1 by itself, with the parity of
    w = q1 + q2 + 2 only when q1 is odd.  At D >= M it is also paired,
    at every admissible nonzero shift, with each stored tuple that
    reduces to zero (below M no multiple needs that: swapping one term
    between two zero halves leaves x^a + x^b, nonzero for |a - b| < M,
    in each).  Otherwise every window match with a nonzero shift is
    assembled.  The function returns (zero-shift skips, zero-residue
    emits, skipped), where skipped counts a zero residue of the wrong
    parity.
    """
    add = dedup.add

    def probe(tup: tuple[int, ...], probe_log: int | None) -> tuple[int, int, int]:
        probe_max = tup[-1] if tup else 0
        if probe_log is None:
            emits = 0
            for stored in table.zero_polys if D >= M else ():
                for shift in range(stored[-1] - D, D - probe_max + 1):
                    if shift:
                        add(_assemble_exps(stored, tup, shift), (stored, tup, shift))
                        emits += 1
            if q1 % 2 == 1:
                add((0,) + tup, (tup, (), None))
                return 0, emits + 1, 0
            return 0, emits, 1
        skips = 0
        for stored, shift in _window_matches(table, probe_log, probe_max, D, M):
            if shift:
                add(_assemble_exps(stored, tup, shift), (stored, tup, shift))
            else:
                skips += 1
        return skips, 0, 0

    return probe


def _table_bytes(entries: int, power_slots: int) -> int:
    """The planning model's bytes for a log table and a power table."""
    return entries * TABLE_ENTRY_BYTES + power_slots * POWER_TABLE_ENTRY_BYTES


def _check_budget(predicted: int, budget: int) -> None:
    if predicted > budget:
        raise MemoryBudgetExceededError(
            f"predicted table memory {predicted} bytes exceeds budget {budget}; "
            "lower the degree bound or use the sampling search"
        )


def _provenance_key(prov):
    if prov is None:
        return ()
    stored, probe, shift = prov
    return (stored, probe, 0 if shift is None else shift)


class _Dedup:
    """Incremental canonical-set dedup, shared by every search.

    Memory stays proportional to the number of distinct multiples even
    when decompositions arrive millions of times over (routine once the
    degree bound nears half the group order).  Keeping the smallest
    provenance makes the outcome independent of arrival order, so a
    probe loop that batches or reorders its probes reports the same
    provenances.  The dict keeps first-discovery order, which is the
    order the samplers report.
    """

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
        """One record per distinct multiple, in discovery order."""
        return [MultipleRecord.of(exps, prov) for exps, prov in self.best.items()]


def _lower_weight(params: SearchParams) -> SearchParams:
    """The balanced weight w - 2 search that stands in for a weight-w one
    at D < w - 2.  A weight-w multiple needs w - 1 distinct exponents in
    [1, D], so there is none there, and [1, D] cannot hold the cancelled
    pair through which the weight-w split finds lower weights; the
    weight w - 2 search finds them all (recursing while D < w - 4).  The
    run report is that search's."""
    return SearchParams.balanced(
        params.w - 2, params.D, params.algorithm, budget_bytes=params.budget_bytes)


def _finalize(dedup: _Dedup, report) -> list[MultipleRecord]:
    records = sorted(dedup.records(), key=lambda r: (r.degree, r.poly.exponents))
    report.found = len(records)
    report.duplicates_suppressed = dedup.seen - len(records)
    return records


def _combinations_array(D: int, q: int) -> np.ndarray:
    """enumerate_tuples(q, D) as a (C(D, q), q) int64 array, lex order."""
    n = comb(D, q)
    flat = np.fromiter(
        chain.from_iterable(enumerate_tuples(q, D)), np.int64, count=n * q)
    return flat.reshape(n, q)


def _residues(xp: np.ndarray, tuples: np.ndarray) -> np.ndarray:
    """Residue of the sum of x^e over each row: XOR of its powers."""
    out = np.zeros(len(tuples), np.int64)
    for col in tuples.T:
        out ^= xp[col]
    return out


def _filter_bits(n: int, keys: int) -> int:
    """Index width k of the classical lookup's bit filter: 2^k bits are
    at most one byte per key (a 1/32 to 1/64 load); for n <= k every
    residue has its own bit."""
    return min(n, keys.bit_length() + 5)


def _suffix_size(q2: int) -> int:
    """Trailing probe exponents the classical route vectorizes: all of a
    single one, else up to two after a prefix of at least one."""
    return max(1, min(q2 - 1, 2))


def _tmto_bytes(n: int, D: int, q1: int, q2: int) -> int:
    """Bytes that tmto_find_all allocates, counted in 8-byte words.

    Per stored q1-tuple: its exponents and its key (residue), each held
    twice while they are put in key order, and that order.  The bit
    filter.  Per exponent up to D: its power as a list slot and int and
    as an array entry, and its int in the tuple enumeration's pool.  Per
    probe suffix: its exponents, its residue and three words of work.
    """
    entries, s = comb(D, q1), _suffix_size(q2)
    return (
        entries * 8 * (2 * q1 + 3)
        + (1 << _filter_bits(n, entries)) // 8 + 1
        + (D + 1) * 8 * 11
        + comb(D, s) * 8 * (s + 4)
    )


def tmto_find_all(ctx: FieldContext, params: SearchParams) -> SearchResult:
    """Classical route: store residues of the q1 half, probe with the q2
    half for pairs XORing to 1.

    Phase 1 sorts the stored residues (keys) and sets one bit per key in
    a filter indexed by their low _filter_bits bits.  Phase 2 loops in
    Python over the leading probe exponents only: for each prefix, the
    residues of the trailing _suffix_size exponents that follow it form a
    contiguous slice of one array in lex order.  A probe whose filter
    bit is set is confirmed by binary search on the keys, so the lookup
    is exact however many residues share a bit.
    """
    if params.algorithm != ALGO_CLASSICAL:
        raise ValueError("tmto_find_all needs algorithm='classical'")
    if params.D < params.w - 2:
        return tmto_find_all(ctx, _lower_weight(params))
    q1, q2, D = params.q1, params.q2, params.D
    report = RunReport(algorithm="tmto", w=params.w, D=D, q1=q1, q2=q2)
    _check_budget(_tmto_bytes(ctx.n, D, q1, q2), params.budget_bytes)
    xp_list = ctx.power_table(D)
    xp = np.array(xp_list, np.int64)

    t0 = time.perf_counter()
    stored = _combinations_array(D, q1)
    keys = _residues(xp, stored)
    order = np.argsort(keys, kind="stable")  # equal keys stay in lex order
    keys, stored = keys[order], stored[order]
    del order
    mask = (1 << _filter_bits(ctx.n, len(keys))) - 1
    filt = np.zeros((mask >> 3) + 1, np.uint8)
    slot = keys & mask
    mark = _BITS[slot & 7]
    slot >>= 3
    np.bitwise_or.at(filt, slot, mark)
    del slot, mark
    report.table_entries = len(keys)
    report.phase1_seconds = time.perf_counter() - t0

    # q2 >= 1 always: q1 <= q2 and q1 + q2 + 1 = w >= 2
    t0 = time.perf_counter()
    dedup = _Dedup()
    add = dedup.add
    s = _suffix_size(q2)
    suffixes = _combinations_array(D, s)
    probes = _residues(xp, suffixes)
    probes ^= 1
    total = len(suffixes)
    # per-prefix work arrays, reused so that the loop allocates little
    work = np.empty(total, np.int64)
    shifts, bits = np.empty(total, np.uint8), np.empty(total, np.uint8)
    for prefix in enumerate_tuples(q2 - s, D - s):
        start = total - comb(D - prefix[-1], s) if prefix else 0
        base = 0
        for e in prefix:
            base ^= xp_list[e]
        size = total - start
        low = np.bitwise_xor(probes[start:], base, out=work[:size])
        low &= mask
        shift = np.bitwise_and(low, 7, out=shifts[:size], casting="unsafe")
        low >>= 3
        # (indices are in range; mode "raise" would copy out first)
        bit = filt.take(low, out=bits[:size], mode="clip")
        bit >>= shift
        bit &= 1
        cand = bit.view(bool).nonzero()[0]
        r = probes[start + cand] ^ base
        lo = keys.searchsorted(r)
        hit = (keys.take(lo, mode="clip") == r).nonzero()[0]
        if not len(hit):
            continue
        cand, lo, r = cand[hit], lo[hit], r[hit]
        count = keys.searchsorted(r, "right") - lo
        # every (probe, stored) pair: runs of count stored tuples from lo
        ends = np.cumsum(count)
        at = np.arange(ends[-1]) + np.repeat(lo - (ends - count), count)
        for st, su in zip(stored[at].tolist(),
                          suffixes[np.repeat(cand + start, count)].tolist()):
            st, probe = tuple(st), prefix + tuple(su)
            add(_classical_exps(st, probe), (st, probe, None))
    report.phase2_seconds = time.perf_counter() - t0
    return SearchResult(records=_finalize(dedup, report), report=report)


def logtmto_find_all(
    ctx: FieldContext, engine, params: SearchParams
) -> SearchResult:
    """Log route: sorted log table for the q1 half, a cyclic window
    query of width about 2D per q2-probe, shift-based assembly.

    Produces exactly the same set as the classical route at equal
    (w, D), D >= M included.  Stored tuples whose polynomial reduces to
    zero are themselves multiples (weight q1 + 1); they are emitted
    directly when their weight parity matches w, and likewise for probe
    tuples.  Where it is proven (the balanced split with q1 <= 1), phase
    2 probes only tuples up to second_phase_bound.
    """
    if params.algorithm != ALGO_LOGARITHMIC:
        raise ValueError("logtmto_find_all needs algorithm='logarithmic'")
    if engine.ctx is not ctx and engine.ctx.poly != ctx.poly:
        raise ValueError("engine was built for a different modulus")
    if params.D < params.w - 2:
        return logtmto_find_all(ctx, engine, _lower_weight(params))
    q1, q2, D = params.q1, params.q2, params.D
    report = RunReport(algorithm="logtmto", w=params.w, D=D, q1=q1, q2=q2)
    _check_budget(_table_bytes(comb(D, q1), D + 1), params.budget_bytes)

    table = build_log_table(engine, q1, D)
    report.table_entries = len(table.entries)
    report.log_calls += table.log_calls
    report.phase1_seconds = table.build_seconds

    dedup = _Dedup()
    for exps, prov in _zero_poly_multiples(table, q2):
        dedup.add(exps, prov)
        report.zero_residue_emits += 1

    balanced = q1 <= 1 <= q2 <= q1 + 1  # w = 3, 4, 5 with the default split
    bound = second_phase_bound(D, params.w, q2) if balanced else D

    t0 = time.perf_counter()
    probe = _log_probe(table, q1, D, ctx.order, dedup)
    for tup, lg in _tuple_logs(
        engine, ctx.power_table(D), enumerate_tuples(q2, bound)
    ):
        skips, emits, _ = probe(tup, lg)
        report.log_calls += lg is not None
        report.zero_shift_skips += skips
        report.zero_residue_emits += emits
    report.phase2_seconds = time.perf_counter() - t0
    return SearchResult(records=_finalize(dedup, report), report=report)
