"""Exhaustive low-weight multiple search: classical and log-table routes.

Both solvers return exactly the multiples of P that have a constant
term, degree at most D, and weight at most w *of the same parity as w*
(w, w-2, ...).  Each runs one search per weight (``_levels``): the
weight-w search meets each multiple of exactly weight w through one
split, no term of which cancels, and the searches of weights w - 2,
w - 4, ... at the same D give the rest.  Where D < w - 2, [1, D] holds
no weight-w multiple, and the chain starts at a lower weight.

The two routes differ only in how they match two halves.  The classical
route stores residues of the smaller half-decomposition as sorted keys
behind a bit filter and probes with the other half, looking for pairs
XORing to 1; the probes run on arrays, and every filter hit is confirmed
by binary search on the keys, so the lookup is exact.  It keeps a hit
only where the stored half holds the multiple's lowest exponents.  The
logarithmic route stores discrete logs of the stored half as a sorted
array and matches a chunk of probe logs at a time against it in one
array kernel: a cyclic window of width about 2D (D where canonical)
around each probe log is one or two sorted slices, and each (probe,
stored) pair in it gives every shift e congruent to the two logs'
difference that keeps both shifted halves at degree <= D (more than
one once D reaches half the group order).  It is canonical wherever its
probes cover all of [1, D], with the shifted probe half above the stored
one, and elsewhere keeps the match whose probe half is the multiple's
last short run of terms (``_split``).  Both routes then share one
back end on arrays: a match is a row of its terms, ``_KeySorter`` holds
each as its key and sorts the keys once, which ``SearchResult`` holds; it
unpacks them on read and builds the MultipleRecords only when asked.

Each concept has one home shared with the samplers: the ``tuples``
module is the lexicographic order of the tuples both halves are made
of (rank, unrank and block enumeration), ``_match_blocks`` and
``_match_rows`` are the log route's match kernel, ``_zero_pairs`` the
pairing of halves that reduce to zero, ``_classical_exps`` the assembly
of ``birthday_tmto``'s matches, the row of a multiple (its exponents,
padded with D + 1) the one format from match to sorter, ``_keys`` the one
format held and returned, ``_split`` the split through which a search
meets it, and ``_match_records`` the maker of MultipleRecords.  Each
Zech-style log log(1 + tuple) is taken once: phase 1 takes the logs of
the tuples with an odd exponent in batches of LOG_CHUNK, one array call
of ``discrete_log`` per batch, and ``_fill_even`` derives the rest by
the Frobenius identity; phase 2 reads its probes' logs from phase 1 when
both halves have the same size, and otherwise takes them a chunk of
LOG_CHUNK probes at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from math import comb, factorial, inf
from typing import Optional

import numpy as np

from .dlog import BATCH_LOG_BYTES, giant_pass_bytes
from .errors import (
    DegreeOutOfRangeError,
    MemoryBudgetExceededError,
    WeightTooSmallError,
)
from .gf2poly import FieldContext, SparsePoly, powers_bytes
from .tuples import LOG_CHUNK, rank, tuple_array

ALGO_CLASSICAL = "classical"
ALGO_LOGARITHMIC = "logarithmic"

DEFAULT_BUDGET_BYTES = 2**31

# Matches per block of the log route's match kernel, which bounds its
# work arrays: a block takes MATCH_BLOCK // (the most shifts one (probe,
# stored) pair can have) pairs.
MATCH_BLOCK = 8192

# Work bytes per key of the final sort of keys too wide to pack, beside
# the keys and their sorted copy: the sort order and np.lexsort's own
# work (tracemalloc: 24 to 25 at 19,449 to 802,384 keys of 2 to 7
# columns).  Packed keys sort in place.
SORT_ROW_BYTES = 32

# Bit fields that _keys packs into one int64 at most; keys of fields that
# need more are compared column by column.
PACK_BITS = 63

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


def second_phase_bound(D: int, w: int, q2: int) -> int:
    """Probe-tuple degree bound max(q2, ceil(D * q2 / (w - 1))), at most D.

    Proven for the balanced split with q1 <= 1 (w = 3, 4, 5), where
    logtmto_find_all uses it.  The w - 1 gaps of a weight-w multiple sum
    to at most D, so some q2 + 1 consecutive terms span at most
    ceil(D * q2 / (w - 1)): the probe half.  The other half has at most 2
    terms.  If it is nonzero the log match finds the multiple; if it is
    zero (1 + x^M, only from D = M on) so is the probe half, and the
    pairing of zero halves in _zero_pairs finds it.  With q1 >= 2 a
    3-term half can be zero (P = 6,5,0, w = 6, D = 31 loses P + x^21 P).
    """
    if w < 3:
        raise WeightTooSmallError("second-phase bound needs weight >= 3")
    return min(D, max(q2, -(-D * q2 // (w - 1))))


def estimate_count(n: int, w: int, D: int) -> float:
    """Expected number of weight-w degree-<=D multiples: D^(w-1) / ((w-1)! 2^n),
    or inf where that exceeds the largest float."""
    if w < 2:
        raise WeightTooSmallError("estimate needs weight >= 2")
    if not 2 <= n <= 63:
        raise DegreeOutOfRangeError(f"modulus degree must be in 2..63, got {n}")
    if D < 1:
        raise ValueError("max degree must be >= 1")
    try:
        return float(Fraction(D ** (w - 1), factorial(w - 1) * (1 << n)))
    except OverflowError:
        return inf


@dataclass(frozen=True, eq=False, init=False)
class MultipleRecord:
    """A canonicalized found multiple.

    Equality and hashing are by the exponent set only; provenance is a
    (stored tuple, probe tuple, shift) that produced it, with shift None
    for the classical route: the one split through which an exhaustive
    search met it (tmto_find_all, logtmto_find_all), which _split derives
    from its exponents, or the smallest a sampler saw.  weight and degree
    are read from poly; given to the constructor, they must be poly's.
    """

    poly: SparsePoly
    provenance: Optional[tuple] = None

    def __init__(self, poly, weight=None, degree=None, provenance=None):
        for name, given in (("weight", weight), ("degree", degree)):
            if given is not None and given != getattr(poly, name)():
                raise ValueError(f"{poly} does not have {name} {given}")
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "provenance", provenance)

    weight = property(lambda self: self.poly.weight())
    degree = property(lambda self: self.poly.degree())

    def __eq__(self, other):
        return (
            isinstance(other, MultipleRecord)
            and self.poly.exponents == other.poly.exponents
        )

    def __hash__(self):
        return hash(self.poly.exponents)

    @classmethod
    def of(cls, exponents, provenance=None, *,
           checked: bool = True) -> "MultipleRecord":
        """The record of an exponent set.

        checked=False takes a tuple that is already canonical (strictly
        increasing, in range) without SparsePoly's check of every pair:
        the searches build their tuples so.
        """
        poly = SparsePoly(exponents) if checked else SparsePoly.canonical(exponents)
        return cls(poly, provenance=provenance)

    def __repr__(self):
        return f"MultipleRecord({self.poly})"


@dataclass
class LogTable:
    """Phase-1 table: logs of (1 + stored tuple), sorted ascending.

    exponents[i] is the stored tuple whose log is logs[i]; equal logs
    keep the tuples' lex order.  zero_polys collects stored tuples whose
    polynomial reduced to the zero element; those are multiples in their
    own right and have no logarithm to store.  lex_logs holds the log of
    every q1-tuple over [1, max_degree] in lex order, -1
    where it reduces to zero.  modulus is the P the logs were taken
    under; log_calls counts the logs actually taken.
    """

    modulus: SparsePoly
    logs: np.ndarray  # (N,) int64
    exponents: np.ndarray  # (N, q1) int64
    zero_polys: list[tuple[int, ...]]
    max_degree: int
    log_calls: int
    build_seconds: float
    lex_logs: np.ndarray  # (C(max_degree, q1),) int64


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
        if algorithm == ALGO_CLASSICAL and w < 3:
            if w < 2:
                raise WeightTooSmallError("classical search needs weight >= 2")
            q1, q2 = 0, 1  # the split formula degenerates cleanly at w=2
        else:
            q1, q2 = default_split(w, algorithm)
        return cls(w=w, D=D, q1=q1, q2=q2, algorithm=algorithm, **kwargs)


@dataclass
class RunReport:
    """Counters and timings from one solver run.

    Counters sum over the searches of the run (_levels); w, q1 and q2
    are the highest one's.  probes counts the phase-2 probe tuples, those
    that reduce to zero included; log_calls counts only the logs actually
    taken.  duplicates_suppressed stays 0: each search meets each
    multiple once.  lines() leaves probes out, so the find-all report
    text stays as it was.
    """

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
    probes: int = 0
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


@dataclass(eq=False)
class SearchResult:
    """The multiples of one exhaustive run, kept as _KeySorter.sorted_keys,
    sorted by (degree, exponents), and the run's searches (_levels).
    rows, exponent_blocks() and records unpack the keys (_unkey).  records
    builds one MultipleRecord per row on its first read and keeps the
    list; its provenance is the row's _split under the search of its
    weight."""

    keys: np.ndarray
    report: RunReport
    levels: list[SearchParams]

    @property
    def rows(self) -> np.ndarray:
        """One row per multiple in record order, unpacked on each read."""
        return _unkey(self.keys, self.report.D, self.report.w)

    def _row_blocks(self):
        for at in range(0, len(self.keys), 1024):
            yield _unkey(self.keys[at:at + 1024], self.report.D,
                         self.report.w)

    def exponent_blocks(self):
        """The multiples' exponent tuples in record order, a list of at
        most 1024 per block."""
        for rows in self._row_blocks():
            yield _exponents(rows, self.report.D)

    def exponent_sets(self) -> frozenset[tuple[int, ...]]:
        return frozenset(chain.from_iterable(self.exponent_blocks()))

    @cached_property
    def records(self) -> list[MultipleRecord]:
        """One record per multiple, sorted by (degree, exponents).  Parts
        of 1024 rows keep their lists small beside the records; a part's
        splits are padded with zeros to the rows' width."""
        D, records, tuples = self.report.D, [], {}
        for rows in self._row_blocks():
            weight = (rows <= D).sum(axis=1)
            stored, probes = np.zeros_like(rows), np.zeros_like(rows)
            shift = np.zeros(len(rows), np.int64)
            for level in self.levels:
                of = weight == level.w
                a, b, shift[of] = _split(
                    rows[of, :level.w], level.q1, _probe_bound(level),
                    level.algorithm == ALGO_CLASSICAL)
                stored[of, :a.shape[1]], probes[of, :b.shape[1]] = a, b
            records += [MultipleRecord.of(exps, prov, checked=False)
                        for exps, prov in _match_records(
                            rows, stored, probes, shift, D, tuples)]
        return records


def _classical_exps(
    stored: tuple[int, ...], probe: tuple[int, ...]
) -> tuple[int, ...]:
    """Exponents of 1 + stored half + probe half; shared terms cancel."""
    return tuple(sorted({0} | (set(stored) ^ set(probe))))


def _tuple_logs(engine, xp: np.ndarray, tuples: np.ndarray) -> np.ndarray:
    """The int64 logs of 1 + each row of tuples, -1 where it reduces to
    zero: one batched discrete_log call."""
    res = _residues(xp, tuples)
    res ^= 1
    logs = np.full(len(tuples), -1, np.int64)
    nonzero = res != 0
    logs[nonzero] = engine.discrete_log(res[nonzero].view(np.uint64))
    return logs


def _fill_even(exps: np.ndarray, logs: np.ndarray, even: np.ndarray,
               max_deg: int, M: int) -> None:
    """Fill logs[even], the logs of the all-even tuples among exps (every
    q-tuple over [1, max_deg] in lex order), from the logs of the others.

    Squaring is the field's Frobenius map: (1 + sum x^u_i)^2 =
    1 + sum x^(2 u_i).  So a tuple t = 2^v u, with u holding an odd
    exponent, has log(1 + t) = 2^v log(1 + u) mod M, and u lies in
    [1, max_deg] with its log already in logs.  Squaring is a bijection
    that fixes zero, so 1 + t reduces to zero exactly when 1 + u does:
    the -1 of a zero residue carries over.  The doubling runs in uint64:
    a log is below M < 2^63, so twice it fits (n <= 63).
    """
    if not len(even):
        return
    t = exps[even]
    low = np.bitwise_or.reduce(t, axis=1)
    low &= -low  # 2^v, the largest power of two dividing every exponent
    half = logs[rank(t // low[:, None], max_deg)]
    known = half >= 0
    y, low, m = half[known].view(np.uint64), low[known], np.uint64(M)
    for _ in range(int(low.max(initial=1)).bit_length() - 1):
        twice = y << np.uint64(1)
        twice[twice >= m] -= m
        y = np.where(low > 1, twice, y)
        low >>= 1
    half[known] = y.view(np.int64)
    logs[even] = half


def build_log_table(engine, q1: int, max_deg: int,
                    xp: Optional[np.ndarray] = None) -> LogTable:
    """Phase 1 of the log route: log of (1 + tuple) for every q1-tuple
    with exponents up to max_deg, sorted by log.

    Only the tuples with an odd exponent take a log, LOG_CHUNK per
    batched call (the empty tuple of q1 = 0 is its own half, so it takes
    one too); _fill_even derives the all-even ones.  xp is the power
    array x^0..x^max_deg (or longer) if the caller has one; it is built
    here only where q1 >= 1, since the empty tuple has no exponent.
    """
    t0 = time.perf_counter()
    if xp is None and q1:
        xp = engine.ctx.powers(2, max_deg + 1).view(np.int64)
    exps = tuple_array(q1, max_deg)
    odd = (exps & 1).any(axis=1) if q1 else np.ones(len(exps), bool)
    logs = np.full(len(exps), -1, np.int64)
    rows = np.flatnonzero(odd)
    for at in range(0, len(rows), LOG_CHUNK):
        part = rows[at:at + LOG_CHUNK]
        logs[part] = _tuple_logs(engine, xp, exps[part])
    del rows
    log_calls = int(np.count_nonzero(logs >= 0))
    _fill_even(exps, logs, np.flatnonzero(~odd), max_deg, engine.ctx.order)
    order = np.flatnonzero(logs >= 0)
    order = order[np.argsort(logs[order], kind="stable")]
    return LogTable(
        modulus=engine.ctx.poly,
        logs=logs[order],
        exponents=exps[order],
        zero_polys=[tuple(tup) for tup in exps[logs < 0].tolist()],
        max_degree=max_deg,
        log_calls=log_calls,
        build_seconds=time.perf_counter() - t0,
        lex_logs=logs,
    )


def _match_blocks(table: LogTable, probes: np.ndarray, probe_logs: np.ndarray,
                  D: int, M: int, canonical: bool = False):
    """The log route's match kernel: every match of the probe tuples (the
    rows of probes, whose 1 + tuple has the log in probe_logs) with the
    table, one block at a time.

    A match pairs a probe with a stored entry at a shift e congruent to
    (stored log - probe log) mod M inside [low, D - probe max], which
    keeps both shifted halves at degree <= D: low is stored max - D, or
    stored max + 1 where canonical, so that the shifted probe half lies
    above the stored one (logtmto_find_all).  Only stored logs in the
    cyclic window from probe log + the least low of any stored tuple
    (1 - D, or 2, one less for q1 = 0) to probe log + D - probe max can
    match: one or two slices of the sorted logs, found by searchsorted,
    or the whole table once the window spans the group.  The (probe, entry) pairs of all windows are taken
    MATCH_BLOCK // (the most shifts one pair can have) at a time, and
    each pair yields every congruent shift in its range: at most one
    below D = M / 2, more from there on.  Matches come in probe order,
    then window order (log ascending from the window's start), then
    ascending shift.  Each block is (probe row, table position, shift)
    arrays and the number of shifts 0 dropped from it: there both halves
    reduce to the same element, and no multiple arises.
    """
    logs, entries = table.logs, len(table.logs)
    q1 = table.exponents.shape[1]
    stored_max = table.exponents[:, -1] if q1 else np.zeros(entries, np.int64)
    probe_max = (probes[:, -1] if probes.shape[1]
                 else np.zeros(len(probes), np.int64))
    gap = 1 if canonical else -D  # a pair's lowest shift above stored max
    shift_lo = min(q1, 1) + gap  # lowest shift of any stored tuple
    shift_hi = D - probe_max
    # (sums and differences stay below M + D in size: no int64 overflow
    # where M = 2^63 - 1)
    lo = (probe_logs + shift_lo) % M
    hi = (probe_logs - (M - shift_hi)) % M
    start = logs.searchsorted(lo)
    stop = logs.searchsorted(hi, "right")
    wrap = lo > hi
    head = np.where(wrap, entries - start, stop - start)  # from start on
    count = head + np.where(wrap, stop, 0)  # then from 0 where it wraps
    count[shift_hi < shift_lo] = 0  # no shift in range (only where canonical)
    whole = shift_hi - shift_lo + 1 >= M
    start[whole], head[whole], count[whole] = 0, entries, entries
    ends = np.cumsum(count)
    total = int(ends[-1]) if len(ends) else 0
    step = max(1, MATCH_BLOCK // (2 * D // M + 1))  # a range holds <= 2D + 1
    for first in range(0, total, step):
        k = np.arange(first, min(first + step, total))
        p = ends.searchsorted(k, "right")
        j = k - (ends[p] - count[p])
        pos = np.where(j < head[p], start[p] + j, j - head[p])
        low = stored_max[pos] + gap
        shift = low + ((logs[pos] - probe_logs[p]) % M - low % M) % M
        n = (shift_hi[p] - shift) // M + 1  # congruent shifts in range
        np.maximum(n, 0, out=n)
        pair = np.repeat(np.arange(len(k)), n)
        walk = np.arange(len(pair)) - np.repeat(np.cumsum(n) - n, n)
        p, pos, shift = p[pair], pos[pair], shift[pair] + M * walk
        zero = shift == 0
        skips = int(np.count_nonzero(zero))
        if skips:
            keep = ~zero
            p, pos, shift = p[keep], pos[keep], shift[keep]
        yield p, pos, shift, skips


def _match_rows(stored: np.ndarray, probes: np.ndarray, shift: np.ndarray,
                D: int):
    """The block (rows, stored, probes, shift) of log-route matches:
    each multiple as a _cancel row of w = q1 + q2 + 2 exponents, (1 +
    stored) shifted up by -shift where shift < 0, plus (1 + probe)
    shifted up by shift where shift > 0."""
    q1, q2 = stored.shape[1], probes.shape[1]
    rows = np.empty((len(shift), q1 + q2 + 2), np.int64)
    up = np.maximum(-shift, 0)[:, None]
    rows[:, :1] = up
    rows[:, 1:q1 + 1] = stored + up
    up = np.maximum(shift, 0)[:, None]
    rows[:, q1 + 1:q1 + 2] = up
    rows[:, q1 + 2:] = probes + up
    return _cancel(rows, D), stored, probes, shift


def _cancel(rows: np.ndarray, D: int) -> np.ndarray:
    """The rows, each the terms of two halves of a multiple, as its
    exponents: ascending, padded with D + 1.  Each half's terms are
    distinct, so the terms they share are equal neighbours in the sorted
    row; both of each such pair cancel to D + 1."""
    rows.sort(axis=1)
    pair = rows[:, 1:] == rows[:, :-1]
    rows[:, 1:][pair] = D + 1
    rows[:, :-1][pair] = D + 1
    rows.sort(axis=1)
    return rows


def _key_bits(w: int, D: int) -> int:
    """The bits of each of the w - 1 fields of a packed key, values up to
    the pad D + 1; 0 where they do not fit in PACK_BITS."""
    bits = (D + 1).bit_length()
    return bits if (w - 1) * bits <= PACK_BITS else 0


def _keys(rows: np.ndarray, D: int) -> np.ndarray:
    """The sort keys of _cancel rows of width w, made in the rows' place:
    each row's degree, then its terms strictly between 0 and the degree,
    padded with D + 1, packed where _key_bits allows, else w - 1 columns.
    They sort as the rows by (degree, exponents): at the first difference
    of two keys of equal degree, both hold terms, or one meets its pad
    where the other holds a smaller term and in the rows it meets its
    degree; both put the other row first."""
    degree = rows.max(axis=1, where=rows <= D, initial=0)
    rows[:, 0] = degree
    between = rows[:, 1:-1]
    between[between == degree[:, None]] = D + 1
    bits = _key_bits(rows.shape[1], D)
    if not bits:
        return rows[:, :-1]
    for col in between.T:
        degree <<= bits
        degree |= col
    return degree[:, None]


def _unkey(keys: np.ndarray, D: int, w: int) -> np.ndarray:
    """The _cancel rows of width w whose _keys are keys."""
    bits = _key_bits(w, D)
    if bits:
        keys = keys >> bits * np.arange(w - 2, -1, -1)
        keys &= (1 << bits) - 1
    rows = np.zeros((len(keys), w), np.int64)
    rows[:, 1:-1] = keys[:, 1:]
    rows[:, -1] = keys[:, 0]
    rows.sort(axis=1)  # the degree before the pads
    return rows


def _exponents(rows: np.ndarray, D: int) -> list[tuple[int, ...]]:
    """The exponent tuples of _cancel rows (ascending, padded with D + 1)."""
    sizes = (rows <= D).sum(axis=1).tolist()
    return [tuple(row[:size]) for row, size in zip(rows.tolist(), sizes)]


def _match_records(rows, stored, probes, shift, D: int, tuples: dict):
    """(exponents, provenance) of a block's matches, given their _cancel
    rows, stored and probe tuples (as rows, padded with zeros) and shifts;
    shift 0, which the log route's kernel never emits, is the classical
    None.  Provenances share their tuples through the dict tuples."""
    share = tuples.setdefault
    for exps, st, probe, e in zip(
        _exponents(rows, D), stored.tolist(), probes.tolist(), shift.tolist()
    ):
        st, probe = tuple(filter(None, st)), tuple(filter(None, probe))
        yield exps, (share(st, st), share(probe, probe), e or None)


def _zero_pairs(table: LogTable, probes: np.ndarray, D: int, M: int,
                canonical: bool = False):
    """Each probe (a row of probes) whose 1 + tuple reduces to zero, so
    that it has no log, paired with each stored tuple that does, at every
    shift the match kernel allows, as _match_rows blocks: the kernel on
    logs 0 modulo 1.  Pairs are made at every D where canonical, else
    from D = M on.  Below M the kernel's full shift range needs none:
    swapping one term between two zero halves leaves x^a + x^b, nonzero
    for |a - b| < M, in each, and the bounded searches store at most one
    exponent, which reduces to zero only from D = M on.
    """
    q1, k = table.exponents.shape[1], len(table.zero_polys)
    if not k or not (canonical or D >= M):
        return
    zero = np.array(table.zero_polys, np.int64).reshape(k, q1)
    pairs = replace(table, logs=np.zeros(k, np.int64), exponents=zero)
    for p, pos, shift, _ in _match_blocks(
            pairs, probes, np.zeros(len(probes), np.int64), D, 1, canonical):
        yield _match_rows(zero[pos], probes[p], shift, D)


def _zero_blocks(table: LogTable, q2: int, D: int, M: int,
                 probes: Optional[np.ndarray] = None):
    """birthday_logtmto's multiples that zero residues make, as
    _match_rows blocks, in discovery order.

    Without probes: each stored tuple whose 1 + tuple reduces to zero is
    a multiple by itself, of weight q1 + 1, which has the parity of
    w = q1 + q2 + 2 only when q2 is odd.  With probes, q2-tuples (rows)
    whose 1 + tuple reduces to zero: their _zero_pairs, then 1 + each
    probe, a multiple of weight q2 + 1, with the parity of w only when q1
    is odd.  A tuple's own multiple has the provenance (tuple, (), None).
    """
    q1, k = table.exponents.shape[1], len(table.zero_polys)
    if probes is None:
        own = np.array(table.zero_polys, np.int64).reshape(k, q1)
        own = own if q2 % 2 else own[:0]
    else:
        yield from _zero_pairs(table, probes, D, M)
        own = probes if q1 % 2 else probes[:0]
    if len(own):  # 1 + tuple, padded with D + 1 as a _cancel row
        rows = np.pad(own, ((0, 0), (1, q1 + q2 + 1 - own.shape[1])),
                      constant_values=((0, 0), (0, D + 1)))
        yield (rows, own, np.zeros((len(own), q2), np.int64),
               np.zeros(len(own), np.int64))


def _logged_tuples(K: int, q: int) -> int:
    """The q-tuples over [1, K] that build_log_table takes a log of: those
    with an odd exponent, or the empty tuple."""
    return comb(K, q) - comb(K // 2, q) if q else 1


def _match_block_bytes(M: int, D: int, q1: int, q2: int, stored: int,
                       probes: int) -> int:
    """Bytes of the log route's match block: the matches a chunk of
    probes is expected to make (a window of 2D + 1 logs holds a
    (2D + 1) / M share of the table), at most MATCH_BLOCK, each with, in
    words (w = q1 + q2 + 2), the kernel's indices (12), its halves and
    row (2w - 2), a bounded search's keep test (6) and its row gathered
    and keyed in the sorter (w + 2)."""
    chunk = min(LOG_CHUNK, probes)
    matches = min(MATCH_BLOCK, -(-chunk * stored * (2 * D + 1) // M))
    return matches * 8 * (3 * (q1 + q2 + 2) + 18)


def _log_route_bytes(M: int, D: int, q1: int, q2: int, stored: int,
                     probes: int, logged: int, build: bool = True,
                     powers: bool = True) -> int:
    """Bytes that the log route allocates to match `probes` q2-tuples
    against a table of `stored` q1-tuples, counted in 8-byte words: the
    larger of its two phases, whose peaks never coexist (with build False
    the table exists, is not charged, and phase 1 does not run); `logged`
    is the most tuples whose logs one phase takes.

    Both phases hold the power array up to x^D, built before them
    (powers_bytes; with powers False it is left to the caller), and the
    comb table of their enumeration, D words per tuple position.  Phase 1,
    the table's build: per stored tuple its exponents and log while they
    are sorted, three words of sort work, and the table's exponents and
    log; one batch of at most LOG_CHUNK tuples, exponents twice and
    about eight words of residues, logs and window bounds (88 to 97
    bytes per tuple traced at q = 2), and the engine's BATCH_LOG_BYTES
    per log.  Phase 2: the table, the exponents and two logs of
    each stored tuple; one chunk of at most LOG_CHUNK probes, as a
    batch; where q1 != q2 the probes' logs, while where q1 = q2 the
    probes are stored tuples and read their logs from the table.  And
    one match block (_match_block_bytes).  The multiples held are the
    run's output: _KeySorter checks them against the rest of the budget
    as they grow.
    """
    chunk = min(LOG_CHUNK, probes)
    batch = min(LOG_CHUNK, logged) * BATCH_LOG_BYTES
    peak = (  # phase 2 beside the table
        chunk * 8 * (2 * q2 + 8)
        + (batch if q1 != q2 else 0)
        + _match_block_bytes(M, D, q1, q2, stored, probes)
    )
    if build:
        peak = max(stored * 8 * (q1 + 2) + peak,
                   stored * 8 * (2 * q1 + 5)
                   + min(LOG_CHUNK, logged) * 8 * (2 * q1 + 8) + batch)
    rest = D * 8 * max(q1, q2) + peak
    return powers_bytes(D + 1, rest) if powers else rest


def _check_budget(predicted: int, budget: int) -> None:
    if predicted > budget:
        raise MemoryBudgetExceededError(
            f"predicted table memory {predicted} bytes exceeds budget {budget}; "
            "lower the degree bound or use the sampling search"
        )


class _KeySorter:
    """An exhaustive run's multiples, held as their _keys and sorted
    once, at the end.  Each search of the run hands in every multiple of
    its weight exactly once (_levels), so no two keys are equal and none
    is dropped; a multiple's provenance is not held, since _split
    derives it.

    add_rows() takes a block of either route's multiples, of any size:
    rows of exponents up to D, ascending, padded with D + 1.  A narrower
    block is padded to width columns, the run's highest weight.  Blocks
    are gathered to MATCH_BLOCK rows, then held as keys: one int64 each
    where _key_bits packs them, else a view of their rows, charged as such.

    room is the memory budget left beside the route's predicted peak,
    which charges the block being added and its gathering but not the
    multiples, the run's output.  The keys held and the work of sorting
    them may pass room by MATCH_BLOCK rows of width int64 at most: the
    route's block, charged in its prediction, is gone by the sort.  That
    work is the keys' one concatenation, sorted in place where packed,
    else with an order (SORT_ROW_BYTES a key) and a sorted copy.
    add_rows() raises MemoryBudgetExceededError instead of taking a block
    where the keys already held pass that, and sorted_keys() instead of
    sorting where all of them do.  Both check one sum, which grows with
    the keys held, so add_rows() raises only where sorted_keys() would,
    and a run whose sort cannot fit stops at the first block past that
    point.
    """

    def __init__(self, room: int, width: int, D: int):
        self.room = room
        self.width = width
        self.D = D
        self._key_bytes = 8 if _key_bits(width, D) else 8 * width
        self._rows = 0  # held, gathered and as keys
        self._pending: list[np.ndarray] = []  # gathered blocks of rows
        self._pending_rows = 0
        # an empty first block gives sorted_keys() the keys' shape
        self._blocks = [_keys(np.empty((0, width), np.int64), D)]

    def _check_room(self) -> None:
        """Raise unless the keys held and their sort fit room and
        MATCH_BLOCK rows."""
        held = self._rows * self._key_bytes
        work = held if self._key_bytes == 8 else (
            2 * held + self._rows * SORT_ROW_BYTES)
        if held + work > self.room + MATCH_BLOCK * 8 * self.width:
            raise MemoryBudgetExceededError(
                f"multiples held ({held} bytes, and {work} to sort them) "
                "exceed the memory budget left beside the predicted tables "
                f"({self.room} bytes); lower the degree bound or use the "
                "sampling search"
            )

    def add_rows(self, rows: np.ndarray) -> None:
        self._check_room()
        pad = self.width - rows.shape[1]
        if pad:
            rows = np.hstack((rows, np.full((len(rows), pad), self.D + 1)))
        self._pending.append(rows)
        self._rows += len(rows)
        self._pending_rows += len(rows)
        if self._pending_rows >= MATCH_BLOCK:
            self._hold()

    def _hold(self) -> None:
        """Hold the gathered blocks as one block of keys."""
        rows = np.concatenate(self._pending)
        self._pending, self._pending_rows = [], 0
        self._blocks.append(_keys(rows, self.D))

    def sorted_keys(self) -> np.ndarray:
        """The keys of the multiples of add_rows(), sorted: in place where
        packed, else by np.lexsort of their columns.  The sorter holds
        none afterwards."""
        if self._pending:
            self._hold()
        self._check_room()
        keys = np.concatenate(self._blocks)
        self._blocks, self._rows = [], 0
        if keys.shape[1] == 1:
            keys.sort(axis=0)
            return keys
        return keys[np.lexsort(keys.T[::-1])]


def _levels(params: SearchParams, M: int) -> list[SearchParams]:
    """The searches of one exhaustive run, lowest weight first, each of
    which finds the multiples of exactly its weight.

    The highest is params, or, where D < w - 2, the balanced search of
    the largest weight w' of w's parity with w' - 2 <= D: a weight-w
    multiple needs w - 1 distinct exponents in [1, D].  It gives the run
    report its w and split.  Below it come the balanced searches of
    weights w' - 2, w' - 4, ... down to 3, or to 2 from D = M on: below M
    no 1 + x^k is a multiple.
    """
    D, algorithm, budget = params.D, params.algorithm, params.budget_bytes
    if D < params.w - 2:
        params = SearchParams.balanced(D + 2 - (D - params.w) % 2, D,
                                       algorithm, budget_bytes=budget)
    lowest = 3 if params.w % 2 else 2 if D >= M else 4
    return [SearchParams.balanced(w, D, algorithm, budget_bytes=budget)
            for w in range(lowest, params.w, 2)] + [params]


def _run(ctx: FieldContext, params: SearchParams, name: str, need,
         search) -> SearchResult:
    """One exhaustive run: each search of _levels(params), through
    search(level, xp, sorter, report), into one _KeySorter and one report.
    need(level) is the bytes a search predicts; the largest is checked
    against the budget before anything is allocated, and what the budget
    leaves beside it is the sorter's room.  xp is the power array up to
    x^D, built once where a tuple has an exponent."""
    levels = _levels(params, ctx.order)
    top = levels[-1]
    predicted = max(map(need, levels))
    _check_budget(predicted, params.budget_bytes)
    report = RunReport(algorithm=name, w=top.w, D=top.D, q1=top.q1,
                       q2=top.q2)
    sorter = _KeySorter(params.budget_bytes - predicted, top.w, top.D)
    xp = ctx.powers(2, top.D + 1).view(np.int64) if top.q2 else None
    for level in levels:
        search(level, xp, sorter, report)
    t0 = time.perf_counter()
    keys = sorter.sorted_keys()
    report.found = len(keys)
    report.phase2_seconds += time.perf_counter() - t0
    return SearchResult(keys, report, levels)


def _residues(xp: np.ndarray, tuples: np.ndarray) -> np.ndarray:
    """Residue of the sum of x^e over each row: XOR of its powers."""
    out = np.zeros(len(tuples), np.int64)
    for col in tuples.T:
        out ^= xp[col]
    return out


def _filter_bits(n: int, keys: int) -> int:
    """Index width k of the classical lookup's bit filter: 2^k bits are
    32 to 64 bits (4 to 8 bytes) per key, a 1/32 to 1/64 load; for
    n <= k every residue has its own bit."""
    return min(n, keys.bit_length() + 5)


def _suffix_size(q2: int) -> int:
    """Trailing probe exponents the classical route vectorizes: all of a
    single one, else up to two after a prefix of at least one."""
    return max(1, min(q2 - 1, 2))


def _tmto_bytes(n: int, D: int, q1: int, q2: int) -> int:
    """Bytes that tmto_find_all allocates, counted in 8-byte words.

    Per stored q1-tuple: its exponents and its key (residue), each held
    twice while they are put in key order, and that order.  The bit
    filter.  The comb table of one enumeration, at most q2 words per
    exponent.  Per probe suffix: its exponents, its residue and three
    words of work.
    One block of rows (_tmto_block_bytes).  The multiples held are the
    run's output: _KeySorter checks them against the rest of the budget
    as they grow.  All this beside the power array up
    to x^D, built first (powers_bytes).
    """
    entries, s = comb(D, q1), _suffix_size(q2)
    return powers_bytes(D + 1, (
        entries * 8 * (2 * q1 + 3)
        + (1 << _filter_bits(n, entries)) // 8 + 1
        + D * 8 * q2
        + comb(D, s) * 8 * (s + 4)
        + _tmto_block_bytes(n, D, q1, q2)
    ))


def _tmto_block_bytes(n: int, D: int, q1: int, q2: int) -> int:
    """Bytes of tmto_find_all's block of rows: MATCH_BLOCK plus the
    C(D, s) C(D, q1) / M hits a prefix's suffixes are expected to make,
    but no more than all hits, each with, in words (w = q1 + q2 + 1), its
    row (w), its row gathered and keyed in the sorter (w + 2), and work
    (6)."""
    entries, M = comb(D, q1), (1 << n) - 1
    rows = min(MATCH_BLOCK - (-comb(D, _suffix_size(q2)) * entries // M),
               -(-comb(D, q2) * entries // M))
    return rows * 8 * (2 * (q1 + q2 + 1) + 8)


def tmto_find_all(ctx: FieldContext, params: SearchParams) -> SearchResult:
    """Classical route: store residues of the q1 half, probe with the q2
    half for pairs XORing to 1, in each search of _levels (_tmto_search).

    Each search is canonical: it keeps a hit only where its stored
    tuple's largest exponent is below the probe's first.  A weight-w
    multiple 1 + x^e1 + ... + x^e(w-1) then has one split, the q1 lowest
    exponents stored and the rest probed; the table holds every q1-tuple
    and the probes every q2-tuple over [1, D], so it is met exactly once.
    No term of a kept hit cancels, so the lower weights come from the
    searches of weights w - 2, w - 4, ... at the same D.
    """
    if params.algorithm != ALGO_CLASSICAL:
        raise ValueError("tmto_find_all needs algorithm='classical'")
    return _run(ctx, params, "tmto",
                lambda p: _tmto_bytes(ctx.n, p.D, p.q1, p.q2),
                partial(_tmto_search, ctx.n))


def _tmto_search(n: int, params: SearchParams, xp: np.ndarray,
                 sorter: _KeySorter, report: RunReport) -> None:
    """One classical search's hits, into sorter, and its counters, into
    report.

    Phase 1 sorts the stored residues (keys) and sets one bit per key in
    a filter indexed by their low _filter_bits bits.  Phase 2 loops in
    Python over the leading probe exponents only: for each prefix, the
    residues of the trailing _suffix_size exponents that follow it form a
    contiguous slice of one array in lex order.  A probe whose filter
    bit is set is confirmed by binary search on the keys, so the lookup
    is exact however many residues share a bit.  Each prefix's canonical
    hits go to the sorter as the log route's matches do: rows of 1 plus both
    halves, ascending.
    """
    q1, q2, D, w = params.q1, params.q2, params.D, params.w
    t0 = time.perf_counter()
    stored = tuple_array(q1, D)
    keys = _residues(xp, stored)
    order = np.argsort(keys, kind="stable")  # equal keys stay in lex order
    keys, stored = keys[order], stored[order]
    del order
    mask = (1 << _filter_bits(n, len(keys))) - 1
    filt = np.zeros((mask >> 3) + 1, np.uint8)
    slot = keys & mask
    mark = _BITS[slot & 7]
    slot >>= 3
    np.bitwise_or.at(filt, slot, mark)
    del slot, mark
    report.table_entries += len(keys)
    report.probes += comb(D, q2)
    report.phase1_seconds += time.perf_counter() - t0

    # q2 >= 1 always: q1 <= q2 and q1 + q2 + 1 = w >= 2
    t0 = time.perf_counter()
    s = _suffix_size(q2)
    suffixes = tuple_array(s, D)
    probes = _residues(xp, suffixes)
    total = len(suffixes)
    # per-prefix work arrays, reused so that the loop allocates little
    work = np.empty(total, np.int64)
    shifts, bits = np.empty(total, np.uint8), np.empty(total, np.uint8)
    prefixes = tuple_array(q2 - s, D - s)
    starts = suffixes[:, 0].searchsorted(prefixes.max(axis=1, initial=0) + 1)
    bases = _residues(xp, prefixes) ^ 1
    for prefix, start, base in zip(prefixes, starts, bases):
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
        cand, lo, r = cand[hit] + start, lo[hit], r[hit]
        count = keys.searchsorted(r, "right") - lo
        # every (probe, stored) pair: runs of count stored tuples from lo
        ends = np.cumsum(count)
        at = np.arange(ends[-1]) + np.repeat(lo - (ends - count), count)
        cand = np.repeat(cand, count)
        if q1:  # canonical: the stored tuple below the probe's first
            first = prefix[0] if len(prefix) else suffixes[cand, 0]
            keep = stored[at, -1] < first
            at, cand = at[keep], cand[keep]
        rows = np.zeros((len(at), w), np.int64)  # 1 + stored + probe
        rows[:, 1:q1 + 1] = stored[at]
        rows[:, q1 + 1:w - s] = prefix
        rows[:, w - s:] = suffixes[cand]
        sorter.add_rows(rows)
    report.phase2_seconds += time.perf_counter() - t0


def _probe_bound(params: SearchParams) -> int:
    """The degree bound of a search's probe tuples: second_phase_bound for
    a log search where it is proven (the balanced split with q1 <= 1:
    w = 3, 4, 5 with the default split), else D (canonical searches)."""
    q1, q2 = params.q1, params.q2
    if params.algorithm == ALGO_LOGARITHMIC and q1 <= 1 <= q2 <= q1 + 1:
        return second_phase_bound(params.D, params.w, q2)
    return params.D


def _log_search_bytes(engine, params: SearchParams) -> int:
    """_log_route_bytes of one log search, plus a discrete_log's giant
    pass."""
    q1, q2, D = params.q1, params.q2, params.D
    probed = comb(_probe_bound(params), q2)
    logged = max(_logged_tuples(D, q1), 0 if q1 == q2 else probed)
    return _log_route_bytes(engine.ctx.order, D, q1, q2, comb(D, q1), probed,
                            logged) + giant_pass_bytes(engine)


def logtmto_find_all(
    ctx: FieldContext, engine, params: SearchParams
) -> SearchResult:
    """Log route: sorted log table for the q1 half, probed a chunk of
    q2-tuples at a time through the match kernel, in each search of
    _levels (_log_search).

    Produces exactly the same set as the classical route at equal
    (w, D), D >= M included: each search meets each multiple of exactly
    its weight w once, and the lower weights come from the searches of
    weights w - 2, w - 4, ... at the same D.  No kept match has a term
    that cancels.

    Where it is proven (the balanced split with q1 <= 1), phase 2 probes
    only tuples up to second_phase_bound, and a weight-w multiple is kept
    through its _split, the one match where no term cancels and whose
    probe half x^s (1 + B) is the last run of q2 + 1 consecutive terms
    spanning at most the bound: second_phase_bound shows that it exists.
    Everywhere else
    phase 2 probes every q2-tuple over [1, D], and the search is
    canonical.  Proof.  Let 1 + x^e1 + ... + x^e(w-1), 0 < e1 < ... <
    e(w-1) <= D, be a multiple.  (a) Its split is unique: the stored half
    is A = (e1, ..., e(q1)), the shift s = e(q1+1) > max A (max () = 0)
    and the probe half is B = (e(q1+2) - s, ..., e(w-1) - s); so (1 + A)
    + x^s (1 + B) is the multiple, and no other split with s > max A
    gives it.  (b) Every half is in range: A and B are tuples over
    [1, D], and s + max B = e(w-1) <= D, so the kernel's canonical range
    [max A + 1, D - max B] holds s; the table holds A, the probes hold
    B.  (c) Zero halves: if 1 + A reduces to zero, so does x^s (1 + B),
    hence 1 + B; such halves have no logs, and _zero_pairs pairs every
    zero stored tuple with every zero probe at each shift of that range,
    at every D.  Otherwise both logs exist and differ by s modulo M, and
    the kernel walks s.  (d) Conversely a canonical match puts A below s
    and s + B above it, so no term cancels: it is a multiple of weight
    exactly w, met once.
    """
    if params.algorithm != ALGO_LOGARITHMIC:
        raise ValueError("logtmto_find_all needs algorithm='logarithmic'")
    if engine.ctx is not ctx and engine.ctx.poly != ctx.poly:
        raise ValueError("engine was built for a different modulus")
    return _run(ctx, params, "logtmto", partial(_log_search_bytes, engine),
                partial(_log_search, engine))


def _run_start(rows: np.ndarray, q1: int, bound: int) -> np.ndarray:
    """The index in each row of rows, (N, w) exponents, of the first term
    of the probe half of its _split: the multiple's last run of
    w - 1 - q1 consecutive terms that spans at most bound."""
    size = rows.shape[1] - 1 - q1
    within = rows[:, size - 1:] - rows[:, :q1 + 2] <= bound
    return q1 + 1 - within[:, ::-1].argmax(axis=1)


def _split(rows: np.ndarray, q1: int, bound: int, classical: bool):
    """The split (stored, probes, shift) through which a weight-w search
    storing q1-tuples meets each multiple of rows, (N, w) exponents.

    The probe half is the run of _run_start (bound is _probe_bound; where
    it is D, the last terms), and the stored half is the rest.  tmto
    gives both halves as plain terms, 1 + stored + probe, with shift 0.
    The log route gives each as 1 + tuple shifted down to its lowest term:
    the shift s is the probe half's lowest term, or minus the stored
    half's where the probe half holds the 1, so the multiple is
    x^max(-s, 0) (1 + stored) + x^max(s, 0) (1 + probe)."""
    size = rows.shape[1] - 1 - q1
    first = _run_start(rows, q1, bound)
    probe = np.take_along_axis(rows, first[:, None] + np.arange(size), 1)
    rest = np.arange(q1 + 1)
    stored = np.take_along_axis(
        rows, rest + size * (rest >= first[:, None]), 1)
    if classical:
        return stored[:, 1:], probe, np.zeros(len(rows), np.int64)
    shift = np.where(first > 0, probe[:, 0], -stored[:, 0])
    return stored[:, 1:] - stored[:, :1], probe[:, 1:] - probe[:, :1], shift


def _log_search(engine, params: SearchParams, xp, sorter: _KeySorter,
                report: RunReport) -> None:
    """One log search's matches, into sorter, and its counters, into report.

    Phase 1 is build_log_table.  Phase 2 takes the logs of LOG_CHUNK
    probe tuples in one batch, or reads them from the table's lex_logs
    where the probes are table tuples (q1 = q2: w = 2, 4, 6 with the
    default split), and runs the chunk through _match_blocks and
    _match_rows a block of at most MATCH_BLOCK matches at a time, with
    the zero probes' _zero_pairs; each block goes to the sorter
    (_KeySorter.add_rows), where the search is bounded only the matches
    that have no term cancelled and are their row's _split: those whose
    probe half starts where the run of _run_start does.  It is then that
    run: a probe half spans at most the bound, so if it held a term past
    the run, the run from the next term would too, and start later.
    """
    q1, q2, D = params.q1, params.q2, params.D
    bound = _probe_bound(params)
    canonical = bound == D
    t0 = time.perf_counter()
    table = build_log_table(engine, q1, D, xp)
    report.table_entries += len(table.logs)
    report.log_calls += table.log_calls
    report.phase1_seconds += time.perf_counter() - t0

    M = engine.ctx.order

    def emit(rows, stored, probes, shift) -> int:
        if not canonical:
            start = rows[np.arange(len(rows)), _run_start(rows, q1, bound)]
            rows = rows[(rows[:, -1] <= D) & (start == np.maximum(shift, 0))]
        sorter.add_rows(rows)
        return len(rows)

    t0 = time.perf_counter()
    # with q1 = q2 the probes, q2-tuples up to bound, are the table's
    # first tuples in lex order (bound < D only where q2 = 1)
    probed = comb(bound, q2)
    for start in range(0, probed, LOG_CHUNK):
        probes = tuple_array(q2, bound, start, min(start + LOG_CHUNK, probed))
        report.probes += len(probes)
        if q1 == q2:
            logs = table.lex_logs[start:start + len(probes)]
        else:
            logs = _tuple_logs(engine, xp, probes)
            report.log_calls += int(np.count_nonzero(logs >= 0))
        has_log = logs >= 0
        for block in _zero_pairs(table, probes[~has_log], D, M, canonical):
            report.zero_residue_emits += emit(*block)
        probes, logs = probes[has_log], logs[has_log]
        for p, pos, shift, skips in _match_blocks(
                table, probes, logs, D, M, canonical):
            report.zero_shift_skips += skips
            emit(*_match_rows(table.exponents[pos], probes[p], shift, D))
    report.phase2_seconds += time.perf_counter() - t0
