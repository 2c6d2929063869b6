"""The combinatorial number system: strictly increasing q-tuples over
[1, N], the halves of every decomposition, in lexicographic order.  One
table of binomials serves ``rank``, ``unrank`` and the enumeration
``tuple_array``.  ``enumerate_tuples`` and ``unrank_combination`` are
the reference on Python ints; the latter alone takes C(N, q) >= 2^63.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from math import comb
from typing import Iterator

import numpy as np

# Tuples per batched discrete_log call and per unrank call of an enumeration.
LOG_CHUNK = 2048


def enumerate_tuples(q: int, max_deg: int) -> Iterator[tuple[int, ...]]:
    """All strictly increasing q-tuples over [1, max_deg], lex order.

    q = 0 yields the single empty tuple.
    """
    return combinations(range(1, max_deg + 1), q)


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


def comb_table(N: int, q: int) -> list[np.ndarray]:
    """table[r - 1][b] = C(b, r) for 1 <= r <= q and b < N (no rank or
    unrank reads b = N), as int64 rows, each holding 2^63 - 1, above
    every int64 rank, from its first entry >= 2^63 on.  Row r is a
    running sum of row r - 1."""
    table = [np.arange(N, dtype=np.int64)] if q else []
    for r in range(2, q + 1):
        cut = bisect_left(range(N), 1 << 63, key=lambda b: comb(b, r))
        row = np.zeros(N, np.int64)
        np.cumsum(table[-1][:cut - 1], out=row[1:cut])
        row[cut:] = 2**63 - 1
        table.append(row)
    return table


def rank(tuples: np.ndarray, N: int) -> np.ndarray:
    """The position of each row, a q-tuple over [1, N], in
    enumerate_tuples(q, N); C(N, q) < 2^63.  It is C(N, q) - 1 minus the
    tuples after it: C(N - a_i, q - i) agree with it before column i
    (from 0) and exceed it there, each below C(N, q) and so not cut."""
    q = tuples.shape[1]
    out = np.full(len(tuples), comb(N, q) - 1, np.int64)
    for col, row in zip(tuples.T, comb_table(N, q)[::-1]):
        out -= row[N - col]
    return out


def unrank(ranks: np.ndarray, q: int, N: int,
           table: list[np.ndarray]) -> np.ndarray:
    """unrank_combination(r, q, N) of each int64 rank r, as a (len(ranks),
    q) int64 array, from a comb_table(N, >= q); C(N, q) < 2^63.

    s counts the tuples from this one's to the last one, starting at
    C(N, q) - rank.  While r >= 2 places are left, the next element is
    N - b for the largest b with C(b, r) < s (the tuples after it all
    start higher), and s drops by C(b, r); the last element is N + 1 - s.
    """
    out = np.empty((len(ranks), q), np.int64)
    if q == 0:
        return out
    s = comb(N, q) - ranks
    for i, row in enumerate(table[q - 1:0:-1]):  # C(b, q) to C(b, 2)
        b = row.searchsorted(s) - 1
        out[:, i] = N - b
        s -= row[b]
    out[:, -1] = N + 1 - s
    return out


def tuple_array(q: int, N: int, lo: int = 0,
                hi: int | None = None) -> np.ndarray:
    """The tuples of ranks lo to hi - 1 (to the last by default) in
    enumerate_tuples(q, N), as a (hi - lo, q) int64 array, unranked
    into it LOG_CHUNK at a time, so that the work beside it is small."""
    hi = comb(N, q) if hi is None else hi
    table, out = comb_table(N, q), np.empty((hi - lo, q), np.int64)
    for at in range(0, len(out), LOG_CHUNK):
        ranks = np.arange(lo + at, lo + min(at + LOG_CHUNK, len(out)))
        out[at:at + LOG_CHUNK] = unrank(ranks, q, N, table)
    return out
