import functools
import hashlib
import random
import re
import tracemalloc
from dataclasses import fields
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowmult.dlog import build_engine
from lowmult.errors import MemoryBudgetExceededError, WeightTooSmallError
from lowmult.gf2poly import (
    make_context,
    parse_poly,
    random_primitive_poly,
    verify_multiple,
)
from lowmult import search
from lowmult.reference import brute_force_multiples
from lowmult.tuples import enumerate_tuples
from lowmult.search import (
    LogTable,
    SearchParams,
    build_log_table,
    default_split,
    estimate_count,
    logtmto_find_all,
    second_phase_bound,
    tmto_find_all,
)

F8 = make_context(parse_poly("3,1,0"))
F16 = make_context(parse_poly("4,1,0"))
ENG8 = build_engine(F8)
ENG16 = build_engine(F16)


def _brute_sets(ctx, w, D):
    return frozenset(r.poly.exponents for r in brute_force_multiples(ctx, w, D))


def test_record_weight_and_degree_are_read_from_its_poly():
    # not stored: the constructor takes them only to check them
    poly = parse_poly("5,2,0")
    record = search.MultipleRecord(poly, provenance=((2,), (), None))
    assert [f.name for f in fields(record)] == ["poly", "provenance"]
    assert (record.weight, record.degree) == (3, 5)
    assert search.MultipleRecord(poly=poly, weight=3, degree=5) == record
    for wrong in ({"weight": 2}, {"degree": 4}):
        with pytest.raises(ValueError):
            search.MultipleRecord(poly, **wrong)


def test_default_split():
    assert default_split(4, "classical") == (1, 2)
    assert default_split(4, "logarithmic") == (1, 1)
    assert default_split(7, "logarithmic") == (2, 3)
    assert default_split(2, "logarithmic") == (0, 0)
    with pytest.raises(WeightTooSmallError):
        default_split(2, "classical")
    with pytest.raises(WeightTooSmallError):
        default_split(1, "logarithmic")


def test_enumerate_tuples():
    assert list(enumerate_tuples(1, 3)) == [(1,), (2,), (3,)]
    assert list(enumerate_tuples(2, 3)) == [(1, 2), (1, 3), (2, 3)]
    assert list(enumerate_tuples(0, 5)) == [()]


def test_second_phase_bound():
    assert second_phase_bound(100, 4, 1) == 34
    assert second_phase_bound(2**15, 7, 3) == 2**14
    with pytest.raises(WeightTooSmallError):
        second_phase_bound(10, 2, 0)


def test_estimate_count():
    assert estimate_count(3, 3, 7) == pytest.approx(49 / 16)
    assert estimate_count(4, 3, 15) == pytest.approx(225 / 32)
    assert estimate_count(53, 4, 2**20) == pytest.approx(128 / 6)


def _brute_matches(table, probes, probe_logs, D, M, canonical=False):
    """Every (probe row, table position, shift) with the shift congruent
    to (stored log - probe log) mod M in [stored max - D, D - probe max]
    (from stored max + 1 where canonical), in the kernel's order: probe,
    then window (log ascending from the window's start, or table order
    where the window spans the group), then shift."""
    gap = 1 if canonical else -D
    out = []
    for i, (probe, lg) in enumerate(zip(probes.tolist(), probe_logs.tolist())):
        hits = []
        for pos, (stored, slog) in enumerate(
            zip(table.exponents.tolist(), table.logs.tolist())
        ):
            for shift in range(max(stored, default=0) + gap,
                               D - max(probe, default=0) + 1):
                if (shift - slog + lg) % M == 0:
                    hits.append((i, pos, shift))
        # a window starts at log probe log + 1 - D (- D for q1 = 0), or
        # probe log + 2 (+ 1) where canonical, or at the table's start
        # where it spans the group
        low = (1 if table.exponents.shape[1] else 0) + gap
        first = (lg + low) % M if D - max(probe, default=0) - low + 1 < M else 0
        hits.sort(key=lambda h: ((table.logs[h[1]] - first) % M, h[1], h[2]))
        out += hits
    return out


@settings(max_examples=300, deadline=None)
@given(
    M=st.one_of(st.integers(1, 40), st.just(2**63 - 1)),
    D=st.integers(1, 45),
    q1=st.integers(0, 2),
    q2=st.integers(0, 2),
    data=st.data(),
    block=st.sampled_from([1, 7, search.MATCH_BLOCK]),
    canonical=st.booleans(),
)
def test_match_kernel_equals_every_congruent_shift(M, D, q1, q2, data, block,
                                                   canonical):
    # small logs repeat, D up to M + 5 makes windows that wrap and ones
    # that span the group, and empty probes or tables have no hits; logs
    # next to 0 and M - 1 for M = 2^63 - 1 wrap where int64 sums overflow
    tuples = st.lists(st.integers(1, D), min_size=q1, max_size=q1, unique=True)
    if q1 > D or q2 > D:
        return
    log = (st.integers(0, M - 1) if M < 100
           else st.one_of(st.integers(0, 50), st.integers(M - 50, M - 1)))
    stored = data.draw(st.lists(tuples.map(sorted), max_size=6))
    logs = data.draw(st.lists(log, min_size=len(stored), max_size=len(stored)))
    probe_tuples = st.lists(st.integers(1, D), min_size=q2, max_size=q2,
                            unique=True).map(sorted)
    probes = data.draw(st.lists(probe_tuples, max_size=4))
    probe_logs = data.draw(st.lists(log, min_size=len(probes),
                                    max_size=len(probes)))
    _check_kernel(stored, logs, probes, probe_logs, q1, q2, D, M, block,
                  canonical)


def test_match_kernel_at_the_int64_edge():
    # probe logs next to M - 1 = 2^63 - 2 put the window's end past 2^63
    # before it is reduced mod M
    M = 2**63 - 1
    logs = list(range(20)) + list(range(M - 10, M))
    stored = [[e] for e in range(1, 31)]
    probes = [[1], [2], [3], [29]]
    for block in (1, search.MATCH_BLOCK):
        _check_kernel(stored, logs, probes, [M - 1, M - 3, 0, 4], 1, 1, 30, M,
                      block)


def _check_kernel(stored, logs, probes, probe_logs, q1, q2, D, M, block,
                  canonical=False):
    order = sorted(range(len(stored)), key=lambda i: logs[i])
    table = LogTable(
        modulus=F16.poly,
        logs=np.array([logs[i] for i in order], np.int64),
        exponents=np.array([stored[i] for i in order], np.int64).reshape(
            len(stored), q1),
        zero_polys=[], max_degree=D, log_calls=0, build_seconds=0.0,
        lex_logs=np.array(logs, np.int64),  # (the kernel does not read it)
    )
    probes = np.array(probes, np.int64).reshape(len(probes), q2)
    probe_logs = np.array(probe_logs, np.int64)
    old = search.MATCH_BLOCK
    search.MATCH_BLOCK = block
    try:
        got, skips = [], 0
        for p, pos, shift, zero in search._match_blocks(
            table, probes, probe_logs, D, M, canonical
        ):
            got += zip(p.tolist(), pos.tolist(), shift.tolist())
            skips += zero
    finally:
        search.MATCH_BLOCK = old
    want = _brute_matches(table, probes, probe_logs, D, M, canonical)
    assert got == [m for m in want if m[2]]
    assert skips == sum(1 for m in want if not m[2])


def test_params_validation():
    with pytest.raises(ValueError):
        SearchParams(w=4, D=10, q1=2, q2=1, algorithm="classical")
    with pytest.raises(ValueError):
        SearchParams(w=4, D=10, q1=1, q2=1, algorithm="classical")  # 1+1+1 != 4
    with pytest.raises(ValueError):
        SearchParams(w=4, D=10, q1=1, q2=1, algorithm="nope")
    p = SearchParams.balanced(2, 6, "classical")
    assert (p.q1, p.q2) == (0, 1)


def test_tmto_micro_instances():
    res = tmto_find_all(F8, SearchParams.balanced(3, 7, "classical"))
    assert res.exponent_sets() == {(0, 1, 3), (0, 2, 6), (0, 4, 5)}
    assert [r.poly.exponents for r in res.records] == [
        (0, 1, 3), (0, 4, 5), (0, 2, 6),
    ]  # sorted by (degree, exponents)
    res15 = tmto_find_all(F16, SearchParams.balanced(3, 15, "classical"))
    assert res15.exponent_sets() == {
        (0, 1, 4), (0, 2, 8), (0, 3, 14), (0, 5, 10),
        (0, 6, 13), (0, 7, 9), (0, 11, 12),
    }
    assert tmto_find_all(
        F8, SearchParams.balanced(2, 6, "classical")
    ).exponent_sets() == frozenset()
    assert tmto_find_all(
        F8, SearchParams.balanced(2, 7, "classical")
    ).exponent_sets() == {(0, 7)}


def test_logtmto_micro_instances():
    res = logtmto_find_all(F8, ENG8, SearchParams.balanced(3, 7, "logarithmic"))
    assert res.exponent_sets() == {(0, 1, 3), (0, 2, 6), (0, 4, 5)}
    assert logtmto_find_all(
        F8, ENG8, SearchParams.balanced(4, 2, "logarithmic")
    ).exponent_sets() == frozenset()
    res4 = logtmto_find_all(F16, ENG16, SearchParams.balanced(4, 15, "logarithmic"))
    assert res4.exponent_sets() == _brute_sets(F16, 4, 15)


def test_every_record_verifies():
    for w in (3, 4, 5):
        res = logtmto_find_all(
            F16, ENG16, SearchParams.balanced(w, 12, "logarithmic")
        )
        for rec in res.records:
            assert verify_multiple(rec.poly, F16, w, 12)
        res_c = tmto_find_all(F16, SearchParams.balanced(w, 12, "classical"))
        for rec in res_c.records:
            assert verify_multiple(rec.poly, F16, w, 12)


def test_cross_algorithm_equality_random_fields():
    rng = random.Random(31)
    for n in (9, 11, 13):
        ctx = make_context(random_primitive_poly(n, rng))
        eng = build_engine(ctx)
        for w, D in ((3, 100), (4, 60), (5, 40), (6, 25)):
            want = _brute_sets(ctx, w, D)
            got_c = tmto_find_all(
                ctx, SearchParams.balanced(w, D, "classical")
            ).exponent_sets()
            got_l = logtmto_find_all(
                ctx, eng, SearchParams.balanced(w, D, "logarithmic")
            ).exponent_sets()
            assert got_c == want, (n, w, D, "classical")
            assert got_l == want, (n, w, D, "logarithmic")


def _nonzero_tuples(ctx, q, top, odd_only=False):
    """q-tuples over [1, top] whose 1 + tuple is nonzero, optionally only
    those with an odd exponent (or the empty tuple)."""
    xp = ctx.powers(2, top + 1).tolist()
    count = 0
    for tup in combinations(range(1, top + 1), q):
        if odd_only and tup and not any(e % 2 for e in tup):
            continue
        r = 1
        for e in tup:
            r ^= xp[e]
        count += r != 0
    return count


def test_restriction_preserves_output():
    # w <= 5: phase 2 probes every tuple up to the bound, below the
    # group order and from it on (at P=4,1,0, w=4, D=60 an unbounded
    # phase 2 probes 60 tuples, not 20); it logs the nonzero ones except
    # at w = 4, where the probes are stored tuples with logs in the table.
    # The run's searches are its own and those of weights w - 2, ...
    # down to 3, or to 2 from D = M on; weight 2 probes the empty tuple
    rng = random.Random(32)
    cells = []
    for n in (10, 12):
        ctx = make_context(random_primitive_poly(n, rng))
        cells += [(ctx, w, D) for w, D in ((3, 120), (4, 90), (5, 48))]
    for spec, w, D in (
        ("4,1,0", 4, 60), ("3,1,0", 3, 21), ("5,2,0", 5, 40), ("6,1,0", 4, 150),
    ):
        cells.append((make_context(parse_poly(spec)), w, D))
    for ctx, w, D in cells:
        params = SearchParams.balanced(w, D, "logarithmic")
        res = logtmto_find_all(ctx, build_engine(ctx), params)
        assert res.exponent_sets() == _brute_sets(ctx, w, D)
        assert second_phase_bound(D, w, params.q2) < D
        probes = logs = 0
        for v in range(w, 1, -2):
            if v == 2 and D < ctx.order:
                continue
            p = SearchParams.balanced(v, D, "logarithmic")
            bound = second_phase_bound(D, v, p.q2) if v > 2 else D
            probes += comb(bound, p.q2)
            logs += _nonzero_tuples(ctx, p.q1, D, odd_only=True)
            if p.q1 != p.q2:
                logs += _nonzero_tuples(ctx, p.q2, bound)
        assert res.report.probes == probes
        assert res.report.log_calls == logs
    # 1 + x + x^2 is P at n = 2: its probe half spans 2 > ceil(2 * 2 / 4)
    f4 = make_context(parse_poly("2,1,0"))
    assert logtmto_find_all(
        f4, build_engine(f4), SearchParams.balanced(5, 2, "logarithmic")
    ).exponent_sets() == {(0, 1, 2)}


# (P, w, D) at the edges of the bound: q1 = 2, where a bounded phase 2
# would lose 0,1,17,21,36,38 and P + x^21 P, and D >= M, where some
# multiples split only into two halves that both reduce to zero
# (0,15,30,45 at P=4,1,0), which the pairing of zero halves finds
BOUND_AND_ZERO_HALF_CASES = [
    ("11,8,7,6,4,3,0", 6, 40),
    ("6,5,0", 6, 31),
    ("4,1,0", 4, 45),
    ("4,1,0", 4, 48),
    ("4,1,0", 4, 60),
    ("5,2,0", 4, 124),
]

# D < w - 2: [1, D] is too small for either split to cancel the pair a
# weight w - 2 multiple needs, so both routes search weight w - 2
# instead (tmto missed all ten, e.g. 0,1,3 at P=3,1,0, w=7, D=3; logtmto the
# two w = 8 cells at P=2,1,0, e.g. 0,3 at D=3)
TINY_DEGREE_CASES = [
    ("2,1,0", 5, 2), ("2,1,0", 7, 2), ("2,1,0", 7, 3), ("2,1,0", 8, 3),
    ("2,1,0", 8, 4), ("2,1,0", 8, 5), ("3,1,0", 7, 3), ("3,1,0", 8, 4),
    ("3,2,0", 7, 3), ("3,2,0", 8, 4),
]


@pytest.mark.parametrize("spec, w, D", BOUND_AND_ZERO_HALF_CASES + TINY_DEGREE_CASES)
def test_log_route_matches_brute_force_outside_the_bound(spec, w, D):
    ctx = make_context(parse_poly(spec))
    want = _brute_sets(ctx, w, D)
    got_l = logtmto_find_all(
        ctx, build_engine(ctx), SearchParams.balanced(w, D, "logarithmic")
    ).exponent_sets()
    got_c = tmto_find_all(
        ctx, SearchParams.balanced(w, D, "classical")
    ).exponent_sets()
    assert got_l == got_c == want


def test_unbalanced_splits_probe_every_tuple():
    # the bound's proof needs the balanced split: with q1 = 0, q2 = 2 at
    # w = 4 a probe half of three consecutive terms can span nearly D
    for spec, w, q1, q2, D in (
        ("10,3,0", 4, 0, 2, 100),
        ("8,4,3,2,0", 5, 0, 3, 40),
        ("8,4,3,2,0", 6, 1, 3, 30),
    ):
        ctx = make_context(parse_poly(spec))
        params = SearchParams(w=w, D=D, q1=q1, q2=q2, algorithm="logarithmic")
        got = logtmto_find_all(ctx, build_engine(ctx), params)
        assert got.exponent_sets() == _brute_sets(ctx, w, D), (spec, w, q1, q2)


def test_monotone_in_degree_and_same_parity_weight():
    ctx = make_context(parse_poly("11,2,0"))
    sets = {}
    for w in (3, 4, 5, 6):
        for D in (20, 40, 60):
            sets[w, D] = tmto_find_all(
                ctx, SearchParams.balanced(w, D, "classical")
            ).exponent_sets()
    for w in (3, 4, 5, 6):
        assert sets[w, 20] <= sets[w, 40] <= sets[w, 60]
    for D in (20, 40, 60):
        assert sets[3, D] <= sets[5, D]
        assert sets[4, D] <= sets[6, D]


def test_degenerate_large_degree_equality():
    # D at and beyond the group order still matches brute force
    for w in (3, 4):
        for D in (7, 10, 14):
            want = _brute_sets(F8, w, D)
            got_c = tmto_find_all(
                F8, SearchParams.balanced(w, D, "classical")
            ).exponent_sets()
            got_l = logtmto_find_all(
                F8, ENG8, SearchParams.balanced(w, D, "logarithmic")
            ).exponent_sets()
            assert got_c == want == got_l, (w, D)


def test_memory_budget_enforced():
    with pytest.raises(MemoryBudgetExceededError):
        tmto_find_all(
            F16, SearchParams.balanced(5, 15, "classical", budget_bytes=64)
        )


def test_build_log_table_sorted_and_complete():
    table = build_log_table(ENG16, 1, 15)
    assert table.logs.tolist() == sorted(table.logs.tolist())
    # 1 + x^15 = 0 lands in zero_polys, everything else gets a log
    assert table.zero_polys == [(15,)]
    assert sorted(table.exponents.tolist()) == [[e] for e in range(1, 15)]
    for lg, (e,) in zip(table.logs, table.exponents):
        assert ENG16.discrete_log(1 ^ F16.monomial_residue(int(e))) == lg


def test_report_counters():
    res = tmto_find_all(F8, SearchParams.balanced(3, 7, "classical"))
    rep = res.report
    assert rep.found == len(res.records) == 3
    assert rep.table_entries == 7
    assert rep.duplicates_suppressed == 0  # each multiple is met once
    res_l = logtmto_find_all(F8, ENG8, SearchParams.balanced(3, 7, "logarithmic"))
    # 1 stored log + 4 probe logs: D = M, and phase 2 probes up to
    # second_phase_bound(7, 3, 1) = 4
    assert res_l.report.log_calls == 5
    assert res_l.report.zero_shift_skips >= 0


def _digest(records):
    rows = [(r.poly.exponents, r.provenance) for r in records]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


# Pinned from the classical route that looked every probe up in a dict of
# stored residues: (records and provenances digest, w, q1, q2, found,
# duplicates_suppressed, zero_shift_skips, zero_residue_emits,
# table_entries, log_calls).  The cases cover q1 = 0 (w = 2), q2 = 1 to 5,
# D >= M with q1 = 2 (stored residues that repeat, and zero residues from
# x^a + x^(a+M)), and D < w - 2, where weight w - 2 is searched.  Re-pinned
# when each search became canonical (each multiple met once, through its
# q1 lowest exponents, and the lower weights from the searches of weights
# w - 2, ...): the same records in the same order, no duplicates, the
# canonical provenances from w = 5 on, and the lower searches' tables.
TMTO_PINS = {
    ("10,3,0", 2, 2100): ("8b988f6a7de4039b", 2, 0, 1, 2, 0, 0, 0, 1, 0),
    ("10,3,0", 3, 300): ("a2cb51bda4703349", 3, 1, 1, 44, 0, 0, 0, 300, 0),
    ("12,6,4,1,0", 4, 300): ("347b7515c3368da9", 4, 1, 2, 1069, 0, 0, 0, 300, 0),
    ("8,4,3,2,0", 6, 40): ("4576e2905e4d848c", 6, 2, 3, 2643, 0, 0, 0, 820, 0),
    ("6,1,0", 8, 20): ("8c401724d6acd646", 8, 3, 4, 1478, 0, 0, 0, 1350, 0),
    ("5,2,0", 10, 14): ("27131ccce74cb2e4", 10, 4, 5, 247, 0, 0, 0, 1470, 0),
    ("4,1,0", 6, 20): ("79f66b16cbe7e2a6", 6, 2, 3, 1038, 0, 0, 0, 211, 0),
    ("4,1,0", 5, 31): ("19da7ba4f06a205d", 5, 2, 2, 1990, 0, 0, 0, 496, 0),
    ("3,1,0", 7, 3): ("b0dfb532824c3692", 5, 2, 2, 1, 0, 0, 0, 6, 0),
}


@pytest.mark.parametrize("variant", [
    None,
    # a one-bit filter makes every probe a candidate, so the binary
    # search on the sorted keys alone decides what matches
    ("_filter_bits", lambda n, keys: 0),
    # nothing fits in zero bits: dedup rows and provenances stay unpacked
    ("PACK_BITS", 0),
    # the dedup packs its rows after every block
    ("MATCH_BLOCK", 1),
], ids=["filter", "one-bit-filter", "unpacked-rows", "match-block-1"])
@pytest.mark.parametrize("spec, w, D", sorted(TMTO_PINS))
def test_tmto_pins(spec, w, D, variant, monkeypatch):
    if variant:
        monkeypatch.setattr(search, *variant)
    ctx = make_context(parse_poly(spec))
    res = tmto_find_all(ctx, SearchParams.balanced(w, D, "classical"))
    r = res.report
    assert (
        _digest(res.records), r.w, r.q1, r.q2, r.found,
        r.duplicates_suppressed, r.zero_shift_skips, r.zero_residue_emits,
        r.table_entries, r.log_calls,
    ) == TMTO_PINS[(spec, w, D)]


@functools.lru_cache(maxsize=None)
def _field_and_engine(n, seed):
    ctx = make_context(random_primitive_poly(n, random.Random(seed)))
    return ctx, build_engine(ctx)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**16),
    w=st.integers(2, 6),
    degree=st.floats(0, 1),
)
def test_tmto_equals_brute_force_and_log_route(n, seed, w, degree):
    # D from 1 to 2M + 3, capped where brute force would take too long
    ctx, engine = _field_and_engine(n, seed)
    D = 1 + round(degree * (2 * ctx.order + 2))
    while comb(D, w - 1) > 20_000:
        D -= 1
    got = tmto_find_all(ctx, SearchParams.balanced(w, D, "classical"))
    log = logtmto_find_all(ctx, engine, SearchParams.balanced(w, D, "logarithmic"))
    assert got.exponent_sets() == _brute_sets(ctx, w, D)
    assert [r.poly.exponents for r in got.records] == [
        r.poly.exponents for r in log.records]


def test_tmto_checks_the_budget_before_allocating(monkeypatch):
    params = SearchParams.balanced(5, 15, "classical")
    need = search._tmto_bytes(F16.n, 15, params.q1, params.q2)

    def allocates(*args):
        raise AssertionError("allocated before the budget check")

    with monkeypatch.context() as m:
        m.setattr(search, "tuple_array", allocates)
        m.setattr(type(F16), "powers", allocates)
        with pytest.raises(MemoryBudgetExceededError):
            tmto_find_all(F16, SearchParams.balanced(
                5, 15, "classical", budget_bytes=need - 1))
    assert tmto_find_all(F16, SearchParams.balanced(
        5, 15, "classical", budget_bytes=need)).records


@pytest.mark.parametrize("w, D", [(4, 3000), (5, 300), (6, 120)])
def test_tmto_budget_bounds_its_allocations(w, D):
    # the prediction counts what the run allocates (an upper bound, since
    # phase 1's sorting work is gone before phase 2's arrays exist)
    ctx = make_context(parse_poly("30,6,4,1,0"))
    params = SearchParams.balanced(w, D, "classical")
    predicted = search._tmto_bytes(ctx.n, D, params.q1, params.q2)
    tracemalloc.start()
    try:
        tmto_find_all(ctx, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert predicted / 2 <= peak <= predicted, (peak, predicted)


def _log_route_need(ctx, w, D):
    params = SearchParams.balanced(w, D, "logarithmic")
    bound = second_phase_bound(D, w, params.q2) if w in (3, 4, 5) else D
    probes = comb(bound, params.q2)
    # phase 2 logs no probe where q1 = q2: they are stored tuples
    logged = max(search._logged_tuples(D, params.q1),
                 0 if params.q1 == params.q2 else probes)
    return params, search._log_route_bytes(
        ctx.order, D, params.q1, params.q2, comb(D, params.q1), probes, logged)


def test_log_route_checks_the_budget_before_allocating(monkeypatch):
    from lowmult.sampler import (
        SampleParams, _EXPONENT_OBJECT_BYTES, _RESIDUE_ENTRY_BYTES,
        _ROUND_OBJECT_BYTES, _draw_bytes, birthday_logtmto, random_log_sample)

    params, need = _log_route_need(F16, 4, 15)
    # birthday_logtmto draws one probe at a time against a table to build;
    # its one 16-entry power array serves both, and is charged once
    draw = SampleParams(w=4, D=15, B=1, q1=1, seed=1, max_iterations=5)
    draw_need = _draw_bytes(15, (1,), 5, search._log_route_bytes(
        F16.order, 15, 1, 1, 15, 1, search._logged_tuples(15, 1),
        powers=False))
    # random_log_sample draws weight-3 polynomials: 2-tuples, beside a
    # residue cache entry and a chunk's Python objects a round
    sample = SampleParams(w=4, D=15, B=1, seed=1, max_iterations=5)
    sample_need = _draw_bytes(15, (2,), 5, 5 * (
        _RESIDUE_ENTRY_BYTES + _ROUND_OBJECT_BYTES + 2 * _EXPONENT_OBJECT_BYTES))

    def allocates(*args):
        raise AssertionError("allocated before the budget check")

    with monkeypatch.context() as m:
        m.setattr(search, "build_log_table", allocates)
        m.setattr(search, "tuple_array", allocates)
        m.setattr(type(F16), "powers", allocates)
        with pytest.raises(MemoryBudgetExceededError):
            logtmto_find_all(F16, ENG16, SearchParams.balanced(
                4, 15, "logarithmic", budget_bytes=need - 1))
        m.setattr("lowmult.sampler.build_log_table", allocates)
        m.setattr("lowmult.sampler.comb_table", allocates)
        with pytest.raises(MemoryBudgetExceededError):
            birthday_logtmto(ENG16, SampleParams(
                **dict(draw.__dict__, budget_bytes=draw_need - 1)))
        with pytest.raises(MemoryBudgetExceededError):
            random_log_sample(ENG16, SampleParams(
                **dict(sample.__dict__, budget_bytes=sample_need - 1)))
    assert logtmto_find_all(F16, ENG16, SearchParams.balanced(
        4, 15, "logarithmic", budget_bytes=need)).records
    assert birthday_logtmto(ENG16, SampleParams(
        **dict(draw.__dict__, budget_bytes=draw_need))).records
    assert random_log_sample(ENG16, SampleParams(
        **dict(sample.__dict__, budget_bytes=sample_need))).records


@pytest.mark.parametrize("w, D", [
    (4, 3000), (5, 300), (6, 120), (4, 8192), (4, 16384)])
def test_log_route_budget_bounds_its_allocations(w, D):
    # the prediction is the larger phase: the table's build with one log
    # batch, or the table held while probes are matched a block at a time
    ctx = make_context(parse_poly("30,6,4,1,0"))
    engine = build_engine(ctx)
    params, predicted = _log_route_need(ctx, w, D)
    logtmto_find_all(ctx, engine, params)  # the engine's lazy set-up
    tracemalloc.start()
    try:
        logtmto_find_all(ctx, engine, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert predicted / 2 <= peak <= predicted, (peak, predicted)


# -- results kept as rows ----------------------------------------------------

F1024 = make_context(parse_poly("10,3,0"))
ENG1024 = build_engine(F1024)


def _route(algorithm):
    if algorithm == "classical":
        return lambda ctx, eng, params: tmto_find_all(ctx, params)
    return logtmto_find_all


def _count_records(monkeypatch):
    made = []
    of = search.MultipleRecord.of.__func__

    def counting(cls, *args, **kwargs):
        made.append(args[0])
        return of(cls, *args, **kwargs)

    monkeypatch.setattr(search.MultipleRecord, "of", classmethod(counting))
    return made


@pytest.mark.parametrize("algorithm", ["classical", "logarithmic"])
def test_records_are_built_on_first_read_and_kept(algorithm, monkeypatch):
    # 1737 multiples: records are built in more than one part of 1024 rows
    made = _count_records(monkeypatch)
    params = SearchParams.balanced(6, 48, algorithm)
    result = _route(algorithm)(F1024, ENG1024, params)
    sets = result.exponent_sets()
    assert made == [] and result.report.found == len(sets) == 1737
    records = result.records
    assert len(made) == len(records) == 1737
    assert result.records is records
    assert len(made) == 1737
    assert frozenset(r.poly.exponents for r in records) == sets
    assert [exps for block in result.exponent_blocks()
            for exps in block] == [r.poly.exponents for r in records]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**16),
    w=st.integers(2, 7),
    degree=st.floats(0, 1),
    algorithm=st.sampled_from(["classical", "logarithmic"]),
)
def test_exponent_sets_from_rows_equal_the_records(n, seed, w, degree,
                                                   algorithm):
    # D from 1 to 2M + 3: empty results, D >= M and D < w - 2 among them
    ctx, engine = _field_and_engine(n, seed)
    D = 1 + round(degree * (2 * ctx.order + 2))
    while comb(D, w - 1) > 20_000:
        D -= 1
    if algorithm == "classical" and w < 3:
        w = 3
    result = _route(algorithm)(ctx, engine, SearchParams.balanced(w, D, algorithm))
    records = result.records
    assert result.exponent_sets() == frozenset(r.poly.exponents for r in records)
    assert result.report.found == len(records)
    assert [exps for block in result.exponent_blocks()
            for exps in block] == [r.poly.exponents for r in records]
    assert search._exponents(result.rows, D) == [
        r.poly.exponents for r in records]
    # each provenance, derived from its row, reassembles into the
    # multiple and is the split its weight's search keeps
    for record in records:
        exps, (a, b, s) = record.poly.exponents, record.provenance
        if algorithm == "classical":
            assert s is None and (0, *a, *b) == exps
            assert max(a, default=0) < b[0]
            continue
        lo, hi = max(-s, 0), max(s, 0)
        assert tuple(sorted([lo, *(lo + e for e in a),
                             hi, *(hi + e for e in b)])) == exps
        if len(exps) in (3, 4, 5):  # bounded: the balanced split, q1 <= 1
            assert max(b, default=0) <= second_phase_bound(D, len(exps), len(b))
        else:
            assert s > max(a, default=0)


@pytest.mark.parametrize("algorithm", ["classical", "logarithmic"])
@pytest.mark.parametrize("spec, w, D, found", [
    ("8,4,3,2,0", 4, 5, 0),  # no multiple: empty rows
    ("3,1,0", 4, 20, 146),  # D >= M = 7
    ("4,1,0", 7, 4, 1),  # D < w - 2: the weight-5 search stands in
])
def test_rows_edge_cases(algorithm, spec, w, D, found):
    ctx = make_context(parse_poly(spec))
    result = _route(algorithm)(ctx, build_engine(ctx),
                               SearchParams.balanced(w, D, algorithm))
    assert result.report.found == len(result.exponent_sets()) == found
    assert result.exponent_sets() == _brute_sets(ctx, w, D)
    assert result.exponent_sets() == frozenset(
        r.poly.exponents for r in result.records)


@pytest.mark.parametrize("w, builds", [(2, 0), (3, 1), (4, 1), (5, 1), (6, 1),
                                       (7, 1), (8, 1)])
def test_log_route_builds_one_power_table(w, builds, monkeypatch):
    # one array for both phases, none where no tuple has an exponent; from
    # w = 6 on the lower weights' searches share it
    calls = []
    powers = type(F16).powers

    def counting(ctx, g, count):
        calls.append((g, count))
        return powers(ctx, g, count)

    monkeypatch.setattr(type(F16), "powers", counting)
    result = logtmto_find_all(F16, ENG16, SearchParams.balanced(
        w, 20, "logarithmic"))
    assert calls == [(2, 21)] * builds
    assert result.exponent_sets() == _brute_sets(F16, w, 20)


# -- the canonical log route (w >= 6, unbalanced splits) ----------------------

def _log_sets(ctx, params):
    result = logtmto_find_all(ctx, build_engine(ctx), params)
    sets = result.exponent_sets()
    assert result.report.found == len(sets)
    return sets


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 10),
    seed=st.integers(0, 2**16),
    w=st.sampled_from([6, 7, 8]),
    span=st.floats(0, 1),
)
def test_canonical_log_route_equals_tmto_and_brute_force(n, seed, w, span):
    # D from 1 to 2M + 2, on both sides of the group order, as far as
    # brute force stays cheap
    ctx = make_context(random_primitive_poly(n, random.Random(seed)))
    D = 1 + round(span * (2 * ctx.order + 1))
    while D > 1 and comb(D, w - 1) > 20000:
        D -= 1
    got = _log_sets(ctx, SearchParams.balanced(w, D, "logarithmic"))
    assert got == tmto_find_all(
        ctx, SearchParams.balanced(w, D, "classical")).exponent_sets()
    assert got == _brute_sets(ctx, w, D)


@pytest.mark.parametrize("spec, w, D, q1", [
    ("4,1,0", 6, 20, 0),  # unbalanced splits, D >= M = 15
    ("4,1,0", 6, 20, 1),
    ("4,1,0", 7, 18, 1),
    ("5,2,0", 6, 25, 0),  # D < M = 31
    ("3,1,0", 8, 16, 2),
    ("10,3,0", 6, 30, 1),
])
def test_canonical_log_route_with_unbalanced_splits(spec, w, D, q1):
    ctx = make_context(parse_poly(spec))
    params = SearchParams(w=w, D=D, q1=q1, q2=w - 2 - q1,
                          algorithm="logarithmic")
    assert _log_sets(ctx, params) == _brute_sets(ctx, w, D)


@pytest.mark.parametrize("spec, w, D", [
    ("18,7,0", 6, 60),  # zero halves (7, 18) and (14, 36) below M
    ("20,3,0", 6, 65),  # zero halves (3, 20) and (6, 40) below M
    ("6,1,0", 6, 64),  # D >= M = 63
    ("3,1,0", 8, 20),  # D >= 2M = 14
])
def test_canonical_log_route_equals_tmto(spec, w, D):
    ctx = make_context(parse_poly(spec))
    log = logtmto_find_all(ctx, build_engine(ctx), SearchParams.balanced(
        w, D, "logarithmic"))
    assert log.exponent_sets() == tmto_find_all(
        ctx, SearchParams.balanced(w, D, "classical")).exponent_sets()
    if D < ctx.order:  # each zero pair makes its multiples below M
        assert log.report.zero_residue_emits > 0


@pytest.mark.parametrize("spec, w, D", [
    ("18,7,0", 6, 192), ("20,3,0", 6, 65), ("4,1,0", 6, 20), ("4,1,0", 7, 20),
    ("4,1,0", 8, 20),
    ("4,1,0", 4, 20),  # a bounded log search, and weight 2: D >= M = 15
    ("10,3,0", 5, 60),  # bounded log searches of weights 5 and 3
    ("7,1,0", 5, 140),  # 428,218 bounded log matches, D >= M = 127
    ("8,4,3,2,0", 3, 300),  # D >= M = 255
    ("6,1,0", 6, 64),  # D >= M = 63
])
def test_canonical_pass_hands_the_dedup_one_row_per_multiple(
        monkeypatch, spec, w, D):
    # every search of either route, bounded or not, hands the sorter each
    # multiple of its weight once: the rows are pairwise distinct, one
    # per record
    ctx = make_context(parse_poly(spec))
    engine = build_engine(ctx)
    add_rows = search._KeySorter.add_rows
    for algorithm in ("classical", "logarithmic"):
        handed = []

        def spy(self, rows):
            handed.extend(search._exponents(rows, D))
            add_rows(self, rows)

        monkeypatch.setattr(search._KeySorter, "add_rows", spy)
        result = _route(algorithm)(ctx, engine, SearchParams.balanced(
            w, D, algorithm))
        monkeypatch.undo()
        assert len(set(handed)) == len(handed) == result.report.found > 0
        assert frozenset(handed) == result.exponent_sets()
        assert result.report.duplicates_suppressed == 0


def test_log_route_charges_a_batched_giant_pass():
    # 2^31 - 1 is prime: each batch of phase 1 runs one pass of
    # GIANT_BLOCK giant steps, which the prediction charges
    from lowmult.dlog import GIANT_BLOCK, GIANT_STEP_BYTES

    ctx = make_context(parse_poly("31,3,0"))
    engine = build_engine(ctx)
    params, route = _log_route_need(ctx, 4, 200)
    need = route + GIANT_BLOCK * GIANT_STEP_BYTES
    with pytest.raises(MemoryBudgetExceededError):
        logtmto_find_all(ctx, engine, SearchParams.balanced(
            4, 200, "logarithmic", budget_bytes=need - 1))
    logtmto_find_all(ctx, engine, SearchParams.balanced(
        4, 200, "logarithmic", budget_bytes=need))
    tracemalloc.start()
    try:
        logtmto_find_all(ctx, engine, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert need / 2 <= peak <= need, (peak, need)


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 3000), min_size=1, max_size=6),
       room=st.integers(0, 2**18), width=st.integers(2, 8),
       D=st.sampled_from([40, 2**40]), seed=st.integers(0, 2**16))
def test_dedup_stops_at_the_first_block_whose_sort_would_not_fit(
        sizes, room, width, D, seed):
    # add_rows refuses block k exactly where sorting blocks[:k] would
    # not fit, and sorted_keys where all of them would not: a run stops
    # as soon as its sort cannot fit, and only then (D = 2^40 leaves the
    # keys unpacked from width 3 on, where their sort takes an order and
    # a sorted copy)
    rng = np.random.default_rng(seed)
    blocks = [rng.integers(0, D + 2, (size, width)) for size in sizes]

    def sort_fits(held):
        sorter = search._KeySorter(room, width, D)
        try:
            for block in held:
                sorter.add_rows(block)
            sorter.sorted_keys()
        except MemoryBudgetExceededError:
            return False
        return True

    fits = [sort_fits(blocks[:k]) for k in range(1, len(blocks) + 1)]
    sorter = search._KeySorter(room, width, D)
    stop = next((k for k, ok in enumerate(fits) if not ok), None)
    for k, block in enumerate(blocks):
        if stop is not None and k == stop + 1:
            with pytest.raises(MemoryBudgetExceededError):
                sorter.add_rows(block)
            return
        sorter.add_rows(block)
    if stop is None:
        assert len(sorter.sorted_keys()) == sum(sizes)
    else:
        with pytest.raises(MemoryBudgetExceededError):
            sorter.sorted_keys()


def test_dedup_sort_is_charged_before_it_runs(monkeypatch):
    # P=6,1,0, w=6, D=48: 26,933 multiples.  Keys too wide to pack
    # (PACK_BITS = 0) are held as their 6-column rows, 48 bytes each:
    # 1.29 MB.  Sorting them takes their concatenation, an order and
    # lexsort's work (SORT_ROW_BYTES) and the sorted copy.  With 1 MB
    # beside the prediction the keys held fit while their sort does not:
    # the run stops there, its traced peak under the budget
    monkeypatch.setattr(search, "PACK_BITS", 0)
    ctx = make_context(parse_poly("6,1,0"))
    engine = build_engine(ctx)
    params, predicted = _log_route_need(ctx, 6, 48)
    room = 2**20
    budget = predicted + room
    logtmto_find_all(ctx, engine, params)  # the engine's lazy set-up
    tracemalloc.start()
    try:
        with pytest.raises(MemoryBudgetExceededError) as exc:
            logtmto_find_all(ctx, engine, SearchParams.balanced(
                6, 48, "logarithmic", budget_bytes=budget))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held, work = map(int, re.search(
        r"multiples held \((\d+) bytes, and (\d+) to sort them\)",
        str(exc.value)).groups())
    assert held <= room < held + work
    assert peak < budget, (peak, budget)
    # room for the keys held, their concatenation, the order and the
    # sorted copy, beside MATCH_BLOCK rows, lets the run finish under its
    # budget; a byte less stops it
    found = logtmto_find_all(ctx, engine, params).report.found
    need = (found * (3 * 48 + search.SORT_ROW_BYTES)
            - search.MATCH_BLOCK * 48)
    with pytest.raises(MemoryBudgetExceededError):
        logtmto_find_all(ctx, engine, SearchParams.balanced(
            6, 48, "logarithmic", budget_bytes=predicted + need - 1))
    tracemalloc.start()
    try:
        logtmto_find_all(ctx, engine, SearchParams.balanced(
            6, 48, "logarithmic", budget_bytes=predicted + need))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= predicted + need, (peak, predicted + need)


@pytest.mark.parametrize("algorithm", ["classical", "logarithmic"])
def test_a_result_keeps_only_its_packed_keys(algorithm):
    # P=6,1,0, w=6, D=64: 119,785 multiples, each one packed 8-byte key.
    # The end of the run holds the keys and their one concatenation,
    # which the sort orders in place; the result keeps only the keys
    ctx = make_context(parse_poly("6,1,0"))
    engine = build_engine(ctx)
    if algorithm == "classical":
        params = SearchParams.balanced(6, 64, algorithm)
        predicted = search._tmto_bytes(ctx.n, 64, params.q1, params.q2)
    else:
        params, predicted = _log_route_need(ctx, 6, 64)
    _route(algorithm)(ctx, engine, params)  # the engine's lazy set-up
    tracemalloc.start()
    try:
        result = _route(algorithm)(ctx, engine, params)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    keys = 8 * result.report.found
    assert result.report.found == 119785
    assert result.keys.nbytes == keys
    assert keys <= kept <= keys + 2**16, (kept, keys)
    assert peak <= predicted + 2 * keys, (peak, predicted, keys)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), w=st.integers(3, 8), packs=st.booleans())
def test_keys_sort_and_unpack_like_rows(data, w, packs):
    # canonical rows of weights 2 to w, padded with D + 1 to width w: D on
    # both sides of the largest that packs w - 1 fields into PACK_BITS,
    # and no packing at all
    limit = 2 ** (search.PACK_BITS // (w - 1)) - 2
    D = data.draw(st.sampled_from([w - 1, 3 * w, limit, limit + 1]))
    rows = []
    for _ in range(data.draw(st.integers(0, 40))):
        k = data.draw(st.integers(1, w - 1))
        terms = data.draw(st.lists(st.integers(1, D), min_size=k, max_size=k,
                                   unique=True))
        rows.append([0, *sorted(terms)] + [D + 1] * (w - 1 - k))
    rows = np.array(rows, np.int64).reshape(len(rows), w)
    with pytest.MonkeyPatch.context() as m:
        if not packs:
            m.setattr(search, "PACK_BITS", 0)
        assert (search._unkey(search._keys(rows.copy(), D), D, w)
                == rows).all()
        sorter = search._KeySorter(2**40, w, D)
        sorter.add_rows(rows)
        got = search._exponents(search._unkey(sorter.sorted_keys(), D, w), D)
    want = sorted(search._exponents(rows, D), key=lambda e: (e[-1], e))
    assert got == want
