"""Batched discrete logs: the array path of LogEngine.discrete_log against
the scalar path, brute force and round trips (the two paths share one
walk, so brute force and x^y == a are the independent oracles), the
uint64 field arithmetic against dense long division, and the chunked
log-table phases against pinned results of the one-log-per-tuple
search."""

import functools
import hashlib
import random
from itertools import combinations
from math import ceil, comb, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowmult import dlog, search
from lowmult.dlog import build_engine
from lowmult.errors import LogOfZeroError
from lowmult.factorint import factorize
from lowmult.gf2poly import (
    FieldContext, SparsePoly, _BatchField, make_context, parse_poly,
    random_primitive_poly)
from lowmult.reference import brute_force_log, poly_divides
from lowmult.sampler import SampleParams, birthday_logtmto
from lowmult.search import LOG_CHUNK, SearchParams, logtmto_find_all
from lowmult.tuples import rank as lex_rank

PLANS = {
    "table": {},
    "bsgs": {"tabulation_threshold": 1},
    "bsgs-oversized": {"tabulation_threshold": 1, "bsgs_baby_entries": 64},
}


@functools.lru_cache(maxsize=None)
def _field(n, seed):
    return make_context(random_primitive_poly(n, random.Random(seed)))


@functools.lru_cache(maxsize=None)
def _engine(n, seed, plan):
    return build_engine(_field(n, seed), **PLANS[plan])


def _logs(engine, elems):
    return engine.discrete_log(np.array(elems, dtype=np.uint64)).tolist()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 16),
    seed=st.integers(0, 2**16),
    plan=st.sampled_from(sorted(PLANS)),
    raw=st.lists(st.integers(0, 2**16), max_size=64),
)
def test_array_logs_equal_scalar_and_brute_force(n, seed, plan, raw):
    ctx = _field(n, seed)
    engine = _engine(n, seed, plan)
    elems = [1] + [v % ctx.order + 1 for v in raw]  # every nonzero element
    got = _logs(engine, elems)
    assert got == [engine.discrete_log(a) for a in elems]
    assert [ctx.pow(2, y) for y in got] == elems
    assert got[:4] == [brute_force_log(ctx, a) for a in elems[:4]]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 20),
    seed=st.integers(0, 2**16),
    plan=st.sampled_from(sorted(PLANS)),
    ks=st.lists(st.integers(0, 2**20), min_size=1, max_size=16),
)
def test_logs_round_trip_up_to_n20(n, seed, plan, ks):
    ctx = _field(n, seed)
    engine = build_engine(ctx, **PLANS[plan])  # not cached: n = 19 is 8 MB
    want = [k % ctx.order for k in ks]
    elems = [ctx.monomial_residue(k) for k in want]
    assert _logs(engine, elems) == want
    assert [engine.discrete_log(a) for a in elems] == want


# n = 13 is left out: 2^13 - 1 is prime, and one baby entry with one
# giant step per pass would take thousands of passes per scalar log
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 12) | st.sampled_from([14, 15, 16]),
    seed=st.integers(0, 2**16),
    baby=st.sampled_from([None, 1, 64]) | st.integers(1, 300),
    block=st.sampled_from([1, 2, 3]) | st.integers(1, 600),
    raw=st.lists(st.integers(0, 2**16), max_size=16),
)
def test_blocked_giant_steps_equal_full_tables(n, seed, baby, block, raw):
    # every prime by baby-step giant-step; small blocks end in a partial
    # pass and find the elements of one array in different passes
    ctx = _field(n, seed)
    elems = [1] + [v % ctx.order + 1 for v in raw]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dlog, "GIANT_BLOCK", block)
        engine = build_engine(ctx, tabulation_threshold=1, bsgs_baby_entries=baby)
        got = _logs(engine, elems)
        scalar = [engine.discrete_log(a) for a in elems]
    assert got == scalar == _logs(_engine(n, seed, "table"), elems)
    assert [ctx.pow(2, y) for y in got] == elems
    assert got[:3] == [brute_force_log(ctx, a) for a in elems[:3]]


@pytest.mark.parametrize("block", [1, 2, 3, 7, dlog.GIANT_BLOCK])
@pytest.mark.parametrize("baby", [None, 1, 30])
def test_element_outside_subgroup_raises(monkeypatch, block, baby):
    # M = 3 * 11 * 31; threshold 11 leaves the prime 31 to baby-step
    # giant-step (6, 1 or 30 baby entries)
    monkeypatch.setattr(dlog, "GIANT_BLOCK", block)
    ctx = make_context(parse_poly("10,3,0"))
    engine = build_engine(ctx, 11, bsgs_baby_entries=baby)
    sub = engine.solvers[2].sub
    assert (sub.p, sub.strategy) == (31, "bsgs")
    gp = ctx.pow(2, ctx.order // 31)
    inside = [ctx.pow(gp, j) for j in range(31)]
    assert [sub.lookup(h) for h in inside] == list(range(31))
    assert sub.lookup_array(np.array(inside, np.uint64)).tolist() == list(range(31))
    with pytest.raises(ValueError, match="not found in subgroup"):
        sub.lookup(2)  # x has order 1023
    with pytest.raises(ValueError, match="not found in subgroup"):
        sub.lookup_array(np.array(inside + [2] + inside, np.uint64))


@pytest.mark.parametrize("baby", [1, None, 30])
@pytest.mark.parametrize("spec, threshold, p, outside", [
    ("10,3,0", 11, 31, 2),  # M = 3 * 11 * 31; x has order 1023
    ("7,1,0", 1, 127, 0),  # M = 127 is prime; 0 is in no subgroup
])
def test_every_pass_boundary(spec, threshold, p, outside, baby):
    # every block size from one step a pass to more than the steps puts
    # each step in the first column, the carried last column and the
    # final partial pass; a run of all p elements at once has many rows
    # a pass, and an element outside the subgroup raises after every
    # step was checked exactly once, alone or beside them
    ctx = make_context(parse_poly(spec))
    gp = ctx.pow(2, ctx.order // p)
    inside = [ctx.pow(gp, j) for j in range(p)]
    arr = np.array(inside, np.uint64)
    m = min(p, baby or isqrt(p - 1) + 1)
    steps = (p - 1) // m
    field = ctx.batch
    for block in range(1, steps + 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dlog, "GIANT_BLOCK", block)
            engine = build_engine(ctx, threshold, bsgs_baby_entries=baby)
            sub = engine.solvers[-1].sub
            assert (sub.p, sub.m, sub.steps) == (p, m, steps)
            assert [sub.lookup(h) for h in inside] == list(range(p))
            assert sub.lookup_array(arr).tolist() == list(range(p))
            assert sub._giant_steps(arr).tolist() == list(range(p))
            columns = []
            grid = field.mul_grid
            mp.setattr(field, "mul_grid",
                       lambda b, d: columns.append(d.shape[1]) or grid(b, d))
            for run in ([outside], inside + [outside] + inside):
                columns.clear()
                with pytest.raises(ValueError, match="not found in subgroup"):
                    sub._giant_steps(np.array(run, np.uint64))
                assert sum(columns) == steps + 1
            with pytest.raises(ValueError, match="not found in subgroup"):
                sub.lookup(outside)


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("spec", ["6,1,0", "12,6,4,1,0"])
def test_prime_powers_over_the_whole_group(spec, plan):
    # 2^6 - 1 = 3^2 * 7 and 2^12 - 1 = 3^2 * 5 * 7 * 13 lift digits of 3^2
    ctx = make_context(parse_poly(spec))
    assert (3, 2) in ctx.factorization
    engine = build_engine(ctx, **PLANS[plan])
    powers = [ctx.pow(2, k) for k in range(ctx.order)]
    assert _logs(engine, powers) == list(range(ctx.order))
    sample = powers[:: max(1, ctx.order // 8)]
    assert _logs(engine, sample) == [brute_force_log(ctx, a) for a in sample]


def test_oversized_baby_tables_are_bsgs():
    # the plan the property test calls bsgs-oversized keeps a baby-step
    # giant-step solver whose baby table is larger than ceil(sqrt(p))
    ctx = make_context(parse_poly("14,12,11,1,0"))  # 2^14 - 1 = 3 * 43 * 127
    engine = build_engine(ctx, **PLANS["bsgs-oversized"])
    assert (127, 1, "bsgs", 64) in engine.strategy_summary()
    assert 64 > isqrt(127) + 1


@pytest.mark.parametrize(
    "size", [0, 1, LOG_CHUNK - 1, LOG_CHUNK, LOG_CHUNK + 1])
def test_batch_sizes(size):
    ctx, engine = _field(16, 1), _engine(16, 1, "table")
    rng = random.Random(size)
    elems = [rng.randrange(1, ctx.order + 1) for _ in range(size)]
    out = engine.discrete_log(np.array(elems, dtype=np.uint64))
    assert out.dtype == np.int64 and out.shape == (size,)
    assert out.tolist() == [engine.discrete_log(a) for a in elems]
    assert _logs(engine, [1]) == [0]


@pytest.mark.parametrize("elems", [[0], [0, 3], [5, 0, 7], [9, 0]])
def test_array_holding_zero_raises(elems):
    with pytest.raises(LogOfZeroError):
        _engine(16, 1, "table").discrete_log(np.array(elems, dtype=np.uint64))


# 2^n - 1 for these n has 6 to 11 prime powers, among them 3^2 (n = 24,
# 30, 48, 60), 3^3 (n = 36), 3^4 (n = 54: three lifts, the most at
# n <= 63), 5^2 (n = 40, 60) and 7^2 (n = 63).  Giant
# passes run on digits of width k = 2 at n = 62 and k = 1 at n = 63;
# 2^62 - 1 = 3 * 715827883 * (2^31 - 1) has no room to tabulate its
# largest prime, and its default plan leaves both large ones to BSGS
@pytest.mark.parametrize("n, bsgs_largest", [
    (n, b) for n in (24, 30, 36, 40, 48, 54, 60, 63) for b in (False, True)]
    + [(62, True)])
def test_multi_prime_logs_round_trip(n, bsgs_largest):
    ctx = _field(n, n)
    primes = sorted(p for p, _ in ctx.factorization)
    # every prime tabulated, or all but the largest
    engine = build_engine(ctx, **(
        {"tabulation_threshold": primes[-2]} if bsgs_largest and n != 62
        else {}))
    assert [s.sub.strategy for s in engine.solvers if s.p == primes[-1]] == [
        "bsgs" if bsgs_largest else "table"]
    rng = random.Random(n)
    want = [0, 1, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(200)]
    elems = [ctx.pow(2, k) for k in want]
    assert _logs(engine, elems) == want
    assert _logs(engine, elems[-1:]) == want[-1:]
    assert [engine.discrete_log(a) for a in elems] == want


def test_logs_round_trip_with_a_42_bit_prime():
    # 2^49 - 1 = 127 * 4432676798593: the CRT lifts a 42-bit component
    ctx = _field(49, 49)
    engine = build_engine(ctx)
    assert engine.strategy_summary()[-1][:3] == (4432676798593, 1, "bsgs")
    rng = random.Random(49)
    want = [ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(2)]
    elems = [ctx.pow(2, k) for k in want]
    assert _logs(engine, elems) == want
    assert [engine.discrete_log(a) for a in elems] == want


def test_all_but_the_largest_prime_power_fit_in_31_bits():
    # what the array CRT needs to stay within int64 for every degree
    for n in range(2, 64):
        qs = sorted(p**e for p, e in factorize(2**n - 1))
        assert all(q < 2**31 for q in qs[:-1]), (n, qs)


def _tree_products(node):
    if isinstance(node, int):
        return 0
    children, exps = node
    return (sum(e.bit_count() - 1 for e in exps)
            + sum(map(_tree_products, children)))


def _tree_projections(node, exponent, out):
    """The exponent of a at each leaf: the product of the edges above it."""
    if isinstance(node, int):
        out[node] = exponent
    else:
        for child, e in zip(*node):
            _tree_projections(child, exponent * e, out)
    return out


# projection products of a 2048-log batch, tree against one product per
# set bit of each cofactor M/q after the first
TREE_PRODUCTS = {18: (15, 26), 30: (28, 65), 36: (36, 124), 43: (34, 43)}


def _widest_split(node):
    if isinstance(node, int):
        return 0
    return max([len(node[0])] + [_widest_split(c) for c in node[0]])


@pytest.mark.parametrize("n", [15, 33, 52])
def test_logs_round_trip_through_flat_splits(n):
    # these trees split a node of three prime powers into single ones
    ctx = _field(n, n)
    engine = build_engine(ctx)
    assert _widest_split(engine._tree) == 3
    rng = random.Random(n)
    want = [0, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(100)]
    elems = [ctx.pow(2, k) for k in want]
    assert _logs(engine, elems) == want


def test_product_tree_projects_with_fewer_products():
    for n in range(2, 64):
        M = 2**n - 1
        qs = [p**e for p, e in factorize(M)]
        tree = dlog._product_tree(qs)
        # every leaf holds a^(M/q), and the largest q comes first
        assert _tree_projections(tree, 1, {}) == {
            i: M // q for i, q in enumerate(qs)}
        assert qs[dlog._leaves(tree)[0]] == max(qs)
        flat = sum((M // q).bit_count() - 1 for q in qs)
        assert _tree_products(tree) <= flat
        if n in TREE_PRODUCTS:
            assert (_tree_products(tree), flat) == TREE_PRODUCTS[n]


# -- field arithmetic against dense long division ---------------------------

# degree >= 61 narrows the multiplication digit to 3, 2 and 1 bits
WIDE = {61: "61,5,2,1,0", 62: "62,6,5,3,0", 63: "63,1,0"}


@functools.lru_cache(maxsize=None)
def _wide(n):
    return make_context(parse_poly(WIDE[n]))


def _clmul(a, b):
    """Carry-less product of two dense GF(2) polynomials."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def _reduces_to(ctx, dense, r):
    """r is the reduced residue of the dense polynomial mod P."""
    diff = dense ^ r
    return r >> ctx.n == 0 and poly_divides(
        ctx.poly, SparsePoly(i for i in range(diff.bit_length()) if diff >> i & 1)
    )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 16) | st.sampled_from(sorted(WIDE)),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_mul_sqr_pow_match_long_division(n, seed, data):
    ctx = _wide(n) if n in WIDE else _field(n, seed)
    elem = st.integers(0, ctx.mask)
    a, b = data.draw(elem), data.draw(elem)
    e = data.draw(st.integers(0, 12))
    assert _reduces_to(ctx, _clmul(a, b), ctx.mul(a, b))
    assert _reduces_to(ctx, _clmul(a, a), ctx.sqr(a))
    dense = 1
    for _ in range(e):
        dense = _clmul(dense, a)
    assert _reduces_to(ctx, dense, ctx.pow(a, e))

    # the array arithmetic of the batched logs agrees elementwise
    xs = data.draw(st.lists(elem, min_size=1, max_size=16))
    ys = data.draw(st.lists(elem, min_size=len(xs), max_size=len(xs)))
    field = _BatchField(ctx)
    ax, ay = np.array(xs, dtype=np.uint64), np.array(ys, dtype=np.uint64)
    assert field.mul(ax, ay).tolist() == [ctx.mul(x, y) for x, y in zip(xs, ys)]
    assert field.mul(ax, b).tolist() == [ctx.mul(x, b) for x in xs]
    assert field.sqr(ax).tolist() == [ctx.sqr(x) for x in xs]
    assert field.pow(ax, e + 1).tolist() == [ctx.pow(x, e + 1) for x in xs]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 16) | st.sampled_from(sorted(WIDE)),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_tabulate_equals_plain_enumeration(n, seed, data):
    ctx = _wide(n) if n in WIDE else _field(n, seed)
    for p, _ in ctx.factorization:
        # full tables below n = 61; baby tables of 1, 2, 3 or up to 200
        sizes = st.sampled_from([1, 2, 3]) | st.integers(1, 200)
        if n not in WIDE:
            sizes |= st.just(p)
        m = min(p, data.draw(sizes))
        gp = ctx.pow(2, ctx.order // p)
        powers = [1]
        for _ in range(m - 1):
            powers.append(ctx.mul(powers[-1], gp))
        order = sorted(range(m), key=powers.__getitem__)
        vals, idx = dlog._tabulate(ctx, p, m)
        assert vals.dtype.str == idx.dtype.str == "<i8"
        assert vals.tolist() == [powers[j] for j in order]
        assert idx.tolist() == order


def _doubling(ctx, g, count):
    """g^t for t < count, filled by plain doubling: out[k:2k] = out[:k] g^k."""
    field = ctx.batch
    out = np.empty(count, dtype=np.uint64)
    out[0] = 1
    k, step = 1, g
    while k < count:
        t = min(k, count - k)
        out[k:k + t] = field.mul(out[:t], step)
        k += t
        step = ctx.sqr(step)
    return out


@pytest.mark.parametrize("spec", ["18,7,0", "30,6,4,1,0", "31,3,0", "62,6,5,3,0"])
def test_powers_equal_plain_doubling(spec, monkeypatch):
    # grid steps of 15 rows, then of up to 2^15 products, the last taking
    # all the rows left: the same sorted tables and giant blocks as
    # doubling throughout
    ctx = make_context(parse_poly(spec))
    g = ctx.pow(2, 12345)
    for count in (1, 2, 15, 16, 17, 255, 257, 331, 4097, 16385, 20000,
                  2**15 + 1, 70000, 3 * 2**15 + 7, 2**17 + 1):
        assert np.array_equal(ctx.powers(g, count), _doubling(ctx, g, count))
    plan = {"tabulation_threshold": 1, "bsgs_baby_entries": 3000}
    engines = [build_engine(ctx), build_engine(ctx, **plan)]
    monkeypatch.setattr(FieldContext, "powers", _doubling)
    plain = [build_engine(ctx), build_engine(ctx, **plan)]
    for new, old in zip(engines, plain):
        for a, b in zip(new.solvers, old.solvers):
            assert np.array_equal(a.sub.vals, b.sub.vals)
            assert np.array_equal(a.sub.idx, b.sub.idx)
            assert (a.sub.giant_digits is None) == (b.sub.giant_digits is None)
            if a.sub.giant_digits is not None:
                assert np.array_equal(a.sub.giant_digits, b.sub.giant_digits)


# -- chunked log-table phases -------------------------------------------------

F20 = make_context(parse_poly("20,3,0"))  # 1 + x^3 + x^20 reduces to zero
ENG20 = build_engine(F20)


def _digest(records):
    rows = [(r.poly.exponents, r.provenance) for r in records]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


# Pinned from the search that took one scalar log per tuple: (records and
# provenances digest, found, duplicates_suppressed, zero_shift_skips,
# zero_residue_emits, table_entries, log_calls).  Tuple counts straddle
# the 2048-tuple chunk in phase 1 (w=4: D tuples; w=6: C(D, 2)) and
# phase 2 (w=5: C(65, 2) = 2080 probes under the bound ceil(130 * 2 / 4),
# two of them the zero residues (3, 20) and (6, 40)).  The w=4 and w=5
# rows were re-pinned when phase 2 became bounded for w <= 5: the same
# records as the unbounded search, fewer probes, so fewer duplicates,
# skips and logs, and some smallest provenances come from other probes.
# log_calls was re-pinned when each log of 1 + tuple came to be taken
# once: phase 1 logs only tuples with an odd exponent, and phase 2 reads
# the table's logs where q1 = q2 (w = 4, 6); records are unchanged.  The
# w=6 rows were re-pinned when the search became canonical there (each
# weight-6 multiple from one decomposition, the lower weights from the
# weight-4 search): the same records in the same order, other
# provenances, duplicates and skips only the weight-4 search's, the
# zero halves (3, 20) and (6, 40) paired below M, and the weight-4
# search's table and logs added.  All rows were re-pinned when every
# search came to meet each multiple of its weight once (the bounded ones
# through the match whose probe half is the last short run of terms) and
# to take the lower weights from the searches below it: the same records
# in the same order, their canonical provenances, no duplicates, no own
# multiples of zero tuples (w = 5), and the weight-3 search's table and
# logs added at w = 5.
FIND_ALL_PINS = {
    (4, 2047): ("2899a3eb56865388", 2978, 0, 683, 0, 2047, 1024),
    (4, 2048): ("bec09f9ae9692d6e", 2988, 0, 683, 0, 2048, 1024),
    (4, 2049): ("ecc749ef0e13efd8", 2996, 0, 683, 0, 2049, 1025),
    (6, 64): ("39c0d50a35824fc4", 277, 0, 22, 32, 2078, 1551),
    (6, 65): ("d369797eed29e2b9", 285, 0, 22, 35, 2143, 1616),
    (5, 130): ("fe6511985553221a", 320, 0, 311, 0, 131, 2209),
}


@pytest.mark.parametrize("w, D", sorted(FIND_ALL_PINS))
def test_find_all_across_chunk_boundaries(w, D):
    res = logtmto_find_all(F20, ENG20, SearchParams.balanced(w, D, "logarithmic"))
    r = res.report
    assert (
        _digest(res.records), r.found, r.duplicates_suppressed,
        r.zero_shift_skips, r.zero_residue_emits, r.table_entries, r.log_calls,
    ) == FIND_ALL_PINS[(w, D)]


# Pinned like FIND_ALL_PINS, from the search that walked every shift of
# every window entry in Python: D >= M, where windows span the group,
# (probe, entry) pairs take up to 2D / M + 1 shifts, stored and probe
# tuples reduce to zero, and zero halves are paired (P=4,1,0 and 5,2,0).
# log_calls re-pinned as in FIND_ALL_PINS.  The P=4,1,0 cases at w = 4
# and 7 (q2 odd) also emit each stored tuple whose 1 + tuple reduces to
# zero (such as 1 + x^15 and 1 + x + x^4) as a multiple by itself.  The
# w >= 6 rows were re-pinned with FIND_ALL_PINS' w=6 rows, for the same
# reason (w = 7 takes its lower weights from the weight-5 search).  All
# rows were re-pinned with FIND_ALL_PINS' last re-pin: no tuple's own
# multiple any more (the weight-2 search finds 1 + x^15 and 1 + x^30 at
# P=4,1,0, and the lower searches the rest), so fewer zero emits, and
# the weight-2 and weight-3 searches' tables and logs added.
BEYOND_ORDER_PINS = {
    ("6,1,0", 6, 40): ("4608ede7e5c00804", 10361, 0, 14, 214, 809, 601),
    ("4,1,0", 6, 20): ("4bc2c76dfcef37e3", 1038, 0, 12, 90, 197, 146),
    ("5,2,0", 5, 40): ("6861c7eac824b7c7", 2876, 0, 232, 30, 40, 223),
    ("4,1,0", 4, 40): ("cf4316b5f48367bc", 625, 0, 38, 0, 39, 20),
    ("4,1,0", 7, 20): ("e88c7365f0e99c30", 2753, 0, 56, 226, 197, 1264),
}


def _pinned_run(spec, w, D):
    ctx = make_context(parse_poly(spec)) if spec else F20
    engine = _engine_of(spec)
    res = logtmto_find_all(ctx, engine, SearchParams.balanced(w, D, "logarithmic"))
    r = res.report
    return (
        _digest(res.records), r.found, r.duplicates_suppressed,
        r.zero_shift_skips, r.zero_residue_emits, r.table_entries, r.log_calls,
    )


@functools.lru_cache(maxsize=None)
def _engine_of(spec):
    return build_engine(make_context(parse_poly(spec))) if spec else ENG20


PINS = {(None, w, D): pin for (w, D), pin in FIND_ALL_PINS.items()}
PINS.update(BEYOND_ORDER_PINS)


@pytest.mark.parametrize("spec, w, D", sorted(BEYOND_ORDER_PINS))
def test_find_all_beyond_group_order(spec, w, D):
    assert _pinned_run(spec, w, D) == BEYOND_ORDER_PINS[(spec, w, D)]


@pytest.mark.parametrize("block", [1, 7, search.MATCH_BLOCK])
@pytest.mark.parametrize("spec, w, D", [
    (None, 6, 64), (None, 5, 130), ("4,1,0", 6, 20), ("5,2,0", 5, 40),
    ("4,1,0", 4, 40), ("4,1,0", 7, 20),
])
def test_match_block_size_does_not_change_results(monkeypatch, block, spec, w, D):
    monkeypatch.setattr(search, "MATCH_BLOCK", block)
    assert _pinned_run(spec, w, D) == PINS[(spec, w, D)]


@pytest.mark.parametrize("spec, w, D", sorted(PINS, key=repr))
def test_unpacked_rows_give_the_pins(monkeypatch, spec, w, D):
    # nothing fits in zero bits: match rows and provenances stay unpacked
    monkeypatch.setattr(search, "PACK_BITS", 0)
    assert _pinned_run(spec, w, D) == PINS[(spec, w, D)]


# Pinned likewise: (records and provenances digest, iterations, found,
# exhausted, duplicates, skipped, log_calls, progress events digest) of
# birthday_logtmto(w, D=4096, B=50, q1, K, seed=3, max_iterations=3000,
# progress_stride=500), whose K-table straddles the chunk.  log_calls
# re-pinned when the K-table came to log only tuples with an odd exponent.
BIRTHDAY_PINS = {
    (4, 2047, 1): ("efac45c4254f5280", 5, 54, False, 0, 0, 1029, "4f925f8350787360"),
    (4, 2048, 1): ("efac45c4254f5280", 5, 54, False, 0, 0, 1029, "4f925f8350787360"),
    (4, 2049, 1): ("efac45c4254f5280", 5, 54, False, 0, 0, 1030, "4f925f8350787360"),
    (5, 2049, 1): ("566eb43b89f85eab", 5, 55, False, 0, 0, 1030, "e37fae6b46ee3522"),
    (6, 65, 2): ("535eb272c2f32adf", 5, 50, False, 0, 0, 1588, "3c3829a1a68b6759"),
}


@pytest.mark.parametrize("w, K, q1", sorted(BIRTHDAY_PINS))
def test_birthday_logtmto_across_chunk_boundaries(w, K, q1):
    res = birthday_logtmto(ENG20, SampleParams(
        w=w, D=4096, B=50, q1=q1, K=K, seed=3, max_iterations=3000,
        progress_stride=500))
    events = hashlib.sha256(repr(res.events).encode()).hexdigest()[:16]
    assert (
        _digest(res.records), res.iterations, res.found, res.exhausted,
        res.duplicates, res.skipped, res.log_calls, events,
    ) == BIRTHDAY_PINS[(w, K, q1)]


class _CountingEngine:
    """Counts the batched calls and the elements they carry; every other
    attribute is the wrapped engine's."""

    def __init__(self, engine):
        self.ctx = engine.ctx
        self._engine = engine
        self.batches = []

    def discrete_log(self, a):
        if isinstance(a, np.ndarray):
            self.batches.append(len(a))
        return self._engine.discrete_log(a)

    def __getattr__(self, name):
        return getattr(self._engine, name)


def _searches(params, M):
    """The searches of one log run: its own, then the balanced ones of
    weights w - 2, w - 4, ... down to 3, or to 2 from D = M on."""
    out = [params]
    while out[-1].w > 4 or out[-1].w == 4 and params.D >= M:
        out.append(SearchParams.balanced(out[-1].w - 2, params.D, "logarithmic"))
    return out


@pytest.mark.parametrize("w, D", [(2, 9), (3, 40), (4, 41), (5, 22), (6, 21), (7, 13)])
def test_chunk_size_does_not_change_results(monkeypatch, w, D):
    params = SearchParams.balanced(w, D, "logarithmic")
    runs = []
    for chunk in (1, 7, LOG_CHUNK):
        monkeypatch.setattr(search, "LOG_CHUNK", chunk)
        eng = _CountingEngine(ENG20 if D > 20 else _engine(10, 4, "table"))
        res = logtmto_find_all(eng.ctx, eng, params)
        r = res.report
        runs.append((
            [(x.poly.exponents, x.provenance) for x in res.records],
            r.found, r.duplicates_suppressed, r.zero_shift_skips,
            r.zero_residue_emits, r.table_entries, r.log_calls,
        ))
        # log_calls counts logs, not batches; one batch per started chunk
        assert sum(eng.batches) == r.log_calls
        # each search's phase 1 logs the q1-tuples with an odd exponent
        # (the empty one at q1 = 0); phase 2 reads the table's logs where
        # q1 = q2 and otherwise logs its probes, up to the bound at w = 3,
        # 4, 5
        tuples = []
        for p in _searches(params, eng.ctx.order):
            q1, q2 = p.q1, p.q2
            tuples.append(comb(D, q1) - comb(D // 2, q1) if q1 else 1)
            if q1 != q2:
                q2_max = (search.second_phase_bound(D, p.w, q2)
                          if 3 <= p.w <= 5 else D)
                tuples.append(comb(q2_max, q2))
        assert len(eng.batches) == sum(ceil(t / chunk) for t in tuples)
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("w, D", [(4, 300), (4, 2049), (6, 40), (6, 65)])
def test_no_phase2_logs_when_the_probes_are_table_tuples(w, D):
    # q1 = q2 at w = 4 and 6: every probe is a stored tuple, so the run
    # takes exactly the batches of its phase-1 tables (at w = 6 the
    # weight-4 search's first)
    params = SearchParams.balanced(w, D, "logarithmic")
    table_eng, eng = _CountingEngine(ENG20), _CountingEngine(ENG20)
    searches = _searches(params, ENG20.ctx.order)[::-1]
    for p in searches:
        search.build_log_table(table_eng, p.q1, D)
    res = logtmto_find_all(eng.ctx, eng, params)
    assert eng.batches == table_eng.batches
    assert res.report.log_calls == sum(eng.batches)
    assert res.report.probes == sum(
        comb(search.second_phase_bound(D, p.w, p.q2) if p.w == 4 else D, p.q2)
        for p in searches)


def _direct_logs(engine, q, D):
    """Every q-tuple over [1, D] in lex order, with the scalar log of its
    1 + tuple (-1 where that reduces to zero)."""
    ctx = engine.ctx
    tuples = list(combinations(range(1, D + 1), q))
    logs = []
    for tup in tuples:
        r = 1
        for e in tup:
            r ^= ctx.monomial_residue(e)
        logs.append(engine.discrete_log(r) if r else -1)
    return tuples, logs


def _check_table(engine, q, D):
    tuples, want = _direct_logs(engine, q, D)
    table = search.build_log_table(engine, q, D)
    assert table.lex_logs.tolist() == want
    assert table.logs.tolist() == sorted(lg for lg in want if lg >= 0)
    assert table.zero_polys == [t for t, lg in zip(tuples, want) if lg < 0]
    rank = {t: i for i, t in enumerate(tuples)}
    assert [want[rank[tuple(t)]] for t in table.exponents.tolist()] == (
        table.logs.tolist())
    # only the tuples with an odd exponent took a log
    assert table.log_calls == sum(
        lg >= 0 and any(e % 2 for e in t) for t, lg in zip(tuples, want))
    return tuples, want


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**16),
    plan=st.sampled_from(sorted(PLANS)),
    q=st.integers(1, 3),
    span=st.floats(0, 1),
    pick=st.randoms(use_true_random=False),
)
def test_table_logs_equal_direct_logs(n, seed, plan, q, span, pick):
    # D from 1 to 2M + 2, on both sides of the group order: zero
    # residues, and all-even tuples whose half reduces to zero
    engine = _engine(n, seed, plan)
    D = 1 + round(span * (2 * engine.ctx.order + 1))
    while comb(D, q) > 1500:
        D -= 1
    tuples, want = _check_table(engine, q, D)
    for i in pick.sample(range(len(tuples)), min(3, len(tuples))):
        if want[i] >= 0:
            r = 1
            for e in tuples[i]:
                r ^= engine.ctx.monomial_residue(e)
            assert brute_force_log(engine.ctx, r) == want[i]


@pytest.mark.parametrize("even, half, v", [
    ((30,), (15,), 1),  # 1 + x^15 = 0 at M = 15, so 1 + x^30 = 0 too
    ((2, 8), (1, 4), 1),  # 1 + x + x^4 is P itself
    ((4, 8, 16), (1, 2, 4), 2),
    ((8, 16, 24), (1, 2, 3), 3),
])
def test_table_fills_all_even_tuples_by_frobenius(even, half, v):
    # P=4,1,0 up to D = 32, past twice the group order
    q, M = len(even), 15
    tuples, want = _check_table(_engine_of("4,1,0"), q, 32)
    lg, half_lg = want[tuples.index(even)], want[tuples.index(half)]
    assert lg == (-1 if half_lg < 0 else half_lg * 2**v % M)
    ranks = lex_rank(np.array(tuples, np.int64).reshape(-1, q), 32)
    assert ranks.tolist() == list(range(len(tuples)))


def test_frobenius_fill_does_not_overflow_at_n63():
    # a log just below M = 2^63 - 1 doubles past int64, not past uint64
    M = 2**63 - 1
    exps = np.array([[1], [2], [3], [4], [8]], np.int64)
    logs = np.array([M - 1, -1, 5, -1, -1], np.int64)
    search._fill_even(exps, logs, np.array([1, 3, 4]), 8, M)
    assert logs.tolist() == [M - 1, M - 2, 5, M - 4, M - 8]
