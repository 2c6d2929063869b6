import hashlib
import random
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowmult.dlog import GIANT_BLOCK, GIANT_STEP_BYTES, build_engine
from lowmult.errors import MemoryBudgetExceededError, WeightTooSmallError
from lowmult.gf2poly import make_context, parse_poly, verify_multiple
from lowmult.reference import brute_force_multiples
from lowmult.sampler import (
    ProgressEvent,
    Rng,
    SampleParams,
    birthday_logtmto,
    birthday_tmto,
    random_log_sample,
    write_progress_csv,
    _EXPONENT_OBJECT_BYTES,
    _RESIDUE_ENTRY_BYTES,
    _ROUND_OBJECT_BYTES,
    _below_rounds,
    _birthday_bytes,
    _draw_bytes,
    _draw_chunks,
)
from lowmult.search import _log_route_bytes, _logged_tuples, build_log_table
from lowmult.tuples import unrank_combination

F8 = make_context(parse_poly("3,1,0"))
F16 = make_context(parse_poly("4,1,0"))
ENG8 = build_engine(F8)
ENG16 = build_engine(F16)


def _one_plus(xp, tup):
    """Residue of 1 + (sum of x^e over e in tup), from the power table xp."""
    r = 1
    for e in tup:
        r ^= xp[e]
    return r


def _brute_sets(ctx, w, D):
    return frozenset(r.poly.exponents for r in brute_force_multiples(ctx, w, D))


def test_rng_is_stable():
    rng = Rng(0)
    first = [rng.next_u64() for _ in range(3)]
    # frozen splitmix64 outputs for seed 0
    assert first == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    counts = [Rng(1).below(10) for _ in range(1000)]
    assert set(counts) <= set(range(10))


def test_unrank_matches_lexicographic_enumeration():
    for m, q in ((6, 3), (9, 2), (5, 1), (4, 0), (12, 4), (7, 7)):
        want = list(combinations(range(1, m + 1), q))
        got = [unrank_combination(r, q, m) for r in range(comb(m, q))]
        assert got == want
    with pytest.raises(ValueError):
        unrank_combination(comb(6, 3), 3, 6)


@settings(max_examples=60, deadline=None)
@given(q=st.integers(0, 4), max_val=st.integers(0, 9), data=st.data())
def test_unrank_matches_combination_ranks(q, max_val, data):
    tuples = list(combinations(range(1, max_val + 1), q))
    rank = data.draw(st.integers(-3, len(tuples) + 3))
    if 0 <= rank < len(tuples):
        assert unrank_combination(rank, q, max_val) == tuples[rank]
    else:
        with pytest.raises(ValueError):
            unrank_combination(rank, q, max_val)


# 2^64 mod 3*2^62 = 2^62: a quarter of the outputs are rejected
_REJECTING = 3 << 62


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), rounds=st.integers(1, 60),
       bounds=st.lists(st.one_of(
           st.integers(1, 2**64 - 1), st.integers(_REJECTING - 3, _REJECTING + 3),
           st.just(1)), min_size=1, max_size=3))
def test_chunked_bounded_draws_match_below(seed, rounds, bounds):
    want_rng, rng = Rng(seed), Rng(seed)
    want = [[want_rng.below(b) for b in bounds] for _ in range(rounds)]
    got = []
    while len(got) < rounds:
        got += _below_rounds(rng, bounds, rounds - len(got)).tolist()
    assert got == want
    assert rng.next_u64() == want_rng.next_u64()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       qs=st.lists(st.integers(0, 5), min_size=1, max_size=2),
       data=st.data())
def test_draw_chunks_match_the_scalar_stream(seed, qs, data):
    # D up to 30 holds every rank in int64; from about 14,000 on C(D, 5)
    # nears 2^63, where up to half the outputs are rejected, and beyond
    # it the chunks are drawn one tuple at a time
    D = data.draw(st.integers(max(qs), 30) | st.integers(14_000, 20_000))
    rounds = data.draw(st.integers(1, 300) | st.integers(4_000, 9_000)
                       if D <= 30 else st.integers(1, 300))
    xp = [(e * 0x9E3779B9) % 2**61 for e in range(D + 1)]
    rng = Rng(seed)
    ranks = [[rng.below(comb(D, q)) for q in qs] for _ in range(rounds)]
    chunks = list(_draw_chunks(seed, tuple(qs), D, np.array(xp, np.int64), rounds))
    for j, q in enumerate(qs):
        tuples, got_ranks, residues = (
            np.concatenate([chunk[j][part] for chunk in chunks]) for part in range(3))
        want = [unrank_combination(rank[j], q, D) for rank in ranks]
        assert tuples.shape == (rounds, q)
        assert list(map(tuple, tuples.tolist())) == want
        assert got_ranks.tolist() == [rank[j] for rank in ranks]
        assert residues.tolist() == [_one_plus(xp, tup) for tup in want]


def test_random_log_sample_finds_known_set():
    params = SampleParams(w=3, D=7, B=3, seed=1, max_iterations=1000)
    res = random_log_sample(ENG8, params)
    assert res.exponent_sets() == {(0, 1, 3), (0, 2, 6), (0, 4, 5)}
    assert not res.exhausted
    assert res.found == 3


def test_random_log_sample_zero_budget():
    res = random_log_sample(
        ENG8, SampleParams(w=3, D=7, B=1, seed=1, max_iterations=0)
    )
    assert res.found == 0 and res.exhausted
    assert res.records == []


def test_random_log_sample_requires_w3():
    with pytest.raises(WeightTooSmallError):
        random_log_sample(ENG8, SampleParams(w=2, D=7, B=1, seed=0))


def test_random_log_sample_soundness_and_membership():
    ctx = make_context(parse_poly("10,3,0"))
    eng = build_engine(ctx)
    res = random_log_sample(
        eng, SampleParams(w=4, D=40, B=20, seed=2, max_iterations=50_000)
    )
    assert res.found > 0
    oracle = _brute_sets(ctx, 4, 40)
    for rec in res.records:
        assert verify_multiple(rec.poly, ctx, 4, 40)
        assert rec.poly.exponents in oracle


def test_fixed_seed_streams_are_identical():
    params = SampleParams(w=3, D=15, B=5, seed=9, max_iterations=500)
    a = random_log_sample(ENG16, params)
    b = random_log_sample(ENG16, params)
    assert [r.poly.exponents for r in a.records] == [
        r.poly.exponents for r in b.records
    ]
    assert a.events == b.events
    assert a.iterations == b.iterations


def test_progress_events_monotone_and_final():
    params = SampleParams(
        w=3, D=15, B=100, seed=3, max_iterations=900, progress_stride=100
    )
    res = random_log_sample(ENG16, params)
    assert res.events[-1].iteration == res.iterations
    assert res.events[-1].found == res.found
    found = [ev.found for ev in res.events]
    assert found == sorted(found)
    strided = [ev for ev in res.events if ev.iteration % 100 == 0]
    assert len(strided) >= res.iterations // 100


def test_progress_csv_format(tmp_path):
    path = tmp_path / "progress.csv"
    write_progress_csv(
        str(path), [ProgressEvent(0, 0), ProgressEvent(1024, 3)]
    )
    assert path.read_text() == "iteration,found\n0,0\n1024,3\n"


def test_birthday_logtmto_converges_to_oracle():
    params = SampleParams(
        w=4, D=15, B=10**9, q1=1, K=15, seed=3, max_iterations=4000
    )
    res = birthday_logtmto(ENG16, params)
    assert res.exponent_sets() == _brute_sets(F16, 4, 15)
    assert res.exhausted  # B was unreachable; everything else was found


def test_birthday_logtmto_pairs_zero_halves_beyond_group_order():
    # at D >= 15 = M, 1 + x^15 + x^30 + x^45 splits only into halves that
    # both reduce to zero; 3000 draws cover all 48 probes.  The digest of
    # the records and provenances, in discovery order, is pinned from the
    # sampler that paired zero halves one at a time.
    res = birthday_logtmto(ENG16, SampleParams(
        w=4, D=48, B=10**9, q1=1, K=48, seed=1, max_iterations=3000))
    got = {r.poly.exponents for r in res.records}
    assert (0, 15, 30, 45) in got
    assert got == _brute_sets(F16, 4, 48)
    assert (_digest([(r.poly.exponents, r.provenance) for r in res.records]),
            res.found, res.duplicates) == ("d925da7641b44d10", 1084, 420737)


def test_birthday_logtmto_respects_prebuilt_table():
    table = build_log_table(ENG16, 1, 10)
    params = SampleParams(w=4, D=15, B=5, q1=1, K=10, seed=4, max_iterations=2000)
    a = birthday_logtmto(ENG16, params, table=table)
    b = birthday_logtmto(ENG16, params)
    assert a.exponent_sets() == b.exponent_sets()
    with pytest.raises(ValueError):
        birthday_logtmto(ENG16, SampleParams(w=4, D=15, B=1, q1=1, K=8), table=table)
    pairs = build_log_table(ENG16, 2, 10)  # 2-tuples where q1=1 is asked for
    with pytest.raises(ValueError):
        birthday_logtmto(ENG16, SampleParams(w=4, D=15, B=1, q1=1, K=10), table=pairs)
    # logs taken under P=10,3,0 mean nothing to the P=4,1,0 engine
    foreign = build_log_table(build_engine(make_context(parse_poly("10,3,0"))), 1, 15)
    with pytest.raises(ValueError):
        birthday_logtmto(
            ENG16,
            SampleParams(w=4, D=15, B=1000, q1=1, K=15, seed=1, max_iterations=2000),
            table=foreign,
        )


def test_samplers_check_the_budget_before_allocating():
    # a 201-entry power array and the larger of its build work (9,800
    # bytes) and what follows it, the comb table of 4-tuples and a chunk
    # of 5 draws (7,040 bytes): 11,408 model bytes fit in 2 * 10^4
    small = dict(w=6, D=200, B=1, seed=1, max_iterations=5,
                 budget_bytes=2 * 10**4)
    assert _draw_bytes(200, (4,), 5) == 11_408
    random_log_sample(ENG16, SampleParams(**small))
    with pytest.raises(MemoryBudgetExceededError):
        random_log_sample(ENG16, SampleParams(**dict(small, D=2000)))
    # birthday_tmto charges its side tables as well: at w=6 the (2, 3)
    # split's sides hold at most min(max_iterations, C(D, q)) entries each
    need = _birthday_bytes(200, (2, 3), 5)
    assert need > small["budget_bytes"]
    fits = dict(small, budget_bytes=need)
    birthday_tmto(F16, SampleParams(**fits))
    for more in (dict(budget_bytes=need - 1), dict(max_iterations=6),
                 dict(D=2000)):
        with pytest.raises(MemoryBudgetExceededError):
            birthday_tmto(F16, SampleParams(**dict(fits, **more)))
    # a side holds no more entries than distinct tuples, C(20, 3) = 1140
    assert _birthday_bytes(20, (2, 3), 10**6) == _birthday_bytes(20, (2, 3), 10**9)
    # birthday_logtmto charges its C(200, 2)-entry K-table only when it
    # builds it; a prebuilt table is not charged again, its draws are
    stored = comb(200, 2)
    prebuilt = _log_route_bytes(F16.order, 200, 2, 2, stored, 1, 1, build=False)
    assert _log_route_bytes(
        F16.order, 200, 2, 2, stored, 1, _logged_tuples(200, 2)) > prebuilt
    tight = dict(small, budget_bytes=prebuilt + _draw_bytes(200, (2,), 5))
    with pytest.raises(MemoryBudgetExceededError):
        birthday_logtmto(ENG16, SampleParams(q1=2, **tight))
    table = build_log_table(ENG16, 2, 200)
    birthday_logtmto(ENG16, SampleParams(q1=2, **tight), table=table)


def test_birthday_tmto_budget_charges_the_power_array_build():
    # at w = 3 both halves are one exponent, so building the power array
    # is most of a one-round run
    ctx = make_context(parse_poly("31,3,0"))
    params = SampleParams(w=3, D=65536, B=10**9, seed=1, max_iterations=1)
    need = _birthday_bytes(65536, (1,), 1)
    birthday_tmto(ctx, params)
    tracemalloc.start()
    try:
        birthday_tmto(ctx, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert need / 2 <= peak <= need, (peak, need)


def test_birthday_logtmto_counts_only_the_logs_it_takes():
    # a prebuilt table's logs were taken by the call that built it
    engine = build_engine(make_context(parse_poly("16,5,3,2,0")))
    params = SampleParams(w=4, D=200, B=20, q1=1, K=200, seed=7)
    table = build_log_table(engine, 1, 200)
    own = birthday_logtmto(engine, params)
    reused = birthday_logtmto(engine, params, table=table)
    assert table.log_calls == 100
    assert (own.log_calls, reused.log_calls) == (156, 56)
    assert reused.log_calls == reused.iterations - reused.skipped
    assert reused.exponent_sets() == own.exponent_sets()


def test_birthday_logtmto_builds_one_power_array(monkeypatch):
    # the draws' array up to x^D also serves the K-table (K <= D)
    ctx = make_context(parse_poly("16,5,3,2,0"))
    engine = build_engine(ctx)
    calls = []
    powers = type(ctx).powers

    def counting(ctx, g, count):
        if g == 2:
            calls.append(count)
        return powers(ctx, g, count)

    monkeypatch.setattr(type(ctx), "powers", counting)
    for K in (200, 100):
        calls.clear()
        res = birthday_logtmto(engine, SampleParams(
            w=4, D=200, B=3, q1=1, K=K, seed=1, max_iterations=2000))
        assert calls == [201]
        assert all(verify_multiple(r.poly, ctx, 4, 200) for r in res.records)


def test_birthday_logtmto_unbalanced_split():
    ctx = make_context(parse_poly("10,3,0"))
    eng = build_engine(ctx)
    params = SampleParams(w=5, D=32, B=10, q1=1, K=32, seed=5, max_iterations=3000)
    res = birthday_logtmto(eng, params)
    assert res.found > 0
    for rec in res.records:
        assert verify_multiple(rec.poly, ctx, 5, 32)


def test_birthday_tmto_finds_valid_records():
    res = birthday_tmto(F8, SampleParams(w=4, D=7, B=1, seed=5, max_iterations=1000))
    assert res.found >= 1
    oracle = _brute_sets(F8, 4, 7)
    for rec in res.records:
        assert verify_multiple(rec.poly, F8, 4, 7)
        assert rec.poly.exponents in oracle


def test_birthday_tmto_no_duplicate_records():
    res = birthday_tmto(
        F8, SampleParams(w=3, D=7, B=100, seed=6, max_iterations=500)
    )
    keys = [r.poly.exponents for r in res.records]
    assert len(keys) == len(set(keys))
    assert res.exponent_sets() <= _brute_sets(F8, 3, 7)


def test_birthday_tmto_first_hit_scales_like_sqrt_order():
    # expected first-collision insert count near sqrt(2^n); wide tolerance
    ctx = make_context(parse_poly("16,5,3,2,0"))
    hits = []
    for seed in range(30):
        res = birthday_tmto(
            ctx, SampleParams(w=5, D=200, B=1, seed=seed, max_iterations=20_000)
        )
        assert res.found >= 1
        hits.append(res.iterations)
    mean = sum(hits) / len(hits)
    assert 2**8 / 4 <= mean <= 2**8 * 4


def test_sample_params_validation():
    with pytest.raises(ValueError):
        SampleParams(w=3, D=10, B=0)
    with pytest.raises(ValueError):
        SampleParams(w=3, D=10, B=1, K=11)
    with pytest.raises(ValueError):
        SampleParams(w=3, D=10, B=1, max_iterations=-1)


# -- pinned at n = 31 -----------------------------------------------------------

class _Recorder:
    """Keeps every discrete_log answer of the wrapped engine; every other
    attribute is the wrapped engine's."""

    def __init__(self, engine):
        self.ctx = engine.ctx
        self._engine = engine
        self.answers = []

    def discrete_log(self, a):
        y = self._engine.discrete_log(a)
        if isinstance(a, np.ndarray):
            self.answers.append((a.tolist(), y.tolist()))
        else:
            self.answers.append((a, y))
        return y

    def __getattr__(self, name):
        return getattr(self._engine, name)


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def n31_engine():
    # 2^31 - 1 is prime: every log is a baby-step giant-step search
    return build_engine(make_context(parse_poly("31,3,0")))


@pytest.mark.parametrize("method", ["random_log_sample", "birthday_logtmto"])
def test_scalar_bsgs_logs_stay_within_the_budget(n31_engine, method):
    # each draw's scalar log takes a pass of GIANT_BLOCK giant steps, which
    # the prediction charges once; it is most of the traced peak
    D, rounds = 200, 100
    giant_pass = GIANT_BLOCK * GIANT_STEP_BYTES
    if method == "random_log_sample":
        # also a residue cache entry a round, and the one chunk (all 100
        # rounds) as Python objects
        params = SampleParams(w=3, D=D, B=10**9, seed=1, max_iterations=rounds)
        need = _draw_bytes(D, (1,), rounds, giant_pass + rounds * (
            _RESIDUE_ENTRY_BYTES + _ROUND_OBJECT_BYTES + _EXPONENT_OBJECT_BYTES))
    else:  # a K = D table of 1-tuples, then one log per draw
        params = SampleParams(w=4, D=D, B=10**9, q1=1, seed=1,
                              max_iterations=rounds)
        need = _draw_bytes(D, (1,), rounds, giant_pass + _log_route_bytes(
            n31_engine.ctx.order, D, 1, 1, D, 1, _logged_tuples(D, 1),
            powers=False))
    run = globals()[method]
    with pytest.raises(MemoryBudgetExceededError):
        run(n31_engine, SampleParams(**dict(params.__dict__, budget_bytes=need - 1)))
    run(n31_engine, SampleParams(**dict(params.__dict__, budget_bytes=need)))
    tracemalloc.start()
    try:
        run(n31_engine, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert need / 2 <= peak <= need, (peak, need)


# Pinned from the engine that walked one giant step at a time: (records
# and provenances digest, iterations, found, duplicates, skipped,
# log_calls, digest of every discrete_log argument and answer).  The
# birthday_logtmto log_calls and answers were re-pinned when its K-table
# came to log only the 32 tuples with an odd exponent (records unchanged).
N31_PINS = {
    "random_log_sample": (
        "4f53cda18c2baa0c", 16, 0, 0, 16, 16, "2a66fd1c0bbe637c"),
    "birthday_logtmto": (
        "cdc992a232b072d9", 200, 39, 0, 0, 232, "bde4f2f9e0a1a36b"),
}


@pytest.mark.parametrize("method", sorted(N31_PINS))
def test_samplers_at_n31_are_pinned(n31_engine, method):
    engine = _Recorder(n31_engine)
    if method == "random_log_sample":
        res = random_log_sample(engine, SampleParams(
            w=5, D=4096, B=16, seed=31, max_iterations=16))
    else:  # a K = 64 table (one array call of 32), then one log per draw
        res = birthday_logtmto(engine, SampleParams(
            w=4, D=4096, B=10**6, K=64, seed=31, max_iterations=200))
    assert (
        _digest([(r.poly.exponents, r.provenance) for r in res.records]),
        res.iterations, res.found, res.duplicates, res.skipped,
        res.log_calls, _digest(engine.answers),
    ) == N31_PINS[method]


# Pinned from the sampler that drew one tuple at a time and kept its side
# tables as dicts of lists, for (P, w, D, B, max_iterations,
# progress_stride) at seed 41: (records and provenances digest,
# iterations, found, duplicates, progress events digest).  At w = 4 and 6
# the split is unbalanced, so the draws alternate between two tuple sizes;
# at w = 5 one shared table takes one draw per round.  P=8,4,3,2,0 at
# w = 5 stops early at B; P=2,1,0 at w = 6, D = 3 draws its 3-tuple side
# with bound C(3, 3) = 1, which takes no output of the generator; at
# w = 11, D = 20000 the bound C(20000, 5) exceeds 2^63.
BIRTHDAY_TMTO_PINS = {
    ("31,3,0", 4, 65536, 10**9, 20_000, 1024): (
        "2fa9e4ae938e8a10", 20000, 1, 0, "700c6229b5e86dbc"),
    ("31,3,0", 5, 65536, 10**9, 20_000, 1024): (
        "4f53cda18c2baa0c", 20000, 0, 0, "2a639295725b507e"),
    ("31,3,0", 6, 4096, 10**9, 20_000, 1024): (
        "c48d2e4a33794252", 20000, 1, 0, "b4b8e3c582c1b3e0"),
    ("16,5,3,2,0", 5, 200, 10**9, 20_000, 1024): (
        "b4eb8a647df010e3", 20000, 825, 1529, "f2d6886aaf2d6dab"),
    ("8,4,3,2,0", 4, 20, 10**9, 5_000, 97): (
        "95a42caa0e3522bc", 5000, 4, 3137, "f61bf0277af79638"),
    ("8,4,3,2,0", 5, 20, 20, 20_000, 97): (
        "1cd9550e7feef50b", 290, 20, 72, "535104e908afdbba"),
    ("8,4,3,2,0", 11, 20000, 10**9, 400, 97): (
        "f05e167b5996467b", 400, 358, 0, "d085deba3bae87ce"),
    ("2,1,0", 6, 3, 10**9, 500, 97): (
        "2f50f2083b918698", 500, 1, 658, "da8711e1ecd8cc73"),
}


@pytest.mark.parametrize("case", sorted(BIRTHDAY_TMTO_PINS))
def test_birthday_tmto_is_pinned(case):
    spec, w, D, B, rounds, stride = case
    res = birthday_tmto(make_context(parse_poly(spec)), SampleParams(
        w=w, D=D, B=B, seed=41, max_iterations=rounds, progress_stride=stride))
    assert (
        _digest([(r.poly.exponents, r.provenance) for r in res.records]),
        res.iterations, res.found, res.duplicates, _digest(res.events),
    ) == BIRTHDAY_TMTO_PINS[case]
