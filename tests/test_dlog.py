import contextlib
import hashlib
import io
import random
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowmult.cli import main
from lowmult.dlog import (
    build_engine,
    load_engine,
    predict_table_bytes,
    save_engine,
)
from lowmult.errors import (
    LogOfZeroError,
    MemoryBudgetExceededError,
    ZechUndefinedError,
)
from lowmult.gf2poly import make_context, parse_poly, random_primitive_poly
from lowmult.reference import brute_force_log

F8 = make_context(parse_poly("3,1,0"))
F16 = make_context(parse_poly("4,1,0"))
ENG8 = build_engine(F8)
ENG16 = build_engine(F16)


def test_discrete_log_examples():
    assert ENG8.discrete_log(1) == 0
    assert ENG8.discrete_log(0b011) == 3  # x^3 = x + 1
    assert ENG16.discrete_log(0b1001) == 14
    with pytest.raises(LogOfZeroError):
        ENG8.discrete_log(0)


def test_round_trip_exhaustive_small():
    for ctx, eng in ((F8, ENG8), (F16, ENG16)):
        for k in range(ctx.order):
            assert eng.discrete_log(ctx.monomial_residue(k)) == k


def test_log_of_product():
    rng = random.Random(5)
    ctx = make_context(parse_poly("11,2,0"))
    eng = build_engine(ctx)
    for _ in range(100):
        a = rng.randrange(1, 1 << ctx.n)
        b = rng.randrange(1, 1 << ctx.n)
        la, lb = eng.discrete_log(a), eng.discrete_log(b)
        assert eng.discrete_log(ctx.mul(a, b)) == (la + lb) % ctx.order


def test_prime_power_lifting():
    # 2^21 - 1 = 7^2 * 127 * 337 exercises the non-squarefree path
    ctx = make_context(parse_poly("21,2,0"))
    eng = build_engine(ctx)
    rng = random.Random(6)
    for _ in range(200):
        k = rng.randrange(ctx.order)
        assert eng.discrete_log(ctx.monomial_residue(k)) == k


def test_threshold_does_not_change_answers():
    ctx = make_context(parse_poly("14,12,11,1,0"))
    full = build_engine(ctx, 10**7)
    bsgs = build_engine(ctx, 1)
    assert {s for _, _, s, _ in full.strategy_summary()} == {"table"}
    assert {s for _, _, s, _ in bsgs.strategy_summary()} == {"bsgs"}
    rng = random.Random(7)
    for _ in range(300):
        a = rng.randrange(1, 1 << ctx.n)
        assert full.discrete_log(a) == bsgs.discrete_log(a)


def test_split_strategies_example():
    eng = build_engine(F16, 4)
    assert eng.strategy_summary() == [(3, 1, "table", 3), (5, 1, "bsgs", 3)]
    eng_full = build_engine(F8, 10**6)
    assert eng_full.strategy_summary() == [(7, 1, "table", 7)]


def test_engines_on_one_context_share_its_array_field():
    # 11 tabulated and 31 by BSGS in one engine, every prime in the other
    ctx = make_context(parse_poly("10,3,0"))
    engines = [build_engine(ctx, 11), build_engine(ctx)]
    assert {id(s.sub.batch) for e in engines for s in e.solvers} == {id(ctx.batch)}


def test_oversized_bsgs_tables():
    ctx = make_context(parse_poly("14,12,11,1,0"))
    eng = build_engine(ctx, 1, bsgs_baby_entries=4096)
    ref = build_engine(ctx)
    rng = random.Random(8)
    for _ in range(200):
        a = rng.randrange(1, 1 << ctx.n)
        assert eng.discrete_log(a) == ref.discrete_log(a)


def test_agrees_with_brute_force():
    ctx = make_context(parse_poly("10,3,0"))
    eng = build_engine(ctx)
    for a in range(1, 1 << ctx.n):
        assert eng.discrete_log(a) == brute_force_log(ctx, a)


def test_zech_examples():
    assert ENG8.zech_log(1) == 3
    assert ENG8.zech_log(2) == 6
    with pytest.raises(ZechUndefinedError):
        ENG8.zech_log(7)
    with pytest.raises(ZechUndefinedError):
        ENG8.zech_log(0)
    assert ENG8.zech_log(8) == ENG8.zech_log(1)  # argument taken mod M


def test_memory_prediction_and_budget():
    predicted = predict_table_bytes(F16, 10**6)
    assert predicted == (-(-3 * 4 // 3) + -(-5 * 4 // 3)) * 16
    with pytest.raises(MemoryBudgetExceededError):
        build_engine(F16, 10**6, max_table_bytes=16)


def test_default_plan_spills_huge_primes():
    ctx = make_context(random_primitive_poly(31, random.Random(1)))
    assert ctx.factorization == [(2147483647, 1)]
    plan = build_engine(ctx).strategy_summary()
    assert plan[0][2] == "bsgs"
    assert plan[0][3] == 46341  # ceil(sqrt(2^31 - 1))


def test_cache_round_trip(tmp_path):
    ctx = make_context(parse_poly("12,6,4,1,0"))
    eng = build_engine(ctx, 100)
    path = tmp_path / "engine.bin"
    save_engine(eng, str(path))
    loaded = load_engine(str(path))
    assert loaded.ctx.poly == ctx.poly
    rng = random.Random(9)
    for _ in range(100):
        a = rng.randrange(1, 1 << ctx.n)
        assert loaded.discrete_log(a) == eng.discrete_log(a)
    # re-saving the loaded engine reproduces the file bit for bit
    path2 = tmp_path / "engine2.bin"
    save_engine(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


# sha256 of the cache files of P=16,5,3,2,0, pinned from the engine that
# enumerated each subgroup one scalar product at a time; the threshold-1
# file was re-pinned when the header's knob words became reserved words
# written as 0 (it equals the earlier file with those 16 bytes zeroed)
CACHE_SHA256 = {
    None: "f161a75be265c43fdf4eb572b853c34097538377aa83c21243570596f55a32d1",
    1: "6f5e5f8ecfe812a6de043aac940458f75b0769c58d11fc88e14976a618496253",
}


@pytest.mark.parametrize("threshold", [None, 1])  # full tables, all BSGS
def test_cache_bytes_are_pinned(tmp_path, threshold):
    path = tmp_path / "engine.bin"
    save_engine(build_engine(make_context(parse_poly("16,5,3,2,0")), threshold),
                str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CACHE_SHA256[threshold]


def test_cache_with_nonzero_reserved_words_loads(tmp_path):
    # older writers stored the plan's threshold + 1 and baby size in the
    # reserved words: such a file loads, and its engine gives the same logs
    ctx = make_context(parse_poly("10,3,0"))
    eng = build_engine(ctx, 11, bsgs_baby_entries=9)
    path = tmp_path / "engine.bin"
    save_engine(eng, str(path))
    body = bytearray(path.read_bytes()[:-4])
    reserved = 8 + 6 + 2 + 8 * 3  # magic, version/n, exponent count, exponents
    assert body[reserved:reserved + 16] == bytes(16)
    struct.pack_into("<QQ", body, reserved, 11 + 1, 9)
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    loaded = load_engine(str(path))
    assert loaded.strategy_summary() == eng.strategy_summary()
    elems = list(range(1, 1 << ctx.n))
    assert [loaded.discrete_log(a) for a in elems] == [
        eng.discrete_log(a) for a in elems]
    assert loaded.discrete_log(np.array(elems, np.uint64)).tolist() == [
        brute_force_log(ctx, a) for a in elems]


def test_scalar_log_in_a_prime_order_group_takes_no_square(monkeypatch):
    # 2^17 - 1 is prime: the projection a^(M/q) is a itself
    ctx = make_context(parse_poly("17,3,0"))
    assert ctx.factorization == [(131071, 1)]
    eng = build_engine(ctx)
    want = [0, 1, 5, 99_999, ctx.order - 1]
    elems = [ctx.monomial_residue(k) for k in want]
    squares = []
    sqr = type(ctx).sqr

    def counting(ctx, a):
        squares.append(a)
        return sqr(ctx, a)

    monkeypatch.setattr(type(ctx), "sqr", counting)
    assert [eng.discrete_log(a) for a in elems] == want
    assert squares == []


def test_cache_rejects_corruption(tmp_path):
    eng = build_engine(F16)
    path = tmp_path / "engine.bin"
    save_engine(eng, str(path))
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_engine(str(path))


def _crafted_cache(tmp_path, edit):
    """Cache of the P=10,3,0 engine (M = 3 * 11 * 31; 3 and 11 tabulated,
    31 by baby-step giant-step with 6 baby entries), with edit(body,
    solver_offsets) applied before a valid CRC is appended."""
    eng = build_engine(make_context(parse_poly("10,3,0")), 11)
    path = tmp_path / "engine.bin"
    save_engine(eng, str(path))
    body = bytearray(path.read_bytes()[:-4])
    off = 8 + 6 + 2 + 8 * 3 + 16 + 4  # magic, version/n, exponents, knobs, count
    offsets = []
    for solver in eng.solvers:
        offsets.append(off)
        off += 21 + 16 * solver.sub.m
    body = edit(body, offsets)
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    return str(path)


def _bsgs_flagged_as_table(body, offs):
    body[offs[2] + 12] = 0  # kind byte of the p=31 solver, after p (Q), e (I)
    return body


def _bsgs_table_size(m):
    def edit(body, offs):
        struct.pack_into("<Q", body, offs[2] + 13, m)
        return body

    return edit


def _p11_value_flipped(body, offs):
    body[offs[1] + 21] ^= 0x40  # first value of the p=11 table: 1 -> 65
    return body


CRAFTED_CACHES = {
    "short-header": lambda body, offs: body[:14],  # magic, version, n only
    "kind-disagrees-with-size": _bsgs_flagged_as_table,
    "size-above-prime": _bsgs_table_size(32),
    "size-zero": _bsgs_table_size(0),
    "table-value-flipped": _p11_value_flipped,
}


@pytest.mark.parametrize("case", sorted(CRAFTED_CACHES))
def test_cache_rejects_crafted_contents(tmp_path, case):
    with pytest.raises(ValueError):
        load_engine(_crafted_cache(tmp_path, CRAFTED_CACHES[case]))


@pytest.mark.parametrize(
    "case", ["short-header", "kind-disagrees-with-size", "table-value-flipped"]
)
def test_cli_rejects_crafted_cache_with_exit_2(tmp_path, capsys, case):
    path = _crafted_cache(tmp_path, CRAFTED_CACHES[case])
    code = main(["log", "--poly", "10,3,0", "--element", "0x3", "--cache", path])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_rejects_a_cache_whose_modulus_is_reducible(tmp_path, capsys):
    def reducible(body, offs):  # 0,3,10 -> 0,5,10 = (0,1,2)^5
        struct.pack_into("<Q", body, 24, 5)
        return body

    path = _crafted_cache(tmp_path, reducible)
    with pytest.raises(ValueError, match="reducible"):
        load_engine(path)
    code = main(["log", "--poly", "10,3,0", "--element", "0x3", "--cache", path])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.fixture(scope="module")
def cache_file(tmp_path_factory):
    """The P=10,3,0 cache of _crafted_cache, its bytes and its header
    fields as (struct format, offset): version, n, exponent count, each
    exponent, solver count, then each solver's p, e, kind and table size.
    Not the two reserved words, which any value leaves valid."""
    eng = build_engine(make_context(parse_poly("10,3,0")), 11)
    path = tmp_path_factory.mktemp("cache") / "engine.bin"
    save_engine(eng, str(path))
    fields = [("<I", 8), ("<H", 12), ("<H", 14),
              ("<Q", 16), ("<Q", 24), ("<Q", 32), ("<I", 56)]
    off = 60
    for solver in eng.solvers:
        fields += [("<Q", off), ("<I", off + 8), ("<B", off + 12),
                   ("<Q", off + 13)]
        off += 21 + 16 * solver.sub.m
    return path, path.read_bytes(), fields


# a cache truncated at any length, with any one bit flipped, or with one
# header field rewritten to another value under a valid CRC
MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2**16)),
    st.tuples(st.just("flip"), st.integers(0, 2**16)),
    st.tuples(st.just("rewrite"), st.integers(0, 2**16),
              st.integers(0, 2**64 - 1)),
)


@settings(max_examples=200, deadline=None)
@given(mutation=MUTATIONS)
def test_every_damaged_cache_is_a_value_error_and_exit_2(cache_file, mutation):
    path, blob, fields = cache_file
    blob = bytearray(blob)
    kind, at = mutation[:2]
    if kind == "truncate":
        blob = blob[:at % len(blob)]
    elif kind == "flip":
        at %= 8 * len(blob)
        blob[at // 8] ^= 1 << at % 8
    else:
        fmt, off = fields[at % len(fields)]
        value = mutation[2] % (1 << 8 * struct.calcsize(fmt))
        if struct.unpack_from(fmt, blob, off)[0] == value:
            value ^= 1
        struct.pack_into(fmt, blob, off, value)
        blob[-4:] = struct.pack("<I", zlib.crc32(blob[:-4]))
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError):
        load_engine(str(path))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["log", "--poly", "10,3,0", "--element", "0x3",
                     "--cache", str(path)])
    assert code == 2
    assert err.getvalue().startswith("error: ")


@pytest.mark.parametrize("solver", [1, 2])  # p=11 tabulated, p=31 by BSGS
def test_subgroup_lookup_miss_raises_value_error(solver):
    eng = build_engine(make_context(parse_poly("10,3,0")), 11)
    sub = eng.solvers[solver].sub
    with pytest.raises(ValueError):
        sub.lookup(2)  # x has order 1023, outside the subgroup
    with pytest.raises(ValueError):  # also next to elements it finds
        sub.lookup_array(np.array([1, 2, 1], np.uint64))
