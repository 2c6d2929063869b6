import contextlib
import hashlib
import io
import random
import struct
import tracemalloc
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
    # every prime tabulated at P=12,6,4,1,0; at P=10,3,0 the p=31 subgroup
    # by baby-step giant-step on an oversized 9-entry baby table
    for spec, threshold, baby in (("12,6,4,1,0", 100, None), ("10,3,0", 11, 9)):
        ctx = make_context(parse_poly(spec))
        eng = build_engine(ctx, threshold, bsgs_baby_entries=baby)
        path = tmp_path / "engine.bin"
        save_engine(eng, str(path))
        loaded = load_engine(str(path))
        assert loaded.ctx.poly == ctx.poly
        assert loaded.strategy_summary() == eng.strategy_summary()
        rng = random.Random(9)
        for _ in range(100):
            a = rng.randrange(1, 1 << ctx.n)
            assert loaded.discrete_log(a) == eng.discrete_log(a)
        elems = np.arange(1, 1 << ctx.n, dtype=np.uint64)
        assert np.array_equal(loaded.discrete_log(elems), eng.discrete_log(elems))
        # re-saving the loaded engine reproduces the file bit for bit
        path2 = tmp_path / "engine2.bin"
        save_engine(loaded, str(path2))
        assert path.read_bytes() == path2.read_bytes()


def _solver_offsets(eng):
    """Offsets of each solver's record (p, e, kind, m) in the engine's
    cache file; its m i64 exponents follow the record's 21 bytes."""
    off = 8 + 6 + 2 + 8 * len(eng.ctx.poly.exponents) + 4
    offsets = []
    for solver in eng.solvers:
        offsets.append(off)
        off += 21 + 8 * solver.sub.m
    return offsets, off


# sha256 of the version-2 cache files of P=16,5,3,2,0: each equals the
# version-1 file of the engine that enumerated each subgroup one scalar
# product at a time, with the version word set to 2 and the reserved
# words and the stored values taken out
CACHE_SHA256 = {
    None: "6c72cd243e1df32e48b3c5204f38108b74a942ab5534203c319e78a5927ba859",
    1: "22c97b2726526928019ee2536b37bba195b657066dfa6077b6a80f2b03317b5d",
}


@pytest.mark.parametrize("threshold", [None, 1])  # full tables, all BSGS
def test_cache_bytes_are_pinned(tmp_path, threshold):
    path = tmp_path / "engine.bin"
    eng = build_engine(make_context(parse_poly("16,5,3,2,0")), threshold)
    save_engine(eng, str(path))
    blob = path.read_bytes()
    assert hashlib.sha256(blob).hexdigest() == CACHE_SHA256[threshold]
    # the layout under the pin: each record, then the built table's exponents
    offsets, end = _solver_offsets(eng)
    for off, s in zip(offsets, eng.solvers):
        kind = 0 if s.sub.strategy == "table" else 1
        assert blob[off:off + 21] == struct.pack("<QIBQ", s.p, s.e, kind, s.sub.m)
        assert blob[off + 21:off + 21 + 8 * s.sub.m] == s.sub.idx.tobytes()
    assert blob[end:] == struct.pack("<I", zlib.crc32(blob[:end]))


def _version_1_cache(eng, path):
    """The engine's cache in the version-1 layout: two reserved words
    after the exponents, and each table's values before its exponents."""
    exps = eng.ctx.poly.exponents
    body = b"LWMENG1\x00" + struct.pack(
        f"<IHH{len(exps)}QQQI", 1, eng.ctx.n, len(exps), *exps, 0, 0,
        len(eng.solvers))
    for s in eng.solvers:
        kind = 0 if s.sub.strategy == "table" else 1
        body += struct.pack("<QIBQ", s.p, s.e, kind, s.sub.m)
        body += s.sub.vals.tobytes() + s.sub.idx.tobytes()
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def test_version_1_cache_exits_2_naming_its_version(tmp_path, capsys):
    eng = build_engine(make_context(parse_poly("16,5,3,2,0")))
    path = tmp_path / "engine.bin"
    _version_1_cache(eng, path)
    # the file the version-1 writer made, byte for byte
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "f161a75be265c43fdf4eb572b853c34097538377aa83c21243570596f55a32d1")
    message = "unsupported cache version 1; rebuild it with engine-build"
    with pytest.raises(ValueError, match=message):
        load_engine(str(path))
    code = main(["log", "--poly", "16,5,3,2,0", "--element", "0x3",
                 "--cache", str(path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cache_load_peaks_no_higher_than_a_build(tmp_path):
    # 2^17 - 1 is prime: one full table of 131,071 entries.  A build and a
    # load each hold its powers, an order and the sorted copy at once (the
    # load's order is its stored exponents); beside them the load keeps the
    # file's records, Python objects of well under 1 KiB.  The save copies
    # no table: it writes the engine's own exponent arrays
    spec = "17,3,0"
    path = str(tmp_path / "engine.bin")
    eng = build_engine(make_context(parse_poly(spec)))
    table_bytes = eng.solvers[0].sub.idx.nbytes
    assert table_bytes == 8 * 131071
    save_engine(eng, path)
    load_engine(path)  # the first call of each path is not the one traced
    build = _traced_peak(lambda: build_engine(make_context(parse_poly(spec))))
    load = _traced_peak(lambda: load_engine(path))
    assert 3 * table_bytes <= load <= build + 1024, (load, build)
    assert _traced_peak(lambda: save_engine(eng, path)) < table_bytes


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


def _crafted_cache(tmp_path, edit, spec="10,3,0", threshold=11):
    """Cache of an engine, by default the P=10,3,0 one (M = 3 * 11 * 31;
    3 and 11 tabulated, 31 by baby-step giant-step with 6 baby entries),
    with edit(body, solver_offsets) applied before a valid CRC is
    appended."""
    eng = build_engine(make_context(parse_poly(spec)), threshold)
    path = tmp_path / "engine.bin"
    save_engine(eng, str(path))
    body = bytearray(path.read_bytes()[:-4])
    body = edit(body, _solver_offsets(eng)[0])
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


def _exponent_edit(solver, change):
    """An edit of solver's stored exponents idx: change(idx) maps
    positions to their new values."""
    def edit(body, offs):
        start = offs[solver] + 21
        m = struct.unpack_from("<Q", body, start - 8)[0]
        new = change(np.frombuffer(body, "<i8", m, start))
        for j, value in new.items():
            struct.pack_into("<q", body, start + 8 * j, int(value))
        return body

    return edit


CRAFTED_CACHES = {
    "short-header": lambda body, offs: body[:14],  # magic, version, n only
    "kind-disagrees-with-size": _bsgs_flagged_as_table,
    "size-above-prime": _bsgs_table_size(32),
    "size-zero": _bsgs_table_size(0),
    # the p=11 table's first exponent, 0 -> 64
    "table-value-flipped": _exponent_edit(1, lambda idx: {0: idx[0] ^ 0x40}),
    "exponent-pair-swapped": _exponent_edit(1, lambda idx: {4: idx[5], 5: idx[4]}),
    "exponent-repeated": _exponent_edit(1, lambda idx: {1: idx[0]}),
    # the p=31 baby table's m = 6: in [0, p), not in [0, m)
    "baby-exponent-at-m": _exponent_edit(2, lambda idx: {3: 6}),
}


@pytest.mark.parametrize("case", sorted(CRAFTED_CACHES))
def test_cache_rejects_crafted_contents(tmp_path, case):
    with pytest.raises(ValueError):
        load_engine(_crafted_cache(tmp_path, CRAFTED_CACHES[case]))


@pytest.mark.parametrize(
    "case", ["short-header", "kind-disagrees-with-size", "table-value-flipped",
             "exponent-pair-swapped", "exponent-repeated", "baby-exponent-at-m"]
)
def test_cli_rejects_crafted_cache_with_exit_2(tmp_path, capsys, case):
    path = _crafted_cache(tmp_path, CRAFTED_CACHES[case])
    code = main(["log", "--poly", "10,3,0", "--element", "0x3", "--cache", path])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_swapped_exponents_of_a_large_table_exit_2(tmp_path, capsys):
    # two neighbouring exponents of the p=257 table of 2^16 - 1 = 3 * 5 *
    # 17 * 257 swapped, away from any sampled position: a load that
    # trusted them would give 2 * 255 of the 65,535 logs wrong
    eng = build_engine(make_context(parse_poly("16,5,3,2,0")))
    assert eng.strategy_summary()[3] == (257, 1, "table", 257)
    swap = _exponent_edit(3, lambda idx: {100: idx[101], 101: idx[100]})
    path = _crafted_cache(tmp_path, swap, "16,5,3,2,0", None)
    with pytest.raises(ValueError, match="prime 257"):
        load_engine(path)
    code = main(["log", "--poly", "16,5,3,2,0", "--element", "0x3",
                 "--cache", path])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


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
    exponent, solver count, then each solver's p, e, kind and table size."""
    eng = build_engine(make_context(parse_poly("10,3,0")), 11)
    path = tmp_path_factory.mktemp("cache") / "engine.bin"
    save_engine(eng, str(path))
    fields = [("<I", 8), ("<H", 12), ("<H", 14),
              ("<Q", 16), ("<Q", 24), ("<Q", 32), ("<I", 40)]
    for off in _solver_offsets(eng)[0]:
        fields += [("<Q", off), ("<I", off + 8), ("<B", off + 12),
                   ("<Q", off + 13)]
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
