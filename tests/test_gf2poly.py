import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowmult.errors import (
    DegreeOutOfRangeError,
    NotPrimitiveError,
    PolyParseError,
)
from lowmult.gf2poly import (
    SparsePoly,
    make_context,
    parse_poly,
    powers_bytes,
    random_primitive_poly,
    residue,
    verify_multiple,
)

F8 = make_context(parse_poly("3,1,0"))
F16 = make_context(parse_poly("4,1,0"))


def test_parse_exponent_list():
    assert parse_poly("3,1,0").exponents == (0, 1, 3)
    assert parse_poly(" 0 , 3 , 1 ").exponents == (0, 1, 3)


def test_parse_hex():
    assert parse_poly("0xB").exponents == (0, 1, 3)
    assert parse_poly("0x2000000000000201").exponents == (0, 9, 61)


def test_parse_xor_cancellation():
    assert parse_poly("1,1,0").exponents == (0,)
    assert parse_poly("5,5").exponents == ()


@pytest.mark.parametrize("bad", ["", "  ", "1,,2", "x^3+1", "-1,0", "0xZZ"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(PolyParseError):
        parse_poly(bad)


def test_sparse_poly_invariants():
    p = SparsePoly([0, 2, 5])
    assert p.weight() == 3 and p.degree() == 5 and p.has_constant_term()
    assert SparsePoly().degree() == -1 and SparsePoly().is_zero()
    with pytest.raises(ValueError):
        SparsePoly([3, 3])
    with pytest.raises(ValueError):
        SparsePoly([2, 1])


def test_make_context_examples():
    assert F8.n == 3 and F8.order == 7 and F8.factorization == [(7, 1)]
    assert F16.n == 4 and F16.order == 15
    assert F16.factorization == [(3, 1), (5, 1)]


def test_make_context_rejects_reducible():
    with pytest.raises(NotPrimitiveError):
        make_context(parse_poly("2,0"))  # (x+1)^2
    # x^2+x+1 is fine
    assert make_context(parse_poly("2,1,0")).n == 2


def test_make_context_rejects_irreducible_non_primitive():
    # x^4+x^3+x^2+x+1 is irreducible but x has order 5 < 15
    with pytest.raises(NotPrimitiveError):
        make_context(parse_poly("4,3,2,1,0"))


def test_make_context_degree_range():
    with pytest.raises(DegreeOutOfRangeError):
        make_context(parse_poly("1,0"))
    with pytest.raises(DegreeOutOfRangeError):
        make_context(parse_poly("64,1,0"))


def test_residue_examples():
    assert residue(parse_poly("3,1,0"), F8) == 0
    assert residue(SparsePoly([5]), F8) == 0b111  # x^5 = x^2 + x + 1
    assert residue(SparsePoly([0, 4, 5]), F8) == 0


def test_monomial_residue_examples():
    assert F8.monomial_residue(0) == 1
    assert F8.monomial_residue(7) == 1  # x^M = 1
    assert F16.monomial_residue(12) == 0b1111  # x^3+x^2+x+1


def test_fe_mul_examples():
    assert F8.mul(0b010, 0b100) == 0b011  # x * x^2 = x + 1
    assert F8.mul(0, 0b110) == 0
    # (x^2+1)^2 = x^12 = x^5 = x^2+x+1 (Frobenius squaring)
    assert F8.mul(0b101, 0b101) == 0b111


def test_fe_mul_algebra():
    rng = random.Random(0)
    for _ in range(200):
        a = rng.randrange(1 << F16.n)
        b = rng.randrange(1 << F16.n)
        c = rng.randrange(1 << F16.n)
        assert F16.mul(a, b) == F16.mul(b, a)
        assert F16.mul(F16.mul(a, b), c) == F16.mul(a, F16.mul(b, c))
        assert F16.mul(a, 1) == a
        # distributivity over XOR
        assert F16.mul(a ^ b, c) == F16.mul(a, c) ^ F16.mul(b, c)


def test_residue_is_xor_linear():
    rng = random.Random(1)
    for _ in range(50):
        a = SparsePoly.from_terms(rng.randrange(200) for _ in range(6))
        b = SparsePoly.from_terms(rng.randrange(200) for _ in range(6))
        assert residue(a ^ b, F16) == residue(a, F16) ^ residue(b, F16)


def test_monomial_residue_periodicity_and_product():
    rng = random.Random(2)
    for _ in range(100):
        i = rng.randrange(10**9)
        j = rng.randrange(10**9)
        assert F16.monomial_residue(i) == F16.monomial_residue(i % 15)
        assert F16.mul(
            F16.monomial_residue(i), F16.monomial_residue(j)
        ) == F16.monomial_residue(i + j)


@pytest.mark.parametrize("spec", ["3,1,0", "4,1,0", "8,4,3,2,0", "16,5,3,2,0"])
def test_power_map_bijective(spec):
    ctx = make_context(parse_poly(spec))
    seen = {ctx.monomial_residue(k) for k in range(ctx.order)}
    assert len(seen) == ctx.order
    assert 0 not in seen


def test_verify_multiple():
    assert verify_multiple(parse_poly("3,1,0"), F8, 3, 7)
    assert not verify_multiple(parse_poly("5,4,0"), F8, 3, 4)  # degree 5 > 4
    assert verify_multiple(parse_poly("6,2,0"), F8, 3, 7)
    assert not verify_multiple(SparsePoly(), F8, 3, 7)  # zero
    assert not verify_multiple(parse_poly("4,1"), F8, 3, 7)  # no constant term


def test_random_primitive_poly_is_primitive():
    rng = random.Random(7)
    for n in (5, 11, 18):
        p = random_primitive_poly(n, rng)
        assert p.degree() == n
        make_context(p)  # must not raise


def _shift_fold_mul(a: int, b: int, n: int, p_int: int) -> int:
    """a b mod P one bit of b at a time, from the top: shift the
    accumulator, fold x^n back by P, add a where the bit is set."""
    acc = 0
    for i in range(n - 1, -1, -1):
        acc <<= 1
        if acc >> n:
            acc ^= p_int
        if b >> i & 1:
            acc ^= a
    return acc


def _shift_fold_pow(a: int, e: int, n: int, p_int: int) -> int:
    out = 1
    while e:
        if e & 1:
            out = _shift_fold_mul(out, a, n, p_int)
        a = _shift_fold_mul(a, a, n, p_int)
        e >>= 1
    return out


def _reference_fold(p_int: int, n: int, k: int) -> list[int]:
    """(h << n) ^ ((h x^n) mod P) for h < 2^k, one bit of h at a time."""
    xpow, v = [], p_int ^ (1 << n)  # x^(n+i) mod P by repeated shifts
    for _ in range(k):
        xpow.append(v)
        v <<= 1
        if (v >> n) & 1:
            v ^= p_int
    out = []
    for h in range(1 << k):
        acc = h << n
        for i in range(k):
            if (h >> i) & 1:
                acc ^= xpow[i]
        out.append(acc)
    return out


@pytest.mark.parametrize("n", range(2, 64))
def test_reduction_tables_match_bitwise_reference(n):
    # the array field's one reduction table: the fold of g bits at x^n,
    # whose first 2^k entries serve mul_table's k-bit steps
    poly = random_primitive_poly(n, random.Random(n))
    fold = make_context(poly).batch.fold
    assert fold.dtype == np.uint64
    assert fold.tolist() == _reference_fold(poly.to_int(), n, min(8, 64 - n))


@pytest.mark.parametrize("n", range(2, 64))
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_kernel_matches_shift_and_fold(n, seed, data):
    # random primitive moduli carry about n / 2 terms, the dense case
    # that Barrett's reduction must handle as cheaply as a trinomial
    poly = random_primitive_poly(n, random.Random(seed))
    ctx, p_int = make_context(poly), poly.to_int()
    elem = st.sampled_from([0, 1, ctx.mask]) | st.integers(0, ctx.mask)
    a, b = data.draw(elem), data.draw(elem)
    assert ctx.mul(a, b) == _shift_fold_mul(a, b, n, p_int)
    assert ctx.sqr(a) == _shift_fold_mul(a, a, n, p_int)
    exps = data.draw(st.lists(st.integers(1, 2**64), min_size=1, max_size=4))
    assert ctx.pows(a, *exps) == [_shift_fold_pow(a, e, n, p_int)
                                  for e in exps]


@pytest.mark.parametrize("n", range(2, 64))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_mul_grid_equals_elementwise_mul(n, seed, data):
    # grid digit widths g = 8 up to n = 56, then 7 down to 1 at n = 57
    # to 63; the digits of a are a column slice of a longer stored block
    poly = random_primitive_poly(n, random.Random(seed))
    ctx = make_context(poly)
    field = ctx.batch
    elem = st.sampled_from([0, 1, ctx.mask]) | st.integers(0, ctx.mask)
    b = data.draw(st.lists(elem, min_size=1, max_size=1)
                  | st.lists(elem, min_size=2, max_size=6))
    w = data.draw(st.sampled_from([1]) | st.integers(2, 40))
    lo = data.draw(st.integers(0, 3))
    block = data.draw(st.lists(elem, min_size=lo + w, max_size=lo + w + 3))
    digits = field.digits(np.array(block, np.uint64))
    assert digits.shape == (-(-n // field.g), len(block))
    assert digits.dtype == np.uint8
    grid = field.mul_grid(np.array(b, np.uint64), digits[:, lo:lo + w])
    assert grid.dtype == np.uint64
    assert grid.tolist() == [ctx.mul(x, y) for x in b
                             for y in block[lo:lo + w]]


POWER_MODULI = {2: "2,1,0", 3: "3,1,0", 31: "31,3,0", 62: "62,6,5,3,0",
                63: "63,1,0"}
POWER_COUNTS = (1, 2, 15, 16, 17, 2**14 - 1, 2**14, 2**14 + 1,
                2**15 + 1, 2**16 + 3)


def _shift_and_fold(ctx, count):
    """x^0..x^(count-1) by the shift-and-fold chain of
    reference.brute_force_multiples."""
    p_int = ctx.poly.to_int()
    out, v = [], 1
    for _ in range(count):
        out.append(v)
        v <<= 1
        if (v >> ctx.n) & 1:
            v ^= p_int
    return out


@pytest.mark.parametrize("n", sorted(POWER_MODULI))
def test_powers_equal_an_independent_chain(n):
    # grid steps of 15 rows up to 4096 powers, then of up to 2^15
    # products, at least a row of 4096 columns, the last taking all the
    # rows left; g's chain is one scalar product per power
    ctx = make_context(parse_poly(POWER_MODULI[n]))
    g = ctx.pow(2, 12345)
    xs, gs = _shift_and_fold(ctx, max(POWER_COUNTS)), [1]
    while len(gs) < max(POWER_COUNTS):
        gs.append(ctx.mul(gs[-1], g))
    for count in POWER_COUNTS:
        got = ctx.powers(2, count)
        assert got.dtype == np.uint64 and got.tolist() == xs[:count]
        assert ctx.powers(g, count).tolist() == gs[:count]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 63), seed=st.integers(0, 2**16),
       count=st.integers(1, 3 * 2**14), data=st.data())
def test_powers_equal_pow_at_random(n, seed, count, data):
    ctx = make_context(random_primitive_poly(n, random.Random(seed)))
    g = data.draw(st.integers(1, ctx.mask))
    got = ctx.powers(g, count)
    for t in data.draw(st.lists(st.integers(0, count - 1), max_size=8)):
        assert int(got[t]) == ctx.pow(g, t)
    assert int(got[-1]) == ctx.pow(g, count - 1)


@pytest.mark.parametrize("count, spec", [
    pytest.param(count, spec,
                 id=f"{count}" + ("" if spec == "31,3,0" else f"-{spec}"))
    for spec in ("31,3,0", "56,7,4,2,0", "62,6,5,3,0", "63,1,0")
    for count in (4097, 2**15 + 1, 65537, 10**6)])
def test_powers_bytes_bound_the_traced_peak(count, spec):
    # the output and the work of the largest grid product: 15 rows up to
    # 3,840 products, then up to 2^15, and the digits of its columns,
    # ceil(n/g) bytes each: 4 at n = 31, 7 at n = 56, 31 at n = 62 and
    # 63 at n = 63, where the columns are capped (the bound is loosest
    # below 2^16 powers, where that product is smaller)
    ctx = make_context(parse_poly(spec))
    ctx.powers(2, count)
    tracemalloc.start()
    try:
        ctx.powers(2, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= powers_bytes(count) <= 2.5 * peak
    # later allocations beside the held output replace the freed work
    assert powers_bytes(count, 10**7) == count * 8 + 10**7


def test_powers_take_one_grid_product_a_step(monkeypatch):
    # 1 + 15 + 240 + 3840 powers in three steps of 15 rows, then the
    # 12,289 left as one step of 4 rows of 4096 columns: no step of a
    # single product
    ctx = make_context(parse_poly("31,3,0"))
    field, shapes = ctx.batch, []
    grid = field.mul_grid
    monkeypatch.setattr(field, "mul_grid", lambda b, d: shapes.append(
        (len(b), d.shape[1])) or grid(b, d))
    got = ctx.powers(ctx.pow(2, 12345), 16385)
    assert shapes == [(15, 1), (15, 16), (15, 256), (4, 4096)]
    assert int(got[-1]) == ctx.pow(2, 12345 * 16384)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 63), seed=st.integers(0, 2**16), data=st.data())
def test_pows_equal_pow(n, seed, data):
    ctx = make_context(random_primitive_poly(n, random.Random(seed)))
    a = data.draw(st.integers(1, ctx.mask))
    exps = data.draw(st.lists(st.integers(1, 2**64), min_size=1, max_size=6))
    assert ctx.pows(a, *exps) == [ctx.pow(a, e) for e in exps]


@pytest.mark.parametrize("spec", [
    "2,1,0", "7,1,0", "8,4,3,2,0", "9,4,0", "30,6,4,1,0", "43,6,4,3,0",
    "63,1,0",
])
def test_batch_square_table_equals_scalar_squares(spec):
    # built by linearity from single-bit squares: each entry is the
    # square of its byte at its position, bits past x^(n-1) cleared
    ctx = make_context(parse_poly(spec))
    want = [[ctx.sqr((b << 8 * j) & ctx.mask) for b in range(256)]
            for j in range(-(-ctx.n // 8))]
    assert ctx.batch.sq.dtype == np.uint64
    assert ctx.batch.sq.tolist() == want
