from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowmult import tuples
from lowmult.tuples import (
    comb_table,
    enumerate_tuples,
    rank,
    tuple_array,
    unrank,
    unrank_combination,
)


def _reference(q, N):
    return np.array(list(enumerate_tuples(q, N)), np.int64).reshape(comb(N, q), q)


@settings(max_examples=80, deadline=None)
@given(q=st.integers(0, 5), N=st.integers(0, 40), data=st.data())
def test_blocks_concatenate_to_the_enumeration(q, N, data):
    # N < q holds no tuple, q = 0 the empty one; at most about 500 blocks
    total = comb(N, q)
    size = data.draw(st.integers(max(1, total // 500), total + 3), label="size")
    want = _reference(q, N)
    blocks = [tuple_array(q, N, lo, min(lo + size, total))
              for lo in range(0, total, size)]
    got = np.concatenate(blocks) if blocks else np.empty((0, q), np.int64)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert np.array_equal(tuple_array(q, N), want)


@pytest.mark.parametrize("chunk", [1, 7])
def test_tuple_array_unranks_a_chunk_at_a_time(monkeypatch, chunk):
    monkeypatch.setattr(tuples, "LOG_CHUNK", chunk)
    for q, N in ((0, 4), (1, 9), (2, 10), (3, 3), (4, 2), (3, 12)):
        want = _reference(q, N)
        assert np.array_equal(tuple_array(q, N), want)
        hi = min(17, len(want))
        assert np.array_equal(tuple_array(q, N, hi // 3, hi), want[hi // 3:hi])


@settings(max_examples=80, deadline=None)
@given(q=st.integers(0, 5), N=st.integers(0, 300), data=st.data())
def test_rank_inverts_unrank(q, N, data):
    total = comb(N, q)
    ranks = np.array(data.draw(st.lists(
        st.integers(0, max(total - 1, 0)), max_size=50 if total else 0)),
        np.int64)
    got = unrank(ranks, q, N, comb_table(N, q))
    assert got.shape == (len(ranks), q)
    assert rank(got, N).tolist() == ranks.tolist()


def test_rank_counts_the_enumeration():
    for q, N in ((0, 5), (1, 6), (2, 9), (3, 12), (5, 11)):
        assert rank(_reference(q, N), N).tolist() == list(range(comb(N, q)))


@settings(max_examples=40, deadline=None)
@given(N=st.integers(14_000, 20_000), data=st.data())
def test_unrank_matches_the_reference_where_the_table_is_cut(N, data):
    # C(N, 5) crosses 2^63 near N = 15,700: the 5-row of the table is cut
    # there, and every q whose ranks fit in int64 reads the rows it needs
    table = comb_table(N, 5)
    for q in range(1, 6):
        total = comb(N, q)
        if total >= 1 << 63:
            continue
        ranks = data.draw(st.lists(st.integers(0, total - 1), min_size=1,
                                   max_size=20) | st.just([0, total - 1]))
        got = unrank(np.array(ranks, np.int64), q, N, table)
        want = [unrank_combination(r, q, N) for r in ranks]
        assert list(map(tuple, got.tolist())) == want
        assert rank(got, N).tolist() == ranks


@pytest.mark.parametrize("N", [0, 7, 15_000, 20_000])
def test_comb_table_is_cut_before_2_to_the_63(N):
    table = comb_table(N, 5)
    assert len(table) == 5
    for r in range(1, 6):
        want = [comb(b, r) for b in range(N)]
        assert table[r - 1].dtype == np.int64
        assert table[r - 1].tolist() == [
            c if c < 1 << 63 else 2**63 - 1 for c in want]
