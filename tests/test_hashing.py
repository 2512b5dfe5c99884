"""Hash families: vectorized paths match scalar oracles exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semipar.hashing import (
    PRIME,
    TabulationHash,
    detect_collision,
    tab_bucket,
    tab_hash,
    tab_hash_array,
    tab_new,
    universal_hash,
    universal_hash_array,
    universal_new,
)
from semipar.meter import ceil_log2

U64 = st.integers(0, (1 << 64) - 1)


def test_tab_new_rejects_bad_width():
    with pytest.raises(ValueError):
        tab_new(0, 0)
    with pytest.raises(ValueError):
        tab_new(0, 65)


def test_tab_new_deterministic_and_ranged():
    h1, h2 = tab_new(5, 16), tab_new(5, 16)
    assert np.array_equal(h1.tables, h2.tables)
    assert h1.tables.max() < 1 << 16
    assert not np.array_equal(tab_new(6, 16).tables, h1.tables)


@pytest.mark.parametrize("w,dtype", [(1, np.uint8), (8, np.uint8), (9, np.uint16),
                                     (16, np.uint16), (17, np.uint32), (33, np.uint64)])
def test_tab_tables_narrowest_dtype(w, dtype):
    h = tab_new(7, w)
    assert h.tables.dtype == dtype
    assert tab_hash_array(h, np.arange(5, dtype=np.uint64)).dtype == np.uint64


@given(st.lists(U64, min_size=1, max_size=64), st.integers(1, 64))
@settings(max_examples=50, deadline=None)
def test_tab_vectorized_matches_scalar(keys, w):
    h = tab_new(123, w)
    arr = np.array(keys, dtype=np.uint64)
    vec = tab_hash_array(h, arr)
    for k, v in zip(keys, vec):
        assert tab_hash(h, k) == int(v)
    assert np.array_equal(tab_hash_array(h, arr[::2]), vec[::2])


def test_tab_xor_structure():
    # h(x) ^ h(y) ^ h(x^y) ^ h(0) == 0 when x and y touch disjoint characters.
    h = tab_new(9, 64)
    x, y = 0x00000000FFFF0000, 0xFFFF000000000000
    assert (
        tab_hash(h, x) ^ tab_hash(h, y) ^ tab_hash(h, x ^ y) ^ tab_hash(h, 0)
    ) == 0


def test_tab_bucket_range_and_balance():
    n_buckets = 37
    h = tab_new(2, ceil_log2(n_buckets))
    keys = np.arange(100_000, dtype=np.uint64)
    b = tab_bucket(h, keys, n_buckets)
    assert b.min() >= 0 and b.max() < n_buckets
    counts = np.bincount(b, minlength=n_buckets)
    mean = len(keys) / n_buckets
    assert counts.max() < 2 * mean  # concentration at this load


@st.composite
def _keys_with_congruent_pairs(draw):
    """uint64 keys, each x below 2^64 - p followed by x + p (x = x + p mod p)."""
    keys = draw(st.lists(U64, min_size=1, max_size=32))
    return [k for x in keys for k in ([x, x + PRIME] if x + PRIME < 1 << 64 else [x])]


@given(_keys_with_congruent_pairs(), st.integers(1, 1 << 40))
@settings(max_examples=100, deadline=None)
def test_universal_vectorized_matches_scalar(keys, m):
    g = universal_new(7, m)
    arr = np.array(keys, dtype=np.uint64)
    vec = universal_hash_array(g, arr)
    for k, v in zip(keys, vec):
        assert universal_hash(g, k) == int(v)


def test_universal_batch_matches_single_draws():
    # Function i of a batch depends on (seed, ids[i]) alone, and per-key
    # parameter arrays hash each key with its own function.
    ids = np.array([0, 5, 2**40, 2**64 - 1], dtype=np.uint64)
    ranges = np.array([1, 10, 1 << 33, (1 << 63) - 1], dtype=np.uint64)
    batch = universal_new(11, ranges, ids)
    keys = np.array([3, (1 << 64) - 1, 12345 + PRIME, 1 << 32], dtype=np.uint64)
    hashed = universal_hash_array(batch.take(np.arange(4)), keys)
    for i in range(4):
        g = universal_new(11, int(ranges[i]), int(ids[i]))
        assert (int(g.a_hi), int(g.a_lo), int(g.b)) == (
            int(batch.a_hi[i]), int(batch.a_lo[i]), int(batch.b[i])
        )
        assert universal_hash(g, int(keys[i])) == int(hashed[i])
    # repeat(counts) lays the functions out as take() at the repeated ids.
    counts = np.array([2, 0, 1, 3])
    rep, taken = batch.repeat(counts), batch.take(np.repeat(np.arange(4), counts))
    for name in ("a_hi", "a_lo", "b", "m"):
        assert np.array_equal(getattr(rep, name), getattr(taken, name))


def test_universal_parameters_in_range():
    for seed in range(20):
        g = universal_new(seed, 100)
        assert 0 <= g.a_hi < PRIME and 0 <= g.a_lo < PRIME and 0 <= g.b < PRIME
        assert g.m == 100
    with pytest.raises(ValueError):
        universal_new(0, 0)


def test_universal_pairwise_collision_rate():
    # Empirical collision probability across fresh functions stays near 1/m,
    # also for keys congruent mod p, which a family over x mod p merges.
    m = 64
    for x, y in ((123456789, 987654321), (5, 5 + PRIME)):
        hits = sum(
            universal_hash(universal_new(s, m), x) == universal_hash(universal_new(s, m), y)
            for s in range(2000)
        )
        assert hits / 2000 < 3.0 / m


def test_detect_collision():
    h = np.array([1, 1, 2, 3], dtype=np.uint64)
    k_same = np.array([9, 9, 8, 7], dtype=np.uint64)
    k_diff = np.array([9, 5, 8, 7], dtype=np.uint64)
    assert detect_collision(h, k_same).tolist() == []
    assert detect_collision(h, k_diff).tolist() == [0]
    assert detect_collision(h[:1], k_same[:1]).tolist() == []
