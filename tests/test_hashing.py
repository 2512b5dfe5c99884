"""Hash families: vectorized paths match scalar oracles exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semipar.hashing import (
    TAB_CHAR_BITS,
    TabulationHash,
    detect_collision,
    tab_bucket,
    tab_hash_array,
    tab_new,
    universal_hash_array,
    universal_new,
)
from semipar.meter import ceil_log2
from semipar.prng import generator

U64 = st.integers(0, (1 << 64) - 1)
# Keys congruent modulo this prime collide under any hash that first reduces
# keys mod p; multiply-shift must keep them apart.
P61 = (1 << 61) - 1


def tab_hash(h: TabulationHash, key: int) -> int:
    """Scalar oracle: XOR of the per-character table entries selected by ``key``."""
    out = 0
    mask = (1 << TAB_CHAR_BITS) - 1
    for i in range(h.c):
        out ^= int(h.tables[i, (int(key) >> (i * TAB_CHAR_BITS)) & mask])
    return out


def universal_hash(g, key: int) -> int:
    """Scalar oracle: multiply-shift (a*x mod 2^64) >> (64 - l) in Python ints."""
    return (int(g.a) * int(key) % 2**64) >> (64 - int(g.bits))


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


@pytest.mark.parametrize("n_buckets", [2, 3, 255, 256, 257, 2600, 65536, 65537, 1 << 20, (1 << 32) - 5])
def test_tab_bucket_matches_uint64_product(n_buckets):
    # The product is formed in uint32 up to w = 16 and in uint64 above; both
    # must equal the uint64 formula on the same tables, all-ones keys included.
    h = tab_new(n_buckets, ceil_log2(n_buckets))
    keys = generator(n_buckets, 3).integers(0, 1 << 64, size=5000, dtype=np.uint64)
    keys[:2] = [0, (1 << 64) - 1]
    hv = tab_hash_array(h, keys)
    expected = ((hv * np.uint64(n_buckets)) >> np.uint64(h.w)).astype(np.int64)
    assert np.array_equal(tab_bucket(h, keys, n_buckets), expected)


@st.composite
def _keys_with_congruent_pairs(draw):
    """uint64 keys, each x below 2^64 - p followed by x + p (x = x + p mod p)."""
    keys = draw(st.lists(U64, min_size=1, max_size=32))
    return [k for x in keys for k in ([x, x + P61] if x + P61 < 1 << 64 else [x])]


@given(_keys_with_congruent_pairs(), st.integers(1, 1 << 63))
@settings(max_examples=100, deadline=None)
def test_universal_vectorized_matches_scalar(keys, m):
    g = universal_new(7, m)
    arr = np.array(keys, dtype=np.uint64)
    vec = universal_hash_array(g, arr)
    for k, v in zip(keys, vec):
        assert universal_hash(g, k) == int(v) < 1 << int(g.bits)


def test_universal_batch_matches_single_draws():
    # Function i of a batch depends on (seed, ids[i]) alone, and per-key
    # parameter arrays hash each key with its own function.
    ids = np.array([0, 5, 2**40, 2**64 - 1], dtype=np.uint64)
    ranges = np.array([1, 10, 1 << 33, 1 << 63], dtype=np.uint64)
    batch = universal_new(11, ranges, ids)
    keys = np.array([3, (1 << 64) - 1, 12345 + P61, 1 << 32], dtype=np.uint64)
    hashed = universal_hash_array(batch, keys)
    for i in range(4):
        g = universal_new(11, int(ranges[i]), int(ids[i]))
        assert (int(g.a), int(g.shift)) == (int(batch.a[i]), int(batch.shift[i]))
        assert universal_hash(g, int(keys[i])) == int(hashed[i])
    # repeat(counts) lays function i out counts[i] times in a row.
    counts = np.array([2, 0, 1, 3])
    rep = batch.repeat(counts)
    for name in ("a", "shift"):
        assert np.array_equal(getattr(rep, name), np.repeat(getattr(batch, name), counts))


def test_universal_parameters_in_range():
    # Every multiplier is odd, for single draws and batches alike.
    for seed in range(20):
        g = universal_new(seed, 100)
        assert int(g.a) % 2 == 1 and int(g.bits) == 7
    batch = universal_new(3, 100, np.arange(5000, dtype=np.uint64))
    assert np.all(batch.a & np.uint64(1) == 1)
    assert len(np.unique(batch.a)) == 5000
    for bad in (0, (1 << 63) + 1):
        with pytest.raises(ValueError):
            universal_new(0, bad)


def test_universal_range_bits_exact():
    # l = ceil(log2 m) exactly at and just past every power of two, where a
    # float log2 would round m = 2^j + 1 down for j >= 53.
    j = np.arange(63, dtype=np.uint64)
    pow2 = np.uint64(1) << j
    assert np.array_equal(universal_new(1, pow2, j).bits, j)
    assert np.array_equal(universal_new(1, pow2 + np.uint64(1), j).bits, j + np.uint64(1))
    assert int(universal_new(1, 1 << 63).bits) == 63
    assert int(universal_new(1, 1).bits) == 0
    assert np.all(universal_hash_array(universal_new(1, 1), np.arange(9, dtype=np.uint64)) == 0)
    # The largest bucket whose K-th power stays below 2^63 hashes into 2^63.
    for K in (3, 4, 5):
        m_b = int(round(2 ** (63 / K)))
        while m_b**K >= 1 << 63:
            m_b -= 1
        assert (m_b + 1) ** K >= 1 << 63
        assert int(universal_new(1, m_b**K).bits) == 63


def test_universal_pairwise_collision_rate():
    # Over 2,000 fresh functions, keys x and x + d collide at most at the
    # multiply-shift bound 2^(1-l) plus four standard deviations of the
    # sampling error; d = p covers keys congruent mod 2^61 - 1.  Differences
    # 2^(64-l) and 2^63 move only the top l bits of a*x and never collide.
    trials = 2000
    x = 0x0123456789ABCDEF
    for bits in (4, 8):
        bound = 2.0 ** (1 - bits)
        slack = 4 * (bound * (1 - bound) / trials) ** 0.5
        for d in (1, 1 << 32, P61, 1 << (64 - bits), 1 << 63):
            pair = np.array([x, (x + d) % (1 << 64)], dtype=np.uint64)
            hits = 0
            for s in range(trials):
                h = universal_hash_array(universal_new(s, 1 << bits), pair)
                hits += int(h[0] == h[1])
            assert hits / trials <= bound + slack, (bits, d, hits)
            if d in (1 << (64 - bits), 1 << 63):
                assert hits == 0


def test_detect_collision():
    h = np.array([1, 1, 2, 3], dtype=np.uint64)
    k_same = np.array([9, 9, 8, 7], dtype=np.uint64)
    k_diff = np.array([9, 5, 8, 7], dtype=np.uint64)
    assert detect_collision(h, k_same).tolist() == []
    assert detect_collision(h, k_diff).tolist() == [0]
    assert detect_collision(h[:1], k_same[:1]).tolist() == []
