"""Semisort and integer sort: correctness, parameters, restarts, traces."""

import importlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semipar.meter import WorkMeter
from semipar.prng import generator
from semipar.records import Records, group_counts, is_semisorted, same_multiset
from semipar.semisort import (
    MAX_REHASH_ATTEMPTS,
    KeyOutOfRange,
    RehashExceeded,
    SemisortParams,
    f_alloc,
    _sort_by_bucket_and_hash,
    integer_sort,
    local_semisort,
    rehash_buckets,
    semisort,
    sorted_distinct,
)

semisort_mod = importlib.import_module("semipar.semisort")


def _random_records(n, key_range, seed):
    rng = generator(seed, 0)
    return Records.from_keys(rng.integers(0, max(key_range, 1), size=n, dtype=np.uint64))


def _assert_valid(inp, out):
    assert is_semisorted(out)
    assert same_multiset(inp, out)
    assert group_counts(out) == group_counts(inp)


# ---------------------------------------------------------------------------
# Parameters and the allocation function


def test_params_defaults():
    p = SemisortParams.for_n(1 << 16)
    assert p.p_s == 1 / 16
    assert p.tau == 32
    assert p.B == (1 << 16) // 256
    assert p.d == 16
    assert p.round_cap == 128
    assert p.K == 3


def test_params_validation():
    with pytest.raises(ValueError):
        SemisortParams(p_s=0.0, tau=1)
    with pytest.raises(ValueError):
        SemisortParams(p_s=0.5, tau=1, alpha=1.0)
    with pytest.raises(ValueError):
        SemisortParams(p_s=0.5, tau=1, K=2)


def test_f_alloc_value():
    # Closed form: s=16, c*log2(n)=48, p_s=1/16 gives 16*(64 + sqrt(3840)).
    p = SemisortParams.for_n(1 << 16)
    assert f_alloc(16, p, 1 << 16) == pytest.approx(16 * (64 + math.sqrt(3840)), rel=1e-12)


def test_f_alloc_monotone_and_oversized():
    p = SemisortParams.for_n(1 << 14)
    vals = [f_alloc(s, p, 1 << 14) for s in range(0, 200)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # f(s) always exceeds the naive estimate s / p_s.
    assert all(f_alloc(s, p, 1 << 14) > s / p.p_s for s in range(200))
    with pytest.raises(ValueError):
        f_alloc(-1, p, 1 << 14)


# ---------------------------------------------------------------------------
# Local semisort


def test_local_semisort_groups_keys():
    rng = generator(3, 1)
    c_b = Records.from_keys(rng.integers(0, 10, size=64, dtype=np.uint64))
    out, attempts = local_semisort(c_b, K=3, seed=5)
    _assert_valid(c_b, out)
    assert attempts >= 1


def test_local_semisort_singleton_and_empty():
    out, attempts = local_semisort(Records.from_keys(np.array([7], dtype=np.uint64)), 3, 0)
    assert len(out) == 1 and attempts == 1
    with pytest.raises(ValueError):
        local_semisort(Records.empty(), 3, 0)


def test_local_semisort_attempts_small():
    # With hash range m^3, each attempt succeeds with probability >= 1/2.
    total = 0
    for s in range(200):
        rng = generator(s, 2)
        c_b = Records.from_keys(rng.integers(0, 40, size=80, dtype=np.uint64))
        _, attempts = local_semisort(c_b, K=3, seed=s)
        total += attempts
    assert total / 200 < 2.0


def test_local_semisort_rehash_cap(monkeypatch):
    # A hash that sends every key to 0 makes every attempt collide.
    monkeypatch.setattr(
        semisort_mod, "universal_hash_array", lambda g, keys: np.zeros(len(keys), np.uint64)
    )
    c_b = Records.from_keys(np.array([5, 6], dtype=np.uint64))
    meter = WorkMeter()
    t0 = time.perf_counter()
    with pytest.raises(RehashExceeded):
        local_semisort(c_b, K=3, seed=1, meter=meter)
    assert time.perf_counter() - t0 < 1.0
    assert meter.rounds == MAX_REHASH_ATTEMPTS * (3 + 2)


@pytest.mark.parametrize("K", [2, 3])
def test_rehash_buckets_accounting_identity(K):
    # Hand-built buckets, empty and singleton ones included; K = 2 makes
    # retries common, so the retry path runs.
    sizes = np.array([0, 1, 2, 300, 0, 1, 2, 150, 3, 400, 257, 0])
    rng = generator(K, 9)
    keys = rng.integers(0, 120, size=int(sizes.sum()), dtype=np.uint64)
    keys[:50] += np.uint64((1 << 61) - 1)  # congruent to other keys mod p
    meter = WorkMeter()
    order, attempts = rehash_buckets(keys, sizes, K, 17, meter)

    multi = sizes >= 2
    assert np.all(attempts[~multi] == 1) and np.all(attempts >= 1)
    if K == 2:
        assert attempts.max() > 1
    expected_work = int(((2 * K + 2) * sizes * attempts)[multi].sum()) + int((sizes == 1).sum())
    assert meter.phase_breakdown == {"local_semisort": expected_work}
    bucket_rounds = np.where(multi, (K + 2) * attempts, (sizes == 1).astype(np.int64))
    assert meter.rounds == bucket_rounds.max()
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        seg = order[lo:hi]
        assert sorted(seg.tolist()) == list(range(lo, hi))
        assert is_semisorted(Records.from_keys(keys[seg]))


def test_sort_by_bucket_and_hash_splits_overflowing_ranges():
    # Ranges near 2^62..2^63 total far beyond 2^64, so the sort runs per
    # group of buckets; the order must equal a lexsort by (bucket, hash).
    rng = generator(4, 4)
    ranges = rng.integers(1 << 62, 1 << 63, size=40, dtype=np.uint64)
    ranges[::7] = 5
    sizes = rng.integers(0, 30, size=40)
    seg = np.repeat(np.arange(40), sizes)
    h = (rng.integers(0, 1 << 63, size=len(seg), dtype=np.uint64) % ranges[seg])
    h[::3] = 0  # ties keep their input order
    expected = np.lexsort((h, seg))
    assert np.array_equal(_sort_by_bucket_and_hash(h.copy(), ranges, seg), expected)


# ---------------------------------------------------------------------------
# Full semisort


@pytest.mark.parametrize("n", [0, 1, 2, 100, 1023, 1024, 5000, 50_000])
def test_semisort_sizes(n):
    data = _random_records(n, max(n // 4, 2), seed=n)
    out, trace = semisort(data, seed=n)
    _assert_valid(data, out)
    assert trace.n == n


def test_semisort_all_equal_keys():
    data = Records.from_keys(np.full(20_000, 42, dtype=np.uint64))
    out, _ = semisort(data, seed=1)
    _assert_valid(data, out)


def test_semisort_all_distinct_keys():
    rng = generator(8, 0)
    data = Records.from_keys(rng.permutation(1 << 20)[: 20_000].astype(np.uint64))
    out, _ = semisort(data, seed=2)
    _assert_valid(data, out)


def test_semisort_keys_congruent_mod_hash_prime():
    # Keys i and i + 2^61 - 1 are distinct uint64 keys equal modulo the prime
    # of the rehash family; every pair must still be grouped.
    i = np.arange(2048, dtype=np.uint64)
    data = Records.from_keys(np.concatenate([i, i + np.uint64((1 << 61) - 1)]))
    out, _ = semisort(data, seed=1)
    _assert_valid(data, out)


def test_semisort_deterministic():
    data = _random_records(30_000, 500, seed=4)
    out1, _ = semisort(data, seed=9)
    out2, _ = semisort(data, seed=9)
    assert np.array_equal(out1.keys, out2.keys)
    assert np.array_equal(out1.payloads, out2.payloads)


def test_semisort_trace_accounting():
    data = _random_records(40_000, 100, seed=5)
    meter = WorkMeter()
    out, trace = semisort(data, seed=6, meter=meter)
    _assert_valid(data, out)
    assert trace.total_work == meter.total_ops
    assert trace.rounds == meter.rounds
    assert trace.heavy_count + trace.light_count == len(data)
    assert trace.allocated_space <= 60 * len(data)  # linear space, generous constant
    assert trace.restarts == 0


def test_semisort_restart_on_timeout():
    # A round cap of 1 forces placement timeouts; the restart budget must trip.
    data = _random_records(20_000, 20_000, seed=7)
    params = SemisortParams.for_n(20_000, round_cap=1)
    from semipar.semisort import RestartExceeded

    with pytest.raises(RestartExceeded):
        semisort(data, params, seed=3)


@given(st.lists(st.integers(0, 30), min_size=0, max_size=300))
@settings(max_examples=40, deadline=None)
def test_semisort_property(keys):
    data = Records.from_keys(np.array(keys, dtype=np.uint64))
    out, _ = semisort(data, seed=11)
    _assert_valid(data, out)


# ---------------------------------------------------------------------------
# Integer sort


def test_integer_sort_matches_full_sort():
    rng = generator(12, 0)
    n = 30_000
    data = Records.from_keys(rng.integers(0, n, size=n, dtype=np.uint64))
    out = integer_sort(data, seed=13)
    assert np.array_equal(out.keys, np.sort(data.keys))
    assert same_multiset(data, out)


def test_integer_sort_rejects_out_of_range():
    data = Records.from_keys(np.array([0, 5], dtype=np.uint64))
    with pytest.raises(KeyOutOfRange):
        integer_sort(data)


def test_integer_sort_empty():
    assert len(integer_sort(Records.empty())) == 0


def test_integer_sort_charges_linear():
    work_per_n = []
    for n in (1 << 14, 1 << 16):
        rng = generator(n, 1)
        data = Records.from_keys(rng.integers(0, n, size=n, dtype=np.uint64))
        meter = WorkMeter()
        integer_sort(data, seed=n, meter=meter)
        work_per_n.append(meter.total_ops / n)
    assert work_per_n[1] <= 1.5 * work_per_n[0]


@given(st.lists(st.integers(0, 2**64 - 1), max_size=60), st.integers(0, 2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_sorted_distinct_matches_unique(values, mod):
    x = np.array([v % (mod + 1) for v in values], dtype=np.uint64)
    assert np.array_equal(sorted_distinct(x), np.unique(x))
    signed = x.astype(np.int64)
    assert np.array_equal(sorted_distinct(signed), np.unique(signed))
