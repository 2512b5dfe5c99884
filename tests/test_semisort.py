"""Semisort and integer sort: correctness, parameters, restarts, traces."""

import hashlib
import importlib
import json
import math
import multiprocessing
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semipar import parallel
from semipar.cli import gen_keys
from semipar.graph import Graph, cull_partition, generate, reorganize
from semipar.graph_algos import boosted_mis, verify_mis
from semipar.meter import WorkMeter, ceil_log2
from semipar.placement import InvalidInstance, PlacementTimeout
from semipar.prng import derive, generator
from semipar.records import Records, is_semisorted
from semipar.semisort import (
    LIGHT_ARENA_BASE,
    LIGHT_ARENA_PER_RECORD,
    MAX_REHASH_ATTEMPTS,
    ArenaExceeded,
    BucketTooLarge,
    KeyOutOfRange,
    LightArenaExceeded,
    RehashExceeded,
    RestartExceeded,
    SemisortParams,
    f_alloc,
    _sort_by_bucket_and_hash,
    integer_sort,
    light_arena_floor,
    local_semisort,
    rehash_buckets,
    run_heads,
    segment_index,
    semisort,
    sorted_distinct,
    stable_argsort,
    verify_semisort,
)

semisort_mod = importlib.import_module("semipar.semisort")


def _random_records(n, key_range, seed):
    rng = generator(seed, 0)
    return Records.from_keys(rng.integers(0, max(key_range, 1), size=n, dtype=np.uint64))


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
    # Each of these would break placement: a zero-capacity bucket, or no
    # block or round to probe in.
    for bad in (
        dict(c_alloc=0.0), dict(c_alloc=-1.0), dict(c_alloc=math.inf), dict(c_alloc=math.nan),
        dict(alpha=math.inf), dict(alpha=math.nan), dict(d=0), dict(round_cap=0),
        # Integer fields take integral values only.
        dict(d=2.5), dict(B=10.5), dict(K=3.5), dict(round_cap=2.5), dict(K=True),
        # Upper limits that hold for every n.
        dict(K=63), dict(B=2**32 + 1), dict(d=2**32 + 1), dict(max_restarts=65),
        # A block places at most one record per round.
        dict(d=9, round_cap=8),
    ):
        with pytest.raises(ValueError):
            SemisortParams(p_s=0.5, tau=1, **bad)
        with pytest.raises(ValueError):
            SemisortParams.for_n(4096, **bad)
    # An integral float, as the CLI parses every --param value, is stored as int.
    p = SemisortParams.for_n(4096, K=4.0, d=np.float64(5.0), B=np.int64(7))
    assert (p.K, p.d, p.B) == (4, 5, 7)
    assert all(type(v) is int for v in (p.K, p.d, p.B))
    p = SemisortParams.for_n(4096, K=62, B=2**32, d=2**32, round_cap=2**32, max_restarts=64)
    assert (p.K, p.B, p.d, p.max_restarts) == (62, 2**32, 2**32, 64)


@st.composite
def _any_params(draw):
    """Every SemisortParams the constructor accepts, extremes included: a
    field it leaves unbounded is drawn unbounded, and the floats reach the
    smallest positive double and the largest finite one."""
    round_cap = draw(st.integers(min_value=1))
    return SemisortParams(
        p_s=draw(st.floats(0, 1, exclude_min=True)),
        tau=draw(st.integers(min_value=1)),
        alpha=draw(st.floats(min_value=2, allow_infinity=False)),
        c_alloc=draw(st.floats(min_value=0, exclude_min=True, allow_infinity=False)),
        K=draw(st.integers(3, 62)),
        B=draw(st.integers(1, 2**32)),
        d=draw(st.integers(1, min(round_cap, 2**32))),
        round_cap=round_cap,
        max_restarts=draw(st.integers(1, MAX_REHASH_ATTEMPTS)),
        small_n_cutoff=draw(st.integers()),
    )


# What a run with valid parameters may raise instead of answering.
NAMED_FAILURES = (
    ArenaExceeded, BucketTooLarge, InvalidInstance, RehashExceeded, RestartExceeded,
)


@given(
    _any_params(),
    st.sampled_from([1, 100, 4096]),
    st.sampled_from(["uniform", "zipf", "all_equal"]),
)
@settings(max_examples=60, deadline=timedelta(seconds=10))
def test_any_valid_params_answer_or_fail_by_name(params, n, dist):
    data = gen_keys(dist, n, 7, 1.2)
    try:
        out, _ = semisort(data, params, seed=3)
    except NAMED_FAILURES:
        return
    assert verify_semisort(data.keys, out)


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


def test_light_arena_budget_raises_before_allocating():
    # 2^32 light buckets at n = 4,096 would each get about 1,700 slots,
    # terabytes in all: the run must refuse them by name, fast and small.
    data = _random_records(4096, 4096, 3)
    params = SemisortParams.for_n(4096, B=1 << 32)
    assert light_arena_floor(params, 4096) > LIGHT_ARENA_BASE + LIGHT_ARENA_PER_RECORD * 4096
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(LightArenaExceeded, match="B=4294967296"):
            semisort(data, params, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5
    assert peak < 4 << 20


def test_default_params_stay_within_light_arena_budget():
    # Defaults give about 12n slots; the budget is LIGHT_ARENA_BASE + 64n.
    ns = {e + d for e in (1 << b for b in range(10, 21)) for d in (-1, 0, 1)}
    ns |= set(range(1 << 10, (1 << 20) + 1, 4999))
    for n in sorted(ns):
        floor = light_arena_floor(SemisortParams.for_n(n), n)
        assert floor <= LIGHT_ARENA_BASE + LIGHT_ARENA_PER_RECORD * n, n
        assert floor <= 13 * n, n


# ---------------------------------------------------------------------------
# Local semisort


def test_local_semisort_groups_keys():
    rng = generator(3, 1)
    c_b = Records.from_keys(rng.integers(0, 10, size=64, dtype=np.uint64))
    out, attempts = local_semisort(c_b, K=3, seed=5)
    assert verify_semisort(c_b.keys, out)
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
def test_rehash_buckets_accounting_identity(K, monkeypatch):
    # Hand-built buckets, empty and singleton ones included.  The first
    # attempt hashes every key to 0, so each bucket holding two distinct
    # keys collides and the retry path runs by construction.
    real_hash = semisort_mod.universal_hash_array
    calls = []

    def first_call_zero(g, keys):
        calls.append(len(keys))
        return np.zeros(len(keys), np.uint64) if len(calls) == 1 else real_hash(g, keys)

    monkeypatch.setattr(semisort_mod, "universal_hash_array", first_call_zero)
    sizes = np.array([0, 1, 2, 300, 0, 1, 2, 150, 3, 400, 257, 0])
    rng = generator(K, 9)
    keys = rng.integers(0, 120, size=int(sizes.sum()), dtype=np.uint64)
    keys[:50] += np.uint64((1 << 61) - 1)  # keys 2^61 - 1 apart, which multiply-shift keeps apart
    meter = WorkMeter()
    order, attempts = rehash_buckets(keys, sizes, K, 17, meter)

    multi = sizes >= 2
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    mixed = np.array([len(np.unique(keys[lo:hi])) > 1 for lo, hi in zip(bounds[:-1], bounds[1:])])
    assert np.all(attempts[~multi] == 1) and np.all(attempts >= 1)
    assert mixed.any() and np.all(attempts[mixed] >= 2) and len(calls) >= 2
    expected_work = int(((2 * K + 2) * sizes * attempts)[multi].sum()) + int((sizes == 1).sum())
    assert meter.phase_breakdown == {"local_semisort": expected_work}
    bucket_rounds = np.where(multi, (K + 2) * attempts, (sizes == 1).astype(np.int64))
    assert meter.rounds == bucket_rounds.max()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        seg = order[lo:hi]
        assert sorted(seg.tolist()) == list(range(lo, hi))
        assert is_semisorted(Records.from_keys(keys[seg]))


@pytest.mark.parametrize(
    "sizes,work,rounds", [([1, 0, 1], {"local_semisort": 2}, 1), ([0, 0], {}, 0)]
)
def test_rehash_buckets_without_attempts(sizes, work, rounds):
    # No bucket needs an attempt: the singletons' one round is charged with
    # their ops, and empty buckets charge neither work nor rounds.
    keys = np.arange(sum(sizes), dtype=np.uint64)
    meter = WorkMeter()
    order, attempts = rehash_buckets(keys, sizes, 3, 5, meter)
    assert meter.phase_breakdown == work and meter.rounds == rounds
    assert np.array_equal(order, np.arange(len(keys))) and np.all(attempts == 1)


@pytest.mark.parametrize("lo,hi", [(0, 14), (0, 4), (3, 10), (8, 14), (5, 5), (14, 14)])
def test_rehash_buckets_range_matches_the_whole_call(lo, hi):
    # Every hash function comes from (seed, attempt, bucket id), so buckets
    # lo..hi-1 under their own ids take the order and attempts they take in
    # the call on all buckets.  At K = 2 small buckets retry often: buckets
    # 3, 8 and 12 do here.
    sizes = np.array([0, 1, 2, 3, 2, 0, 2, 300, 2, 3, 2, 150, 2, 0])
    keys = generator(1, 9).integers(0, 120, size=int(sizes.sum()), dtype=np.uint64)
    whole_order, whole_attempts = rehash_buckets(keys, sizes, 2, 17, WorkMeter())
    assert np.flatnonzero(whole_attempts >= 2).tolist() == [3, 8, 12]
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    s0, s1 = bounds[lo], bounds[hi]
    order, attempts, failed = semisort_mod._rehash(keys[s0:s1], sizes[lo:hi], 2, 17, lo)
    assert np.array_equal(order, whole_order[s0:s1] - s0)
    assert np.array_equal(attempts, whole_attempts[lo:hi])
    assert failed == 0


def test_rehash_buckets_keeps_wrapped_buckets_apart(monkeypatch):
    # Four buckets of two equal keys at K = 62 have ranges 2^62 that total
    # 2^64, so the sort lexsorts.  Every hash value is 0, yet a bucket's
    # records must not collide with its neighbour's: one attempt each.
    monkeypatch.setattr(
        semisort_mod, "universal_hash_array", lambda g, keys: np.zeros(len(keys), np.uint64)
    )
    keys = np.repeat(np.arange(1, 5, dtype=np.uint64), 2)
    order, attempts = rehash_buckets(keys, np.full(4, 2), 62, 1, WorkMeter())
    assert np.array_equal(order, np.arange(8)) and np.all(attempts == 1)


@pytest.mark.parametrize("size,K_fits", [(2, 62), (3, 39), (5, 27)])
def test_rehash_buckets_hash_range_guard(size, K_fits, monkeypatch):
    # Tiny buckets with a large K reach the 2^63 range guard without a big
    # allocation: size^K_fits < 2^63 <= size^(K_fits + 1).  Each attempt
    # hashes into 2^l with l = ceil(log2(size^K)) exactly, up to l = 63.
    assert size**K_fits < 1 << 63 <= size ** (K_fits + 1)
    real_new, bits = semisort_mod.universal_new, []

    def recording_new(seed, m, ids):
        g = real_new(seed, m, ids)
        bits.extend(g.bits[ids == 1].tolist())
        return g

    monkeypatch.setattr(semisort_mod, "universal_new", recording_new)
    keys = np.arange(size + 1, dtype=np.uint64) << np.uint64(40)
    order, attempts = rehash_buckets(keys, np.array([1, size]), K_fits, 3, WorkMeter())
    assert sorted(order.tolist()) == list(range(size + 1))
    assert bits == [(size**K_fits - 1).bit_length()] * int(attempts[1])
    with pytest.raises(ValueError):
        rehash_buckets(keys, np.array([1, size]), K_fits + 1, 3, WorkMeter())


def test_sort_by_bucket_and_hash_splits_overflowing_ranges(monkeypatch):
    # Whichever path the sort takes, the order must equal a lexsort by
    # (bucket, hash).
    packed = []

    def recording_argsort(v):
        packed.append(int(v.max()).bit_length())
        return stable_argsort(v)

    monkeypatch.setattr(semisort_mod, "stable_argsort", recording_argsort)
    rng = generator(4, 4)
    ranges = rng.integers(1 << 62, 1 << 63, size=40, dtype=np.uint64)
    ranges[::7] = 5
    cases = [
        # Ranges near 2^62..2^63 total far beyond 2^64: lexsort.
        (ranges, rng.integers(0, 30, size=40)),
        # A total of exactly 2^64: the last inclusive sum wraps to 0, so lexsort.
        (np.array([1 << 63, 1 << 62, 1 << 62], np.uint64), np.array([9, 0, 12])),
        # A total of 2^64 - 2^61 fits: the packed sort, whose sums need all
        # 64 bits, so stable_argsort falls back.
        (np.array([1 << 63, 1 << 62, 1 << 61], np.uint64), np.array([9, 0, 12])),
    ]
    for ranges, sizes in cases:
        seg = np.repeat(np.arange(len(ranges)), sizes)
        h = (rng.integers(0, 1 << 63, size=len(seg), dtype=np.uint64) % ranges[seg])
        h[::3] = 0  # ties keep their input order
        expected = np.lexsort((h, seg))
        assert np.array_equal(_sort_by_bucket_and_hash(h.copy(), ranges, sizes), expected)
    assert packed == [64]


def test_segment_index_matches_loop():
    rng = generator(6, 6)
    starts = rng.permutation(200)[:40]  # out of order
    counts = rng.integers(0, 5, size=40)
    counts[::4] = 0
    for s, c in ((starts, counts), (starts[:0], counts[:0]), (np.array([7]), np.array([0]))):
        want = np.concatenate([np.arange(a, a + b) for a, b in zip(s, c)] + [np.arange(0)])
        got = segment_index(s, c)
        assert got.dtype == np.int64 and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Full semisort


@pytest.mark.parametrize("n", [0, 1, 2, 100, 1023, 1024, 5000, 50_000])
def test_semisort_sizes(n):
    data = _random_records(n, max(n // 4, 2), seed=n)
    out, trace = semisort(data, seed=n)
    assert verify_semisort(data.keys, out)
    assert trace.n == n


@pytest.mark.parametrize("n", [2, 100, 1023])
def test_semisort_below_cutoff_is_one_comparison_sort(n, monkeypatch):
    # Below small_n_cutoff semisort draws no hash table: it sorts once, with
    # the heavy and light sides' fallback charge of n * ceil(lg n).
    def no_tables(*args):
        raise AssertionError("tab_new called below small_n_cutoff")

    monkeypatch.setattr(semisort_mod, "tab_new", no_tables)
    data = _random_records(n, max(n // 4, 2), seed=n)
    meter = WorkMeter()
    out, _ = semisort(data, seed=n, meter=meter)
    assert verify_semisort(data.keys, out)
    assert meter.phase_breakdown == {"small_sort": n * ceil_log2(n)}
    assert meter.rounds == ceil_log2(n)


def test_semisort_all_equal_keys():
    data = Records.from_keys(np.full(20_000, 42, dtype=np.uint64))
    out, _ = semisort(data, seed=1)
    assert verify_semisort(data.keys, out)


def test_semisort_all_distinct_keys():
    rng = generator(8, 0)
    data = Records.from_keys(rng.permutation(1 << 20)[: 20_000].astype(np.uint64))
    out, _ = semisort(data, seed=2)
    assert verify_semisort(data.keys, out)


def test_semisort_keys_congruent_mod_hash_prime():
    # Keys i and i + 2^61 - 1 are distinct uint64 keys 2^61 - 1 apart, which
    # the multiply-shift rehash must keep apart; every pair must be grouped.
    i = np.arange(2048, dtype=np.uint64)
    data = Records.from_keys(np.concatenate([i, i + np.uint64((1 << 61) - 1)]))
    out, _ = semisort(data, seed=1)
    assert verify_semisort(data.keys, out)


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
    assert verify_semisort(data.keys, out)
    assert trace.heavy_count + trace.light_count == len(data)
    assert trace.allocated_space <= 60 * len(data)  # linear space, generous constant
    assert trace.restarts == 0


def test_semisort_restart_on_timeout():
    # A round cap of 1 forces placement timeouts; the restart budget must trip.
    data = _random_records(20_000, 20_000, seed=7)
    params = SemisortParams.for_n(20_000, d=1, round_cap=1)
    with pytest.raises(RestartExceeded):
        semisort(data, params, seed=3)


@given(st.lists(st.integers(0, 30), min_size=0, max_size=300))
@settings(max_examples=40, deadline=None)
def test_semisort_property(keys):
    data = Records.from_keys(np.array(keys, dtype=np.uint64))
    out, _ = semisort(data, seed=11)
    assert verify_semisort(data.keys, out)


# ---------------------------------------------------------------------------
# Integer sort


def test_integer_sort_matches_full_sort():
    rng = generator(12, 0)
    n = 30_000
    data = Records.from_keys(rng.integers(0, n, size=n, dtype=np.uint64))
    out = integer_sort(data, seed=13)
    assert verify_semisort(data.keys, out, sort=True)


def test_integer_sort_rejects_out_of_range():
    data = Records.from_keys(np.array([0, 5], dtype=np.uint64))
    with pytest.raises(KeyOutOfRange):
        integer_sort(data)


def test_integer_sort_empty():
    assert len(integer_sort(Records.empty())) == 0


def test_integer_sort_skips_pass_on_ascending_keys(monkeypatch):
    # Five keys at n = 2^14 are all heavy, and heavy keys are placed in key
    # order, so the semisorted keys already ascend: no stable sort runs, and
    # the pass is charged all the same.
    n = 1 << 14
    data = Records.from_keys(generator(5, 5).integers(0, 5, size=n, dtype=np.uint64))
    real_argsort, sorts = semisort_mod.stable_argsort, []

    def counting_argsort(v):
        sorts.append(len(v))
        return real_argsort(v)

    monkeypatch.setattr(semisort_mod, "stable_argsort", counting_argsort)
    meter = WorkMeter()
    out = integer_sort(data, seed=2, meter=meter)
    assert verify_semisort(data.keys, out, sort=True)
    assert n not in sorts
    assert meter.phase_breakdown["integer_sort_pass"] == 4 * n
    # Light keys come out of semisort unordered, so the pass sorts them.
    light = Records.from_keys(generator(6, 6).integers(0, n, size=n, dtype=np.uint64))
    assert verify_semisort(light.keys, integer_sort(light, seed=2), sort=True)
    assert n in sorts


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
    # On sorted input each run starts at its value's first occurrence.
    for v in (np.sort(x), np.sort(signed), x[:0]):
        run_starts = np.unique(v, return_index=True)[1]
        assert np.array_equal(np.flatnonzero(run_heads(v)), run_starts)


@given(st.lists(st.integers(0, 5), min_size=2, max_size=300), st.sampled_from([-1, 0]))
@settings(max_examples=80, deadline=None)
def test_stable_argsort_matches_numpy(gaps, past):
    # Few distinct values, so many ties.  The largest value either just fits
    # above the b index bits (past = -1) or needs one bit more (past = 0),
    # which takes the fallback path.
    b = (len(gaps) - 1).bit_length()
    top = (1 << (64 - b)) + past
    x = np.array([top - g for g in gaps], dtype=np.uint64)
    x[len(gaps) // 2] = top
    assert np.array_equal(stable_argsort(x), np.argsort(x, kind="stable"))
    small = x - np.uint64(top - 5)
    assert np.array_equal(stable_argsort(small), np.argsort(small, kind="stable"))


def test_stable_argsort_empty_and_signed():
    assert len(stable_argsort(np.empty(0, np.uint64))) == 0
    x = generator(6, 6).permutation(1000).astype(np.int64)
    assert np.array_equal(stable_argsort(x), np.argsort(x, kind="stable"))


# ---------------------------------------------------------------------------
# Pinned outputs

# Key seed 31 (zipf theta 1.2), semisort seed 32.  Output digest: sha256 of
# the little-endian keys then payloads; work digest: sha256 of the sorted-key
# JSON of the meter's per-label work; trace digest: sha256 of the JSON of
# [n, restarts, heavy_count, max_bucket_size, allocated_space,
# bucket_attempts].  "heavy_below_cutoff" has 512 heavy records, under the
# n / lg n cutoff, so its heavy side is sorted rather than placed; the
# integer-sort cases have no trace.  integer_sort's bytes depend only on the
# order of records within each key, not on the order semisort gives the
# keys, which below small_n_cutoff (the n = 1000 case) is a comparison sort's.
PINNED_SEMISORT = [
    ("uniform", 4096, "0fdc71becc7c251f2bb1269f876705f31b5b4ce15243b30d450963dfa34d961c", 124839, 71, "0d66d861183e7d3c6aaf0bb8e76ccd79ea672ee84ac6e686e0ca51c9dabed6cb", "215ac58ffd7bd4d48ab53f0b868b5c3d1cf55f60cc35953aacd9a60e52574d2b"),
    ("zipf", 4096, "3f6bbc3029ab33fe76f5a409b7a0380bdbd53ead0daf9b15d8587342c5f54bd1", 116324, 109, "5573c2ee148c995c74e065f41385490b83536a9f4f427f7b707d9c228058e2dc", "c3bec17e6bcbbfa9ca2078994306ef7c15814b467354b6c9d269a332a136d8eb"),
    ("all_equal", 4096, "f58f596f446250e08dc32f0b30362f7ffea5d43cd3300779ac9149b7a0f5e22f", 36528, 68, "94c5cfe8af384ea47fbe387a392d4f2c342df75d1da72c750b8452c4f603c4c5", "459f576b6d60ff60609be229bf5f2f08d9f90d1b3038f591369f9463bcbc1078"),
    ("all_distinct", 4096, "10bcd71ad1ca92da58a66bb41ee415ec76fc4c0aec60f7b12fbf93418f36e812", 124877, 70, "eaf23ece50b9ec2f51e4ac0fa3c36004e5fd8d6d68b29bdac10d02d2f6ba029f", "01d7f23905fbd60cf578305d6c17fe200f1c3f3caf3ef3ac9b97949a6d82e56e"),
    ("uniform", 16384, "c276beb59c4de263b049f592a302b24019aa1ea8391f3deec5da2e08eda7aa56", 500161, 80, "960f54f25b8ef9f3838de9e8b41d65db70d4b4129fe2086687634df0778907ee", "dd0b3f04503f654c07cbcb39c8ebef7db555a40bdb2d4f5737df52059bdd1803"),
    ("zipf", 16384, "30233ec5f64dc2524902648bfe810a6a18ad9bad6303141085d94d299b30b52b", 447718, 129, "606f6456d068c87f28cec2247616c5233226f577649a8ac8f83b26788b7d4694", "8459aed746317f8125106004dce948e273e79bd897913f02478e090889852e95"),
    ("all_equal", 16384, "6ddb58425123e570e3eab71faf5a583666380190670cd1c112e96e2c83009527", 140999, 83, "a5652d98bca4bcf0abb2b14339e885593f27c70a3d23b62c660678417cf8a2ec", "8606c17d69ed0270665a344d0ff7eadc44191cd33bce15a24c731fcc5660b023"),
    ("all_distinct", 16384, "da39ffe6e6b194b3732346a6df294e4bdb7c97bdd3f75bf68cd7bdd0261203cb", 500169, 81, "7ddd0f045fe5b53cb3230ceab19d7fba57041df1f933acaa03b0a0205b1e2ed4", "d1fff5fc5ddc1a7c4cbfd71e846634d117afd005a9d4856ae3cde1aed13da96a"),
    ("heavy_below_cutoff", 16384, "0dd5009c458d81afde56efe952853b8a332c2f1c7294ed4ed7e935279fd8d60e", 497934, 94, "ac72525ee9dc7873ac574d32ea4c8e9660f567e1af4b747b96d258da478c7e92", "76fee19459bcf114d9ea7d213b1cd099f4b84b0ef15776a110241a6254ac6fe5"),
    ("intsort", 16384, "1c3499f0ccde366a27d1afdce0c623e47d6dda2a3f2677e59af9840fbca963aa", 565697, 94, "7783f48393b22b4af89b2b4cd85aaf056add846de7867fdc4aef06a5b8334356", None),
    ("intsort", 1000, "29257b74f8bbed78e2374f55c2c1961d7bf0e0d0cdf3d32dca475d1d55885bf6", 14000, 20, "40e2e8c737f01f0599465dfb9d775588ae9afaa2b06f17c356896757303e449a", None),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _records_digest(r):
    return _sha(r.keys.astype("<u8").tobytes() + r.payloads.astype("<u8").tobytes())


def _trace_digest(t):
    fields = [t.n, t.restarts, t.heavy_count, t.max_bucket_size, t.allocated_space,
              t.bucket_attempts.tolist()]
    return _sha(json.dumps(fields).encode())


def _pinned_input(case, n):
    if case == "heavy_below_cutoff":
        data = gen_keys("uniform", n, 31)
        data.keys[: n // 32] = 7
        return data
    return gen_keys("uniform" if case == "intsort" else case, n, 31, 1.2)


@pytest.mark.parametrize(
    "case,n,out_digest,total_ops,rounds,work_digest,trace_digest",
    PINNED_SEMISORT,
    ids=[f"{c[0]}-{c[1]}" for c in PINNED_SEMISORT],
)
def test_semisort_outputs_pinned(case, n, out_digest, total_ops, rounds, work_digest, trace_digest):
    data = _pinned_input(case, n)
    meter = WorkMeter()
    if case == "intsort":
        out = integer_sort(data, None, 32, meter)
    else:
        out, trace = semisort(data, None, 32, meter)
        assert _trace_digest(trace) == trace_digest
    assert _records_digest(out) == out_digest
    assert (meter.total_ops, meter.rounds) == (total_ops, rounds)
    assert _sha(json.dumps(meter.phase_breakdown, sort_keys=True).encode()) == work_digest


# ---------------------------------------------------------------------------
# Heavy and light sides side by side


def _both_paths(monkeypatch, run):
    """``run(meter)`` inline (one CPU), then side by side (two CPUs), each on
    a fresh meter.  Per path: what ``run`` returned, or the type of what it
    raised; the meter; and how many tasks went to the helper thread."""
    real_submit = ThreadPoolExecutor.submit
    paths = []
    for cpus in (1, 2):
        submits = []

        def counting_submit(self, *args, **kwargs):
            submits.append(1)
            return real_submit(self, *args, **kwargs)

        monkeypatch.setattr(parallel, "_cpus", lambda cpus=cpus: cpus)
        monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)
        meter = WorkMeter()
        try:
            result = run(meter)
        except Exception as exc:
            result = type(exc)
        paths.append((result, meter, len(submits)))
    return paths


def _digests(data, seed, meter):
    out, trace = semisort(data, None, seed, meter)
    return _records_digest(out), _trace_digest(trace), trace.light_count, trace.restarts


@pytest.mark.parametrize("n", [1 << 12, 1 << 14, 1 << 16])
def test_semisort_side_by_side_matches_inline(n, monkeypatch):
    # Zipf keys place both sides, so the second path uses the helper thread,
    # once for the sides and once for the final pack; output bytes, trace and
    # the meter (label order included) must not tell.
    data = gen_keys("zipf", n, 31, 1.2)
    (inline, m1, s1), (forked, m2, s2) = _both_paths(monkeypatch, lambda m: _digests(data, 32, m))
    assert (s1, s2) == (0, 2)
    assert inline == forked
    assert list(m1.phase_breakdown.items()) == list(m2.phase_breakdown.items())
    assert m1.rounds == m2.rounds


@pytest.mark.parametrize("every_run", [False, True], ids=["first-run", "every-run"])
@pytest.mark.parametrize("side,stream", [("heavy", 2), ("light", 4)])
def test_semisort_side_timeout_matches_inline(side, stream, every_run, monkeypatch):
    # One side's placement times out after charging its rounds: on the first
    # run only, so semisort restarts once, or on every run, so it raises
    # RestartExceeded.  A sequential run never starts the light side after a
    # heavy timeout, so its work must not reach the meter either.  Each run
    # forks its sides, and the run that succeeds forks its final pack too.
    n, seed = 1 << 14, 32
    runs = SemisortParams.for_n(n).max_restarts + 1 if every_run else 1
    timed_out = {derive(derive(seed, r), stream) for r in range(runs)}
    real_place = semisort_mod.place

    def timing_out(inst, round_cap, s, *args, **kwargs):
        res = real_place(inst, round_cap, s, *args, **kwargs)
        if s in timed_out:
            raise PlacementTimeout(res.rounds_used, 0, len(inst.targets))
        return res

    monkeypatch.setattr(semisort_mod, "place", timing_out)
    data = gen_keys("zipf", n, 31, 1.2)
    (inline, m1, _), (forked, m2, s2) = _both_paths(monkeypatch, lambda m: _digests(data, seed, m))
    assert s2 == runs + (0 if every_run else 2)
    assert inline == forked
    assert inline is RestartExceeded if every_run else inline[3] == 1
    assert list(m1.phase_breakdown.items()) == list(m2.phase_breakdown.items())
    assert m1.rounds == m2.rounds


@pytest.mark.parametrize("case", ["zipf", "all-heavy-intsort"])
def test_classify_halves_match_inline(case, monkeypatch):
    # From FORK_MIN records the helper thread classifies the first
    # half of the keys.  Zipf keys then fork three times (classify, sides,
    # final pack); an integer sort of a few keys has no light side, so only
    # its classify forks.  No byte, label, work count or round may tell.
    n = semisort_mod.FORK_MIN
    if case == "zipf":
        data = gen_keys("zipf", n, 31, 1.2)
        run, submits = (lambda m: _digests(data, 32, m)), 3
    else:
        keys = generator(6, 6).integers(0, 9, size=n, dtype=np.uint64)

        def run(m):
            return _records_digest(integer_sort(Records.from_keys(keys), None, 4, m))

        submits = 1
    (inline, m1, s1), (forked, m2, s2) = _both_paths(monkeypatch, run)
    assert (s1, s2) == (0, submits)
    assert inline == forked
    assert list(m1.phase_breakdown.items()) == list(m2.phase_breakdown.items())
    assert m1.rounds == m2.rounds


def test_uniform_light_side_halves_match_inline(monkeypatch):
    # From FORK_MIN light records the helper thread hashes the first half of
    # the records, then semisorts the first range of buckets: uniform keys
    # have no heavy side, so these are the only two submits.  Neither the
    # split nor the thread may tell: no byte, attempt, label, work count or
    # round differs from a run as one range.
    n = semisort_mod.FORK_MIN
    data = gen_keys("uniform", n, 31)
    (inline, m1, s1), (forked, m2, s2) = _both_paths(monkeypatch, lambda m: _digests(data, 32, m))
    assert (s1, s2) == (0, 2)
    monkeypatch.setattr(semisort_mod, "FORK_MIN", n + 1)
    m3 = WorkMeter()
    assert inline == forked == _digests(data, 32, m3)
    assert inline[2] == n
    for m in (m1, m2):
        assert list(m.phase_breakdown.items()) == list(m3.phase_breakdown.items())
        assert m.rounds == m3.rounds


def test_light_side_splits_only_when_it_can_fork(monkeypatch):
    # Run inline, two ranges would cost two span sorts and two rehash passes
    # where one range does one, so the light side splits only when
    # fork_join would fork: on two CPUs, with no fork in flight.
    n = semisort_mod.FORK_MIN
    data = gen_keys("uniform", n, 31)
    B = SemisortParams.for_n(n).B
    real_rehash = semisort_mod._rehash
    ranges = []

    def counting(keys, sizes, *args):
        ranges.append(len(sizes))
        return real_rehash(keys, sizes, *args)

    monkeypatch.setattr(semisort_mod, "_rehash", counting)
    (inline, _, _), (forked, _, _) = _both_paths(monkeypatch, lambda m: _digests(data, 32, m))
    assert inline == forked
    assert ranges[0] == B and len(ranges) == 3 and sum(ranges[1:]) == B
    ranges.clear()
    monkeypatch.setattr(parallel, "_cpus", lambda: 2)
    in_branch, _ = parallel.fork_join(
        WorkMeter(), lambda m: _digests(data, 32, m), lambda m: None, True
    )
    assert in_branch == inline and ranges == [B]


def test_light_side_bucket_too_large_matches_inline(monkeypatch):
    # At K = 62 every bucket of three or more records is too large.  The
    # sizes are checked once, before the ranges start, so a forked run
    # raises the inline run's error, naming the largest of all buckets,
    # having charged the same and rehashed nothing.
    n = semisort_mod.FORK_MIN
    data = gen_keys("uniform", n, 31)
    params = SemisortParams.for_n(n, K=62)

    def run(m):
        with pytest.raises(BucketTooLarge) as err:
            semisort(data, params, 32, m)
        return str(err.value)

    (inline, m1, s1), (forked, m2, s2) = _both_paths(monkeypatch, run)
    assert (s1, s2) == (0, 1)  # the hashing halves only
    assert inline == forked
    assert "local_semisort" not in m1.phase_breakdown
    assert list(m1.phase_breakdown.items()) == list(m2.phase_breakdown.items())
    assert m1.rounds == m2.rounds


def test_fork_inside_a_branch_runs_inline(monkeypatch):
    # A fork asked for while another is in flight, from either thread, runs
    # its branches in turn on the thread that asked: it submits nothing, so
    # no branch waits for the helper, and the results and charges are those
    # of a sequential run.
    def leaf(name):
        def branch(m):
            m.charge(name, len(name), 1)
            return name

        return branch

    def nested(tag):
        return lambda m: parallel.fork_join(m, leaf(tag + "1"), leaf(tag + "2"), True)

    def run(m):
        return parallel.fork_join(m, nested("helper"), nested("caller"), True)

    (inline, m1, s1), (forked, m2, s2) = _both_paths(monkeypatch, run)
    assert (s1, s2) == (0, 1)
    assert inline == forked == (("helper1", "helper2"), ("caller1", "caller2"))
    assert list(m1.phase_breakdown.items()) == list(m2.phase_breakdown.items())
    assert m1.rounds == m2.rounds == 4
    # The lock is free again: the next fork uses the helper thread.
    (_, _, s1), (_, _, s2) = _both_paths(monkeypatch, run)
    assert (s1, s2) == (0, 1)


def test_caller_threads_share_the_helper_without_queueing(monkeypatch):
    # More caller threads than CPUs semisort at once, with a short switch
    # interval: only the caller holding the fork lock may hand the helper a
    # task, so it never holds two, and every answer and meter equals a
    # sequential run's.
    data = gen_keys("zipf", 1 << 14, 31, 1.2)

    def run(seed):
        m = WorkMeter()
        return _digests(data, seed, m), list(m.phase_breakdown.items()), m.rounds

    expect = [run(seed) for seed in range(6)]
    monkeypatch.setattr(parallel, "_cpus", lambda: 2)
    real_submit, lock, held, most = ThreadPoolExecutor.submit, threading.Lock(), [0], [0]

    def counting_submit(self, fn, *args):
        def task(*a):
            try:
                return fn(*a)
            finally:
                with lock:
                    held[0] -= 1

        with lock:
            held[0] += 1
            most[0] = max(most[0], held[0])
        return real_submit(self, task, *args)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)
    got = [None] * 6

    def caller(seed):
        got[seed] = run(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expect
    assert most[0] == 1


def test_one_sided_inputs_never_use_the_helper_thread(monkeypatch):
    # Below FORK_MIN records, uniform keys (no heavy side) and an integer
    # sort of a few distinct keys (no light side) fork nothing: each must run
    # with the helper thread unavailable, and each must still place its one
    # side.
    def no_helper(self, *args, **kwargs):
        raise AssertionError("helper thread used")

    real_place, placed = semisort_mod.place, []

    def counting_place(*args, **kwargs):
        placed.append(1)
        return real_place(*args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", no_helper)
    monkeypatch.setattr(parallel, "_cpus", lambda: 2)
    monkeypatch.setattr(semisort_mod, "place", counting_place)
    n = 1 << 14
    data = gen_keys("uniform", n, 5)
    assert verify_semisort(data.keys, semisort(data, seed=1)[0])
    keys = generator(5, 5).integers(0, 5, size=n, dtype=np.uint64)
    assert verify_semisort(keys, integer_sort(Records.from_keys(keys), seed=2), sort=True)
    assert len(placed) >= 2
    # Both sides placed: the helper thread is asked for.
    with pytest.raises(AssertionError, match="helper thread used"):
        semisort(gen_keys("zipf", n, 31, 1.2), seed=32)


def _reorganized_bytes(ro):
    """Every field of a ReorganizedGraph, the internal graph's arrays
    included, as (dtype, bytes)."""
    arrays = []
    for f in fields(ro):
        value = getattr(ro, f.name)
        arrays += [value.offsets, value.neighbors] if isinstance(value, Graph) else [value]
    return ro.internal.n, [(a.dtype.str, a.tobytes()) for a in arrays]


@pytest.mark.parametrize(
    "kind,n,m",
    [
        ("gnm", 4096, 1 << 14),
        ("power_law", 4096, 1 << 14),
        ("star", 4096, 0),
        ("path", 4096, 0),
        ("gnm", 4096, 600),  # mostly isolated vertices
        ("gnm", 4096, 0),  # edgeless, below the cutoff
        ("path", 300, 0),  # below the cutoff
    ],
)
@pytest.mark.parametrize("k", [1, 4, None], ids=["k=1", "k=4", "k>=n"])
def test_reorganize_side_by_side_matches_inline(kind, n, m, k, monkeypatch):
    # Above the cutoff, two CPUs classify the adjacency on the helper thread
    # while the caller integer-sorts the vertices; no field, label, work
    # count or round may tell which way it ran.
    g = generate(kind, n, m, 7)
    k = n + 3 if k is None else k

    def run(meter):
        return _reorganized_bytes(reorganize(g, cull_partition(g, k, 5, meter), 6, meter))

    (inline, m1, s1), (forked, m2, s2) = _both_paths(monkeypatch, run)
    assert s1 == 0
    assert s2 >= 1 if 2 * g.m >= SemisortParams.small_n_cutoff else s2 == 0
    assert inline == forked
    assert list(m1.phase_breakdown.items()) == list(m2.phase_breakdown.items())
    assert m1.rounds == m2.rounds


def test_boosted_mis_side_by_side_matches_inline(monkeypatch):
    # The boosted MIS forks only inside reorganize (its integer sort has no
    # light side), and its answer must not tell either.
    g = generate("gnm", 1 << 14, 1 << 16, 3)
    (inline, m1, s1), (forked, m2, s2) = _both_paths(
        monkeypatch, lambda m: boosted_mis(g, 4, 4, m).tobytes()
    )
    assert s1 == 0 and s2 >= 1
    assert inline == forked
    assert verify_mis(g, np.frombuffer(inline, dtype=bool))
    assert list(m1.phase_breakdown.items()) == list(m2.phase_breakdown.items())
    assert m1.rounds == m2.rounds


def test_import_starts_no_thread():
    code = "import threading, semipar; print(threading.active_count())"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1"


def _semisort_zipf_in_child():
    data = gen_keys("zipf", 1 << 14, 31, 1.2)
    sys.exit(0 if verify_semisort(data.keys, semisort(data, seed=32)[0]) else 1)


def test_forked_child_starts_its_own_helper(monkeypatch):
    # A forked child inherits the parent's executor but not its thread; a
    # task submitted to that executor would never run.
    monkeypatch.setattr(parallel, "_cpus", lambda: 2)
    semisort(gen_keys("zipf", 1 << 14, 31, 1.2), seed=32)
    child = multiprocessing.get_context("fork").Process(target=_semisort_zipf_in_child)
    child.start()
    child.join(30)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0
