"""Semisort and integer sort: correctness, parameters, restarts, traces."""

import hashlib
import importlib
import json
import math
import multiprocessing
import os
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
from semipar.bounds import chernoff_lower
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
    assert p.B == (1 << 16) // 512
    assert p.d == 4
    assert p.round_cap == 95
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
    p = SemisortParams.for_n(1 << 16, c_alloc=3)
    assert f_alloc(16, p, 1 << 16) == pytest.approx(16 * (64 + math.sqrt(3840)), rel=1e-12)


@pytest.mark.parametrize("n", [1 << 10, 1 << 16, 1 << 20, 1 << 30])
def test_default_f_alloc_meets_the_failure_target(n):
    # f_alloc inverts the Chernoff lower tail: a target of f(s) records
    # yields a sample count of at most s with probability exactly n^-2 at
    # the default c_alloc, for every s, so n targets fail w.p. <= 1/n.
    p = SemisortParams.for_n(n)
    for s in (0, 1, 16, 1000):
        mu = p.p_s * f_alloc(s, p, n)
        assert chernoff_lower(mu, 1 - s / mu) == pytest.approx(float(n) ** -2, rel=1e-9, abs=0)


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
    # The default B's floors come to 2.6n to 3.3n slots on these n; the
    # budget is LIGHT_ARENA_BASE + 64n.
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
    # 3, 8 and 12 do here.  Joined side by side, the range and the buckets
    # after it charge what the call on buckets lo.. charges.
    sizes = np.array([0, 1, 2, 3, 2, 0, 2, 300, 2, 3, 2, 150, 2, 0])
    keys = generator(1, 9).integers(0, 120, size=int(sizes.sum()), dtype=np.uint64)
    whole_order, whole_attempts = rehash_buckets(keys, sizes, 2, 17, WorkMeter())
    assert np.flatnonzero(whole_attempts >= 2).tolist() == [3, 8, 12]
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    s0, s1 = bounds[lo], bounds[hi]
    meters = [WorkMeter() for _ in range(3)]
    order, attempts = rehash_buckets(keys[s0:s1], sizes[lo:hi], 2, 17, meters[0], lo)
    assert np.array_equal(order, whole_order[s0:s1] - s0)
    assert np.array_equal(attempts, whole_attempts[lo:hi])
    rehash_buckets(keys[s1:], sizes[hi:], 2, 17, meters[1], hi)
    rehash_buckets(keys[s0:], sizes[lo:], 2, 17, meters[2], lo)
    joined = WorkMeter()
    joined.join(meters[0], meters[1])
    assert (joined.phase_breakdown, joined.rounds) == (meters[2].phase_breakdown, meters[2].rounds)


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


def test_default_rehash_sort_fits_the_packed_word(monkeypatch):
    # The default B leaves the rehash sort's (bucket, hash) sums, packed
    # above their index, inside 64 bits at 2^21 keys, so it never takes
    # the lexsort or the stable argsort fallback.
    widths = []

    def recording_argsort(v):
        if len(v):
            widths.append(int(v.max()).bit_length() + (len(v) - 1).bit_length())
        return stable_argsort(v)

    def no_lexsort(*args, **kwargs):
        raise AssertionError("the rehash sort took the lexsort branch")

    data = gen_keys("uniform", 1 << 21, 5)
    with monkeypatch.context() as m:
        m.setattr(semisort_mod, "stable_argsort", recording_argsort)
        m.setattr(semisort_mod.np, "lexsort", no_lexsort)
        out, trace = semisort(data, seed=6)
    assert verify_semisort(data.keys, out) and trace.light_count == len(data)
    assert widths and max(widths) <= 64, widths


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


def test_empty_side_sort_keeps_its_label_and_no_rounds():
    # A side with no records (the light side when every key is heavy) sorts
    # nothing in no rounds; its 0-op label keeps the per-label work the same.
    meter = WorkMeter()
    empty = np.empty(0, np.int64)
    assert len(semisort_mod._sort_segment(empty, empty.view(np.uint64), meter, "light_sort")) == 0
    assert (meter.phase_breakdown, meter.rounds) == ({"light_sort": 0}, 0)


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


@pytest.mark.parametrize("n", [1 << 14, 1 << 16])
@pytest.mark.parametrize("dist", ["uniform", "zipf"])
def test_default_arena_stays_small(dist, n):
    # The default c_alloc sizes the arenas for failure <= 1/n, not more:
    # 6.2n to 6.5n slots in all on these inputs (15.7n at c_alloc = 3).
    data = gen_keys(dist, n, 11, 1.2)
    out, trace = semisort(data, seed=12)
    assert verify_semisort(data.keys, out)
    assert 0 < trace.allocated_space <= 11 * n


def test_min_alloc_slack_is_the_heavy_key_estimate_over_its_count():
    # Every record carries one key, so only the heavy side places, one
    # target of n records whose sample count is the sample's size.
    n, seed = 1 << 14, 5
    data = Records.from_keys(np.full(n, 9, np.uint64))
    out, trace = semisort(data, seed=seed)
    p = SemisortParams.for_n(n)
    sampled = int(np.count_nonzero(generator(derive(seed, 0), 1).random(n) < p.p_s))
    assert (trace.heavy_count, trace.restarts) == (n, 0)
    assert trace.min_alloc_slack == pytest.approx(f_alloc(sampled, p, n) / n, rel=1e-12)
    assert trace.min_alloc_slack > 1
    # Below small_n_cutoff nothing is placed.
    assert semisort(_random_records(1000, 50, 1))[1].min_alloc_slack == math.inf


def test_placement_rounds_is_the_deeper_side(monkeypatch):
    # Zipf keys place a heavy and a light side; the trace keeps the larger
    # of their round counts, at least d, and 0 when nothing is placed.
    real_place = semisort_mod.place
    rounds = []

    def spy(*args, **kwargs):
        res = real_place(*args, **kwargs)
        rounds.append(res.rounds_used)
        return res

    monkeypatch.setattr(semisort_mod, "place", spy)
    n = 1 << 14
    _, trace = semisort(gen_keys("zipf", n, 31, 1.2), seed=32)
    assert len(rounds) == 2 and trace.heavy_count and trace.light_count
    assert trace.placement_rounds == max(rounds) >= SemisortParams.for_n(n).d
    assert semisort(_random_records(1000, 50, 1))[1].placement_rounds == 0


@pytest.mark.parametrize("B", [None, 1000])
@pytest.mark.parametrize("dist", ["uniform", "zipf"])
def test_light_buckets_scale_with_the_light_records(dist, B):
    # B is the bucket count of an all-light input; a run with n_light light
    # records uses ceil(B n_light / n) buckets, so each expects n / B of
    # them whatever share is heavy.  A sorted light side uses none.
    n = 1 << 16
    params = SemisortParams.for_n(n, **({} if B is None else {"B": B}))
    data = gen_keys(dist, n, 7, 1.2)
    out, trace = semisort(data, params, seed=3)
    assert verify_semisort(data.keys, out)
    assert trace.light_buckets == len(trace.bucket_attempts)
    assert trace.light_buckets == -(-params.B * trace.light_count // n)
    if dist == "uniform":
        assert (trace.light_count, trace.light_buckets) == (n, params.B)
    else:
        assert 0 < 2 * trace.light_count < n
    assert semisort(gen_keys("all_equal", n, 7))[1].light_buckets == 0


def test_light_arena_per_light_record_holds_with_heavy_keys():
    # Zipf keys leave 30,514 of 2^16 records light.  Buckets scaled to them
    # expect the load of an all-light run, so their arena, and light_pack's
    # charge, stays near the 6.06 slots per record of uniform keys; B
    # buckets for them alone gave 9.43.
    n = 1 << 16
    meter = WorkMeter()
    _, trace = semisort(gen_keys("zipf", n, 7, 1.2), seed=3, meter=meter)
    assert trace.light_count == 30514
    assert meter.phase_breakdown["light_pack"] <= 7 * trace.light_count


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
    ("uniform", 4096, "73e7de3a5e52654207b9a0e0d79258ec764e4e8fb441d91076bcf4eef940b5d4", 85556, 61, "4bf419fde9e4059c71af59359884f713a7de52e3d55ec04e895473776564ef9b", "a08129c22a318265542f956d38009614fe528c486a90037d975e2cc73c62f92f"),
    ("zipf", 4096, "628fb682223f5b0af8bb2ed7eb52fe19cb162e1f63d8b2db7e67092f4298a5d8", 72027, 60, "19233caf579cddb3e497fad18e22a65575bab946ed209f10d64b158b31e05e1f", "1ebc630f0f0c917fd8d49c575385f2d9ffce043fe6d0681c1bd82325bf8fb4c4"),
    ("all_equal", 4096, "9626f8c29cd1627ef2da1490346ca55dde523e7661dd44ca6cd1aba9b6a197b3", 35057, 60, "4390384b931aff299f2481106b631d4f8599622dc3ddd58997545cbefaa2a435", "0a03772287013ae27c8ff9742144cc7bf9c8c63f2424ea0012c179bf34356551"),
    ("all_distinct", 4096, "f928c15e4af2377977d62feb0a1852fddce12b748d9eedf1406f21f6eff3a0cf", 85516, 61, "85419a0da236288936e76a112e9241329d20033984b3dfc0a3e8610183d78450", "ffe65f2bf395db84eda96c64bfbd13268337815ff9e30515445c5dc3f2470a00"),
    ("uniform", 16384, "19f221ce9b2ece8cc6576b2f81570c4ad64b808d560cb5d29497b1e7364b7417", 343102, 69, "32e34e8f13d023888a73f7ee1fd429dc4a4d4a520099c5bc78dbc7e737bd4728", "519d29b792ab45508e19b69e6f6432bb4a6616c8dc5949f997b503ebe515b63e"),
    ("zipf", 16384, "31702bb35af5ba859857bff69d10d2efd5062d792aed0e2d790e5e5df5628082", 266376, 68, "fc56a1b3d812940ee5dab787794ac619c9acbc576f00fa509a5c4f21ca55b58b", "ec4f6e3880634fb45ad9450ed0f0af345e1fa474e1ff908b9a781d7c87a19dda"),
    ("all_equal", 16384, "ae21ebd5c5025af7ac9aca26fe6032457a5dfc10cb7044ffd2376cce520f643f", 138170, 73, "4156cac1ab67b8235dd6738eff63eaf79c77e27518642189cdd17b112dbc3e04", "d130d81087dafadbad9e21f04812c6ed3b7da537de4725441294dd0ef597de1a"),
    ("all_distinct", 16384, "4df3e6e08e2a95e62634fd4391e577071ebaffb75bfc37b8439b3d51cad6ad65", 343080, 69, "6b92b226493234c5b505a5de0d96ac2e3af8e40b4263f181f5cc0f0df1860e50", "009ff1e2d1261cd67764be7052bade65774d4540252d74c30865bdcd5fa18689"),
    ("heavy_below_cutoff", 16384, "a350a26f43d9a2d2b146cac806a5d4f7c23b306b4dfdc17c394dc3d030568bfb", 340006, 71, "bc0612ee21eeb127096736c2b96bcae6ea26da058ebcc5f2a8abb1d6adbb31f3", "5d3ffa4f1ce808281d6a0c8a4c494628b00503469d86f25a314e633e48efaae4"),
    ("intsort", 16384, "bfe9fa4c4a187785cad1439450fc06aecfa7eb5edde01076731a59b61d61a241", 408638, 83, "6f8b74b701a85988282a3ac44ec63063d620ba2ae413ceb491436879acb97047", None),
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
    """``run(meter)`` inline (one CPU), then side by side (two CPUs, with
    FORK_MIN lowered to 1, so every fork whose smaller branch has an item
    goes to the helper unless a fork is in flight), each on a fresh meter.  Per path: what
    ``run`` returned, or the type of what it raised; the meter; and how many
    tasks went to the helper thread."""
    real_submit = ThreadPoolExecutor.submit
    paths = []
    for cpus in (1, 2):
        submits = []

        def counting_submit(self, *args, **kwargs):
            submits.append(1)
            return real_submit(self, *args, **kwargs)

        monkeypatch.setattr(parallel, "_cpus", lambda cpus=cpus: cpus)
        if cpus == 2:
            monkeypatch.setattr(parallel, "FORK_MIN", 1)
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
    # Zipf keys place both sides, so the second path uses the helper thread
    # for classification, the sides and the final pack; the light side's
    # forks run in turn beside the heavy side.  Output bytes, trace and the
    # meter (label order included) must not tell.
    data = gen_keys("zipf", n, 31, 1.2)
    (inline, m1, s1), (forked, m2, s2) = _both_paths(monkeypatch, lambda m: _digests(data, 32, m))
    assert (s1, s2) == (0, 3)
    assert inline == forked
    assert list(m1.phase_breakdown.items()) == list(m2.phase_breakdown.items())
    assert m1.rounds == m2.rounds


def test_semisort_rounds_take_the_deeper_side(monkeypatch):
    # Zipf keys place both sides, which run as the two branches of one fork:
    # rounds are those charged before the fork, then the deeper side's, then
    # the final pack's, on either path.  The sides' rounds never add.
    n = 1 << 14
    data = gen_keys("zipf", n, 31, 1.2)
    real = {f: getattr(semisort_mod, f) for f in ("_heavy_side", "_light_side", "fork_join")}

    def run(meter):
        sides, forks = {}, []

        def side(name):
            def wrapped(*args):
                out = real[name](*args)
                sides[name] = args[-1].rounds  # the branch's own meter
                return out

            return wrapped

        def fork_join(m, *args, **kwargs):
            start = m.rounds
            out = real["fork_join"](m, *args, **kwargs)
            if m is meter:
                forks.append((start, m.rounds))
            return out

        for name in ("_heavy_side", "_light_side"):
            monkeypatch.setattr(semisort_mod, name, side(name))
        monkeypatch.setattr(semisort_mod, "fork_join", fork_join)
        semisort(data, None, 32, meter)
        return sides["_heavy_side"], sides["_light_side"], forks

    paths = _both_paths(monkeypatch, run)
    assert [submits for _, _, submits in paths] == [0, 3]
    for (heavy, light, forks), meter, _ in paths:
        # The forks: classification, the sides, the final pack's gathers.
        _, (prefix, joined), (pack, packed) = forks
        assert min(heavy, light) > 0
        assert joined == prefix + max(heavy, light) < prefix + heavy + light
        assert pack == packed == joined
        assert meter.rounds == prefix + max(heavy, light) + ceil_log2(n)


@pytest.mark.parametrize("every_run", [False, True], ids=["first-run", "every-run"])
@pytest.mark.parametrize("side,stream", [("heavy", 2), ("light", 4)])
def test_semisort_side_timeout_matches_inline(side, stream, every_run, monkeypatch):
    # One side's placement times out after charging its rounds: on the first
    # run only, so semisort restarts once, or on every run, so it raises
    # RestartExceeded.  A sequential run never starts the light side after a
    # heavy timeout, so its work must not reach the meter either.  Each run
    # forks its classification and its sides, and the run that succeeds
    # forks its final pack too.
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
    assert s2 == 2 * runs + (0 if every_run else 3)
    assert inline == forked
    assert inline is RestartExceeded if every_run else inline[3] == 1
    assert list(m1.phase_breakdown.items()) == list(m2.phase_breakdown.items())
    assert m1.rounds == m2.rounds


@pytest.mark.parametrize("case", ["zipf", "all-heavy-intsort"])
def test_classify_halves_match_inline(case, monkeypatch):
    # The helper thread classifies the first half of the keys, each half in
    # two chunks.  Zipf keys then fork three times (classify, sides, final
    # pack); an integer sort of a few keys has no light side, so its sides
    # run in turn and only its classify and its final pack fork.  No byte,
    # label, work count or round may tell.
    n = 1 << 17
    if case == "zipf":
        data = gen_keys("zipf", n, 31, 1.2)
        run, submits = (lambda m: _digests(data, 32, m)), 3
    else:
        keys = generator(6, 6).integers(0, 9, size=n, dtype=np.uint64)

        def run(m):
            return _records_digest(integer_sort(Records.from_keys(keys), None, 4, m))

        submits = 2
    (inline, m1, s1), (forked, m2, s2) = _both_paths(monkeypatch, run)
    assert (s1, s2) == (0, submits)
    assert inline == forked
    assert list(m1.phase_breakdown.items()) == list(m2.phase_breakdown.items())
    assert m1.rounds == m2.rounds


def test_uniform_light_side_halves_match_inline(monkeypatch):
    # The helper thread hashes the first half of the light records, then
    # semisorts the first range of buckets, then packs it: uniform keys have
    # no heavy side, so these are the only three submits.  Neither the split
    # nor the thread may tell: no byte, attempt, label, work count or round
    # differs from the pinned run, which rehashed all buckets as one range.
    n = 1 << 14
    data = gen_keys("uniform", n, 31)
    (inline, m1, s1), (forked, m2, s2) = _both_paths(monkeypatch, lambda m: _digests(data, 32, m))
    assert (s1, s2) == (0, 3)
    assert inline == forked
    assert inline[2] == n
    assert list(m1.phase_breakdown.items()) == list(m2.phase_breakdown.items())
    assert m1.rounds == m2.rounds
    (_, _, out_digest, total_ops, rounds, work_digest, trace_digest), = (
        row for row in PINNED_SEMISORT if row[:2] == ("uniform", n)
    )
    assert inline[:2] == (out_digest, trace_digest)
    for m in (m1, m2):
        assert (m.total_ops, m.rounds) == (total_ops, rounds)
        assert _sha(json.dumps(m.phase_breakdown, sort_keys=True).encode()) == work_digest


def test_light_side_bucket_too_large_matches_inline(monkeypatch):
    # At K = 62 every bucket of three or more records is too large.  The
    # sizes are checked once, before the ranges start, so a forked run
    # raises the inline run's error, naming the largest of all buckets,
    # having charged the same and rehashed nothing.
    n = 1 << 14
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
    # of a sequential run.  Two nested forks of one-round leaves are one
    # round deep.
    def leaf(name):
        def branch(m):
            m.charge(name, len(name), 1)
            return name

        return branch

    def nested(tag):
        return lambda m: parallel.fork_join(m, leaf(tag + "1"), leaf(tag + "2"), 1)

    def run(m):
        return parallel.fork_join(m, nested("helper"), nested("caller"), 1)

    (inline, m1, s1), (forked, m2, s2) = _both_paths(monkeypatch, run)
    assert (s1, s2) == (0, 1)
    assert inline == forked == (("helper1", "helper2"), ("caller1", "caller2"))
    assert list(m1.phase_breakdown.items()) == list(m2.phase_breakdown.items())
    assert m1.rounds == m2.rounds == 1
    # The lock is free again: the next fork uses the helper thread.
    (_, _, s1), (_, _, s2) = _both_paths(monkeypatch, run)
    assert (s1, s2) == (0, 1)


def test_caller_threads_share_the_helper_without_queueing(monkeypatch):
    # More caller threads than CPUs semisort at once, with a short switch
    # interval and every fork whose smaller branch has an item asking for
    # the helper: only the caller holding the fork lock may hand the helper
    # a task, so it never holds two, and every answer and meter equals a
    # sequential run's.
    data = gen_keys("zipf", 1 << 14, 31, 1.2)

    def run(seed):
        m = WorkMeter()
        return _digests(data, seed, m), list(m.phase_breakdown.items()), m.rounds

    expect = [run(seed) for seed in range(6)]
    monkeypatch.setattr(parallel, "_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "FORK_MIN", 1)
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
    # Where every branch is below FORK_MIN items, uniform keys (no heavy
    # side) and an integer sort of a few distinct keys (no light side) fork
    # nothing: each must run with the helper thread unavailable, and each
    # must still place its one side.
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
    # With FORK_MIN lowered, the same sizes ask for the helper thread.
    monkeypatch.setattr(parallel, "FORK_MIN", 1)
    for keys in (data, gen_keys("zipf", n, 31, 1.2)):
        with pytest.raises(AssertionError, match="helper thread used"):
            semisort(keys, seed=32)


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
    # while the caller sorts the vertices (a counting sort, or the integer
    # sort where k >= n leaves many pieces); no field, label, work count or
    # round may tell which way it ran.
    g = generate(kind, n, m, 7)
    k = n + 3 if k is None else k

    def run(meter):
        return _reorganized_bytes(reorganize(g, cull_partition(g, k, 5, meter), 6, meter))

    (inline, m1, s1), (forked, m2, s2) = _both_paths(monkeypatch, run)
    assert s1 == 0
    # Each of reorganize's two forks submits once, and an integer sort
    # inside the first runs in turn; an edgeless graph forks at most in its
    # integer sort.
    if g.m:
        assert s2 == 2
    assert inline == forked
    assert list(m1.phase_breakdown.items()) == list(m2.phase_breakdown.items())
    assert m1.rounds == m2.rounds


def test_boosted_mis_side_by_side_matches_inline(monkeypatch):
    # The boosted MIS forks only inside reorganize (its vertices are grouped
    # by a counting sort, which never forks), and its answer must not tell
    # either.
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
    ok = verify_semisort(data.keys, semisort(data, seed=32)[0])
    sys.exit(0 if ok and parallel._helper[0] == os.getpid() else 1)


def test_forked_child_starts_its_own_helper(monkeypatch):
    # A forked child inherits the parent's executor but not its thread; a
    # task submitted to that executor would never run.  The parent must
    # have used its helper, and the child (which inherits the lowered
    # FORK_MIN) must start its own.
    monkeypatch.setattr(parallel, "_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "FORK_MIN", 1)
    real_submit, submits = ThreadPoolExecutor.submit, []

    def counting_submit(self, *args):
        submits.append(1)
        return real_submit(self, *args)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counting_submit)
    semisort(gen_keys("zipf", 1 << 14, 31, 1.2), seed=32)
    assert submits
    child = multiprocessing.get_context("fork").Process(target=_semisort_zipf_in_child)
    child.start()
    child.join(30)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0
