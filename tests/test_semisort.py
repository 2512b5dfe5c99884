"""Semisort and integer sort: correctness, parameters, restarts, traces."""

import hashlib
import importlib
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semipar.cli import gen_keys
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
    stable_argsort,
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
# integer-sort case has no trace.
PINNED_SEMISORT = [
    ("uniform", 4096, "aff58cc591bb8e8a1dc444c0542b4f9604444a1617652355c164b0378b23f283", 124871, 70, "7095780926078bd6d90fbd7724b8c3ac0ccaef919ace52e9c4989e00840bcba0", "a3ba96d4c2bbc10825fad767da72e6d4aa55d075215e6710e5c613ff88bf7c0a"),
    ("zipf", 4096, "8e34f62a98b14312aaeacd9b83ffdd1a4764d828e73a7a298bb9f51cc8fe887b", 116373, 110, "7e9b4c4bd34ba45666bf5cbc1e7bb7d423326712734979672c6a8bee302fd416", "e41d2c9e6d40a2f874628424081207464f4f1ca2206a026406487c9dba54a73f"),
    ("all_equal", 4096, "f58f596f446250e08dc32f0b30362f7ffea5d43cd3300779ac9149b7a0f5e22f", 36528, 68, "94c5cfe8af384ea47fbe387a392d4f2c342df75d1da72c750b8452c4f603c4c5", "459f576b6d60ff60609be229bf5f2f08d9f90d1b3038f591369f9463bcbc1078"),
    ("all_distinct", 4096, "f040e98b69d717a3309f8b1ff38238738f8a74541c29f848d3e62d88773f6e6a", 124879, 70, "3c5476689530be0b81d8930957c250e54e20a8c4c99c93832359efe744b33e01", "59e9c60d6a1a04dead77e0468c16946f6ace93dbb962e569d52bfd42a8ca49c4"),
    ("uniform", 16384, "416b27be0aee2c78b66b696e4d4fea5ecb37a4f32bd05ea95b734d1445124b0a", 500030, 80, "be224efbbb5add9b58bf1d0a41eb0315e399acf0153e874c918e9de9b7807dcf", "2af646efb5278c45af49f1319abe6a8418f95a15574f794afdaf9983e0c409dd"),
    ("zipf", 16384, "a5ac207ea2162044f5c626c665161fe9e1ba34b7c52e835089095f1bade1adaf", 447697, 127, "95cc8b288aaeae3fe45f5d7bd6a78d92c265dd7602752675a8f0700e4bacaa4f", "b5826900a8ed4676fa9f50bdc42a2421fae74bd80e481260de136bfebc81a9c8"),
    ("all_equal", 16384, "6ddb58425123e570e3eab71faf5a583666380190670cd1c112e96e2c83009527", 140999, 83, "a5652d98bca4bcf0abb2b14339e885593f27c70a3d23b62c660678417cf8a2ec", "8606c17d69ed0270665a344d0ff7eadc44191cd33bce15a24c731fcc5660b023"),
    ("all_distinct", 16384, "628a820b9688a312e3c7d835bd1f0980431f6792d66f632b2406f25982c366e0", 500126, 81, "206a5543a481be81487d5c3d7763016403a18279c2cd06bf5b2432aef3fa724f", "9bbdd9d07c90a309de86c00219fafa9c68ca21545bf36eaf13fa13beba37a865"),
    ("heavy_below_cutoff", 16384, "3ede93586d04c2f7d980100540ba923f60f2507839f7277384be1b8bbb737aed", 497810, 95, "bc68c2b0e94b679c0f96d96f303e18c25fbbc62e05bf2ef56136542908fb19e3", "d428891feac8a2f9162ec51d9c7d508756ccfe230b2b46bb22f12598a3823e7d"),
    ("intsort", 16384, "d1d9892332585822521155ecfba7e3ccac92bad5a922dd46b2d0694b8f149546", 565566, 94, "dda0cd9bca6f85e9ed36c148fda783f5fd6b43f41cbef0302c3eb934056d46b9", None),
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
