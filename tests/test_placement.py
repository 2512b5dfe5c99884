"""Randomized placement: injectivity, target ranges, caps, determinism."""

import hashlib
import json
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semipar import placement
from semipar.meter import WorkMeter
from semipar.placement import (
    EMPTY_SLOT,
    InvalidInstance,
    PlacementInstance,
    PlacementResult,
    PlacementTimeout,
    default_round_cap,
    place,
    verify_placement,
)
from semipar.prng import derive, generator, mix64_array


def _random_instance(n, n_targets, seed, alpha=2.0, d=1, slack=None):
    # Capacity ceil(slack * count), at least 1; slack defaults to alpha.
    rng = generator(seed, 1)
    targets = rng.integers(0, n_targets, size=n, dtype=np.int64)
    counts = np.bincount(targets, minlength=n_targets)
    caps = np.maximum(1, np.ceil((slack or alpha) * counts).astype(np.int64))
    return PlacementInstance(targets=targets, capacities=caps, alpha=alpha, d=d)


def _check_result(inst, res):
    n = len(inst.targets)
    assert verify_placement(inst, res)
    occupied = res.arena != EMPTY_SLOT
    assert occupied.sum() == n
    assert np.array_equal(np.sort(res.arena[occupied]), np.arange(n, dtype=np.uint64))


def test_basic_placement():
    inst = _random_instance(5000, 100, seed=3, d=12)
    res = place(inst, default_round_cap(5000), seed=4)
    _check_result(inst, res)


def test_single_target_single_record():
    inst = PlacementInstance(np.array([0]), np.array([2]))
    res = place(inst, 10, seed=0)
    _check_result(inst, res)


def test_empty_input():
    inst = PlacementInstance(np.empty(0, np.int64), np.array([4]))
    res = place(inst, 10, seed=0)
    assert res.rounds_used == 0 and res.probes == 0


def test_deterministic_replay():
    inst = _random_instance(2000, 64, seed=9, d=8)
    r1 = place(inst, default_round_cap(2000), seed=11)
    r2 = place(inst, default_round_cap(2000), seed=11)
    assert np.array_equal(r1.slot_of, r2.slot_of)
    assert r1.probes == r2.probes and r1.rounds_used == r2.rounds_used
    r3 = place(inst, default_round_cap(2000), seed=12)
    assert not np.array_equal(r1.slot_of, r3.slot_of)


@given(
    st.integers(1, 3000), st.integers(1, 80), st.integers(1, 16),
    st.booleans(), st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_slot_of_inverts_arena(n, n_targets, d, validate, seed):
    # Unvalidated instances get capacity 1.25 * count, below alpha * count.
    inst = _random_instance(n, n_targets, seed, d=d, slack=None if validate else 1.25)
    res = place(inst, 2000, seed=seed + 1, validate=validate)
    _check_result(inst, res)
    assert res.slot_of.dtype == np.int64
    assert np.array_equal(res.arena[res.slot_of], np.arange(n))


@given(
    st.integers(0, 3000), st.integers(1, 80), st.integers(1, 16), st.integers(0, 2**32),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_spans_concatenate_to_the_arena_order(n, n_targets, d, seed, data):
    # Spans of consecutive slot ranges, empty ones and ones past either end
    # of the arena included, laid end to end give the whole arena order.
    inst = _random_instance(n, n_targets, seed, d=d)
    res = place(inst, 2000, seed=seed + 1)
    size = inst.arena_size
    cuts = data.draw(st.lists(st.integers(-2, size + 2), max_size=6), label="cuts")
    bounds = [-3, *sorted(cuts), size + 3]
    spans = [res.span(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    assert np.array_equal(np.concatenate([o for o, _ in spans]), res.order)
    assert np.array_equal(np.concatenate([s for _, s in spans]), res.slots)
    assert len(res.order) == n and res.order.dtype == res.slots.dtype == np.int64


def test_span_reaches_the_end_of_a_64_bit_arena():
    # bits(arena_size - 1) + record bits = 64: the arena's end shifted above
    # the record bits is 2^64, past every claim word, and still bounds a span.
    top = 1 << 62
    claims = [np.array([(top - 3) << 2 | 3, (top - 1) << 2], dtype=np.uint64)]
    res = PlacementResult(1, 2, claims, 2, top)
    order, slots = res.span(top - 2, top)
    assert order.tolist() == [0] and slots.tolist() == [top - 1]
    assert res.order.tolist() == [3, 0] and res.slots.tolist() == [top - 3, top - 1]


def _tampered(res, order=None, slots=None):
    # A stand-in for res with its order or slots replaced: a PlacementResult
    # derives both from its claims, which cannot hold a tampered order.
    return SimpleNamespace(
        rounds_used=res.rounds_used, probes=res.probes, arena_size=res.arena_size,
        order=res.order if order is None else order,
        slots=res.slots if slots is None else slots,
    )


def _with(res, i, order=None, slot=None):
    # A copy of res whose position i holds another record or slot.
    order_, slots = res.order.copy(), res.slots.copy()
    if order is not None:
        order_[i] = order
    if slot is not None:
        slots[i] = slot
    return _tampered(res, order=order_, slots=slots)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda inst, res: _with(res, 1, order=res.order[0]),         # a record twice
        lambda inst, res: _with(res, 0, order=len(inst.targets)),    # index >= n
        lambda inst, res: _with(res, 0, order=-1),                   # index < 0
        lambda inst, res: _with(res, -1, slot=inst.arena_size),      # outside its range
        lambda inst, res: _tampered(                                 # slots not increasing
            res, order=res.order[[1, 0, *range(2, len(res.order))]],
            slots=res.slots[[1, 0, *range(2, len(res.slots))]]),
        lambda inst, res: _tampered(res, order=res.order[:-1]),     # short order
        lambda inst, res: _tampered(                                 # one record short
            res, order=res.order[:-1], slots=res.slots[:-1]),
    ],
    ids=["repeat", "index_n", "index_negative", "out_of_range", "not_increasing",
         "short_order", "short_both"],
)
def test_verify_placement_rejects_tampered_results(tamper):
    inst = _random_instance(500, 8, seed=3, d=5)
    res = place(inst, default_round_cap(500), seed=4)
    assert verify_placement(inst, res)
    assert not verify_placement(inst, tamper(inst, res))


def _reference_place(inst, round_cap, seed):
    # The round loop on a uint32 arena of record ids: a probe of an empty
    # slot writes its record, the last writer of a slot in block order wins,
    # and each record's slot is recorded as it claims one.
    n = len(inst.targets)
    arena = np.full(inst.arena_size, EMPTY_SLOT, dtype=np.uint32)
    slot_of = np.empty(n, dtype=np.int64)
    n_blocks = max(1, n // inst.d)
    ptr = np.arange(n_blocks, dtype=np.int64) * inst.d
    end = ptr + inst.d
    end[-1] = n
    key = np.uint64(derive(seed, 0x9A5E)) ^ (
        np.arange(n_blocks, dtype=np.uint64) << np.uint64(20)
    )
    caps = inst.capacities.astype(np.uint64)
    probes = rounds = 0
    while len(ptr) and rounds < round_cap:
        rounds += 1
        raw = mix64_array(key ^ np.uint64(rounds))
        t = inst.targets[ptr]
        slots = inst.offsets[t] + (raw % caps[t]).view(np.int64)
        empty = arena[slots] == EMPTY_SLOT
        arena[slots[empty]] = ptr[empty]
        slot_of[ptr[empty]] = slots[empty]
        ptr += arena[slots] == ptr
        probes += len(ptr)
        live = ptr < end
        ptr, end, key = ptr[live], end[live], key[live]
    if len(ptr):
        raise PlacementTimeout(rounds, n - int((end - ptr).sum()), n)
    return slot_of, arena, rounds, probes


@given(
    st.integers(1, 400), st.integers(1, 4), st.data(), st.integers(1, 60),
    st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_place_matches_reference_round_loop(n, n_targets, data, round_cap, seed):
    # Few targets at capacity ceil(2 * count) and blocks of up to n records
    # make many blocks probe one slot per round; small caps time out.
    d = data.draw(st.integers(1, n), label="d")
    inst = _random_instance(n, n_targets, seed, d=d)
    try:
        expected = _reference_place(inst, round_cap, seed + 1)
    except PlacementTimeout as exc:
        with pytest.raises(PlacementTimeout, match=re.escape(str(exc))):
            place(inst, round_cap, seed + 1)
        return
    res = place(inst, round_cap, seed + 1)
    assert np.array_equal(res.slot_of, expected[0])
    assert np.array_equal(res.arena, expected[1])
    assert (res.rounds_used, res.probes) == expected[2:]


def test_packing_limit_rejected_before_allocation():
    # 4 records need 2 index bits and 2^63 - 1 slots need 63 slot bits:
    # 65 > 64, so the instance is refused before any arena exists.
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInstance, match="64 bits"):
            PlacementInstance(np.zeros(4, np.int64), np.array([(1 << 63) - 1]))
        # Capacities whose sum wraps int64 are refused the same way.
        with pytest.raises(InvalidInstance, match="64 bits"):
            PlacementInstance(np.zeros(2, np.int64), np.array([1 << 62, 1 << 62]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # One bit less fits: 2 records, 2^63 - 1 slots.
    fits = PlacementInstance(np.zeros(2, np.int64), np.array([(1 << 63) - 1]))
    assert fits.arena_size == (1 << 63) - 1


def test_negative_capacity_rejected():
    with pytest.raises(InvalidInstance, match="non-negative"):
        PlacementInstance(np.array([0]), np.array([4, -1]))


@pytest.mark.parametrize("cap", [np.inf, np.nan, 2.0**63, -np.inf])
def test_float_capacity_without_int64_value_rejected(cap):
    # Checked before the cast, which would warn (an error under pytest's
    # settings) and give INT64_MIN.
    with pytest.raises(InvalidInstance, match=re.escape(f"capacity {cap} does not fit")):
        PlacementInstance(np.array([0]), np.array([4.0, cap]))


def test_integral_float_capacities_cast_exactly():
    floats = PlacementInstance(np.array([0, 1]), np.array([2.0, 3.0]))
    ints = PlacementInstance(np.array([0, 1]), np.array([2, 3]))
    assert floats.capacities.dtype == np.int64
    assert np.array_equal(floats.offsets, ints.offsets)


def test_place_memory_below_two_bytes_per_slot():
    # 2^16 records in a 2^22-slot arena: the round loop keeps one occupancy
    # byte per slot, where a uint32 arena of record ids alone takes 4.
    n, slots = 1 << 16, 1 << 22
    rng = generator(5, 2)
    targets = rng.integers(0, 64, size=n, dtype=np.int64)
    inst = PlacementInstance(targets, np.full(64, slots // 64), d=16)
    tracemalloc.start()
    try:
        res = place(inst, default_round_cap(n), seed=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.order) == n
    assert peak < 2 * slots, peak


def test_validation_rejects_undersized_capacity():
    inst = PlacementInstance(np.zeros(10, np.int64), np.array([19]))
    with pytest.raises(InvalidInstance):
        place(inst, 100, seed=0)
    # validate=False skips the check; with 19 slots for 10 records it still fits.
    res = place(inst, 1000, seed=0, validate=False)
    assert verify_placement(inst, res)


def test_validation_rejects_bad_target_id():
    inst = PlacementInstance(np.array([0, 5]), np.array([4]))
    with pytest.raises(InvalidInstance):
        inst.validate()


def test_record_limit_rejected(monkeypatch):
    # The uint32 arena holds record indices below EMPTY_SLOT; a lowered
    # limit stands in for the 2^32 - 1 records that would not fit in memory.
    monkeypatch.setattr(placement, "RECORD_LIMIT", 8)
    PlacementInstance(np.zeros(7, np.int64), np.array([14]))
    with pytest.raises(InvalidInstance, match="records"):
        PlacementInstance(np.zeros(8, np.int64), np.array([16]))


def test_non_1d_arrays_rejected():
    with pytest.raises(InvalidInstance):
        PlacementInstance(np.zeros((2, 3), np.int64), np.array([12]))
    with pytest.raises(InvalidInstance):
        PlacementInstance(np.zeros(3, np.int64), np.array([[6]]))


def test_alpha_below_two_rejected():
    with pytest.raises(InvalidInstance):
        PlacementInstance(np.array([0]), np.array([4]), alpha=1.5)
    # NaN compares False with 2; accepted, it let 3 records into 1 slot.
    with pytest.raises(InvalidInstance):
        PlacementInstance(np.array([0, 0, 0]), np.array([1]), alpha=float("nan"))


def test_block_size_below_one_rejected():
    with pytest.raises(InvalidInstance):
        PlacementInstance(np.array([0]), np.array([4]), d=0)


def test_timeout_raises():
    # One block, adversarially tight round cap.
    inst = _random_instance(4096, 32, seed=5, d=4096)
    with pytest.raises(PlacementTimeout):
        place(inst, 3, seed=6)


def test_rounds_scale_with_block_size():
    # A block retires at most one record per round, so rounds >= d for a
    # fully-loaded block and stay modest for d = ceil(log2 n).
    n = 1 << 12
    inst = _random_instance(n, 64, seed=7, d=12)
    res = place(inst, default_round_cap(n), seed=8)
    assert res.rounds_used >= 12
    assert res.rounds_used <= 8 * 12


def test_probe_charges_match_meter():
    inst = _random_instance(3000, 50, seed=1, d=10)
    meter = WorkMeter()
    res = place(inst, default_round_cap(3000), seed=2, meter=meter)
    assert meter.phase_breakdown["placement.probe"] == res.probes
    assert meter.rounds == res.rounds_used


def test_default_round_cap():
    assert default_round_cap(2) == 8
    assert default_round_cap(1 << 16) == 8 * 16


# ---------------------------------------------------------------------------
# Pinned outputs

# _random_instance arguments per case, all drawn with seed 41.  The last
# case has capacity 1.25 * count < alpha * count, so it runs unvalidated.
PIN_INSTANCES = {
    "d1": dict(n=3000, n_targets=50),
    "d_lg": dict(n=4096, n_targets=64, d=12),
    "d_above_n": dict(n=40, n_targets=4, d=100),
    "one_target": dict(n=1000, n_targets=1, d=10),
    "alpha3": dict(n=2000, n_targets=40, alpha=3.0, d=11),
    "tight_unvalidated": dict(n=1500, n_targets=30, d=11, slack=1.25),
}

# Placement seed 42, round cap 4 * default_round_cap(n).  Digests: sha256 of
# slot_of as little-endian int64; of the arena as little-endian int64 with
# EMPTY_SLOT read as -1; of the sorted-key JSON of the meter's per-label work.
PINNED_PLACEMENT = [
    ("d1", "afee3be3d0dd6faf04432830477d3a698e9084557a9c9e6c77783da9f3b5047e", "9ecd60e8d4e9f32a8e5e391f2b9f2b8465f1549958e3ba2399a43c8f3210b3fb", 9, 4129, "943885875055082590efbce888fc332eec539eca33297658f2da453a3fa003dc"),
    ("d_lg", "a127d217d12316a264e572cfae8c2cc046cab4b1b72232626cbbcbda8d3650bb", "4fd57f7e988b48e400d0d7bcf73ace034f61878b01f25c0b7c0fc18c70f2d20a", 30, 5631, "dab60b0488d8f28a0fc6a2fa924afc52a7b33204b4993a8b6ada0a586a15c6c0"),
    ("d_above_n", "3b4ffb58182a9aaceb7e096e0818211569160f0b5c3aa3bb33cd307f30151218", "a93cb049a8f49529c3fdc1b7638c0a54860ec12a0a1c0006fa4b02b159f2ce4b", 54, 54, "c6924c4ac50326b32988b6a33ac948bec0affb080927addda1bf31e9a936abd8"),
    ("one_target", "442717e650f9c94fa72835550c94e2859c1f564349d4361e209805f828c58ece", "5acca9bed428f4ba718ee9bd9f8c531d4879fbd3ff963325e27c5540e9b0da8b", 26, 1415, "eaed18f0c624265bc39a265960e33a86f23bfcffb99120dc634b4ea4b740bb25"),
    ("alpha3", "17669c69f217b5a5b9238038816e8c37f0e5f5ffd023a0680446f614d410f2b6", "622fbf8c309d789d5ed6cd9551395f459b242ac5360ef97ac07c6fae161dccf7", 25, 2438, "6a34e7b53028c995708070729f4906ba95e1bef9f461e1486de75a6357faacf0"),
    ("tight_unvalidated", "27b759a98174f0b6a394f80ba455a877c489c9b487828dbf28eeb7cc79473ae3", "f30cdb67a612466e11caf37dfd5a66a744e82f330a556330100f7ba3d2751753", 47, 2875, "09e3c5a21a60b2270d8ffe8f63d659f535737ed4a46de5bedc095c313a46c911"),
]

# case, round cap -> records placed when PlacementTimeout is raised.
PINNED_TIMEOUTS = [("d1", 3, 2880), ("d_lg", 10, 2795), ("d_above_n", 5, 5)]


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(a.astype("<i8").tobytes()).hexdigest()


@pytest.mark.parametrize(
    "case,slot_digest,arena_digest,rounds,probes,work_digest",
    PINNED_PLACEMENT,
    ids=[c[0] for c in PINNED_PLACEMENT],
)
def test_place_outputs_pinned(case, slot_digest, arena_digest, rounds, probes, work_digest):
    inst = _random_instance(seed=41, **PIN_INSTANCES[case])
    meter = WorkMeter()
    res = place(inst, 4 * default_round_cap(len(inst.targets)), seed=42, meter=meter,
                validate=case != "tight_unvalidated")
    arena = np.where(res.arena == EMPTY_SLOT, -1, res.arena.astype(np.int64))
    assert _sha(res.slot_of) == slot_digest
    assert _sha(arena) == arena_digest
    assert (res.rounds_used, res.probes) == (rounds, probes)
    work = json.dumps(meter.phase_breakdown, sort_keys=True).encode()
    assert hashlib.sha256(work).hexdigest() == work_digest


@pytest.mark.parametrize("case,round_cap,placed", PINNED_TIMEOUTS)
def test_place_timeout_reports_placed_count(case, round_cap, placed):
    inst = _random_instance(seed=41, **PIN_INSTANCES[case])
    with pytest.raises(PlacementTimeout, match=rf"\({placed}/{len(inst.targets)} placed\)"):
        place(inst, round_cap, seed=42)
