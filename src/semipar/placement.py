"""Randomized placement: inject records into slack-capacity target arrays.

Records carry a target id; each target owns a contiguous range of a shared
slot arena with capacity at least alpha >= 2 times its record count.  The
record array is split into size-d blocks; every round, each block with an
unplaced record probes one uniformly random slot of that record's target
and claims it if empty.  Claims are linearizable: when several blocks probe
the same slot in a round, exactly one wins, the last in block order.

A round sorts its probes by slot, so equal slots sit side by side and the
winner of each is the last of its run (the priority write of deterministic
reservations).  The loop keeps only a one-byte occupancy map of the arena
and appends each claim as a ``slot << rb | record`` word; a round's claims
ascend.  ``PlacementResult.span`` sorts the claims of one slot range into
the records in arena order, beside their slots, and ``order`` and ``slots``
are the span of the whole arena.  The probe and claim words need
bits(arena_size - 1) + bits(n - 1) <= 64, and ``PlacementInstance`` raises
``InvalidInstance`` beyond that.

``PlacementResult.arena`` is derived as ``uint32``: each slot holds a record
index, or ``EMPTY_SLOT`` (2^32 - 1) if vacant, so an instance holds fewer
than ``RECORD_LIMIT`` (2^32 - 1) records and ``PlacementInstance`` raises
``InvalidInstance`` beyond that too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .meter import WorkMeter, ceil_log2
from .prng import derive, mix64_array

EMPTY_SLOT = np.uint32(0xFFFFFFFF)
# Derived arena entries are uint32 record indices, which stay below EMPTY_SLOT.
RECORD_LIMIT = int(EMPTY_SLOT)


def _bits(x: int) -> int:
    """Bits of a non-negative x; 0 for x <= 0."""
    return max(x, 0).bit_length()


class InvalidInstance(ValueError):
    """An instance is malformed or a capacity falls short of alpha * count."""


class PlacementTimeout(RuntimeError):
    """Unplaced records remained after the round cap."""

    def __init__(self, rounds: int, placed: int, total: int):
        super().__init__(
            f"placement incomplete after {rounds} rounds ({placed}/{total} placed)"
        )
        self.rounds = rounds


@dataclass
class PlacementInstance:
    """Records-with-targets input: targets[i] names the target of record i."""

    targets: np.ndarray          # int target id per record
    capacities: np.ndarray       # slot count per target
    alpha: float = 2.0
    d: int = 1
    offsets: np.ndarray = field(init=False)  # target base offsets in the arena

    def __post_init__(self) -> None:
        self.targets = np.ascontiguousarray(self.targets, dtype=np.int64)
        caps = np.asarray(self.capacities)
        if caps.dtype.kind == "f":  # NaN, inf and |c| >= 2^63 have no int64 value
            unfit = np.flatnonzero(~(np.abs(caps) < 2.0**63))
            if len(unfit):
                raise InvalidInstance(f"capacity {caps.flat[unfit[0]]} does not fit in int64")
        self.capacities = np.ascontiguousarray(caps, dtype=np.int64)
        if self.targets.ndim != 1 or self.capacities.ndim != 1:
            raise InvalidInstance("targets and capacities must be 1-d arrays")
        if len(self.targets) >= RECORD_LIMIT:
            raise InvalidInstance(
                f"{len(self.targets)} records; placement holds at most {RECORD_LIMIT - 1}"
            )
        if self.d < 1:
            raise InvalidInstance("block size d must be >= 1")
        if not self.alpha >= 2:  # NaN fails this too
            raise InvalidInstance(f"slack factor alpha must be >= 2, got {self.alpha}")
        if len(self.capacities) and self.capacities.min() < 0:
            raise InvalidInstance("capacities must be non-negative")
        self.offsets = np.concatenate(
            ([0], np.cumsum(self.capacities))
        ).astype(np.int64)
        # Non-negative capacities only grow the sums, so a wrap shows as a drop.
        wraps = bool(np.any(self.offsets[1:] < self.offsets[:-1]))
        n = len(self.targets)
        if wraps or _bits(self.arena_size - 1) + _bits(n - 1) > 64:
            raise InvalidInstance(
                f"{n} records in {self.capacities.sum(dtype=np.float64):.3g} slots: "
                "a slot and a record index must pack into 64 bits"
            )

    @property
    def arena_size(self) -> int:
        return int(self.offsets[-1])

    def validate(self) -> None:
        n_targets = len(self.capacities)
        if len(self.targets) and (
            self.targets.min() < 0 or self.targets.max() >= n_targets
        ):
            raise InvalidInstance("record target id out of range")
        counts = np.bincount(self.targets, minlength=n_targets)
        short = self.capacities < np.ceil(self.alpha * counts)
        if short.any():
            t = int(np.flatnonzero(short)[0])
            raise InvalidInstance(
                f"target {t}: capacity {int(self.capacities[t])} < "
                f"alpha*count = {self.alpha}*{int(counts[t])}"
            )


@dataclass
class PlacementResult:
    rounds_used: int
    probes: int
    claims: list[np.ndarray] = field(repr=False)  # per round, ascending claim words
    record_bits: int      # claim word = slot << record_bits | record index
    arena_size: int

    def span(self, lo_slot: int, hi_slot: int) -> tuple[np.ndarray, np.ndarray]:
        """The records placed in slots [lo_slot, hi_slot) in arena order, and
        their slots, both int64.  Each round's claims ascend, so the span's
        claims are one slice of each round's; only they are sorted."""
        rb = self.record_bits
        lo, hi = max(int(lo_slot), 0), min(int(hi_slot), self.arena_size)
        parts = [np.empty(0, dtype=np.uint64)]
        if lo < hi:
            # hi << rb can pass 64 bits at hi = arena_size, above every claim.
            first = np.uint64(lo << rb)
            last = np.uint64(hi << rb) if hi < self.arena_size else None
            for c in self.claims:
                stop = None if last is None else c.searchsorted(last)
                parts.append(c[c.searchsorted(first) : stop])
        claim = np.concatenate(parts)
        claim.sort()
        slots = (claim >> np.uint64(rb)).view(np.int64)
        claim &= np.uint64((1 << rb) - 1)
        return claim.view(np.int64), slots

    @cached_property
    def _arena_order(self) -> tuple[np.ndarray, np.ndarray]:
        return self.span(0, self.arena_size)

    @property
    def order(self) -> np.ndarray:
        """Record indices in arena order, int64."""
        return self._arena_order[0]

    @property
    def slots(self) -> np.ndarray:
        """Their slots, strictly increasing, int64."""
        return self._arena_order[1]

    @property
    def slot_of(self) -> np.ndarray:
        """Record index -> arena slot (injective), int64."""
        slot_of = np.empty(len(self.order), dtype=np.int64)
        slot_of[self.order] = self.slots
        return slot_of

    @property
    def arena(self) -> np.ndarray:
        """Arena slot -> record index as ``uint32``, EMPTY_SLOT if vacant."""
        arena = np.full(self.arena_size, EMPTY_SLOT, dtype=np.uint32)
        arena[self.slots] = self.order
        return arena


def place(
    inst: PlacementInstance,
    round_cap: int,
    seed: int,
    meter: WorkMeter | None = None,
    validate: bool = True,
) -> PlacementResult:
    """Run block-parallel random probing until done or ``round_cap`` rounds.

    Each round resolves its probes in slot order: the probes are sorted as
    ``slot << b | live position`` words, and of the blocks probing one slot
    the last in block order claims it if it was free at the start of the
    round.  Occupancy is one byte per slot.

    Raises InvalidInstance when ``validate`` and a capacity invariant fails,
    PlacementTimeout when unplaced records remain at the cap.  Probes per
    round never exceed the block count ceil(n/d).
    """
    if round_cap < 1:
        raise ValueError("round_cap must be >= 1")
    if meter is None:
        meter = WorkMeter()
    if validate:
        inst.validate()
    n = len(inst.targets)
    if n == 0:
        return PlacementResult(0, 0, [], 0, inst.arena_size)

    d = inst.d
    n_blocks = max(1, n // d)                 # final block absorbs the remainder
    # Live blocks only, compacted as blocks finish: next unplaced record,
    # block end, and the block's stream key.
    positions = np.arange(n_blocks, dtype=np.uint64)
    ptr = positions.astype(np.int64) * d
    end = ptr + d
    end[-1] = n
    key = np.uint64(derive(seed, 0x9A5E)) ^ (positions << np.uint64(20))
    caps = inst.capacities.astype(np.uint64)
    offsets = inst.offsets.view(np.uint64)
    # Probe words hold a live position in their low b bits, claim words a
    # record index in their low rb bits; PlacementInstance keeps both in 64.
    b = np.uint64(_bits(n_blocks - 1))
    rb = np.uint64(_bits(n - 1))
    position_mask = (np.uint64(1) << b) - np.uint64(1)
    occupied = np.zeros(inst.arena_size, dtype=np.uint8)
    claims = []

    probes = 0
    rounds = 0
    while len(ptr) and rounds < round_cap:
        rounds += 1
        # Per-block counter-based stream: value depends only on
        # (seed, block id, round), so trials replay exactly.
        probe = mix64_array(key ^ np.uint64(rounds))
        t = inst.targets[ptr]
        probe %= caps[t]
        probe += offsets[t]
        probe <<= b
        probe |= positions[: len(ptr)]
        probe.sort()
        slot = (probe >> b).view(np.int64)
        # The last probe of each run of equal slots is the last block in
        # block order; it wins when the slot is free, the others retry.
        win = occupied[slot] == 0
        win[:-1] &= slot[1:] != slot[:-1]
        slot = slot[win]
        occupied[slot] = 1
        winner = (probe[win] & position_mask).view(np.int64)
        record = ptr[winner]
        claim = slot.view(np.uint64)
        claim <<= rb
        claim |= record.view(np.uint64)
        record += 1
        ptr[winner] = record
        claims.append(claim)
        probes += len(ptr)
        meter.charge("placement.probe", len(ptr), 1)
        live = ptr < end
        if not live.all():
            ptr, end, key = ptr[live], end[live], key[live]

    if len(ptr):
        raise PlacementTimeout(rounds, n - int((end - ptr).sum()), n)
    return PlacementResult(rounds, probes, claims, int(rb), inst.arena_size)


def verify_placement(inst: PlacementInstance, res: PlacementResult) -> bool:
    """Every record sits once, at strictly increasing slots, each inside its
    target's range.  A result of the wrong length, or with a record index
    outside [0, n), gives False."""
    n = len(inst.targets)
    order, slots = res.order, res.slots
    if len(order) != n or len(slots) != n:
        return False
    if n and (order.min() < 0 or order.max() >= n):
        return False
    t = inst.targets[order]
    return bool(
        (np.bincount(order, minlength=n) == 1).all()
        and (slots[1:] > slots[:-1]).all()
        and (slots >= inst.offsets[t]).all()
        and (slots < inst.offsets[t + 1]).all()
    )


def default_round_cap(n: int) -> int:
    """8 * ceil(log2 n); 8 is the hidden constant of the Theta(log n) cap."""
    return 8 * ceil_log2(n)
