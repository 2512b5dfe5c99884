"""Randomized placement: inject records into slack-capacity target arrays.

Records carry a target id; each target owns a contiguous range of a shared
slot arena with capacity at least alpha >= 2 times its record count.  The
record array is split into size-d blocks; every round, each block with an
unplaced record probes one uniformly random slot of that record's target
and claims it if empty.  Claims are linearizable: when several blocks probe
the same slot in a round, exactly one wins.

The arena is ``uint32``: each slot holds a record index, or ``EMPTY_SLOT``
(2^32 - 1) if vacant, so an instance holds fewer than ``RECORD_LIMIT``
(2^32 - 1) records and ``PlacementInstance`` raises ``InvalidInstance``
beyond that.  The round loop also records each record's slot as it claims
one, so ``PlacementResult.slot_of`` is the arena's inverse without a scan
of the arena.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .meter import WorkMeter, ceil_log2
from .prng import derive, mix64_array

EMPTY_SLOT = np.uint32(0xFFFFFFFF)
# Arena entries are uint32 record indices, which must stay below EMPTY_SLOT.
RECORD_LIMIT = int(EMPTY_SLOT)


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
        self.capacities = np.ascontiguousarray(self.capacities, dtype=np.int64)
        if self.targets.ndim != 1 or self.capacities.ndim != 1:
            raise InvalidInstance("targets and capacities must be 1-d arrays")
        if len(self.targets) >= RECORD_LIMIT:
            raise InvalidInstance(
                f"{len(self.targets)} records; placement holds at most {RECORD_LIMIT - 1}"
            )
        if self.d < 1:
            raise ValueError("block size d must be >= 1")
        if self.alpha < 2:
            raise ValueError("slack factor alpha must be >= 2")
        self.offsets = np.concatenate(
            ([0], np.cumsum(self.capacities))
        ).astype(np.int64)

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
    arena: np.ndarray     # arena slot -> record index, EMPTY_SLOT if vacant
    slot_of: np.ndarray   # record index -> arena slot (injective), int64


def place(
    inst: PlacementInstance,
    round_cap: int,
    seed: int,
    meter: WorkMeter | None = None,
    validate: bool = True,
) -> PlacementResult:
    """Run block-parallel random probing until done or ``round_cap`` rounds.

    Raises InvalidInstance when ``validate`` and a capacity invariant fails,
    PlacementTimeout when unplaced records remain at the cap.  Probes per
    round never exceed the block count ceil(n/d).
    """
    if round_cap < 1:
        raise ValueError("round_cap must be >= 1")
    if validate:
        inst.validate()
    n = len(inst.targets)
    arena = np.full(inst.arena_size, EMPTY_SLOT, dtype=np.uint32)
    slot_of = np.empty(n, dtype=np.int64)
    if n == 0:
        return PlacementResult(0, 0, arena, slot_of)

    d = inst.d
    n_blocks = max(1, n // d)                 # final block absorbs the remainder
    # Live blocks only, compacted as blocks finish: next unplaced record,
    # block end, and the block's stream key.
    ptr = np.arange(n_blocks, dtype=np.int64) * d
    end = ptr + d
    end[-1] = n
    key = np.uint64(derive(seed, 0x9A5E)) ^ (
        np.arange(n_blocks, dtype=np.uint64) << np.uint64(20)
    )
    caps = inst.capacities.astype(np.uint64)

    probes = 0
    rounds = 0
    while len(ptr) and rounds < round_cap:
        rounds += 1
        # Per-block counter-based stream: value depends only on
        # (seed, block id, round), so trials replay exactly.
        raw = mix64_array(key ^ np.uint64(rounds))
        t = inst.targets[ptr]
        raw %= caps[t]
        slots = inst.offsets[t] + raw.view(np.int64)
        # A probe of an empty slot writes; of several in one round, the last
        # writer wins and the others retry.  Every writer also records its
        # slot: a loser overwrites that entry when it later wins, so each
        # record's last entry is the slot it holds.
        empty = arena[slots] == EMPTY_SLOT
        claim, claimed = ptr[empty], slots[empty]
        arena[claimed] = claim
        slot_of[claim] = claimed
        ptr += arena[slots] == ptr
        probes += len(ptr)
        if meter is not None:
            meter.charge("placement.probe", len(ptr))
            meter.tick(1)
        live = ptr < end
        if not live.all():
            ptr, end, key = ptr[live], end[live], key[live]

    if len(ptr):
        raise PlacementTimeout(rounds, n - int((end - ptr).sum()), n)
    return PlacementResult(rounds, probes, arena, slot_of)


def default_round_cap(n: int) -> int:
    """8 * ceil(log2 n); 8 is the hidden constant of the Theta(log n) cap."""
    return 8 * ceil_log2(n)
