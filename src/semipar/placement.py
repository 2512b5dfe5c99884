"""Randomized placement: inject records into slack-capacity target arrays.

Records carry a target id; each target owns a contiguous range of a shared
slot arena with capacity at least alpha >= 2 times its record count.  The
record array is split into size-d blocks; every round, each block with an
unplaced record probes one uniformly random slot of that record's target
and claims it if empty.  Claims are linearizable: when several blocks probe
the same slot in a round, exactly one wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .meter import WorkMeter
from .prng import derive, mix64_array

EMPTY_SLOT = np.uint64(0xFFFFFFFFFFFFFFFF)


class InvalidInstance(ValueError):
    """A target's capacity falls short of alpha times its record count."""


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
    slot_of: np.ndarray   # record index -> arena slot (injective)
    rounds_used: int
    probes: int
    arena: np.ndarray     # arena slot -> record index, EMPTY_SLOT if vacant


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
    arena = np.full(inst.arena_size, EMPTY_SLOT, dtype=np.uint64)
    slot_of = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return PlacementResult(slot_of, 0, 0, arena)

    d = inst.d
    n_blocks = max(1, n // d)                 # final block absorbs the remainder
    block_start = np.arange(n_blocks, dtype=np.int64) * d
    block_end = np.concatenate((block_start[1:], [n]))
    ptr = block_start.copy()                  # next unplaced record per block
    base = inst.offsets[inst.targets]
    cap = inst.capacities[inst.targets]
    block_seed = np.uint64(derive(seed, 0x9A5E))

    probes = 0
    rounds = 0
    while rounds < round_cap:
        active = np.flatnonzero(ptr < block_end)
        if len(active) == 0:
            break
        rounds += 1
        cur = ptr[active]
        # Per-block counter-based stream: value depends only on
        # (seed, block id, round), so trials replay exactly.
        raw = mix64_array(
            block_seed ^ np.uint64(rounds) ^ (active.astype(np.uint64) << np.uint64(20))
        )
        slots = base[cur] + (raw % cap[cur].astype(np.uint64)).astype(np.int64)
        empty = arena[slots] == EMPTY_SLOT
        arena[slots[empty]] = cur[empty].astype(np.uint64)
        won = arena[slots] == cur.astype(np.uint64)
        slot_of[cur[won]] = slots[won]
        ptr[active[won]] += 1
        probes += len(active)
        if meter is not None:
            meter.charge("placement.probe", len(active))
            meter.tick(1)

    if (ptr < block_end).any():
        raise PlacementTimeout(rounds, int((slot_of >= 0).sum()), n)
    return PlacementResult(slot_of, rounds, probes, arena)


def default_round_cap(n: int) -> int:
    """8 * ceil(log2 n); 8 is the hidden constant of the Theta(log n) cap."""
    return 8 * max(1, (max(n, 2) - 1).bit_length())
