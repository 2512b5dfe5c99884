"""Abstract work and round accounting.

Work is charged at one unit per element touched per bulk phase, so the
linear-work claims can be checked independently of interpreter or hardware
speed.  One ``charge(label, ops, rounds)`` call records a barrier-separated
bulk phase: its work under its label and its depth on the round counter; a
primitive of logarithmic depth charges logarithmically many rounds.
Phases in sequence add their rounds; independent branches joined side by
side (``join``) add the rounds of the deepest, so rounds are the critical
path of the work-depth model.
"""

from __future__ import annotations


def ceil_log2(x: int) -> int:
    """ceil(log2(max(x, 2))) in exact integer arithmetic, so always >= 1."""
    return (max(int(x), 2) - 1).bit_length()


class WorkMeter:
    """Monotone counters of charged operations, split by phase label.

    One thread charges a meter.  Each branch of a fork charges a child meter
    of its own, and ``join`` composes the children into the parent.
    """

    __slots__ = ("phase_breakdown", "rounds")

    def __init__(self) -> None:
        self.phase_breakdown: dict[str, int] = {}
        self.rounds: int = 0

    @property
    def total_ops(self) -> int:
        return sum(self.phase_breakdown.values())

    def charge(self, label: str, ops: int, rounds: int) -> None:
        """Record one phase: ``ops`` of work under ``label``, ``rounds`` of depth."""
        if ops < 0 or rounds < 0:
            raise ValueError("charged ops and rounds must be non-negative")
        self.phase_breakdown[label] = self.phase_breakdown.get(label, 0) + int(ops)
        self.rounds += int(rounds)

    def join(self, *branches: "WorkMeter") -> None:
        """Compose independent branches after this meter's phases: add their
        work under each label, in the order a sequential run would charge
        it, and the rounds of the deepest branch; the branches are left
        unchanged."""
        for branch in branches:
            for label, ops in branch.phase_breakdown.items():
                self.phase_breakdown[label] = self.phase_breakdown.get(label, 0) + ops
        self.rounds += max((branch.rounds for branch in branches), default=0)

    def snapshot(self) -> dict[str, int]:
        return dict(self.phase_breakdown)

    def __repr__(self) -> str:
        return f"WorkMeter(total_ops={self.total_ops}, rounds={self.rounds})"
