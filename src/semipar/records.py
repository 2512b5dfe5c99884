"""Keyed records.

A record is a (key, payload) pair of unsigned 64-bit integers.  Records are
compared only by key; payloads ride along untouched.  Arrays of records are
stored column-wise for vectorized movement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass
class Records:
    """Column-wise array of (key, payload) records."""

    keys: np.ndarray
    payloads: np.ndarray

    def __post_init__(self) -> None:
        self.keys = np.ascontiguousarray(self.keys, dtype=np.uint64)
        self.payloads = np.ascontiguousarray(self.payloads, dtype=np.uint64)
        if self.keys.shape != self.payloads.shape or self.keys.ndim != 1:
            raise ValueError("keys and payloads must be 1-d arrays of equal length")

    def __len__(self) -> int:
        return len(self.keys)

    def take(self, idx: np.ndarray) -> "Records":
        return Records(self.keys[idx], self.payloads[idx])

    def copy(self) -> "Records":
        return Records(self.keys.copy(), self.payloads.copy())

    @classmethod
    def from_keys(cls, keys: np.ndarray) -> "Records":
        """Records whose payload is the original index (handy for audits)."""
        keys = np.asarray(keys, dtype=np.uint64)
        return cls(keys, np.arange(len(keys), dtype=np.uint64))

    @classmethod
    def empty(cls, n: int = 0) -> "Records":
        """n records with uninitialised keys and payloads."""
        return cls(np.empty(n, np.uint64), np.empty(n, np.uint64))


def same_multiset(a: Records, b: Records) -> bool:
    """True iff a and b hold the same multiset of (key, payload) pairs."""
    if len(a) != len(b):
        return False
    pa = np.lexsort((a.payloads, a.keys))
    pb = np.lexsort((b.payloads, b.keys))
    return bool(
        np.array_equal(a.keys[pa], b.keys[pb])
        and np.array_equal(a.payloads[pa], b.payloads[pb])
    )


def group_counts(a: Records) -> dict[int, int]:
    """Sequential per-key multiplicity oracle."""
    keys = np.sort(a.keys)
    if len(keys) == 0:
        return {}
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    counts = np.diff(starts, append=len(keys))
    return dict(zip(keys[starts].tolist(), counts.tolist()))


def is_semisorted(a: Records) -> bool:
    """True iff every distinct key occupies exactly one contiguous run."""
    if len(a) <= 1:
        return True
    keys = a.keys
    boundary = keys[1:] != keys[:-1]
    run_heads = np.sort(np.concatenate(([keys[0]], keys[1:][boundary])))
    return bool((run_heads[1:] != run_heads[:-1]).all())

