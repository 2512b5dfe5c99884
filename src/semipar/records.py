"""Keyed records and their binary file format.

A record is a (key, payload) pair of unsigned 64-bit integers.  Records are
compared only by key; payloads ride along untouched.  Arrays of records are
stored column-wise for vectorized movement.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"PSRT"
VERSION = 1

_RECORD_DTYPE = np.dtype([("key", "<u8"), ("payload", "<u8")])


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
    def empty(cls) -> "Records":
        return cls(np.empty(0, np.uint64), np.empty(0, np.uint64))


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


def write_records(path: str | Path, a: Records) -> None:
    """Write little-endian binary: "PSRT", version u32, n u64, then records."""
    interleaved = np.empty(len(a), dtype=_RECORD_DTYPE)
    interleaved["key"] = a.keys
    interleaved["payload"] = a.payloads
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQ", VERSION, len(a)))
        fh.write(interleaved.tobytes())


def read_records(path: str | Path) -> Records:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
        version, n = struct.unpack("<IQ", fh.read(12))
        if version != VERSION:
            raise ValueError(f"unsupported record file version {version}")
        payload = fh.read(16 * n)
        if len(payload) != 16 * n:
            raise ValueError("truncated record file")
        interleaved = np.frombuffer(payload, dtype=_RECORD_DTYPE, count=n)
    return Records(interleaved["key"].copy(), interleaved["payload"].copy())
