"""Hash families: simple tabulation and multiply-shift.

Tabulation hashing XORs per-character random table lookups; it backs the
light-bucket assignment and enjoys Chernoff-type bin concentration (Patrascu
and Thorup, STOC 2011), for which the tables need only uniform w-bit words.
Multiply-shift h(x) = (a*x mod 2^64) >> (64 - l) with a random odd 64-bit a
backs the rehash loop of local semisorting: two distinct 64-bit keys collide
with probability at most 2^(1-l) (Dietzfelbinger, Hagerup, Katajainen and
Penttonen, J. Algorithms 1997).  Both are immutable after construction and
pure to evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prng import generator, mix64, mix64_array

KEY_BITS = 64
TAB_CHARS = 4
TAB_CHAR_BITS = KEY_BITS // TAB_CHARS

_U64 = np.uint64
# _POW2[l] = 2^l; the first entry >= m sits at l = ceil(log2 m).
_POW2 = _U64(1) << np.arange(KEY_BITS, dtype=np.uint64)


@dataclass(frozen=True)
class TabulationHash:
    """State of a simple tabulation hash: c random tables of 2^16 words,
    one per 16-bit character of a key.

    The tables use the narrowest unsigned dtype that holds ``w`` bits, so a
    lookup moves as few bytes as the output width allows.
    """

    tables: np.ndarray  # shape (c, 2**TAB_CHAR_BITS), entries < 2**w
    w: int

    @property
    def c(self) -> int:
        return self.tables.shape[0]


def tab_new(seed: int, out_bits: int) -> TabulationHash:
    """Draw fresh tabulation tables with ``out_bits`` output bits from ``seed``."""
    if not 1 <= out_bits <= 64:
        raise ValueError(f"output bits must be in [1, 64], got {out_bits}")
    tables = generator(seed, 0x7AB).integers(
        0, 1 << out_bits, size=(TAB_CHARS, 1 << TAB_CHAR_BITS),
        dtype=np.min_scalar_type((1 << out_bits) - 1),
    )
    tables.setflags(write=False)
    return TabulationHash(tables=tables, w=out_bits)


def _tab_xor(h: TabulationHash, keys: np.ndarray) -> np.ndarray:
    """Tabulation hash values of uint64 ``keys`` in the tables' dtype."""
    keys = np.ascontiguousarray(keys, dtype="<u8")
    # Column i of the little-endian 16-bit view is character i of each key.
    chars = keys.view("<u2").reshape(-1, h.c)
    out = h.tables[0].take(chars[:, 0])
    for i in range(1, h.c):
        out ^= h.tables[i].take(chars[:, i])
    return out.reshape(keys.shape)


def tab_hash_array(h: TabulationHash, keys: np.ndarray) -> np.ndarray:
    """Tabulation hash values of a uint64 key array, as uint64."""
    return _tab_xor(h, keys).astype(np.uint64, copy=False)


def tab_bucket(h: TabulationHash, keys: np.ndarray, n_buckets: int) -> np.ndarray:
    """Map keys into [0, n_buckets) by multiply-shift on the w-bit hash value.

    Multiply-shift keeps the map monotone in the hash value and avoids the
    low-bucket bias a modulo reduction would introduce.  Requires
    n_buckets <= 2^w, so the product needs 2w bits: it is formed in uint32
    when 2w <= 32 and in uint64 otherwise (w <= 32).
    """
    if n_buckets < 1:
        raise ValueError("bucket count must be positive")
    hv = _tab_xor(h, keys)
    if n_buckets == 1:
        return np.zeros(len(hv), dtype=np.int64)
    prod = np.uint32 if 2 * h.w <= 32 else np.uint64
    hv = hv.astype(prod, copy=False)
    hv *= prod(n_buckets)
    hv >>= prod(h.w)
    return hv.astype(np.int64)


@dataclass(frozen=True)
class UniversalHash:
    """Multiply-shift functions h(x) = (a*x mod 2^64) >> shift into [2^bits).

    ``a`` is odd and shift = 64 - bits.  Two distinct 64-bit keys collide
    with probability at most 2^(1-bits) over the draw of a.  Fields are
    uint64 arrays that broadcast against the keys: 0-d for one function, or
    one entry per function of a batch.
    """

    a: np.ndarray
    shift: np.ndarray

    @property
    def bits(self) -> np.ndarray:
        return _U64(KEY_BITS) - self.shift

    def repeat(self, counts: np.ndarray) -> "UniversalHash":
        """Function i of a batch ``counts[i]`` times in a row, e.g. once per
        record of bucket i when each bucket's records are contiguous."""
        return UniversalHash(np.repeat(self.a, counts), np.repeat(self.shift, counts))


def universal_new(
    seed: int, m: int | np.ndarray, ids: int | np.ndarray = 0
) -> UniversalHash:
    """Draw one function into [2^l), l = ceil(log2 m), per entry of ``ids``.

    ``m`` broadcasts with ``ids`` and must lie in [1, 2^63]; l is exact,
    found among the powers of two rather than through a float log.
    Function i depends on (seed, ids[i]) alone: its multiplier is a
    counter-based splitmix64 word of derive(seed, ids[i]) with its low bit
    set.
    """
    m = np.asarray(m, dtype=np.uint64)
    if np.any(m < 1) or np.any(m > _POW2[-1]):
        raise ValueError(f"range must be in [1, 2^63], got {m}")
    ids = np.asarray(ids, dtype=np.uint64)
    # Mix 1-d arrays: numpy scalars would warn on the intended wraparound.
    stream = mix64_array(mix64_array(ids.reshape(-1)) ^ _U64(mix64(seed)))  # derive(seed, id)
    a = (mix64_array(stream ^ _U64(mix64(1))) | _U64(1)).reshape(ids.shape)
    bits = np.searchsorted(_POW2, m).astype(np.uint64)
    return UniversalHash(a=a, shift=_U64(KEY_BITS) - bits)


def universal_hash_array(g: UniversalHash, keys: np.ndarray) -> np.ndarray:
    """(a*x mod 2^64) >> shift over uint64 keys; numpy's product wraps mod 2^64."""
    h = np.multiply(keys.astype(np.uint64, copy=False), g.a)
    h >>= g.shift
    return h


def detect_collision(hashes: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Positions i where entries i and i+1 (sorted by hash) share a hash but not a key."""
    return np.flatnonzero((hashes[1:] == hashes[:-1]) & (keys[1:] != keys[:-1]))
