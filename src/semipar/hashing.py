"""Hash families: simple tabulation and a 2-universal modular family.

Tabulation hashing XORs per-character random table lookups; it backs the
light-bucket assignment and enjoys Chernoff-type bin concentration.  The
2-universal family ((a_hi*x_hi + a_lo*x_lo + b) mod p) mod m over the 32-bit
halves of x, with p = 2^61 - 1, backs the rehash loop of local semisorting
and is 2-universal over all 64-bit keys.  Both are immutable after
construction and pure to evaluate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prng import generator, mix64, mix64_array

KEY_BITS = 64
TAB_CHARS = 4
TAB_CHAR_BITS = KEY_BITS // TAB_CHARS

# Mersenne prime modulus of the universal family.
PRIME = (1 << 61) - 1

_U64 = np.uint64


@dataclass(frozen=True)
class TabulationHash:
    """State of a simple tabulation hash: c random tables of 2^char_bits words.

    The tables use the narrowest unsigned dtype that holds ``w`` bits, so a
    lookup moves as few bytes as the output width allows.
    """

    tables: np.ndarray  # shape (c, 2**char_bits), entries < 2**w
    char_bits: int
    w: int

    @property
    def c(self) -> int:
        return self.tables.shape[0]


def tab_new(seed: int, out_bits: int) -> TabulationHash:
    """Draw fresh tabulation tables with ``out_bits`` output bits from ``seed``."""
    if not 1 <= out_bits <= 64:
        raise ValueError(f"output bits must be in [1, 64], got {out_bits}")
    rng = generator(seed, 0x7AB)
    raw = rng.integers(0, 1 << 63, size=(TAB_CHARS, 1 << TAB_CHAR_BITS), dtype=np.uint64)
    raw = (raw << _U64(1)) | rng.integers(0, 2, size=raw.shape, dtype=np.uint64)
    if out_bits < 64:
        raw &= _U64((1 << out_bits) - 1)
    tables = raw.astype(np.min_scalar_type((1 << out_bits) - 1))
    tables.setflags(write=False)
    return TabulationHash(tables=tables, char_bits=TAB_CHAR_BITS, w=out_bits)


def tab_hash(h: TabulationHash, key: int) -> int:
    """XOR of the per-character table entries selected by ``key``."""
    out = 0
    k = int(key)
    mask = (1 << h.char_bits) - 1
    for i in range(h.c):
        out ^= int(h.tables[i, (k >> (i * h.char_bits)) & mask])
    return out


def tab_hash_array(h: TabulationHash, keys: np.ndarray) -> np.ndarray:
    """Vectorized tab_hash over a uint64 key array; returns uint64 values."""
    keys = np.ascontiguousarray(keys, dtype="<u8")
    # Column i of the little-endian 16-bit view is character i of each key.
    chars = keys.view("<u2").reshape(-1, h.c)
    out = h.tables[0].take(chars[:, 0])
    for i in range(1, h.c):
        out ^= h.tables[i].take(chars[:, i])
    return out.astype(np.uint64, copy=False).reshape(keys.shape)


def tab_bucket(h: TabulationHash, keys: np.ndarray, n_buckets: int) -> np.ndarray:
    """Map keys into [0, n_buckets) by multiply-shift on the w-bit hash value.

    Multiply-shift keeps the map monotone in the hash value and avoids the
    low-bucket bias a modulo reduction would introduce.  Requires
    h.w == ceil(log2(n_buckets)) so the product fits in 64 bits.
    """
    if n_buckets < 1:
        raise ValueError("bucket count must be positive")
    hv = tab_hash_array(h, keys)
    if n_buckets == 1:
        return np.zeros(len(hv), dtype=np.int64)
    return ((hv * _U64(n_buckets)) >> _U64(h.w)).astype(np.int64)


@dataclass(frozen=True)
class UniversalHash:
    """Parameters of h(x) = ((a_hi*x_hi + a_lo*x_lo + b) mod p) mod m.

    x_hi and x_lo are the 32-bit halves of a 64-bit key, so distinct keys
    differ mod p in at least one half and collide with probability about
    1/m.  Fields are uint64 arrays that broadcast against the keys: 0-d
    for one function, or one entry per function of a batch.
    """

    a_hi: np.ndarray
    a_lo: np.ndarray
    b: np.ndarray
    m: np.ndarray

    def take(self, idx: np.ndarray) -> "UniversalHash":
        """The functions at ``idx`` of a batch, e.g. one per hashed key."""
        return UniversalHash(self.a_hi[idx], self.a_lo[idx], self.b[idx], self.m[idx])

    def repeat(self, counts: np.ndarray) -> "UniversalHash":
        """Function i of a batch ``counts[i]`` times in a row, e.g. once per
        record of bucket i when each bucket's records are contiguous."""
        fields = (self.a_hi, self.a_lo, self.b, self.m)
        return UniversalHash(*(np.repeat(x, counts) for x in fields))


def universal_new(
    seed: int, m: int | np.ndarray, ids: int | np.ndarray = 0
) -> UniversalHash:
    """Draw one function per entry of ``ids`` (broadcast with ranges ``m``).

    Function i depends on (seed, ids[i]) alone: its three parameters are
    counter-based splitmix64 words of derive(seed, ids[i]), reduced into
    [0, p) with bias 2^-61.
    """
    m = np.asarray(m)
    if np.any(m < 1):
        raise ValueError(f"range must be positive, got {m}")
    ids = np.asarray(ids, dtype=np.uint64)
    # Mix 1-d arrays: numpy scalars would warn on the intended wraparound.
    stream = mix64_array(mix64_array(ids.reshape(-1)) ^ _U64(mix64(seed)))  # derive(seed, id)
    a_hi, a_lo, b = (
        ((mix64_array(stream ^ _U64(mix64(j))) >> _U64(3)) % _U64(PRIME)).reshape(ids.shape)
        for j in (1, 2, 3)
    )
    return UniversalHash(a_hi=a_hi, a_lo=a_lo, b=b, m=m.astype(np.uint64))


def universal_hash(g: UniversalHash, key: int) -> int:
    """Exact h(key) of a single function via arbitrary-precision arithmetic."""
    x = int(key)
    s = int(g.a_hi) * (x >> 32) + int(g.a_lo) * (x & 0xFFFFFFFF) + int(g.b)
    return (s % PRIME) % int(g.m)


_P61 = _U64(PRIME)


def _fold_p61(x: np.ndarray) -> np.ndarray:
    """Partly reduce uint64 values mod 2^61 - 1 in place (result <= 2^61 + 6)."""
    hi = x >> _U64(61)
    x &= _P61
    x += hi
    return x


def _mul_p61(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A value <= 2^61 + 6 congruent to a*x mod p, for a < p and x < 2^32.

    With 31-bit limbs a = a1*2^31 + a0, the products a0*x < 2^63 and
    t = a1*x < 2^62 fit in 64 bits, and t*2^31 folds through 2^61 = 1
    (mod p) into (t >> 30) + ((t mod 2^30) << 31).
    """
    t = np.multiply(a >> _U64(31), x)
    out = np.multiply(a & _U64((1 << 31) - 1), x)
    out += t >> _U64(30)
    t &= _U64((1 << 30) - 1)
    t <<= _U64(31)
    out += t  # < 2^63 + 2^61 + 2^32
    return _fold_p61(out)


def universal_hash_array(g: UniversalHash, keys: np.ndarray) -> np.ndarray:
    """Vectorized universal_hash over uint64 keys; exact mod-p arithmetic."""
    keys = keys.astype(np.uint64, copy=False)
    half = keys >> _U64(32)
    s = _mul_p61(g.a_hi, half)
    np.bitwise_and(keys, _U64(0xFFFFFFFF), out=half)
    s += _mul_p61(g.a_lo, half)
    del half
    s += g.b  # < 2^63
    _fold_p61(s)  # <= p + 3
    np.subtract(s, _P61, out=s, where=s >= _P61)
    s %= g.m
    return s


def detect_collision(hashes: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Positions i where entries i and i+1 (sorted by hash) share a hash but not a key."""
    return np.flatnonzero((hashes[1:] == hashes[:-1]) & (keys[1:] != keys[:-1]))
