"""Counter-based deterministic randomness.

All randomized components derive their random bits from a 64-bit seed via
splitmix64-style mixing, so that any (seed, counter...) tuple maps to a
reproducible stream independent of call order.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """Finalizer of splitmix64: bijective 64-bit mix of ``x``."""
    x &= _MASK64
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive(seed: int, *ids: int) -> int:
    """Derive a child seed from ``seed`` and a tuple of stream identifiers."""
    s = mix64(seed)
    for i in ids:
        s = mix64(s ^ mix64(i))
    return s


_U64 = np.uint64
_GOLDEN, _MUL1, _MUL2 = _U64(0x9E3779B97F4A7C15), _U64(0xBF58476D1CE4E5B9), _U64(0x94D049BB133111EB)
_S30, _S27, _S31 = _U64(30), _U64(27), _U64(31)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array.

    Works in place on one copy of ``x``, with one scratch array for the
    shifted words.
    """
    z = x.astype(np.uint64)
    t = np.empty_like(z)
    z += _GOLDEN
    np.right_shift(z, _S30, out=t)
    z ^= t
    z *= _MUL1
    np.right_shift(z, _S27, out=t)
    z ^= t
    z *= _MUL2
    np.right_shift(z, _S31, out=t)
    z ^= t
    return z


def generator(seed: int, *ids: int) -> np.random.Generator:
    """A numpy Generator keyed to (seed, *ids); Philox is counter-based."""
    return np.random.Generator(np.random.Philox(key=derive(seed, *ids)))
