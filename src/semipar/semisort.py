"""Top-down semisort: sampling, heavy/light split, placement, local rehash.

The pipeline samples records to estimate key multiplicities, gives each
heavy key a dedicated destination array and light records shared hashed
buckets (sized by the allocation function ``f_alloc``), distributes records
by randomized placement, then semisorts all packed light buckets in one
segmented pass, rehashing a bucket with a fresh multiply-shift function
until the sort of its hash values is collision-free.  A placement timeout
triggers a full restart with a fresh derived seed.  Integer sorting for
keys in [n] follows as a boundary-scan + prefix-sum pass over the
semisorted array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hashing import (
    detect_collision,
    tab_bucket,
    tab_hash_array,
    tab_new,
    universal_hash_array,
    universal_new,
)
from .meter import WorkMeter, ceil_log2
from .placement import PlacementInstance, PlacementTimeout, place
from .prng import derive
from .records import Records

# Attempts of the rehash loop before it gives up: each succeeds with
# probability >= 1/2, so a valid bucket fails all of them w.p. <= 2^-64.
MAX_REHASH_ATTEMPTS = 64


class RestartExceeded(RuntimeError):
    """Placement timed out more often than the configured restart budget."""


class KeyOutOfRange(ValueError):
    """Integer sort requires every key to be below the record count."""


class RehashExceeded(RuntimeError):
    """Every rehash attempt of a bucket found a collision."""


@dataclass
class SemisortParams:
    """Resolved constants of one semisort run; log means log2 throughout."""

    p_s: float            # sampling probability
    tau: int              # heavy threshold on sample counts
    alpha: float = 2.0    # destination slack factor
    c_alloc: float = 3.0  # constant c of the allocation function
    K: int = 3            # hash-range exponent of the rehash loop
    B: int = 1            # light bucket count
    d: int = 1            # placement block size
    round_cap: int = 8
    max_restarts: int = 3
    small_n_cutoff: int = 1 << 10

    def __post_init__(self) -> None:
        if not 0 < self.p_s <= 1:
            raise ValueError("sampling probability must be in (0, 1]")
        if min(self.tau, self.B, self.d, self.round_cap, self.max_restarts) < 1:
            raise ValueError("tau, B, d, round_cap, max_restarts must be positive")
        if not (math.isfinite(self.alpha) and self.alpha >= 2):
            raise ValueError("alpha must be finite and >= 2")
        if not (math.isfinite(self.c_alloc) and self.c_alloc > 0):
            raise ValueError("c_alloc must be finite and positive")
        if self.K < 3:
            raise ValueError("K must be >= 3")

    @classmethod
    def for_n(cls, n: int, **overrides) -> "SemisortParams":
        lg = ceil_log2(n)
        defaults = dict(
            p_s=1.0 / lg,
            tau=2 * lg,
            alpha=2.0,
            c_alloc=3.0,
            K=3,
            B=max(1, math.ceil(n / lg**2)) if n else 1,
            d=lg,
            round_cap=8 * lg,
            max_restarts=3,
            small_n_cutoff=1 << 10,
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass
class SemisortTrace:
    """Phase statistics of one successful semisort run.

    Work and rounds are counted only in the caller's WorkMeter, which may
    also hold work done before the call.
    """

    n: int
    seed: int
    params: SemisortParams
    restarts: int = 0
    heavy_count: int = 0
    light_count: int = 0
    max_bucket_size: int = 0
    bucket_attempts: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    allocated_space: int = 0


def sorted_distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of ``x`` in ascending order, as ``np.unique(x)``.

    A sort plus an adjacent-difference mask: numpy 2.4's ``np.unique`` takes
    a hash path for integers that runs about 40x slower than this.
    """
    x = np.sort(x)
    keep = np.ones(len(x), dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def stable_argsort(v: np.ndarray) -> np.ndarray:
    """``np.argsort(v, kind="stable")`` for non-negative integers ``v``.

    Packs each value above its b-bit index, b = bits of len(v) - 1, and
    sorts the uint64 words with ``np.sort``, which runs several times faster
    than a stable argsort; equal values keep index order because the index
    breaks the tie.  Falls back to the stable argsort when some value needs
    more than 64 - b bits.
    """
    b = max(len(v) - 1, 0).bit_length()
    if len(v) == 0 or int(v.max()).bit_length() + b > 64:
        return np.argsort(v, kind="stable")
    key = v.astype(np.uint64)
    key <<= np.uint64(b)
    key |= np.arange(len(v), dtype=np.uint64)
    key.sort()
    key &= np.uint64((1 << b) - 1)
    return key.view(np.int64)


def f_alloc(s: float | np.ndarray, params: SemisortParams, n: int) -> float | np.ndarray:
    """Destination size estimate from a sample count of s (scalar or array).

    Inverts the Chernoff lower tail so that a key (or bucket) with true
    multiplicity above f(s) would have produced a sample count above s
    except with polynomially small probability.  Non-decreasing in s.
    """
    s = np.asarray(s, dtype=np.float64)
    if np.any(s < 0):
        raise ValueError("sample count must be non-negative")
    cl = params.c_alloc * math.log2(max(n, 2))
    return (s + cl + np.sqrt(cl * cl + 2.0 * s * cl)) / params.p_s


def local_semisort(
    c_b: Records,
    K: int,
    seed: int,
    meter: WorkMeter | None = None,
) -> tuple[Records, int]:
    """Semisort one packed bucket by rehash + radix sort; returns attempts.

    The one-bucket call of ``rehash_buckets``, with the same cost model.
    """
    if len(c_b) == 0:
        raise ValueError("bucket must be non-empty")
    if meter is None:
        meter = WorkMeter()
    order, attempts = rehash_buckets(c_b.keys, np.array([len(c_b)]), K, seed, meter)
    return c_b.take(order), int(attempts[0])


def rehash_buckets(
    keys: np.ndarray, sizes: np.ndarray, K: int, seed: int, meter: WorkMeter
) -> tuple[np.ndarray, np.ndarray]:
    """Semisort consecutive buckets of ``keys`` in one segmented pass.

    Bucket b holds the next ``sizes[b]`` keys.  Each attempt draws a fresh
    multiply-shift hash into [2^l_b], l_b = ceil(log2(m_b^K)), for every
    pending bucket, sorts all their records by (bucket, hash value), and
    retries only the buckets where two distinct keys share a hash value.
    Returns the permutation of ``keys`` that semisorts every bucket within
    its own range, and the attempts per bucket (1 for an empty or singleton
    bucket).

    Cost model per bucket, as if each ran alone: an attempt on m_b >= 2
    records charges (2K+2)*m_b (hash, K counting-sort passes at base m_b,
    collision scan) and K+2 rounds; a singleton charges 1 op and 1 round.
    Rounds advance by the maximum over buckets.  Two distinct keys collide
    with probability at most 2^(1-l_b) <= 2/m_b^K, so by a union bound over
    the C(m_b, 2) pairs an attempt fails with probability below
    m_b^(2-K) <= 1/2 for K >= 3 and m_b >= 2; a bucket that fails
    MAX_REHASH_ATTEMPTS attempts raises RehashExceeded.  Buckets with
    m_b^K >= 2^63 raise ValueError, which keeps l_b <= 63.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    attempts = np.ones(len(sizes), dtype=np.int64)
    singles = int(np.count_nonzero(sizes == 1))
    if singles:
        meter.charge("local_semisort", singles)
    pending = np.flatnonzero(sizes >= 2)
    if len(pending) == 0:
        meter.tick(1 if singles else 0)
        return np.arange(len(keys), dtype=np.int64), attempts
    if int(sizes[pending].max()) ** K >= 1 << 63:
        raise ValueError("bucket too large for the configured hash-range exponent")
    starts = np.cumsum(sizes) - sizes
    # The first attempt hashes every bucket, so its records are ``keys`` as
    # they stand; a singleton hashes into [1] and cannot collide.
    batch = np.flatnonzero(sizes)
    attempt = 0
    while len(pending):
        if attempt == MAX_REHASH_ATTEMPTS:
            meter.tick((K + 2) * attempt)
            raise RehashExceeded(
                f"{len(pending)} bucket(s) collided in all {attempt} rehash attempts"
            )
        attempt += 1
        attempts[pending] = attempt
        meter.charge("local_semisort", (2 * K + 2) * int(sizes[pending].sum()))
        m_b = sizes[batch]
        ends = np.cumsum(m_b)
        ranges = m_b.astype(np.uint64) ** np.uint64(K)
        g = universal_new(derive(seed, attempt), ranges, batch)
        if attempt == 1:
            kp = keys
        else:
            pos = np.repeat(starts[batch] - (ends - m_b), m_b)
            pos += np.arange(len(pos))
            kp = keys[pos]
        key = universal_hash_array(g.repeat(m_b), kp)
        idx = _sort_by_bucket_and_hash(key, np.uint64(1) << g.bits, m_b)
        hit = detect_collision(key.take(idx), kp.take(idx))
        if attempt == 1:
            order = idx
        else:
            order[pos] = pos[idx]
        # The sort keeps every bucket in its own positions, so sorted
        # position i lies in the bucket whose end first exceeds i.
        batch = pending = batch[sorted_distinct(np.searchsorted(ends, hit, side="right"))]
    meter.tick((K + 2) * attempt)
    return order, attempts


def _sort_by_bucket_and_hash(
    h: np.ndarray, ranges: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Stable argsort of records by (bucket, hash ``h``): bucket b holds the
    next ``sizes[b]`` records, whose hash values lie below ranges[b].

    Offsets bucket b's hash values by the sum of the ranges before it and
    sorts the uint64 sums.  Where the ranges total 2^64 or more, consecutive
    buckets are grouped into runs whose totals fit and each run is sorted on
    its own.  Adds the offsets into ``h`` in place.
    """
    # Run r holds the buckets whose inclusive range sum lies in
    # [r*2^62, (r+1)*2^62); each range is <= 2^63, so a run totals less
    # than 2^62 + 2^63 and the float error is far below the slack.
    run = (np.cumsum(ranges, dtype=np.float64) / 2.0**62).astype(np.int64)
    # Exclusive range sums wrap mod 2^64; differences within a run are exact.
    base = np.cumsum(ranges) - ranges
    run_start = np.flatnonzero(np.diff(run, prepend=-1))
    base -= np.repeat(base[run_start], np.diff(run_start, append=len(run)))
    h += np.repeat(base, sizes)
    if len(run_start) == 1:
        return stable_argsort(h)
    bounds = (np.cumsum(sizes) - sizes)[run_start].tolist() + [len(h)]
    return np.concatenate(
        [lo + stable_argsort(h[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    )


def semisort(
    a: Records,
    params: SemisortParams | None = None,
    seed: int = 0,
    meter: WorkMeter | None = None,
) -> tuple[Records, SemisortTrace]:
    """Permute ``a`` so equal keys are contiguous; returns the run trace."""
    n = len(a)
    if params is None:
        params = SemisortParams.for_n(n)
    if meter is None:
        meter = WorkMeter()
    restarts = 0
    while True:
        run_seed = derive(seed, restarts)
        try:
            out, trace = _semisort_once(a, params, run_seed, meter)
            trace.seed = seed
            trace.restarts = restarts
            return out, trace
        except PlacementTimeout:
            restarts += 1
            if restarts > params.max_restarts:
                raise RestartExceeded(
                    f"placement timed out {restarts} times (budget {params.max_restarts})"
                ) from None


def _sort_segment(pos: np.ndarray, keys: np.ndarray, meter: WorkMeter, label: str) -> np.ndarray:
    """Comparison-sort record positions by key (mergesort cost model)."""
    lg = ceil_log2(len(pos))
    meter.charge(label, len(pos) * lg)
    meter.tick(lg)
    return pos[np.argsort(keys[pos], kind="stable")]


def _place_and_pack(
    targets: np.ndarray, sigma: np.ndarray, params: SemisortParams, n: int,
    seed: int, meter: WorkMeter, label: str,
) -> tuple[np.ndarray, int]:
    """Place records at random into targets sized from their sample counts.

    Target t gets ceil(alpha * f_alloc(sigma[t])) slots.  Returns the record
    indices (into ``targets``) in arena order, so each target's records are
    contiguous and the targets appear in id order, and the arena size.  The
    order comes from sorting the records' distinct slots.
    """
    caps = np.ceil(params.alpha * f_alloc(sigma, params, n)).astype(np.int64)
    inst = PlacementInstance(targets=targets, capacities=caps, alpha=params.alpha, d=params.d)
    slot_of = place(inst, params.round_cap, seed, meter, validate=False).slot_of
    meter.charge(label, inst.arena_size)
    meter.tick(ceil_log2(inst.arena_size))
    return stable_argsort(slot_of), inst.arena_size


def _semisort_once(
    a: Records, params: SemisortParams, run_seed: int, meter: WorkMeter
) -> tuple[Records, SemisortTrace]:
    n = len(a)
    trace = SemisortTrace(n=n, seed=run_seed, params=params)
    if n == 0:
        return a.copy(), trace
    lg = ceil_log2(n)

    if n < params.small_n_cutoff:
        # Theta-notation is vacuous at tiny n: sort by (key hash, key) so the
        # output is semisorted without promising any inter-key order.
        th = tab_new(derive(run_seed, 0x5A), 63)
        hv = tab_hash_array(th, a.keys)
        order = np.lexsort((a.keys, hv))
        meter.charge("small_sort", n * lg)
        meter.tick(lg)
        return a.take(order), trace

    # Step 1: independent sampling.
    rng = np.random.Generator(np.random.Philox(key=derive(run_seed, 1)))
    sample_mask = rng.random(n) < params.p_s
    meter.charge("sample", n)
    meter.tick(1)
    sample_keys = a.keys[sample_mask]

    # Step 2: sort the sample, derive per-key sample counts.
    s_lg = ceil_log2(len(sample_keys))
    meter.charge("sample_sort", len(sample_keys) * s_lg)
    meter.tick(s_lg)
    sample_keys = np.sort(sample_keys)
    sampled_keys = sorted_distinct(sample_keys)
    sigma = np.diff(np.searchsorted(sample_keys, sampled_keys), append=len(sample_keys))

    # Step 3: heavy/light partition; target[i] is record i's heavy-key rank.
    heavy_keys = sampled_keys[sigma >= params.tau]
    sigma_heavy = sigma[sigma >= params.tau]
    if len(heavy_keys):
        target = np.searchsorted(heavy_keys, a.keys)
        is_heavy = heavy_keys[np.minimum(target, len(heavy_keys) - 1)] == a.keys
    else:
        is_heavy = np.zeros(n, dtype=bool)
    meter.charge("classify", 2 * n)
    meter.tick(s_lg)
    # From here on the two sides are arrays of record positions in ``a``.
    heavy = np.flatnonzero(is_heavy)
    light = np.flatnonzero(~is_heavy)
    trace.heavy_count = len(heavy)
    trace.light_count = len(light)
    cutoff = n / lg

    # Step 4: heavy side, one target per heavy key.
    if len(heavy) < cutoff:
        heavy = _sort_segment(heavy, a.keys, meter, "heavy_sort")
    else:
        packed, arena_size = _place_and_pack(
            target[heavy], sigma_heavy, params, n, derive(run_seed, 2), meter, "heavy_pack"
        )
        trace.allocated_space += arena_size
        heavy = heavy[packed]

    # Step 5: light side, one target per hashed bucket.
    if len(light) < cutoff:
        light = _sort_segment(light, a.keys, meter, "light_sort")
    else:
        B = params.B
        th = tab_new(derive(run_seed, 3), ceil_log2(B))
        buckets = tab_bucket(th, a.keys[light], B)
        meter.charge("light_hash", len(light))
        meter.tick(1)
        sigma_b = np.bincount(buckets[sample_mask[light]], minlength=B)
        packed, arena_size = _place_and_pack(
            buckets, sigma_b, params, n, derive(run_seed, 4), meter, "light_pack"
        )
        trace.allocated_space += arena_size
        light = light[packed]
        sizes = np.bincount(buckets, minlength=B)
        trace.max_bucket_size = int(sizes.max())

        # Step 6: local semisort of every bucket (independent in parallel).
        order, trace.bucket_attempts = rehash_buckets(
            a.keys[light], sizes, params.K, derive(run_seed, 5), meter
        )
        light = light[order]

    # Step 7: pack heavy segments then light buckets.
    out = a.take(np.concatenate([heavy, light]))
    meter.charge("final_pack", n)
    meter.tick(lg)
    return out, trace


def integer_sort(
    a: Records,
    params: SemisortParams | None = None,
    seed: int = 0,
    meter: WorkMeter | None = None,
) -> Records:
    """Unstable sort of records with keys in [n] via semisort + counting pass."""
    n = len(a)
    if meter is None:
        meter = WorkMeter()
    if n == 0:
        return a.copy()
    if int(a.keys.max()) >= n:
        raise KeyOutOfRange(f"keys must lie in [0, {n})")
    semi, _ = semisort(a, params, seed, meter)

    # Boundary scan: group id and start of each contiguous run.
    keys = semi.keys
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
    group_id = np.cumsum(boundary) - 1
    starts = np.flatnonzero(boundary)
    sizes = np.diff(np.append(starts, n))
    group_keys = keys[starts].astype(np.int64)

    # Counts array + prefix sum gives each key group's output offset.
    counts = np.zeros(n, dtype=np.int64)
    counts[group_keys] = sizes
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))

    # Copy each group into its interval (rank within run is preserved).
    within = np.arange(n, dtype=np.int64) - starts[group_id]
    dest = offsets[keys.astype(np.int64)] + within
    out_keys = np.empty_like(keys)
    out_payloads = np.empty_like(semi.payloads)
    out_keys[dest] = keys
    out_payloads[dest] = semi.payloads
    meter.charge("integer_sort_pass", 4 * n)
    meter.tick(ceil_log2(n))
    return Records(out_keys, out_payloads)
