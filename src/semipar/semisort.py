"""Top-down semisort: sampling, heavy/light split, placement, local rehash.

The pipeline samples records to estimate key multiplicities, gives each
heavy key a dedicated destination array and light records shared hashed
buckets (sized by the allocation function ``f_alloc``), distributes records
by randomized placement, then semisorts all packed light buckets in one
segmented pass, rehashing a bucket with a fresh multiply-shift function
until the sort of its hash values is collision-free.  A placement timeout
triggers a full restart with a fresh derived seed.  Inputs below
``small_n_cutoff`` records, and heavy or light sides below n / lg n, are
comparison-sorted by key instead.  Integer sorting for keys in [n] follows
as one stable sort of the semisorted keys, charged as a counting pass.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .hashing import (
    detect_collision,
    tab_bucket,
    tab_new,
    universal_hash_array,
    universal_new,
)
from .meter import WorkMeter, ceil_log2
from .placement import PlacementInstance, PlacementTimeout, default_round_cap, place
from .prng import derive, generator
from .records import Records, is_semisorted

# Attempts of the rehash loop before it gives up: each succeeds with
# probability >= 1/2, so a valid bucket fails all of them w.p. <= 2^-64.
MAX_REHASH_ATTEMPTS = 64


class RestartExceeded(RuntimeError):
    """Placement timed out more often than the configured restart budget."""


class KeyOutOfRange(ValueError):
    """Integer sort requires every key to be below the record count."""


class RehashExceeded(RuntimeError):
    """Every rehash attempt of a bucket found a collision."""


class BucketTooLarge(ValueError):
    """A light bucket of m_b records has m_b^K >= 2^63, beyond the hash range."""


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
        # An int field takes any integral number, such as the CLI's float
        # 4.0, and stores it as int.  Annotations are strings in this module.
        for f in fields(self):
            if f.type != "int":
                continue
            value = getattr(self, f.name)
            integral = isinstance(value, numbers.Integral) or (
                isinstance(value, float) and value.is_integer()
            )
            if isinstance(value, bool) or not integral:
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
            setattr(self, f.name, int(value))
        if not 0 < self.p_s <= 1:
            raise ValueError("sampling probability must be in (0, 1]")
        if min(self.tau, self.B, self.d, self.round_cap, self.max_restarts) < 1:
            raise ValueError("tau, B, d, round_cap, max_restarts must be positive")
        if not (math.isfinite(self.alpha) and self.alpha >= 2):
            raise ValueError("alpha must be finite and >= 2")
        if not (math.isfinite(self.c_alloc) and self.c_alloc > 0):
            raise ValueError("c_alloc must be finite and positive")
        # A block places at most one record per round, so a longer one times
        # out on every restart.
        if self.d > self.round_cap:
            raise ValueError(f"d must be <= round_cap ({self.round_cap}), got {self.d}")
        # Upper limits that hold for every n: rehash_buckets needs 2^K < 2^63
        # for a bucket of two records, tab_new gives at most 32 bucket bits,
        # a placement holds fewer than 2^32 records, so no block is longer,
        # and restarts stop where rehash attempts do, so a round cap that
        # always times out ends in RestartExceeded after bounded time.
        if not 3 <= self.K <= 62:
            raise ValueError("K must be in [3, 62]")
        if max(self.B, self.d) > 1 << 32:
            raise ValueError("B and d must be <= 2^32")
        if self.max_restarts > MAX_REHASH_ATTEMPTS:
            raise ValueError(f"max_restarts must be <= {MAX_REHASH_ATTEMPTS}")

    @classmethod
    def for_n(cls, n: int, **overrides) -> "SemisortParams":
        lg = ceil_log2(n)
        defaults = dict(
            p_s=1.0 / lg,
            tau=2 * lg,
            B=max(1, math.ceil(n / lg**2)),
            d=lg,
            round_cap=default_round_cap(n),
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


def run_heads(x: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in ``x``; on
    sorted input, of each distinct value's first occurrence."""
    head = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=head[1:])
    return head


def segment_index(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Gather index that lays segments end to end: segment i is the
    counts[i] positions from starts[i], as
    ``np.concatenate([np.arange(s, s + c) for s, c in zip(starts, counts)])``."""
    counts = np.asarray(counts, dtype=np.int64)
    idx = np.repeat(np.asarray(starts, dtype=np.int64) - (np.cumsum(counts) - counts), counts)
    idx += np.arange(len(idx))
    return idx


def sorted_distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of ``x`` in ascending order, as ``np.unique(x)``.

    A sort plus a run scan: numpy 2.4's ``np.unique`` takes a hash path for
    integers that runs about 40x slower than this.
    """
    x = np.sort(x)
    return x[run_heads(x)]


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
    Rounds advance by the maximum over buckets: every pending bucket runs
    attempt j in the same K+2 rounds, and the singletons' round runs beside
    the first attempt when there is one.  Two distinct keys collide
    with probability at most 2^(1-l_b) <= 2/m_b^K, so by a union bound over
    the C(m_b, 2) pairs an attempt fails with probability below
    m_b^(2-K) <= 1/2 for K >= 3 and m_b >= 2; a bucket that fails
    MAX_REHASH_ATTEMPTS attempts raises RehashExceeded.  Buckets with
    m_b^K >= 2^63 raise BucketTooLarge, which keeps l_b <= 63.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    attempts = np.ones(len(sizes), dtype=np.int64)
    singles = int(np.count_nonzero(sizes == 1))
    pending = np.flatnonzero(sizes >= 2)
    if singles:
        meter.charge("local_semisort", singles, 0 if len(pending) else 1)
    if len(pending) == 0:
        return np.arange(len(keys), dtype=np.int64), attempts
    m_max = int(sizes[pending].max())
    if m_max ** K >= 1 << 63:
        raise BucketTooLarge(f"bucket of {m_max} records: {m_max}^{K} >= 2^63; lower K")
    starts = np.cumsum(sizes) - sizes
    # The first attempt hashes every bucket, so its records are ``keys`` as
    # they stand; a singleton hashes into [1] and cannot collide.
    batch = np.flatnonzero(sizes)
    attempt = 0
    while len(pending):
        if attempt == MAX_REHASH_ATTEMPTS:
            raise RehashExceeded(
                f"{len(pending)} bucket(s) collided in all {attempt} rehash attempts"
            )
        attempt += 1
        attempts[pending] = attempt
        meter.charge("local_semisort", (2 * K + 2) * int(sizes[pending].sum()), K + 2)
        m_b = sizes[batch]
        ranges = m_b.astype(np.uint64) ** np.uint64(K)
        g = universal_new(derive(seed, attempt), ranges, batch)
        if attempt == 1:
            kp = keys
        else:
            pos = segment_index(starts[batch], m_b)
            kp = keys[pos]
        key = universal_hash_array(g.repeat(m_b), kp)
        idx = _sort_by_bucket_and_hash(key, np.uint64(1) << g.bits, m_b)
        hit = detect_collision(key.take(idx), kp.take(idx))
        if attempt == 1:
            order = idx
        else:
            order[pos] = pos[idx]
        # The sort keeps every bucket in its own positions, so sorted position
        # i lies in the bucket whose end first exceeds i; ``hit`` ascends.
        hit_bucket = np.searchsorted(np.cumsum(m_b), hit, side="right")
        batch = pending = batch[hit_bucket[run_heads(hit_bucket)]]
    return order, attempts


def _sort_by_bucket_and_hash(
    h: np.ndarray, ranges: np.ndarray, sizes: np.ndarray
) -> np.ndarray:
    """Stable argsort of records by (bucket, hash ``h``): bucket b holds the
    next ``sizes[b]`` records, whose hash values lie below ranges[b] <= 2^63.

    Adds the sum of the ranges before bucket b to its hash values, in place
    and mod 2^64, so neighbouring non-empty buckets never share a value.
    When no inclusive range sum wraps (they strictly increase), one sort of
    these sums gives the order; otherwise one lexsort by (bucket, hash).
    """
    ends = np.cumsum(ranges)
    wraps = bool(np.any(ends[1:] <= ends[:-1]))
    if wraps:
        order = np.lexsort((h, np.repeat(np.arange(len(sizes)), sizes)))
    h += np.repeat(ends - ranges, sizes)
    return order if wraps else stable_argsort(h)


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
    meter.charge(label, len(pos) * lg, lg)
    return pos[stable_argsort(keys[pos])]


def _place_and_pack(
    targets: np.ndarray, sigma: np.ndarray, params: SemisortParams, n: int,
    seed: int, meter: WorkMeter, label: str,
) -> tuple[np.ndarray, int]:
    """Place records at random into targets sized from their sample counts.

    Target t gets ceil(alpha * f_alloc(sigma[t])) slots, which
    ``PlacementInstance`` rejects when one overflows int64.  Returns the
    record indices (into ``targets``) in arena order, so each target's
    records are contiguous and the targets appear in id order, and the arena
    size.  The order is ``PlacementResult.order``, which ``place`` builds by
    sorting its claims by slot; packing charges one op per arena slot.
    """
    caps = np.ceil(params.alpha * f_alloc(sigma, params, n))
    inst = PlacementInstance(targets=targets, capacities=caps, alpha=params.alpha, d=params.d)
    order = place(inst, params.round_cap, seed, meter, validate=False).order
    meter.charge(label, inst.arena_size, ceil_log2(inst.arena_size))
    return order, inst.arena_size


def _semisort_once(
    a: Records, params: SemisortParams, run_seed: int, meter: WorkMeter
) -> tuple[Records, SemisortTrace]:
    n = len(a)
    trace = SemisortTrace(n=n, seed=run_seed, params=params)
    if n == 0:
        return a.copy(), trace
    if n < params.small_n_cutoff:
        # Theta-notation is vacuous at tiny n: sort as the heavy and light
        # sides do below their cutoff.
        return a.take(_sort_segment(np.arange(n), a.keys, meter, "small_sort")), trace
    lg = ceil_log2(n)

    # Step 1: independent sampling.
    rng = generator(run_seed, 1)
    sample_mask = rng.random(n) < params.p_s
    meter.charge("sample", n, 1)
    sample_keys = a.keys[sample_mask]

    # Step 2: sort the sample, derive per-key sample counts.
    s_lg = ceil_log2(len(sample_keys))
    meter.charge("sample_sort", len(sample_keys) * s_lg, s_lg)
    sample_keys = np.sort(sample_keys)
    starts = np.flatnonzero(run_heads(sample_keys))
    sampled_keys = sample_keys[starts]
    sigma = np.diff(starts, append=len(sample_keys))

    # Step 3: heavy/light partition; target[i] is record i's heavy-key rank.
    heavy_keys = sampled_keys[sigma >= params.tau]
    sigma_heavy = sigma[sigma >= params.tau]
    if len(heavy_keys):
        target = np.searchsorted(heavy_keys, a.keys)
        is_heavy = heavy_keys[np.minimum(target, len(heavy_keys) - 1)] == a.keys
    else:
        is_heavy = np.zeros(n, dtype=bool)
    meter.charge("classify", 2 * n, s_lg)
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
        meter.charge("light_hash", len(light), 1)
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
    meter.charge("final_pack", n, lg)
    return out, trace


def integer_sort(
    a: Records,
    params: SemisortParams | None = None,
    seed: int = 0,
    meter: WorkMeter | None = None,
) -> Records:
    """Unstable sort of records with keys in [n] via semisort + one pass.

    The pass is charged as a counting pass over the semisorted records; it
    runs as a stable sort of their keys, so each key's run keeps its order.
    """
    n = len(a)
    if meter is None:
        meter = WorkMeter()
    if n == 0:
        return a.copy()
    if int(a.keys.max()) >= n:
        raise KeyOutOfRange(f"keys must lie in [0, {n})")
    semi, _ = semisort(a, params, seed, meter)
    meter.charge("integer_sort_pass", 4 * n, ceil_log2(n))
    return semi.take(stable_argsort(semi.keys))


def verify_semisort(keys: np.ndarray, out: Records, sort: bool = False) -> bool:
    """True iff ``out`` is ``Records.from_keys(keys)`` permuted so that each
    key forms one run; with ``sort``, so that the keys are non-decreasing.

    Payload i names input record i, so ``out`` is such a permutation iff it
    has n records, its payloads are a permutation of [n] (one ``bincount``)
    and each key is the input key its payload names.  For input payloads
    0..n-1, which are distinct, this holds iff ``same_multiset`` does, and
    then equal ``group_counts`` follow; so the check is exactly the triad
    ``is_semisorted``, ``same_multiset`` and equal ``group_counts``, and with
    ``sort`` exactly ``out.keys == np.sort(keys)`` plus ``same_multiset``.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    n = len(keys)
    if len(out) != n:
        return False
    if n and int(out.payloads.max()) >= n:
        return False
    idx = out.payloads.view(np.int64)
    if not (np.bincount(idx, minlength=n) == 1).all():
        return False
    if not np.array_equal(out.keys, keys[idx]):
        return False
    if sort:
        return bool((out.keys[1:] >= out.keys[:-1]).all())
    return is_semisorted(out)
