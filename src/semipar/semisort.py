"""Top-down semisort: sampling, heavy/light split, placement, local rehash.

The pipeline samples records to estimate key multiplicities, gives each
heavy key a dedicated destination array and light records shared hashed
buckets (sized by the allocation function ``f_alloc``), distributes records
by randomized placement, then semisorts each packed light bucket by
rehashing with a fresh 2-universal function until the radix sort of hash
values is collision-free.  A placement timeout triggers a full restart with
a fresh derived seed.  Integer sorting for keys in [n] follows as a
boundary-scan + prefix-sum pass over the semisorted array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hashing import (
    bits_for_buckets,
    detect_collision,
    tab_bucket,
    tab_hash_array,
    tab_new,
    universal_hash_array,
    universal_new,
)
from .meter import WorkMeter
from .placement import EMPTY_SLOT, PlacementInstance, PlacementTimeout, place
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
        if self.tau < 1 or self.B < 1 or self.max_restarts < 1:
            raise ValueError("tau, B, max_restarts must be positive")
        if self.alpha < 2:
            raise ValueError("alpha must be >= 2")
        if self.K < 3:
            raise ValueError("K must be >= 3")

    @classmethod
    def for_n(cls, n: int, **overrides) -> "SemisortParams":
        lg = max(1, math.ceil(math.log2(max(n, 2))))
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
    """Phase statistics of one successful semisort run."""

    n: int
    seed: int
    params: SemisortParams
    restarts: int = 0
    sample_size: int = 0
    heavy_count: int = 0
    light_count: int = 0
    max_bucket_size: int = 0
    bucket_attempts: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    allocated_space: int = 0
    work_by_phase: dict[str, int] = field(default_factory=dict)
    total_work: int = 0
    rounds: int = 0


def f_alloc(s: float, params: SemisortParams, n: int) -> float:
    """Destination size estimate from a sample count of s.

    Inverts the Chernoff lower tail so that a key (or bucket) with true
    multiplicity above f(s) would have produced a sample count above s
    except with polynomially small probability.  Non-decreasing in s.
    """
    if s < 0:
        raise ValueError("sample count must be non-negative")
    cl = params.c_alloc * math.log2(max(n, 2))
    return (s + cl + math.sqrt(cl * cl + 2.0 * s * cl)) / params.p_s


def local_semisort(
    c_b: Records,
    K: int,
    seed: int,
    meter: WorkMeter | None = None,
) -> tuple[Records, int]:
    """Semisort one packed bucket by rehash + radix sort; returns attempts.

    Each attempt samples a fresh 2-universal hash into [m_b**K], radix-sorts
    the bucket by hash value in K passes of counting sort at base m_b, and
    rescans for collisions (equal hash, distinct keys).  Success probability
    is at least 1/2 per attempt for K >= 3; after MAX_REHASH_ATTEMPTS
    failures (keys equal modulo the hash prime) it raises RehashExceeded.
    """
    m_b = len(c_b)
    if m_b == 0:
        raise ValueError("bucket must be non-empty")
    if meter is None:
        meter = WorkMeter()
    if m_b == 1:
        meter.charge("local_semisort", 1)
        meter.tick(1)
        return c_b, 1
    base = np.uint64(m_b)
    hash_range = m_b**K
    if hash_range >= 1 << 63:
        raise ValueError("bucket too large for the configured hash-range exponent")
    for attempt in range(1, MAX_REHASH_ATTEMPTS + 1):
        g = universal_new(derive(seed, attempt), hash_range)
        h = universal_hash_array(g, c_b.keys)
        order = np.arange(m_b, dtype=np.int64)
        scaled = h.copy()
        for _ in range(K):
            digits = scaled % base
            idx = np.argsort(digits, kind="stable")
            order = order[idx]
            scaled = (scaled[idx]) // base
        h_sorted = h[order]
        keys_sorted = c_b.keys[order]
        meter.charge("local_semisort", (2 * K + 2) * m_b)
        meter.tick(K + 2)
        if not detect_collision(h_sorted, keys_sorted):
            return Records(keys_sorted, c_b.payloads[order]), attempt
    raise RehashExceeded(
        f"bucket of {m_b} records collided in all {MAX_REHASH_ATTEMPTS} rehash attempts"
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


def _finish_trace(trace: SemisortTrace, meter: WorkMeter) -> None:
    trace.work_by_phase = meter.snapshot()
    trace.total_work = meter.total_ops
    trace.rounds = meter.rounds


def _sort_segment(recs: Records, meter: WorkMeter, label: str) -> Records:
    """Comparison-sort a segment by key (mergesort cost model)."""
    k = len(recs)
    lg = max(1, (max(k, 2) - 1).bit_length())
    meter.charge(label, k * lg)
    meter.tick(lg)
    order = np.argsort(recs.keys, kind="stable")
    return recs.take(order)


def _semisort_once(
    a: Records, params: SemisortParams, run_seed: int, meter: WorkMeter
) -> tuple[Records, SemisortTrace]:
    n = len(a)
    trace = SemisortTrace(n=n, seed=run_seed, params=params)
    if n == 0:
        _finish_trace(trace, meter)
        return a.copy(), trace
    lg = max(1, math.ceil(math.log2(max(n, 2))))

    if n < params.small_n_cutoff:
        # Theta-notation is vacuous at tiny n: sort by (key hash, key) so the
        # output is semisorted without promising any inter-key order.
        th = tab_new(derive(run_seed, 0x5A), 63)
        hv = tab_hash_array(th, a.keys)
        order = np.lexsort((a.keys, hv))
        meter.charge("small_sort", n * lg)
        meter.tick(lg)
        out = a.take(order)
        _finish_trace(trace, meter)
        return out, trace

    # Step 1: independent sampling.
    rng = np.random.Generator(np.random.Philox(key=derive(run_seed, 1)))
    sample_mask = rng.random(n) < params.p_s
    meter.charge("sample", n)
    meter.tick(1)
    sample_keys = a.keys[sample_mask]
    trace.sample_size = len(sample_keys)

    # Step 2: sort the sample, derive per-key sample counts.
    s_lg = max(1, (max(len(sample_keys), 2) - 1).bit_length())
    meter.charge("sample_sort", len(sample_keys) * s_lg)
    meter.tick(s_lg)
    sampled_keys, sigma = np.unique(sample_keys, return_counts=True)

    # Step 3: heavy/light partition.
    heavy_keys = sampled_keys[sigma >= params.tau]
    sigma_heavy = sigma[sigma >= params.tau]
    if len(heavy_keys):
        pos = np.searchsorted(heavy_keys, a.keys)
        pos_c = np.minimum(pos, len(heavy_keys) - 1)
        is_heavy = heavy_keys[pos_c] == a.keys
    else:
        is_heavy = np.zeros(n, dtype=bool)
    meter.charge("classify", 2 * n)
    meter.tick(max(1, s_lg))
    heavy = a.take(is_heavy)
    light = a.take(~is_heavy)
    trace.heavy_count = len(heavy)
    trace.light_count = len(light)

    allocated = 0
    cutoff = n / lg

    # Step 4: heavy side.
    if len(heavy) < cutoff:
        heavy_out = _sort_segment(heavy, meter, "heavy_sort")
    else:
        target = np.searchsorted(heavy_keys, heavy.keys)
        caps = np.ceil(
            params.alpha
            * np.array([f_alloc(s, params, n) for s in sigma_heavy])
        ).astype(np.int64)
        inst = PlacementInstance(
            targets=target, capacities=caps, alpha=params.alpha, d=params.d
        )
        res = place(inst, params.round_cap, derive(run_seed, 2), meter, validate=False)
        allocated += inst.arena_size
        occupied = res.arena != EMPTY_SLOT
        heavy_out = heavy.take(res.arena[occupied].astype(np.int64))
        meter.charge("heavy_pack", inst.arena_size)
        meter.tick(max(1, math.ceil(math.log2(max(inst.arena_size, 2)))))

    # Step 5: light side.
    bucket_attempts = np.empty(0, dtype=np.int64)
    max_bucket = 0
    if len(light) < cutoff:
        light_out = _sort_segment(light, meter, "light_sort")
    else:
        B = params.B
        th = tab_new(derive(run_seed, 3), bits_for_buckets(B))
        buckets = tab_bucket(th, light.keys, B)
        meter.charge("light_hash", len(light))
        meter.tick(1)
        light_sample_keys = a.keys[sample_mask & ~is_heavy]
        sigma_b = np.bincount(
            tab_bucket(th, light_sample_keys, B), minlength=B
        )
        caps = np.ceil(
            params.alpha * np.array([f_alloc(s, params, n) for s in sigma_b])
        ).astype(np.int64)
        inst = PlacementInstance(
            targets=buckets, capacities=caps, alpha=params.alpha, d=params.d
        )
        res = place(inst, params.round_cap, derive(run_seed, 4), meter, validate=False)
        allocated += inst.arena_size
        meter.charge("light_pack", inst.arena_size)
        meter.tick(max(1, math.ceil(math.log2(max(inst.arena_size, 2)))))

        # Step 6: per-bucket local semisort (buckets independent in parallel).
        out_chunks = []
        attempts = np.ones(B, dtype=np.int64)
        max_bucket_rounds = 0
        for b in range(B):
            lo, hi = inst.offsets[b], inst.offsets[b + 1]
            seg = res.arena[lo:hi]
            rec_idx = seg[seg != EMPTY_SLOT].astype(np.int64)
            if len(rec_idx) == 0:
                continue
            c_b = light.take(rec_idx)
            max_bucket = max(max_bucket, len(c_b))
            bucket_meter = WorkMeter()
            sorted_b, att = local_semisort(
                c_b, params.K, derive(run_seed, 5, b), bucket_meter
            )
            attempts[b] = att
            for lbl, ops in bucket_meter.phase_breakdown.items():
                meter.charge(lbl, ops)
            max_bucket_rounds = max(max_bucket_rounds, bucket_meter.rounds)
            out_chunks.append(sorted_b)
        meter.tick(max_bucket_rounds)
        bucket_attempts = attempts
        if out_chunks:
            light_out = Records(
                np.concatenate([c.keys for c in out_chunks]),
                np.concatenate([c.payloads for c in out_chunks]),
            )
        else:
            light_out = Records.empty()

    # Step 7: pack heavy segments then light buckets.
    out = Records(
        np.concatenate([heavy_out.keys, light_out.keys]),
        np.concatenate([heavy_out.payloads, light_out.payloads]),
    )
    meter.charge("final_pack", n)
    meter.tick(max(1, lg))
    trace.allocated_space = allocated
    trace.max_bucket_size = max_bucket
    trace.bucket_attempts = bucket_attempts
    _finish_trace(trace, meter)
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
    meter.tick(max(1, math.ceil(math.log2(max(n, 2)))))
    return Records(out_keys, out_payloads)
