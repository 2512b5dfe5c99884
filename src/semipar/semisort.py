"""Top-down semisort: sampling, heavy/light split, placement, local rehash.

The pipeline samples records to estimate key multiplicities, gives each
heavy key a dedicated destination array and light records shared hashed
buckets (sized by the allocation function ``f_alloc``), distributes records
by randomized placement, then semisorts the packed light buckets in
segmented passes, rehashing a bucket with a fresh multiply-shift function
until the sort of its hash values is collision-free.  A placement timeout
triggers a full restart with a fresh derived seed.  Inputs below
``small_n_cutoff`` records, and heavy or light sides below n / lg n, are
comparison-sorted by key instead.  Independent steps are the two
branches of a ``parallel.fork_join``, which decides whether they run side
by side from the smaller branch's size: classification over two halves of
the keys, the heavy side beside the light side, the light side's hashing
over two halves of its records and its rehash and pack over two ranges of
buckets, and the pack of the heavy records' keys beside their payloads.
Integer sorting for keys in [n] follows as one stable sort of the
semisorted keys, charged as a counting pass and skipped when they already
ascend.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Any, Callable

import numpy as np

from .bounds import chernoff_lower_mean
from .hashing import (
    detect_collision,
    tab_bucket,
    tab_new,
    universal_hash_array,
    universal_new,
)
from .meter import WorkMeter, ceil_log2
from .parallel import fork_join, take_into
from .placement import (
    PlacementInstance,
    PlacementResult,
    PlacementTimeout,
    default_round_cap,
    place,
)
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


class ArenaExceeded(ValueError):
    """A placement arena would hold more slots than the arena budget."""


class LightArenaExceeded(ArenaExceeded):
    """B light buckets, the count of an all-light input, would get more arena
    slots than the arena budget even if each got only its floor."""


# The arena budget for n records: the slots one placement arena may hold
# (``_place_and_pack``), and the B light buckets' floors in all
# (``_light_side``).  At the defaults the light arena holds about 6 slots
# per light record.
LIGHT_ARENA_BASE = 1 << 24
LIGHT_ARENA_PER_RECORD = 64

# The default light bucket count of an all-light input is ceil(n /
# (LIGHT_LOAD_LG_SQUARED * lg^2 n)); a run scales it to its light records,
# so a bucket expects LIGHT_LOAD_LG_SQUARED * lg^2 n records whatever share
# is heavy (see ``SemisortParams``).
LIGHT_LOAD_LG_SQUARED = 2

# Step 3 classifies each half of the keys in chunks of this many keys, so
# its temporaries stay small.
CLASSIFY_CHUNK = 1 << 16


@dataclass
class SemisortParams:
    """Resolved constants of one semisort run; log means log2 throughout.

    ``c_alloc`` is chosen from a failure target.  A target t (a heavy key
    or a light bucket) with m_t records and sample count sigma_t gets
    f_alloc(sigma_t) as its size estimate, which inverts the Chernoff lower
    tail so that P[m_t > f_alloc(sigma_t)] <= e^(-c lg n) = n^(-c / ln 2)
    (see ``f_alloc``).  The default c = 2 ln 2 makes that n^-2 per target;
    the defaults give at most n targets, so by a union bound every target's
    estimate holds except with probability at most n^-1.

    A run fails when an estimate falls short (the arena side) or when a
    placement times out although every estimate held (the round side).
    The arena side fails with probability at most 1/n, and so does the
    round side, up to one block: ``for_n`` sets ``round_cap`` to
    ``default_round_cap`` of n and of d and alpha as resolved after
    overrides, the least cap at which ceil(n/d) blocks all finish except
    with probability at most 1/n, and the two sides place at most
    ceil(n/d) + 1 blocks between them.  So a run restarts with probability
    about 2/n at most.  The default d = 4 keeps placement's depth near
    d + 7 rounds; its charged probes do not depend on d.

    ``B`` is chosen from the light arena, as c is from the failure target.
    Tabulation hashing concentrates bucket loads for any B = Theta(n /
    lg^2 n) (Patrascu and Thorup, STOC 2011), so the constant c_B of the
    default B = ceil(n / (c_B lg^2 n)) is free; it is
    ``LIGHT_LOAD_LG_SQUARED`` = 2.  ``_light_side`` hashes to 32 bits, so
    the buckets share the hash range evenly and each expects c_B lg^2 n
    records, c_B lg n samples at p_s = 1 / lg n.  f_alloc of that is (1 +
    (c + sqrt(c^2 + 2 c c_B)) / c_B) times the load; times alpha, it is the
    light arena per light record: 9.1 at c_B = 1, 6.1 at 2 and 5.1 at 3.
    The floors ceil(alpha * f_alloc(0)) make 2 alpha c / c_B of it, 5.5 at
    c_B = 1 and 2.8 at 2.  What c_B costs is the width of the rehash sort's
    packed word, bits(sum of m_b^K) plus bits(range length): the sum grows
    like n (c_B lg^2 n)^(K-1), so by 2 bits per doubling of c_B at K = 3.
    At c_B = 2 the word fits 64 bits through n = 2^22 (42 + 22); at c_B = 3
    it does not (43 + 22), and ``stable_argsort`` falls back to its slower
    sort.

    ``B`` is the bucket count of an all-light input: a run with n_l light
    records uses B_l = ceil(B n_l / n) buckets, so each expects n_l / B_l
    records, at most n / B and, since a light side places only when n_l >=
    n / lg n, more than n / (B + lg n).  The load per bucket, and so the
    arena per light record, is that of an all-light run whatever share of
    the records is heavy.  B buckets for the light records of 2^20 zipf
    keys, 68% of them heavy, would expect about 250 records and 13 samples
    each, and f_alloc's margin would give them about 12 slots per light
    record.  The rehash sort's packed word can only narrow: its sum and
    range cover n_l <= n records at the same load per bucket.
    """

    p_s: float            # sampling probability
    tau: int              # heavy threshold on sample counts
    alpha: float = 2.0    # destination slack factor
    c_alloc: float = 2 * math.log(2)  # constant c of the allocation function
    K: int = 3            # hash-range exponent of the rehash loop
    B: int = 1            # light bucket count of an all-light input
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
            B=max(1, math.ceil(n / (LIGHT_LOAD_LG_SQUARED * lg**2))),
            d=4,
        )
        defaults.update(overrides)
        if "round_cap" not in overrides:
            defaults["round_cap"] = default_round_cap(
                n, defaults["d"], defaults.get("alpha", cls.alpha)
            )
        return cls(**defaults)


@dataclass
class SemisortTrace:
    """Phase statistics of one successful semisort run.

    Work and rounds are counted only in the caller's WorkMeter, which may
    also hold work done before the call.  ``min_alloc_slack`` is the least
    f_alloc(sigma_t) / m_t over the targets that got records in either
    placement, inf when neither side placed: below 1, some target had more
    records than its size estimate.  ``placement_rounds`` is the larger of
    the two placements' round counts, 0 when neither side placed.
    ``light_buckets`` is the light side's bucket count, ceil(B n_l / n) for
    n_l light records, 0 when it sorted.
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
    min_alloc_slack: float = math.inf
    placement_rounds: int = 0
    light_buckets: int = 0


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

    With l = c_alloc * lg n, f(s) = (s + l + sqrt(l^2 + 2 s l)) / p_s.  A
    target of f(s) records has mean sample count mu = p_s f(s), and
    (mu - s)^2 = 2 l mu, so ``chernoff_lower(mu, 1 - s / mu)``, which is
    exp(-(mu - s)^2 / (2 mu)), is exactly e^-l = n^(-c_alloc / ln 2) for
    every s: n^-2 at the default c_alloc = 2 ln 2.  That mu is
    ``chernoff_lower_mean(s, l)``, which rejects a negative s.
    """
    return chernoff_lower_mean(s, params.c_alloc * math.log2(max(n, 2))) / params.p_s


def _slots(s: float | np.ndarray, params: SemisortParams, n: int) -> float | np.ndarray:
    """Arena slots of a target with sample count s: ceil(alpha * f_alloc(s)),
    as floats.  A count past the float range is inf, without a warning: the
    callers compare it against a budget or reject it by name."""
    with np.errstate(over="ignore"):
        return np.ceil(params.alpha * f_alloc(s, params, n))


def light_arena_floor(params: SemisortParams, n: int) -> float:
    """Arena slots the B light buckets of an all-light input get at least:
    B * ceil(alpha * f_alloc(0)).  No run uses more buckets, so this bounds
    every run's floors.  A float, so a floor beyond int64 (or inf) still
    compares."""
    return params.B * float(_slots(0, params, n))


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
    keys: np.ndarray, sizes: np.ndarray, K: int, seed: int, meter: WorkMeter, first_id: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Semisort consecutive buckets of ``keys`` in one segmented pass.

    Bucket b, with id first_id + b, holds the next ``sizes[b]`` keys.  Each
    attempt j draws a fresh multiply-shift hash into [2^l_b], l_b =
    ceil(log2(m_b^K)), for every pending bucket from (seed, j, id), sorts
    all their records by (bucket, hash value), and retries only the buckets
    where two distinct keys share a hash value; so a range of buckets under
    their own ids takes the order and attempts it takes in a call on all of
    them.  Returns the permutation of ``keys`` that semisorts every bucket
    within its own range, and the attempts per bucket (1 for an empty or
    singleton bucket).

    An attempt on m_b >= 2 records costs (2K+2)*m_b ops (hash, K counting-
    sort passes at base m_b, collision scan) and K+2 rounds; a singleton
    costs 1 op and 1 round, an empty bucket nothing.  Rounds are the maximum
    over buckets: every pending bucket runs attempt j in the same K+2
    rounds, and the singletons' round runs beside the first attempt.

    Two distinct keys collide with probability at most 2^(1-l_b) <= 2/m_b^K,
    so by a union bound over the C(m_b, 2) pairs an attempt fails with
    probability below m_b^(2-K) <= 1/2 for K >= 3 and m_b >= 2; when a
    bucket fails MAX_REHASH_ATTEMPTS attempts, the attempts made are charged
    and RehashExceeded is raised.  Buckets with m_b^K >= 2^63 raise
    BucketTooLarge before any attempt, which keeps l_b <= 63.
    """
    _check_bucket_sizes(sizes, K)
    sizes = np.asarray(sizes, dtype=np.int64)
    attempts = np.ones(len(sizes), dtype=np.int64)
    pending = np.flatnonzero(sizes >= 2)
    order = None if len(pending) else np.arange(len(keys), dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    # The first attempt hashes every bucket, so its records are ``keys`` as
    # they stand; a singleton hashes into [1] and cannot collide.
    batch = np.flatnonzero(sizes)
    attempt = 0
    while len(pending) and attempt < MAX_REHASH_ATTEMPTS:
        attempt += 1
        attempts[pending] = attempt
        m_b = sizes[batch]
        ranges = m_b.astype(np.uint64) ** np.uint64(K)
        g = universal_new(derive(seed, attempt), ranges, batch + first_id)
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
    multi = sizes >= 2
    singles = int(np.count_nonzero(sizes == 1))
    if multi.any():
        work = (2 * K + 2) * int(np.dot(sizes[multi], attempts[multi])) + singles
        meter.charge("local_semisort", work, (K + 2) * int(attempts[multi].max()))
    elif singles:
        meter.charge("local_semisort", singles, 1)
    if len(pending):
        raise RehashExceeded(
            f"{len(pending)} bucket(s) collided in all {MAX_REHASH_ATTEMPTS} rehash attempts"
        )
    return order, attempts


def _check_bucket_sizes(sizes: np.ndarray, K: int) -> None:
    """Raise BucketTooLarge when the largest bucket's m_b^K reaches 2^63."""
    m_max = int(np.max(sizes, initial=0))
    if m_max ** K >= 1 << 63:
        raise BucketTooLarge(f"bucket of {m_max} records: {m_max}^{K} >= 2^63; lower K")


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
    """Comparison-sort record positions by key (mergesort cost model); an
    empty side charges its label 0 ops and 0 rounds."""
    lg = ceil_log2(len(pos)) if len(pos) else 0
    meter.charge(label, len(pos) * lg, lg)
    return pos[stable_argsort(keys[pos])]


def _place_and_pack(
    targets: np.ndarray, counts: np.ndarray, sigma: np.ndarray, params: SemisortParams,
    n: int, seed: int, meter: WorkMeter, label: str,
) -> tuple[PlacementResult, np.ndarray, float]:
    """Place records at random into targets sized from their sample counts.

    Target t, which ``counts[t]`` records name, gets ceil(alpha *
    f_alloc(sigma[t])) slots, which ``PlacementInstance`` rejects when one
    overflows int64; an arena over the budget raises ArenaExceeded before
    ``place`` allocates it.  Returns the placement, the targets' slot
    offsets (one more than the targets) and the least f_alloc(sigma[t]) /
    counts[t] over the targets with records: in arena order, from its
    ``order`` or a ``span`` of targets, each target's records (indices into
    ``targets``) are contiguous and the targets appear in id order.
    Packing charges one op per arena slot.  A target with fewer
    slots than records never fills, so its placement could only time out at
    ``round_cap``, however large: it raises PlacementTimeout before the
    first round instead.
    """
    inst = PlacementInstance(
        targets=targets, capacities=_slots(sigma, params, n), alpha=params.alpha, d=params.d
    )
    budget = LIGHT_ARENA_BASE + LIGHT_ARENA_PER_RECORD * n
    if inst.arena_size > budget:
        raise ArenaExceeded(
            f"{label} arena of {inst.arena_size} slots is over the budget of {budget} "
            f"for n={n}; lower alpha or c_alloc, or raise p_s"
        )
    if (counts > inst.capacities).any():
        raise PlacementTimeout(0, 0, len(targets))
    res = place(inst, params.round_cap, seed, meter, validate=False)
    meter.charge(label, inst.arena_size, ceil_log2(inst.arena_size))
    used = counts > 0
    slack = np.min(f_alloc(sigma[used], params, n) / counts[used], initial=math.inf)
    return res, inst.offsets, float(slack)


def _classify(
    keys: np.ndarray, heavy_keys: np.ndarray, target: np.ndarray, is_heavy: np.ndarray,
    lo: int, hi: int,
) -> None:
    """Step 3 on keys[lo:hi], CLASSIFY_CHUNK keys at a time: writes each
    key's rank among the sorted ``heavy_keys``, clipped to the last one, into
    ``target`` and whether it is a heavy key into ``is_heavy``.  The clipped
    rank is the key's insertion point in heavy_keys[:-1]; only a heavy key's
    rank is ever read, and it needs no clip."""
    below_last = heavy_keys[:-1]
    for c0 in range(lo, hi, CLASSIFY_CHUNK):
        c1 = min(c0 + CLASSIFY_CHUNK, hi)
        rank = target[c0:c1]
        rank[:] = np.searchsorted(below_last, keys[c0:c1])
        np.equal(heavy_keys.take(rank), keys[c0:c1], out=is_heavy[c0:c1])


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

    # Step 3: heavy/light partition over two halves of the keys; target[i]
    # is record i's heavy-key rank.
    heavy_keys = sampled_keys[sigma >= params.tau]
    sigma_heavy = sigma[sigma >= params.tau]
    if len(heavy_keys):
        target, is_heavy = np.empty(n, np.int64), np.empty(n, bool)
        half = n // 2
        fork_join(
            meter,
            lambda m: _classify(a.keys, heavy_keys, target, is_heavy, 0, half),
            lambda m: _classify(a.keys, heavy_keys, target, is_heavy, half, n),
            half,
        )
    else:
        target, is_heavy = None, np.zeros(n, dtype=bool)
    meter.charge("classify", 2 * n, s_lg)
    h = int(np.count_nonzero(is_heavy))
    trace.heavy_count = h
    trace.light_count = n - h
    cutoff = n / lg

    # Steps 4 to 6, and step 7's pack of the light records: the two sides
    # share nothing but the input.  The heavy side writes its records'
    # positions, each key's contiguous, into ``heavy``; the light side packs
    # its records into the tail of the output while the heavy side runs.
    heavy = np.empty(h, np.int64)
    (heavy_arena, heavy_slack, heavy_rounds), light = fork_join(
        meter,
        lambda m: _heavy_side(
            a.keys, is_heavy, target, sigma_heavy, params, cutoff, derive(run_seed, 2), heavy, m,
        ),
        lambda m: _light_side(a, is_heavy, sample_mask, params, cutoff, run_seed, m),
        min(h, n - h),
    )
    out, light_arena, light_slack, light_rounds, trace.max_bucket_size, attempts = light
    trace.bucket_attempts = attempts
    trace.light_buckets = len(attempts)
    trace.allocated_space = heavy_arena + light_arena
    trace.min_alloc_slack = min(heavy_slack, light_slack)
    trace.placement_rounds = max(heavy_rounds, light_rounds)

    # Step 7: the heavy records fill the head of the output, keys beside
    # payloads.
    fork_join(
        meter,
        lambda m: take_into(a.keys, heavy, out.keys[:h]),
        lambda m: take_into(a.payloads, heavy, out.payloads[:h]),
        h,
    )
    meter.charge("final_pack", n, lg)
    return out, trace


def _heavy_side(
    keys: np.ndarray, is_heavy: np.ndarray, target: np.ndarray | None, sigma: np.ndarray,
    params: SemisortParams, cutoff: float, seed: int, out: np.ndarray, meter: WorkMeter,
) -> tuple[int, float, int]:
    """Step 4: one target per heavy key.  Writes the positions of the heavy
    records (where ``is_heavy``, with heavy-key ranks ``target``) into
    ``out``, each key's records contiguous; returns the arena size, the
    least allocation slack and the placement rounds (0, inf and 0 when
    sorted)."""
    heavy = np.flatnonzero(is_heavy)
    if len(heavy) < cutoff:
        out[:] = _sort_segment(heavy, keys, meter, "heavy_sort")
        return 0, math.inf, 0
    target = target[heavy]
    counts = np.bincount(target, minlength=len(sigma))
    res, _, slack = _place_and_pack(
        target, counts, sigma, params, len(keys), seed, meter, "heavy_pack"
    )
    take_into(heavy, res.order, out)
    return res.arena_size, slack, res.rounds_used


def _light_side(
    a: Records, is_heavy: np.ndarray, sample_mask: np.ndarray, params: SemisortParams,
    cutoff: float, run_seed: int, meter: WorkMeter,
) -> tuple[Records, int, float, int, int, np.ndarray]:
    """Steps 5 and 6: one target per hashed bucket, then a local semisort of
    every bucket.  Returns the output records with the light records of
    ``a`` (where not ``is_heavy``) packed into its tail, each key's records
    contiguous, then the arena size, the least allocation slack, the
    placement rounds, the largest bucket and the attempts per bucket (0,
    inf, 0, 0 and none when sorted).  ``fork_join`` runs this side on the
    caller, so the output comes from the caller's malloc arena.

    Three steps are ``fork_join``s of two halves, each of about half the
    light records: bucket hashing, over two halves of the records; then,
    after placement, the local semisorts, over two ranges of buckets split
    where half of the records lie before; then the packs of those ranges
    into their slices of the output.  Each range sorts its own span of the
    placement, gathers its keys and rehashes its buckets under their own
    ids on its own branch meter, so the join adds their rehash work and the
    rounds of the deeper range, the maximum over all buckets, as one range
    would.  Hashing is charged after its join.  Bucket sizes are checked
    for BucketTooLarge once, before the ranges start, so the error names
    the largest of all buckets having rehashed nothing.  The output is
    allocated after the rehash: allocated before it, it pushes the
    rehash's temporaries onto pages that are faulted in afresh on every
    call (about 7,000 a call on 2^20 zipf keys).

    The n_l light records go to ceil(B n_l / n) buckets, so each expects
    n / B of them, as in an all-light run (see ``SemisortParams``).  Each
    bucket gets at least ceil(alpha * f_alloc(0)) slots, so before it
    allocates anything per bucket it raises LightArenaExceeded when B such
    floors, those of an all-light run and so no fewer than this run's, sum
    past LIGHT_ARENA_BASE + LIGHT_ARENA_PER_RECORD * n slots; at the default
    B they sum to about 2.8n, and a run's to about 2.8 per light record.
    Buckets come from 32-bit tabulation values, so the buckets' shares of
    the hash range, and so their expected loads, differ by at most one part
    in 2^32 / B.
    """
    n = len(a)
    light = np.flatnonzero(~is_heavy)
    h = n - len(light)
    if len(light) < cutoff:
        light = _sort_segment(light, a.keys, meter, "light_sort")
        out = Records.empty(n)
        take_into(a.keys, light, out.keys[h:])
        take_into(a.payloads, light, out.payloads[h:])
        return out, 0, math.inf, 0, 0, np.empty(0, np.int64)
    floor = light_arena_floor(params, n)
    budget = LIGHT_ARENA_BASE + LIGHT_ARENA_PER_RECORD * n
    if not floor <= budget:
        raise LightArenaExceeded(
            f"B={params.B} light buckets need at least {floor:.3g} arena slots, "
            f"over the budget of {budget} for n={n}; lower B"
        )
    B = -(-params.B * len(light) // n)
    mid = len(light) // 2
    th = tab_new(derive(run_seed, 3), 32)
    buckets = np.empty(len(light), np.int64)

    def hash_records(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        # Records lo..hi-1 of ``light``: their buckets, and the partial
        # sample counts and sizes per bucket.
        part = light[lo:hi]
        b = buckets[lo:hi]
        b[:] = tab_bucket(th, a.keys[part], B)
        return np.bincount(b[sample_mask[part]], minlength=B), np.bincount(b, minlength=B)

    counts = fork_join(
        meter, lambda m: hash_records(0, mid), lambda m: hash_records(mid, len(light)), mid
    )
    sigma_b, sizes = np.sum(counts, axis=0)
    meter.charge("light_hash", len(light), 1)
    res, offsets, slack = _place_and_pack(
        buckets, sizes, sigma_b, params, n, derive(run_seed, 4), meter, "light_pack"
    )
    del buckets

    # Step 6: local semisort of every bucket (independent in parallel).
    _check_bucket_sizes(sizes, params.K)
    ends = np.cumsum(sizes)
    attempts = np.empty(B, np.int64)
    seed = derive(run_seed, 5)

    def sort_buckets(m: WorkMeter, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # Buckets lo..hi-1: their records' positions and keys in arena order,
        # and the order that semisorts them.
        pos = light[res.span(offsets[lo], offsets[hi])[0]]
        keys = a.keys[pos]
        order, attempts[lo:hi] = rehash_buckets(keys, sizes[lo:hi], params.K, seed, m, lo)
        return pos, keys, order

    def pack(lo: int, pos: np.ndarray, keys: np.ndarray, order: np.ndarray) -> None:
        # Buckets from lo fill the output from h + ends[lo - 1].
        start = h + (int(ends[lo - 1]) if lo else 0)
        take_into(keys, order, out.keys[start : start + len(pos)])
        take_into(a.payloads, pos[order], out.payloads[start : start + len(pos)])

    b_mid = int(np.searchsorted(ends, mid))
    first, second = fork_join(
        meter, lambda m: sort_buckets(m, 0, b_mid), lambda m: sort_buckets(m, b_mid, B), mid
    )
    out = Records.empty(n)
    fork_join(meter, lambda m: pack(0, *first), lambda m: pack(b_mid, *second), mid)
    return out, res.arena_size, slack, res.rounds_used, int(sizes.max()), attempts


def integer_sort(
    a: Records,
    params: SemisortParams | None = None,
    seed: int = 0,
    meter: WorkMeter | None = None,
    traces: list[SemisortTrace] | None = None,
) -> Records:
    """Unstable sort of records with keys in [n] via semisort + one pass.

    The pass is charged as a counting pass over the semisorted records; it
    runs as a stable sort of their keys, so each key's run keeps its order,
    and is skipped when the semisorted keys already ascend (as they do
    whenever every key is heavy, since heavy keys are placed in key order).
    When ``traces`` is a list, the semisort's trace is appended to it.
    """
    n = len(a)
    if meter is None:
        meter = WorkMeter()
    if n == 0:
        return a.copy()
    if int(a.keys.max()) >= n:
        raise KeyOutOfRange(f"keys must lie in [0, {n})")
    semi, trace = semisort(a, params, seed, meter)
    if traces is not None:
        traces.append(trace)
    meter.charge("integer_sort_pass", 4 * n, ceil_log2(n))
    if (semi.keys[1:] >= semi.keys[:-1]).all():
        return semi
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
