"""Graph representation, generators, culled balanced partitioning.

Graphs are undirected simple graphs in compressed adjacency form (both
directions stored).  The culled balanced partition removes high-degree
vertices in barrier-separated phases until the max degree drops below
e(H)/(k^4 * ceil(log2 n)), then assigns survivors independently and
uniformly to k pieces.  Reorganization groups vertices by piece, splits each
adjacency row into internal and cut neighbors and moves both parts to the
row's new position once: the internal edges form a graph on the new vertex
positions, block-diagonal by piece, and the cut entries keep original ids,
so each piece is a slice of both.  A vertex pair packs as the uint64
src * 2^32 + dst.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .meter import WorkMeter, ceil_log2
from .parallel import fork_join
from .prng import generator
from .records import Records
from .semisort import SemisortParams, integer_sort, segment_index, sorted_distinct

ID_LIMIT = 1 << 32  # vertex ids must fit in 32 bits to pack a pair in a uint64


class InvariantViolation(RuntimeError):
    """A runtime-checked structural guarantee failed (always fatal)."""


class InconsistentPartition(ValueError):
    """Partition does not describe the given graph."""


@dataclass
class Graph:
    """Undirected simple graph: offsets into a flat neighbor array."""

    n: int
    offsets: np.ndarray   # n+1 int64, non-decreasing, offsets[n] == 2m
    neighbors: np.ndarray  # 2m int64 vertex ids

    def __post_init__(self) -> None:
        self.offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        self.neighbors = np.ascontiguousarray(self.neighbors, dtype=np.int64)

    @property
    def m(self) -> int:
        """Undirected edge count: each edge is stored in both directions."""
        return len(self.neighbors) // 2

    def validate(self) -> None:
        if len(self.offsets) != self.n + 1 or self.offsets[0] != 0:
            raise ValueError("bad offsets array")
        if np.any(np.diff(self.offsets) < 0) or self.offsets[-1] != len(self.neighbors):
            raise ValueError("offsets must be non-decreasing and end at the neighbor count")
        if len(self.neighbors) % 2:
            raise ValueError("neighbor array length must be even")
        if self.m and (self.neighbors.min() < 0 or self.neighbors.max() >= self.n):
            raise ValueError("neighbor id out of range")
        rows = self.edge_rows()
        if np.any(rows == self.neighbors):
            raise ValueError("self-loop present")
        fwd = sorted_pair_codes(self.n, rows, self.neighbors)
        if not np.array_equal(fwd, sorted_pair_codes(self.n, self.neighbors, rows)):
            raise ValueError("adjacency not symmetric")

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def row(self, v: int) -> np.ndarray:
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    def edge_rows(self) -> np.ndarray:
        """Source vertex of each directed adjacency entry (cached)."""
        rows = getattr(self, "_rows", None)
        if rows is None:
            self._rows = rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        return rows

    def max_degree(self) -> int:
        return int(self.degrees().max()) if self.n else 0

    def induced(self, keep: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Subgraph on the vertices where ``keep``; returns (sub, old ids)."""
        old_ids = np.flatnonzero(keep)
        remap = np.full(self.n, -1, dtype=np.int64)
        remap[old_ids] = np.arange(len(old_ids))
        rows = self.edge_rows()
        sel = keep[rows] & keep[self.neighbors]
        # Kept rows stay non-decreasing, so the entries are already in CSR order.
        deg = np.bincount(remap[np.compress(sel, rows)], minlength=len(old_ids))
        offsets = np.concatenate(([0], np.cumsum(deg)))
        sub = Graph(len(old_ids), offsets, remap[np.compress(sel, self.neighbors)])
        return sub, old_ids


def sorted_pair_codes(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Directed pairs (src, dst) of ids in [0, n), each packed as the uint64
    src * 2^32 + dst, in ascending (src, dst) order."""
    if n >= ID_LIMIT:
        raise ValueError(f"vertex count {n} does not fit below 2^32")
    codes = src.astype(np.uint64) << np.uint64(32)
    codes |= dst.astype(np.uint64)
    codes.sort()
    return codes


def from_edges(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """Build a Graph from undirected edge endpoint arrays.

    Raises ValueError on an endpoint outside [0, n), on n >= 2^32, or on a
    self-loop or repeated edge (in either orientation), since a Graph is simple.
    """
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    if len(u) and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
        raise ValueError(f"edge endpoint outside [0, {n})")
    if np.any(u == v):
        raise ValueError("self-loop in edge list")
    codes = sorted_pair_codes(n, np.concatenate([u, v]), np.concatenate([v, u]))
    if np.any(codes[1:] == codes[:-1]):
        raise ValueError("duplicate edge in edge list")
    row_starts = np.arange(n + 1, dtype=np.uint64) << np.uint64(32)
    offsets = np.searchsorted(codes, row_starts).astype(np.int64)
    dst = (codes & np.uint64(ID_LIMIT - 1)).astype(np.int64)
    return Graph(n=n, offsets=offsets, neighbors=dst)


def edge_list(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Each undirected edge once, as (u, v) with u < v."""
    rows = g.edge_rows()
    mask = rows < g.neighbors
    return np.compress(mask, rows), np.compress(mask, g.neighbors)


# ---------------------------------------------------------------------------
# Generators


class EdgeSamplingExceeded(ValueError):
    """Rejection sampling sorted more candidate edges than its budget allows:
    the request is too dense for it to finish in reasonable time."""


# Candidate edges the rejection loop may sort, summed over its passes, are
# capped at SAMPLE_BUDGET_BASE + SAMPLE_BUDGET_PER_EDGE * m.
SAMPLE_BUDGET_BASE = 1 << 26
SAMPLE_BUDGET_PER_EDGE = 16


def generate(kind: str, n: int, m: int = 0, seed: int = 0) -> Graph:
    """Deterministic simple-graph generators: gnm, star, path, power_law.

    gnm and power_law take m distinct edges by rejection (``_sample_edges``);
    power_law draws each endpoint from rank-decaying weights by guide-table
    inversion (``_inverse_cdf_sampler``), draw for draw equal to
    ``Generator.choice``.  Raises ValueError on n outside [1, 2^32), on m not
    an integer in [0, n(n-1)/2], and EdgeSamplingExceeded (a ValueError) on a
    request too dense for rejection sampling.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n >= ID_LIMIT:
        raise ValueError(f"vertex count {n} does not fit below 2^32")
    if kind == "path":
        u = np.arange(n - 1)
        return from_edges(n, u, u + 1)
    if kind == "star":
        leaves = np.arange(1, n)
        return from_edges(n, np.zeros(n - 1, dtype=np.int64), leaves)
    if kind == "gnm":
        return _sample_edges(
            n, m, seed, 0x6E, lambda rng, size: rng.integers(0, n, size=size, dtype=np.int64)
        )
    if kind == "power_law":
        # Chung-Lu style: endpoints sampled with rank-decaying weights.
        w = (np.arange(1, n + 1, dtype=np.float64)) ** -0.75
        return _sample_edges(n, m, seed, 0x70, _inverse_cdf_sampler(w / w.sum()))
    raise ValueError(f"unknown graph kind {kind!r}; expected gnm, star, path or power_law")


def _inverse_cdf_sampler(p: np.ndarray):
    """``draw(rng, size)`` equal draw for draw to ``rng.choice(len(p), size, p=p)``.

    Both invert the same cdf (``p.cumsum() / its last entry``, so the last
    entry is exactly 1.0) at the same uniforms ``rng.random(size)``, giving
    #{cdf <= u}.  Instead of choice's binary search, a guide table (Chen &
    Asau 1974) does it in constant expected time: with T a power of two
    >= 2n, u*T and j/T are exact, and for u in [j/T, (j+1)/T) the answer
    lies in [guide[j], guide[j+1]], where guide[j] = #{cdf <= j/T}.  So from
    guide[j], max(diff(guide)) steps past cdf values <= u reach it exactly.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    T = 2 << (len(p) - 1).bit_length()
    guide = cdf.searchsorted(np.arange(T + 1) / T, side="right")
    width = int(np.diff(guide).max())

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        idx = guide[(u * T).astype(np.int64)]
        for _ in range(width):
            idx += cdf[idx] <= u
        return idx

    return draw


def _sample_edges(n: int, m: int, seed: int, stream: int, draw) -> Graph:
    """m distinct edges by rejection; ``draw(rng, size)`` samples endpoints.

    Each pass draws 2*need+16 u's, then as many v's, from stream ``stream``,
    drops self-loops and duplicates, and repeats until m edges exist; stream
    ``stream + 1`` then picks a uniform m-subset.  Each pass re-sorts the
    edges found so far with the new ones, and near full density the last
    few edges take many passes, so once the sorted entries pass
    SAMPLE_BUDGET_BASE + SAMPLE_BUDGET_PER_EDGE * m it raises
    EdgeSamplingExceeded.
    """
    max_m = n * (n - 1) // 2
    if isinstance(m, bool) or not isinstance(m, numbers.Integral):
        raise ValueError(f"m must be an integer, got {m!r}")
    if not 0 <= m <= max_m:
        raise ValueError(f"m={m} must lie in [0, {max_m}]")
    m = int(m)
    budget = SAMPLE_BUDGET_BASE + SAMPLE_BUDGET_PER_EDGE * m
    rng = generator(seed, stream)
    codes = np.empty(0, dtype=np.uint64)
    sorted_entries = 0
    while len(codes) < m:
        size = 2 * (m - len(codes)) + 16
        uu = draw(rng, size)
        vv = draw(rng, size)
        lo, hi = np.minimum(uu, vv), np.maximum(uu, vv)
        ok = lo < hi
        new = lo[ok].astype(np.uint64) << np.uint64(32)
        new |= hi[ok].astype(np.uint64)
        sorted_entries += len(codes) + len(new)
        if sorted_entries > budget:
            raise EdgeSamplingExceeded(
                f"m={m} on n={n} is too dense to sample: {len(codes)} distinct edges "
                f"after sorting {sorted_entries} candidates (budget {budget})"
            )
        codes = sorted_distinct(np.concatenate([codes, new]))
    codes = codes[generator(seed, stream + 1).permutation(len(codes))[:m]]
    u = (codes >> np.uint64(32)).astype(np.int64)
    v = (codes & np.uint64(ID_LIMIT - 1)).astype(np.int64)
    return from_edges(n, u, v)


# ---------------------------------------------------------------------------
# Culled balanced partition

CULLED = -1


def alive_degrees(g: Graph, alive: np.ndarray) -> np.ndarray:
    """Degree into the subgraph induced by ``alive``, zero for removed vertices."""
    cs = np.concatenate(([0], np.cumsum(alive[g.neighbors], dtype=np.int64)))
    deg = cs[g.offsets[1:]] - cs[g.offsets[:-1]]
    deg[~alive] = 0
    return deg


@dataclass
class CulledPartition:
    """Removed vertex set plus a k-way assignment of the survivors."""

    culled: np.ndarray       # vertex ids of the removed set C
    assignment: np.ndarray   # per-vertex bucket in [k], CULLED for removed
    k: int
    phases: int


def cull_threshold(edges: int, k: int, n0: int) -> float:
    """Removal threshold e(H) / (k^4 * ceil(log2 n0))."""
    return edges / (k**4 * ceil_log2(n0))


def meets_cull_rule(deg: np.ndarray, k: int, n0: int) -> bool:
    """The stopping rule of culling: degrees ``deg`` span no edge, or none
    exceeds the cull threshold of their edge count."""
    edges = int(deg.sum()) // 2
    return edges == 0 or int(deg.max()) <= cull_threshold(edges, k, n0)


def phase_cull(deg: np.ndarray, k: int, n0: int) -> np.ndarray:
    """One culling phase: vertices with phase-entry degree > tau/2.

    ``deg`` holds the phase-entry degrees into the surviving subgraph (zero
    for removed vertices).  All removals are computed against them (a single
    parallel pass, not sequential peeling).  Requires at least one edge.
    """
    edges = int(deg.sum()) // 2
    if edges < 1:
        raise ValueError("phase_cull requires at least one edge")
    return np.flatnonzero(deg > cull_threshold(edges, k, n0) / 2)


def cull_partition(
    g: Graph, k: int, seed: int, meter: WorkMeter | None = None
) -> CulledPartition:
    """Iterative culling then uniform random assignment of survivors to [k].

    Each phase's degrees come from the last phase's: a survivor loses one
    degree per entry of it in the rows culled this phase, and every culled
    vertex is zeroed, so a phase reads only the culled rows, not all of the
    adjacency (``alive_degrees`` computes the same degrees from scratch).
    Checks at runtime, per phase: either the degree condition holds at phase
    exit or the edge count halved; phase count stays within ceil(log2 m)+1;
    the culled set stays within phases * 4k^4 * ceil(log2 n).
    """
    if k < 1:
        raise ValueError("piece count k must be >= 1")
    if meter is None:
        meter = WorkMeter()
    n0 = g.n
    lg_n0 = ceil_log2(n0)
    alive = np.ones(g.n, dtype=bool)
    deg = g.degrees()
    phases = 0
    max_phases = ceil_log2(g.m) + 1
    while True:
        meter.charge("cull.degree_pass", 2 * g.m + g.n, 1)
        if meets_cull_rule(deg, k, n0):
            break
        edges = int(deg.sum()) // 2
        culled = phase_cull(deg, k, n0)
        alive[culled] = False
        phases += 1
        # Phase-progress check: degree condition met or edges halved.  The
        # next phase starts from these degrees.
        rows = segment_index(g.offsets[culled], g.degrees()[culled])
        deg -= np.bincount(g.neighbors[rows], minlength=g.n)
        deg[~alive] = 0
        new_edges = int(deg.sum()) // 2
        if not (meets_cull_rule(deg, k, n0) or new_edges <= edges / 2):
            raise InvariantViolation(
                f"phase {phases}: degree condition unmet and edges did not halve "
                f"({edges} -> {new_edges})"
            )
        if phases > max_phases:
            raise InvariantViolation(
                f"culling ran {phases} phases, cap {max_phases}"
            )
    culled = np.flatnonzero(~alive)
    if len(culled) > phases * 4 * k**4 * lg_n0:
        raise InvariantViolation(
            f"|C| = {len(culled)} exceeds {phases} * 4k^4*ceil(log2 n)"
        )

    assignment = np.full(g.n, CULLED, dtype=np.int64)
    rng = generator(seed, 0xCA11)
    survivors = np.flatnonzero(alive)
    assignment[survivors] = rng.integers(0, k, size=len(survivors))
    meter.charge("cull.assign", g.n, 1)
    return CulledPartition(culled=culled, assignment=assignment, k=k, phases=phases)


def verify_partition(g: Graph, p: CulledPartition) -> bool:
    """Check a culled partition against its definition, not its construction.

    The culled ids are exactly the vertices assigned CULLED, every survivor
    lies in a piece of [0, k), and the survivors' subgraph has no edges or
    max degree at most its cull threshold.
    """
    if len(p.assignment) != g.n:
        return False
    alive = p.assignment != CULLED
    if not np.array_equal(np.sort(p.culled), np.flatnonzero(~alive)):
        return False
    if np.any((p.assignment[alive] < 0) | (p.assignment[alive] >= p.k)):
        return False
    return meets_cull_rule(alive_degrees(g, alive), p.k, g.n)


def piece_edge_counts(g: Graph, p: CulledPartition) -> np.ndarray:
    """Edges internal to each non-empty piece, in ascending piece id order.

    Culled vertices are excluded.  Only the pieces some vertex lies in are
    counted, so the result has at most n entries however large k is.
    """
    u, v = edge_list(g)
    pu, pv = p.assignment[u], p.assignment[v]
    internal = (pu == pv) & (pu != CULLED)
    piece_ids = sorted_distinct(p.assignment[p.assignment != CULLED])
    return np.bincount(np.searchsorted(piece_ids, pu[internal]), minlength=len(piece_ids))


# ---------------------------------------------------------------------------
# Reorganization


@dataclass
class ReorganizedGraph:
    """Vertices grouped by piece; adjacency split into internal and cut parts.

    Vertex position i (new order) holds original vertex perm[i].  Culled
    vertices form piece k.  Only non-empty pieces are listed: piece
    piece_ids[t] holds positions piece_boundaries[t] to
    piece_boundaries[t + 1], so both arrays stay within n + 1 entries however
    large k is.  ``internal`` is the graph of the edges inside a piece on the
    new positions, so it is block-diagonal by piece.  The cut neighbors of
    position i are cut[cut_offsets[i] : cut_offsets[i + 1]], as original
    ids.  Both keep each row's entries in original adjacency order.
    """

    perm: np.ndarray            # new position -> original vertex id
    inv: np.ndarray             # original vertex id -> new position
    internal: Graph             # internal edges on new positions
    cut_offsets: np.ndarray     # n+1, cut-entry offsets in new order
    cut: np.ndarray             # original ids of the cut neighbors
    piece_ids: np.ndarray       # ascending ids of the non-empty pieces
    piece_boundaries: np.ndarray  # len(piece_ids)+1 offsets into the new vertex order

    def piece_range(self, i: int) -> tuple[int, int]:
        """Positions [lo, hi) of piece id i; lo == hi when the piece is empty."""
        t = int(np.searchsorted(self.piece_ids, i))
        lo = int(self.piece_boundaries[t])
        present = t < len(self.piece_ids) and self.piece_ids[t] == i
        return lo, int(self.piece_boundaries[t + 1]) if present else lo

    def piece(self, i: int) -> tuple[np.ndarray, Graph, np.ndarray, np.ndarray]:
        """Piece i as (original ids, local graph, cut rows, cut neighbors).

        The local graph is ``internal`` restricted to the piece, with vertex
        j standing for original vertex perm[lo + j]; cut entry t joins local
        vertex cut_rows[t] to original vertex cut_nbrs[t].
        """
        lo, hi = self.piece_range(i)
        off, cut_off = self.internal.offsets[lo : hi + 1], self.cut_offsets[lo : hi + 1]
        nbrs = self.internal.neighbors[off[0] : off[-1]] - lo
        local = Graph(hi - lo, off - off[0], nbrs)
        cut_rows = np.repeat(np.arange(hi - lo, dtype=np.int64), np.diff(cut_off))
        return self.perm[lo:hi], local, cut_rows, self.cut[cut_off[0] : cut_off[-1]]


def reorganize(
    g: Graph, p: CulledPartition, seed: int = 0, meter: WorkMeter | None = None
) -> ReorganizedGraph:
    """Group vertices by piece id and split adjacency lists at the cut.

    The vertex permutation comes from the linear-work integer sort (culled
    vertices keyed as piece k).  Whether an entry is internal or cut depends
    only on the partition, so two branches run side by side (``fork_join``):
    the helper thread compacts the internal and the cut neighbours, each in
    original entry order, and counts each vertex's internal entries, while
    the caller integer-sorts the vertices.  After the join, segmented
    gathers move both streams into the new row order, the internal one
    mapped to new positions, again as two branches: the helper takes the
    first rows of the cut stream, the caller the internal stream and the
    other cut rows.  Below ``small_n_cutoff`` adjacency entries, or on one
    CPU, the branches run in turn on the caller.  Only the caller's branches
    charge, so the meter sees the same charges in the same order either
    way.  Nothing sorts the adjacency entries.
    """
    if meter is None:
        meter = WorkMeter()
    if len(p.assignment) != g.n:
        raise InconsistentPartition("assignment length differs from vertex count")
    piece_of = np.where(p.assignment == CULLED, p.k, p.assignment)
    if piece_of.max(initial=0) > p.k:
        raise InconsistentPartition("bucket id out of range")

    # Vertex permutation: integer-sort vertex ids keyed by piece.  Integer
    # sort needs keys below n; when piece ids can reach n, key each vertex by
    # its piece id's rank among the ids present, which keeps the order.
    if p.k < g.n:
        keys, piece_ids = piece_of, np.arange(p.k + 1)
    else:
        piece_ids = sorted_distinct(piece_of)
        keys = np.searchsorted(piece_ids, piece_of)
        meter.charge("reorganize.rank", g.n * ceil_log2(g.n), ceil_log2(g.n))

    def sort_vertices(m: WorkMeter) -> tuple[np.ndarray, np.ndarray]:
        recs = Records(keys.astype(np.uint64), np.arange(g.n, dtype=np.uint64))
        perm = integer_sort(recs, None, seed, m).payloads.astype(np.int64)
        inv = np.empty(g.n, dtype=np.int64)
        inv[perm] = np.arange(g.n)
        return perm, inv

    # The helper thread writes what it keeps into arrays allocated here: an
    # array it allocated itself would come from its own malloc arena, which
    # hands the pages back to the system once the caller frees the array, so
    # every call would fault them in afresh.
    fork = len(g.neighbors) >= SemisortParams.small_n_cutoff
    streams = np.empty(len(g.neighbors), dtype=np.int64)
    internal_start = np.empty(g.n + 1, dtype=np.int64)
    internal_count, (perm, inv) = fork_join(
        meter,
        lambda m: _split_at_cut(g, keys, len(piece_ids), streams, internal_start),
        sort_vertices,
        fork,
    )
    internal_nbrs, cut_nbrs = streams[:internal_count], streams[internal_count:]

    # Both branches bound the key range by n, so this count never grows with k.
    sizes = np.bincount(keys, minlength=len(piece_ids))
    present = sizes > 0
    piece_ids = piece_ids[present]
    piece_boundaries = np.concatenate(([0], np.cumsum(sizes[present])))

    # Row i of the new order is vertex v = perm[i]: its internal entries
    # start at internal_start[v] in their stream, its cut entries at
    # g.offsets[v] - internal_start[v] in theirs.
    internal_deg = np.diff(internal_start)[perm]
    cut_deg = g.degrees()[perm] - internal_deg
    offsets = np.concatenate(([0], np.cumsum(internal_deg)))
    cut_offsets = np.concatenate(([0], np.cumsum(cut_deg)))
    cut_start = (g.offsets[:-1] - internal_start[:-1])[perm]
    nbrs = np.empty(offsets[-1], dtype=np.int64)
    cut = np.empty(cut_offsets[-1], dtype=np.int64)

    def gather_cut(lo: int, hi: int) -> None:
        idx = segment_index(cut_start[lo:hi], cut_deg[lo:hi])
        np.take(cut_nbrs, idx, out=cut[cut_offsets[lo] : cut_offsets[hi]], mode="clip")

    def gather_internal_and_cut_tail(split: int) -> None:
        idx = segment_index(internal_start[:-1][perm], internal_deg)
        np.take(inv, internal_nbrs[idx], out=nbrs, mode="clip")
        gather_cut(split, g.n)

    # An internal entry costs two gathers, a cut entry one: the helper takes
    # the first rows of the cut stream, up to half of that total.
    split = min(int(np.searchsorted(cut_offsets, (len(cut) + 2 * len(nbrs)) // 2)), g.n)
    fork_join(
        meter,
        lambda m: gather_cut(0, split),
        lambda m: gather_internal_and_cut_tail(split),
        fork,
    )
    meter.charge("reorganize.adjacency", 4 * g.m, ceil_log2(2 * g.m))
    internal_graph = Graph(g.n, offsets, nbrs)
    return ReorganizedGraph(perm, inv, internal_graph, cut_offsets, cut, piece_ids, piece_boundaries)


def _split_at_cut(
    g: Graph, keys: np.ndarray, key_count: int, streams: np.ndarray, internal_start: np.ndarray
) -> int:
    """Split every adjacency row at the cut of the piece keys ``keys``.

    Writes the internal neighbours, then the cut neighbours (original ids),
    each in original entry order, into ``streams`` (one slot per entry), and
    for each vertex v where its internal entries start in the internal
    stream into ``internal_start`` (n + 1 entries, the last the stream
    length); returns the internal stream's length.  Keys are compared in
    their narrowest dtype.
    """
    piece = keys.astype(np.min_scalar_type(max(key_count - 1, 0)))
    internal = piece[g.neighbors] == np.repeat(piece, g.degrees())
    at = np.flatnonzero(internal)
    internal_start[:] = np.searchsorted(at, g.offsets)
    count = len(at)
    # "clip" writes straight into ``out`` (mode "raise" buffers it); every
    # index is in range.
    np.take(g.neighbors, at, out=streams[:count], mode="clip")
    del at
    np.logical_not(internal, out=internal)
    np.take(g.neighbors, np.flatnonzero(internal), out=streams[count:], mode="clip")
    return count
