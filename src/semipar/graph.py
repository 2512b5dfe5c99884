"""Graph representation, generators, culled balanced partitioning.

Graphs are undirected simple graphs in compressed adjacency form (both
directions stored).  The culled balanced partition removes high-degree
vertices in barrier-separated phases until the max degree drops below
e(H)/(k^4 * ceil(log2 n)), then assigns survivors independently and
uniformly to k pieces.  Reorganization groups vertices by piece and splits
every adjacency list into internal and cut neighbors: the internal edges form
a graph on the new vertex positions, block-diagonal by piece, and the cut
entries keep original ids, so each piece is a slice of both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .meter import WorkMeter, ceil_log2
from .prng import generator
from .records import Records
from .semisort import integer_sort, sorted_distinct

ID_LIMIT = 1 << 32  # vertex ids must fit in 32 bits to pack a pair in a uint64


class InvariantViolation(RuntimeError):
    """A runtime-checked structural guarantee failed (always fatal)."""


class InconsistentPartition(ValueError):
    """Partition does not describe the given graph."""


@dataclass
class Graph:
    """Undirected simple graph: offsets into a flat neighbor array."""

    n: int
    m: int
    offsets: np.ndarray   # n+1 int64, non-decreasing, offsets[n] == 2m
    neighbors: np.ndarray  # 2m int64 vertex ids

    def __post_init__(self) -> None:
        self.offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        self.neighbors = np.ascontiguousarray(self.neighbors, dtype=np.int64)

    def validate(self) -> None:
        if len(self.offsets) != self.n + 1 or self.offsets[0] != 0:
            raise ValueError("bad offsets array")
        if np.any(np.diff(self.offsets) < 0) or self.offsets[-1] != 2 * self.m:
            raise ValueError("offsets must be non-decreasing and end at 2m")
        if len(self.neighbors) != 2 * self.m:
            raise ValueError("neighbor array length must be 2m")
        if self.m and (self.neighbors.min() < 0 or self.neighbors.max() >= self.n):
            raise ValueError("neighbor id out of range")
        rows = np.repeat(np.arange(self.n), self.degrees())
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
            rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
            object.__setattr__(self, "_rows", rows)
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
        deg = np.bincount(remap[rows[sel]], minlength=len(old_ids))
        offsets = np.concatenate(([0], np.cumsum(deg)))
        sub = Graph(len(old_ids), int(deg.sum()) // 2, offsets, remap[self.neighbors[sel]])
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
    m = len(u)
    if m and (min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n):
        raise ValueError(f"edge endpoint outside [0, {n})")
    if np.any(u == v):
        raise ValueError("self-loop in edge list")
    codes = sorted_pair_codes(n, np.concatenate([u, v]), np.concatenate([v, u]))
    if np.any(codes[1:] == codes[:-1]):
        raise ValueError("duplicate edge in edge list")
    row_starts = np.arange(n + 1, dtype=np.uint64) << np.uint64(32)
    offsets = np.searchsorted(codes, row_starts).astype(np.int64)
    dst = (codes & np.uint64(ID_LIMIT - 1)).astype(np.int64)
    return Graph(n=n, m=m, offsets=offsets, neighbors=dst)


def edge_list(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Each undirected edge once, as (u, v) with u < v."""
    rows = g.edge_rows()
    mask = rows < g.neighbors
    return rows[mask], g.neighbors[mask]


# ---------------------------------------------------------------------------
# Generators


def generate(kind: str, n: int, m: int = 0, seed: int = 0) -> Graph:
    """Deterministic simple-graph generators: gnm, star, path, power_law."""
    if n < 1:
        raise ValueError("need at least one vertex")
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
        p = w / w.sum()
        return _sample_edges(n, m, seed, 0x70, lambda rng, size: rng.choice(n, size=size, p=p))
    raise ValueError(f"unknown graph kind {kind!r}")


def _sample_edges(n: int, m: int, seed: int, stream: int, draw) -> Graph:
    """m distinct edges by rejection; ``draw(rng, size)`` samples endpoints.

    Each pass draws 2*need+16 u's, then as many v's, from stream ``stream``,
    drops self-loops and duplicates, and repeats until m edges exist; stream
    ``stream + 1`` then picks a uniform m-subset.
    """
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise ValueError(f"m={m} exceeds simple-graph maximum {max_m}")
    rng = generator(seed, stream)
    codes = np.empty(0, dtype=np.uint64)
    while len(codes) < m:
        size = 2 * (m - len(codes)) + 16
        uu = draw(rng, size)
        vv = draw(rng, size)
        lo, hi = np.minimum(uu, vv), np.maximum(uu, vv)
        ok = lo < hi
        new = (lo[ok].astype(np.uint64) * np.uint64(n)) + hi[ok].astype(np.uint64)
        codes = sorted_distinct(np.concatenate([codes, new]))
    codes = codes[generator(seed, stream + 1).permutation(len(codes))[:m]]
    u = (codes // np.uint64(n)).astype(np.int64)
    v = (codes % np.uint64(n)).astype(np.int64)
    return from_edges(n, u, v)


# ---------------------------------------------------------------------------
# Culled balanced partition

CULLED = -1


def row_counts(g: Graph, entry_mask: np.ndarray) -> np.ndarray:
    """Per vertex, how many of its adjacency entries ``entry_mask`` marks."""
    cs = np.concatenate(([0], np.cumsum(entry_mask, dtype=np.int64)))
    return cs[g.offsets[1:]] - cs[g.offsets[:-1]]


def alive_degrees(g: Graph, alive: np.ndarray) -> np.ndarray:
    """Degree into the subgraph induced by ``alive``, zero for removed vertices."""
    deg = row_counts(g, alive[g.neighbors])
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
        edges = int(deg.sum()) // 2
        meter.charge("cull.degree_pass", 2 * g.m + g.n)
        meter.tick(1)
        if edges == 0 or deg.max() <= cull_threshold(edges, k, n0):
            break
        alive[phase_cull(deg, k, n0)] = False
        phases += 1
        # Phase-progress check: degree condition met or edges halved.  The
        # next phase starts from these degrees.
        deg = alive_degrees(g, alive)
        new_edges = int(deg.sum()) // 2
        cond_met = new_edges == 0 or deg.max() <= cull_threshold(new_edges, k, n0)
        if not (cond_met or new_edges <= edges / 2):
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
    meter.charge("cull.assign", g.n)
    meter.tick(1)
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
    deg = alive_degrees(g, alive)
    edges = int(deg.sum()) // 2
    return edges == 0 or int(deg.max()) <= cull_threshold(edges, p.k, g.n)


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


def _rows_in_order(
    values: np.ndarray, counts: np.ndarray, perm: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Move the rows of a flat array (row i holds counts[i] entries) into the
    order ``perm`` with one segmented gather; returns (offsets, values)."""
    new_counts = counts[perm]
    offsets = np.concatenate(([0], np.cumsum(new_counts)))
    idx = np.repeat((np.cumsum(counts) - counts)[perm] - offsets[:-1], new_counts)
    idx += np.arange(len(idx))
    return offsets, values[idx]


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
        local = Graph(hi - lo, len(nbrs) // 2, off - off[0], nbrs)
        cut_rows = np.repeat(np.arange(hi - lo, dtype=np.int64), np.diff(cut_off))
        return self.perm[lo:hi], local, cut_rows, self.cut[cut_off[0] : cut_off[-1]]


def reorganize(
    g: Graph, p: CulledPartition, seed: int = 0, meter: WorkMeter | None = None
) -> ReorganizedGraph:
    """Group vertices by piece id and split adjacency lists at the cut.

    The vertex permutation comes from the linear-work integer sort (culled
    vertices keyed as piece k).  One mask marks the internal entries; the
    internal entries (as new positions) and the cut entries (original ids)
    are each compacted in entry order, then moved to their new rows with one
    segmented gather.  Nothing sorts the adjacency entries.
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
        meter.charge("reorganize.rank", g.n * ceil_log2(g.n))
        meter.tick(ceil_log2(g.n))
    recs = Records(keys.astype(np.uint64), np.arange(g.n, dtype=np.uint64))
    perm = integer_sort(recs, None, seed, meter).payloads.astype(np.int64)
    inv = np.empty(g.n, dtype=np.int64)
    inv[perm] = np.arange(g.n)

    # Both branches bound the key range by n, so this count never grows with k.
    sizes = np.bincount(keys, minlength=len(piece_ids))
    present = sizes > 0
    piece_ids = piece_ids[present]
    piece_boundaries = np.concatenate(([0], np.cumsum(sizes[present])))

    deg = g.degrees()
    internal = piece_of[g.neighbors] == np.repeat(piece_of, deg)
    internal_deg = row_counts(g, internal)
    offsets, nbrs = _rows_in_order(inv[g.neighbors[internal]], internal_deg, perm)
    cut_offsets, cut = _rows_in_order(g.neighbors[~internal], deg - internal_deg, perm)
    meter.charge("reorganize.adjacency", 4 * g.m)
    meter.tick(ceil_log2(2 * g.m))
    internal_graph = Graph(g.n, len(nbrs) // 2, offsets, nbrs)
    return ReorganizedGraph(perm, inv, internal_graph, cut_offsets, cut, piece_ids, piece_boundaries)
