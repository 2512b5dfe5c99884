"""Graph representation, generators, culled balanced partitioning.

Graphs are undirected simple graphs in compressed adjacency form (both
directions stored).  The culled balanced partition removes high-degree
vertices in barrier-separated phases until the max degree drops below
e(H)/(k^4 * ceil(log2 n)), then assigns survivors independently and
uniformly to k pieces.  Reorganization groups vertices by piece and splits
every adjacency list into internal and cut neighbors.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .meter import WorkMeter
from .prng import generator
from .records import Records
from .semisort import integer_sort

CSR_MAGIC = b"PCSR"


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
        if self.m:
            if self.neighbors.min() < 0 or self.neighbors.max() >= self.n:
                raise ValueError("neighbor id out of range")
        rows = np.repeat(np.arange(self.n), self.degrees())
        if np.any(rows == self.neighbors):
            raise ValueError("self-loop present")
        fwd = np.lexsort((self.neighbors, rows))
        rev = np.lexsort((rows, self.neighbors))
        if not (
            np.array_equal(rows[fwd], self.neighbors[rev])
            and np.array_equal(self.neighbors[fwd], rows[rev])
        ):
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


def from_edges(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """Build a Graph from undirected edge endpoint arrays (no dups, no loops)."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    m = len(u)
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    deg = np.bincount(src, minlength=n)
    offsets = np.concatenate(([0], np.cumsum(deg))).astype(np.int64)
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
        # Sorted distinct codes; np.unique would take its slower hash path.
        codes = np.sort(np.concatenate([codes, new]))
        fresh = np.ones(len(codes), dtype=bool)
        fresh[1:] = codes[1:] != codes[:-1]
        codes = codes[fresh]
    codes = codes[generator(seed, stream + 1).permutation(len(codes))[:m]]
    u = (codes // np.uint64(n)).astype(np.int64)
    v = (codes % np.uint64(n)).astype(np.int64)
    return from_edges(n, u, v)


# ---------------------------------------------------------------------------
# File formats


def write_edge_list(path: str | Path, g: Graph) -> None:
    u, v = edge_list(g)
    with open(path, "w") as fh:
        for a, b in zip(u.tolist(), v.tolist()):
            fh.write(f"{a} {b}\n")


def read_edge_list(path: str | Path, n: int | None = None) -> Graph:
    u, v = [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            a, b = line.split()
            u.append(int(a))
            v.append(int(b))
    u_arr = np.asarray(u, dtype=np.int64)
    v_arr = np.asarray(v, dtype=np.int64)
    if n is None:
        n = int(max(u_arr.max(initial=-1), v_arr.max(initial=-1)) + 1)
    return from_edges(n, u_arr, v_arr)


def write_csr(path: str | Path, g: Graph) -> None:
    with open(path, "wb") as fh:
        fh.write(CSR_MAGIC)
        fh.write(struct.pack("<QQ", g.n, g.m))
        fh.write(g.offsets.astype("<i8").tobytes())
        fh.write(g.neighbors.astype("<i8").tobytes())


def read_csr(path: str | Path) -> Graph:
    data = Path(path).read_bytes()
    if data[:4] != CSR_MAGIC:
        raise ValueError("bad CSR magic")
    if len(data) < 20:
        raise ValueError("truncated CSR file")
    n, m = struct.unpack_from("<QQ", data, 4)
    if len(data) < 20 + 8 * (n + 1) + 16 * m:
        raise ValueError("truncated CSR file")
    offsets = np.frombuffer(data, dtype="<i8", count=n + 1, offset=20).copy()
    neighbors = np.frombuffer(data, dtype="<i8", count=2 * m, offset=20 + 8 * (n + 1)).copy()
    return Graph(n=int(n), m=int(m), offsets=offsets, neighbors=neighbors)


# ---------------------------------------------------------------------------
# Culled balanced partition

CULLED = -1


@dataclass
class GraphView:
    """A graph restricted to the vertices where ``alive`` holds."""

    graph: Graph
    alive: np.ndarray

    def alive_degrees(self) -> np.ndarray:
        """Degree into the surviving subgraph, zero for removed vertices."""
        flags = self.alive[self.graph.neighbors].astype(np.int64)
        cs = np.concatenate(([0], np.cumsum(flags)))
        deg = cs[self.graph.offsets[1:]] - cs[self.graph.offsets[:-1]]
        deg[~self.alive] = 0
        return deg

    def edge_count(self) -> int:
        return int(self.alive_degrees().sum()) // 2


@dataclass
class CulledPartition:
    """Removed vertex set plus a k-way assignment of the survivors."""

    culled: np.ndarray       # vertex ids of the removed set C
    assignment: np.ndarray   # per-vertex bucket in [k], CULLED for removed
    k: int
    phases: int


def cull_threshold(edges: int, k: int, n0: int) -> float:
    """Removal threshold e(H) / (k^4 * ceil(log2 n0))."""
    lg = max(1, math.ceil(math.log2(max(n0, 2))))
    return edges / (k**4 * lg)


def phase_cull(view: GraphView, k: int, n0: int) -> np.ndarray:
    """One culling phase: vertices with phase-entry degree > tau/2.

    All removals are computed against the degrees at phase entry (a single
    parallel pass, not sequential peeling).  Requires e(view) >= 1.
    """
    deg = view.alive_degrees()
    edges = int(deg.sum()) // 2
    if edges < 1:
        raise ValueError("phase_cull requires at least one edge")
    tau = cull_threshold(edges, k, n0)
    return np.flatnonzero(view.alive & (deg > tau / 2))


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
    lg_n0 = max(1, math.ceil(math.log2(max(n0, 2))))
    alive = np.ones(g.n, dtype=bool)
    view = GraphView(g, alive)
    deg = view.alive_degrees()
    phases = 0
    max_phases = (max(1, (max(g.m, 2) - 1).bit_length())) + 1
    while True:
        edges = int(deg.sum()) // 2
        meter.charge("cull.degree_pass", 2 * g.m + g.n)
        meter.tick(1)
        if edges == 0 or deg.max() <= cull_threshold(edges, k, n0):
            break
        alive[phase_cull(view, k, n0)] = False
        phases += 1
        # Phase-progress check: degree condition met or edges halved.  The
        # next phase starts from these degrees.
        deg = view.alive_degrees()
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


def piece_edge_counts(g: Graph, p: CulledPartition) -> np.ndarray:
    """Edges internal to each piece (culled vertices excluded)."""
    u, v = edge_list(g)
    pu, pv = p.assignment[u], p.assignment[v]
    internal = (pu == pv) & (pu != CULLED)
    return np.bincount(pu[internal], minlength=p.k)


# ---------------------------------------------------------------------------
# Reorganization


@dataclass
class ReorganizedGraph:
    """Vertices grouped by piece; adjacency split into internal/cut blocks.

    Vertex position i (new order) holds original vertex perm[i].  Culled
    vertices form piece k.  For position i, neighbors[offsets[i] :
    offsets[i] + split[i]] lie in the same piece; the rest lie elsewhere.
    Neighbor entries use original vertex ids.
    """

    graph: Graph
    partition: CulledPartition
    perm: np.ndarray            # new position -> original vertex id
    inv: np.ndarray             # original vertex id -> new position
    offsets: np.ndarray         # n+1, adjacency offsets in new order
    neighbors: np.ndarray       # 2m original ids, grouped by neighbor piece
    split: np.ndarray           # internal-neighbor count per new position
    piece_boundaries: np.ndarray  # k+2 offsets into the new vertex order

    def piece_vertices(self, i: int) -> np.ndarray:
        lo, hi = self.piece_boundaries[i], self.piece_boundaries[i + 1]
        return self.perm[lo:hi]


def reorganize(
    g: Graph, p: CulledPartition, seed: int = 0, meter: WorkMeter | None = None
) -> ReorganizedGraph:
    """Group vertices by piece id and split adjacency lists at the cut.

    The vertex permutation comes from the linear-work integer sort (culled
    vertices keyed as piece k); adjacency lists are then grouped by neighbor
    piece with a counting pass per list.
    """
    if meter is None:
        meter = WorkMeter()
    if len(p.assignment) != g.n:
        raise InconsistentPartition("assignment length differs from vertex count")
    piece_of = np.where(p.assignment == CULLED, p.k, p.assignment)
    if piece_of.max(initial=0) > p.k:
        raise InconsistentPartition("bucket id out of range")

    # Vertex permutation: integer-sort vertex ids keyed by piece.
    recs = Records(piece_of.astype(np.uint64), np.arange(g.n, dtype=np.uint64))
    sorted_recs = integer_sort(recs, None, seed, meter)
    perm = sorted_recs.payloads.astype(np.int64)
    inv = np.empty(g.n, dtype=np.int64)
    inv[perm] = np.arange(g.n)

    piece_counts = np.bincount(piece_of, minlength=p.k + 1)
    piece_boundaries = np.concatenate(([0], np.cumsum(piece_counts))).astype(np.int64)

    # Adjacency: stable counting order by (new row, neighbor piece).
    deg = g.degrees()
    new_offsets = np.concatenate(([0], np.cumsum(deg[perm]))).astype(np.int64)
    rows_old = g.edge_rows()
    rows_new = inv[rows_old]
    nbr_piece = piece_of[g.neighbors]
    internal_mask = nbr_piece == piece_of[rows_old]
    # Internal neighbors sort first within each list, cut neighbors after
    # (grouped by the neighbor's piece id).
    order = np.lexsort((np.where(internal_mask, -1, nbr_piece), rows_new))
    new_neighbors = g.neighbors[order]
    split = np.bincount(rows_new[internal_mask], minlength=g.n).astype(np.int64)
    meter.charge("reorganize.adjacency", 4 * g.m)
    meter.tick(max(1, math.ceil(math.log2(max(2 * g.m, 2)))))
    return ReorganizedGraph(
        graph=g,
        partition=p,
        perm=perm,
        inv=inv,
        offsets=new_offsets,
        neighbors=new_neighbors,
        split=split,
        piece_boundaries=piece_boundaries,
    )
