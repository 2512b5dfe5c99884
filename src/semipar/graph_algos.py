"""MIS and (Delta+1)-coloring: round-based subroutines, extenders, boosting.

``luby_mis`` and ``palette_color`` are the round-based randomized
subroutines; ``extend_palettes`` and ``mis_extend_prune`` are the
deterministic extenders that carry a partial solution across a cut in work
linear in the cut size.  The boosted algorithms run cull-partition +
reorganize, process pieces sequentially with the extender + subroutine, and
finish on the culled set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, ReorganizedGraph, cull_partition, reorganize
from .meter import WorkMeter
from .prng import derive, generator

UNCOLORED = -1


class PaletteDeficit(RuntimeError):
    """A residual palette fell below its remaining-degree floor (caller bug)."""


class UncoloredCutEndpoint(ValueError):
    """A cut edge's supposedly-colored endpoint carries no color."""


@dataclass
class LocalGraph:
    """A small graph over local vertex ids 0..n-1 (CSR, both directions)."""

    n: int
    offsets: np.ndarray
    neighbors: np.ndarray

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        return rows, self.neighbors

    def induced(self, keep: np.ndarray) -> tuple["LocalGraph", np.ndarray]:
        """Subgraph on the vertices where ``keep``; returns (sub, old ids)."""
        old_ids = np.flatnonzero(keep)
        remap = np.full(self.n, -1, dtype=np.int64)
        remap[old_ids] = np.arange(len(old_ids))
        rows, nbrs = self.edge_pairs()
        sel = keep[rows] & keep[nbrs]
        new_rows = remap[rows[sel]]
        new_nbrs = remap[nbrs[sel]]
        deg = np.bincount(new_rows, minlength=len(old_ids))
        offsets = np.concatenate(([0], np.cumsum(deg))).astype(np.int64)
        order = np.argsort(new_rows, kind="stable")
        return (
            LocalGraph(len(old_ids), offsets, new_nbrs[order]),
            old_ids,
        )


# ---------------------------------------------------------------------------
# Palettes


@dataclass
class PaletteSet:
    """Residual palettes in complement form: [0, num_colors) minus removals.

    Explicit allowed-color lists would cost Omega(n * Delta) space on dense
    palettes (e.g. star graphs); the removed sets together cost only the cut
    size.  ``removed`` is flat, sorted and duplicate-free per vertex.
    """

    num_colors: int
    removed_offsets: np.ndarray  # n+1
    removed: np.ndarray          # flat removed colors

    @property
    def n(self) -> int:
        return len(self.removed_offsets) - 1

    def sizes(self) -> np.ndarray:
        return self.num_colors - np.diff(self.removed_offsets)

    def allowed(self, v: int) -> np.ndarray:
        """Materialized allowed-color list of vertex ``v`` (ascending)."""
        gone = self.removed[self.removed_offsets[v] : self.removed_offsets[v + 1]]
        return np.setdiff1d(np.arange(self.num_colors, dtype=np.int64), gone)

    @classmethod
    def full(cls, n: int, num_colors: int) -> "PaletteSet":
        return cls(num_colors, np.zeros(n + 1, dtype=np.int64), np.empty(0, np.int64))


def extend_palettes(
    n_vertices: int,
    cut_targets: np.ndarray,
    cut_colors: np.ndarray,
    num_colors: int,
    meter: WorkMeter | None = None,
) -> PaletteSet:
    """Residual palettes for an uncolored side of a cut.

    ``cut_targets[i]`` is the local uncolored-side vertex of cut edge i and
    ``cut_colors[i]`` the color of its colored endpoint (UNCOLORED entries
    raise).  Work charged is linear in the cut size; the palette invariant
    size(v) >= internal degree + 1 holds by construction.
    """
    cut_targets = np.asarray(cut_targets, dtype=np.int64)
    cut_colors = np.asarray(cut_colors, dtype=np.int64)
    if len(cut_targets) != len(cut_colors):
        raise ValueError("cut arrays must have equal length")
    if np.any(cut_colors == UNCOLORED):
        raise UncoloredCutEndpoint("cut endpoint on the colored side is uncolored")
    if len(cut_colors) and (cut_colors.min() < 0 or cut_colors.max() >= num_colors):
        raise ValueError("cut color out of range")
    if meter is not None:
        meter.charge("extend_palettes", len(cut_targets))
        meter.tick(1)
    span = np.int64(num_colors + 1)
    pairs = np.unique(cut_targets * span + cut_colors)
    rows = (pairs // span).astype(np.int64)
    colors = (pairs % span).astype(np.int64)
    counts = np.bincount(rows, minlength=n_vertices)
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return PaletteSet(num_colors, offsets, colors)


def mis_extend_prune(
    n_vertices: int,
    cut_targets: np.ndarray,
    cut_in_set: np.ndarray,
) -> np.ndarray:
    """Surviving uncolored-side vertices after deleting neighbors of members.

    ``cut_targets[i]`` is the local vertex of cut edge i, ``cut_in_set[i]``
    whether its solved-side endpoint belongs to the independent set.  An MIS
    of the induced remainder unions with the existing set to an MIS of the
    whole.
    """
    keep = np.ones(n_vertices, dtype=bool)
    keep[np.asarray(cut_targets, dtype=np.int64)[np.asarray(cut_in_set, dtype=bool)]] = False
    return np.flatnonzero(keep)


# ---------------------------------------------------------------------------
# Round-based subroutines


def luby_mis(
    local: LocalGraph, seed: int, meter: WorkMeter | None = None
) -> np.ndarray:
    """Random-priority MIS on a local graph; returns a membership mask.

    Per round every live vertex draws a 64-bit priority and joins when it
    strictly beats all live neighbors (ties break toward the smaller vertex
    id); winners and their neighbors leave the graph.
    """
    if meter is None:
        meter = WorkMeter()
    n = local.n
    in_set = np.zeros(n, dtype=bool)
    live = np.ones(n, dtype=bool)
    rows, nbrs = local.edge_pairs()
    rng = generator(seed, 0x10BE)
    while live.any():
        r = rng.integers(0, 1 << 63, size=n, dtype=np.int64)
        meter.charge("luby_mis", int(live.sum()) + len(rows))
        meter.tick(1)
        # v loses to neighbor u when u's priority beats v's.
        beats = (r[nbrs] > r[rows]) | ((r[nbrs] == r[rows]) & (nbrs < rows))
        lose = np.zeros(n, dtype=bool)
        lose[rows[beats]] = True
        winners = live & ~lose
        in_set |= winners
        dead = winners.copy()
        dead[nbrs[winners[rows]]] = True
        live &= ~dead
        keep = live[rows] & live[nbrs]
        rows, nbrs = rows[keep], nbrs[keep]
    return in_set


def _sample_from_complement(
    num_colors: int,
    seg_offsets: np.ndarray,
    removed_flat: np.ndarray,
    live: np.ndarray,
    unif: np.ndarray,
) -> np.ndarray:
    """Uniform color per live vertex from [0,P) minus its removed segment.

    Exact (no rejection): draws an index j into the allowed set, then maps
    it back via a segmented rank query over the sorted removed colors.
    """
    sizes = num_colors - np.diff(seg_offsets)
    j = np.minimum((unif * sizes[live]).astype(np.int64), sizes[live] - 1)
    span = np.int64(num_colors + 2)
    seg_of_entry = np.repeat(
        np.arange(len(seg_offsets) - 1, dtype=np.int64), np.diff(seg_offsets)
    )
    rank = np.arange(len(removed_flat), dtype=np.int64) - seg_offsets[seg_of_entry]
    compound = seg_of_entry * span + (removed_flat - rank)
    query = live.astype(np.int64) * span + j
    t = np.searchsorted(compound, query, side="right") - seg_offsets[live]
    return j + t


def palette_color(
    local: LocalGraph,
    palettes: PaletteSet,
    seed: int,
    meter: WorkMeter | None = None,
) -> np.ndarray:
    """Symmetric-discard palette sampling; returns a proper local coloring.

    Per round each uncolored vertex samples uniformly from its residual
    palette (base palette minus colors taken by already-colored neighbors);
    when two uncolored neighbors sample the same color, both discard.
    Raises PaletteDeficit if a palette drops below remaining degree + 1.
    """
    if meter is None:
        meter = WorkMeter()
    n = local.n
    if palettes.n != n:
        raise ValueError("palette set does not match the graph")
    P = palettes.num_colors
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    rows, nbrs = local.edge_pairs()
    base_rows = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(palettes.removed_offsets)
    )
    span = np.int64(P + 2)
    base_pairs = base_rows * span + palettes.removed
    rng = generator(seed, 0xC010)
    while True:
        live_mask = colors == UNCOLORED
        live = np.flatnonzero(live_mask)
        if len(live) == 0:
            return colors
        # Forbidden = base removals plus colors of colored neighbors.
        edge_live = live_mask[rows]
        taken_sel = edge_live & (colors[nbrs] >= 0)
        taken_pairs = rows[taken_sel] * span + colors[nbrs[taken_sel]]
        pairs = np.unique(np.concatenate([base_pairs, taken_pairs]))
        seg = (pairs // span).astype(np.int64)
        counts = np.bincount(seg, minlength=n)
        seg_offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        sizes = P - counts
        live_deg = np.bincount(rows[edge_live & live_mask[nbrs]], minlength=n)
        if np.any(sizes[live] < live_deg[live] + 1):
            raise PaletteDeficit("palette smaller than remaining degree + 1")
        meter.charge("palette_color", int(edge_live.sum()) + len(live) + len(pairs))
        meter.tick(1)
        unif = rng.random(len(live))
        proposal = np.full(n, -2, dtype=np.int64)
        proposal[live] = _sample_from_complement(
            P, seg_offsets, (pairs % span).astype(np.int64), live, unif
        )
        both_live = edge_live & live_mask[nbrs]
        clash = both_live & (proposal[rows] == proposal[nbrs])
        conflicted = np.zeros(n, dtype=bool)
        conflicted[rows[clash]] = True
        keep = live_mask & ~conflicted
        colors[keep] = proposal[keep]


# ---------------------------------------------------------------------------
# Verifiers


def verify_mis(g: Graph, in_set: np.ndarray) -> bool:
    """Exact independence + maximality check in one edge pass."""
    in_set = np.asarray(in_set, dtype=bool)
    rows = g.edge_rows()
    if np.any(in_set[rows] & in_set[g.neighbors]):
        return False
    covered = in_set.copy()
    covered[rows[in_set[g.neighbors]]] = True
    return bool(covered.all())


def verify_coloring(g: Graph, colors: np.ndarray, delta: int) -> bool:
    """Exact properness + range check in one edge pass."""
    colors = np.asarray(colors, dtype=np.int64)
    if len(colors) != g.n:
        return False
    if g.n and (colors.min() < 0 or colors.max() > delta):
        return False
    rows = g.edge_rows()
    return not bool(np.any(colors[rows] == colors[g.neighbors]))


# ---------------------------------------------------------------------------
# Boosted pipelines


def _piece_local(ro: ReorganizedGraph, piece: int):
    """Extract one piece: global ids, internal CSR, and its cut entries."""
    lo = int(ro.piece_boundaries[piece])
    hi = int(ro.piece_boundaries[piece + 1])
    if hi == lo:
        return None
    verts = ro.perm[lo:hi]
    flat_lo, flat_hi = int(ro.offsets[lo]), int(ro.offsets[hi])
    nbrs = ro.neighbors[flat_lo:flat_hi]
    deg = np.diff(ro.offsets[lo : hi + 1])
    row_local = np.repeat(np.arange(hi - lo, dtype=np.int64), deg)
    entry_rank = (
        np.arange(len(nbrs), dtype=np.int64) - (ro.offsets[lo:hi][row_local] - flat_lo)
    )
    internal = entry_rank < ro.split[lo:hi][row_local]
    loc_offsets = np.concatenate(([0], np.cumsum(ro.split[lo:hi]))).astype(np.int64)
    local = LocalGraph(hi - lo, loc_offsets, ro.inv[nbrs[internal]] - lo)
    return verts, local, row_local[~internal], nbrs[~internal]


def _boost(g: Graph, k: int, seed: int, meter: WorkMeter, stream: int, solve_piece) -> None:
    """The boosting framework: culled partition, reorganize, then each piece.

    Pieces run in order with the culled set last.  ``solve_piece(verts,
    local, cut_rows, cut_nbrs, piece_seed)`` extends the partial solution
    across the piece's cut, solves the piece, and returns how many cut
    entries it read from the solved side; those total at most m.
    """
    part = cull_partition(g, k, derive(seed, 1), meter)
    ro = reorganize(g, part, derive(seed, 2), meter)
    cut_total = 0
    for piece in range(k + 1):
        extracted = _piece_local(ro, piece)
        if extracted is not None:
            cut_total += solve_piece(*extracted, derive(seed, stream, piece))
    if cut_total > g.m:
        raise AssertionError("cut-edge accounting exceeded m")


def boosted_coloring(
    g: Graph, k: int, seed: int, meter: WorkMeter | None = None
) -> np.ndarray:
    """(Delta+1)-coloring via culled partition + extenders + palette sampling.

    Pieces are processed in sequence; the culled set goes last.  Returns a
    per-vertex color array in [0, Delta+1).
    """
    if meter is None:
        meter = WorkMeter()
    num_colors = g.max_degree() + 1
    colors = np.full(g.n, UNCOLORED, dtype=np.int64)

    def solve_piece(verts, local, cut_rows, cut_nbrs, piece_seed) -> int:
        colored_sel = colors[cut_nbrs] != UNCOLORED
        palettes = extend_palettes(
            local.n, cut_rows[colored_sel], colors[cut_nbrs[colored_sel]], num_colors, meter
        )
        colors[verts] = palette_color(local, palettes, piece_seed, meter)
        return int(colored_sel.sum())

    _boost(g, k, seed, meter, 3, solve_piece)
    return colors


def boosted_mis(
    g: Graph, k: int, seed: int, meter: WorkMeter | None = None
) -> np.ndarray:
    """MIS via culled partition + prune extender + Luby on the pieces."""
    if meter is None:
        meter = WorkMeter()
    in_set = np.zeros(g.n, dtype=bool)

    def solve_piece(verts, local, cut_rows, cut_nbrs, piece_seed) -> int:
        member_sel = in_set[cut_nbrs]
        meter.charge("mis_extend_prune", len(cut_rows))
        meter.tick(1)
        keep = np.zeros(local.n, dtype=bool)
        keep[mis_extend_prune(local.n, cut_rows, member_sel)] = True
        sub, old_ids = local.induced(keep)
        in_set[verts[old_ids[luby_mis(sub, piece_seed, meter)]]] = True
        return int(member_sel.sum())

    _boost(g, k, seed, meter, 4, solve_piece)
    return in_set
