"""MIS and (Delta+1)-coloring: round-based subroutines, extenders, boosting.

``luby_mis`` and ``palette_color`` are the round-based randomized
subroutines; ``extend_palettes`` and ``mis_extend_prune`` are the
deterministic extenders that carry a partial solution across a cut in work
linear in the cut size.  The boosted algorithms run cull-partition +
reorganize (whose counting sort over the k + 1 piece keys keeps each piece's
vertices in ascending id order for k <= ceil(lg n)), process pieces
sequentially with the extender + subroutine, and finish on the culled set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, cull_partition, reorganize
from .meter import WorkMeter, ceil_log2
from .prng import derive, generator
from .semisort import sorted_distinct

UNCOLORED = -1
COLOR_ROUND_FACTOR = 64  # palette_color gives up after this many * ceil(lg n) rounds


class PaletteDeficit(RuntimeError):
    """A residual palette fell below its remaining-degree floor (caller bug)."""


class UncoloredCutEndpoint(ValueError):
    """A cut edge's supposedly-colored endpoint carries no color."""


class ColoringRoundsExceeded(RuntimeError):
    """palette_color left vertices uncolored after its round cap."""


class InvalidPalette(ValueError):
    """A PaletteSet's removed lists break its layout invariant."""


# ---------------------------------------------------------------------------
# Palettes


@dataclass
class PaletteSet:
    """Residual palettes in complement form: [0, num_colors) minus removals.

    Explicit allowed-color lists would cost Omega(n * Delta) space on dense
    palettes (e.g. star graphs); the removed sets together cost only the cut
    size.  ``removed`` is flat; vertex v's removed colors are
    removed[removed_offsets[v] : removed_offsets[v + 1]], strictly increasing
    and in [0, num_colors).  Construction checks this and raises
    InvalidPalette otherwise.
    """

    num_colors: int
    removed_offsets: np.ndarray  # n+1
    removed: np.ndarray          # flat removed colors

    def __post_init__(self) -> None:
        self.removed_offsets = np.ascontiguousarray(self.removed_offsets, dtype=np.int64)
        self.removed = np.ascontiguousarray(self.removed, dtype=np.int64)
        off, gone = self.removed_offsets, self.removed
        if (
            off.ndim != 1 or gone.ndim != 1 or len(off) == 0
            or off[0] != 0 or off[-1] != len(gone) or np.any(np.diff(off) < 0)
        ):
            raise InvalidPalette("removed_offsets must run non-decreasing from 0 to len(removed)")
        if len(gone) and (gone.min() < 0 or gone.max() >= self.num_colors):
            raise InvalidPalette(f"removed color outside [0, {self.num_colors})")
        # Each step inside a vertex's list must rise; steps across lists are free.
        rises = np.diff(gone) > 0
        inner = off[1:-1]
        rises[inner[(inner > 0) & (inner < len(gone))] - 1] = True
        if not rises.all():
            raise InvalidPalette("a vertex's removed colors are not strictly increasing")

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
    if meter is None:
        meter = WorkMeter()
    meter.charge("extend_palettes", len(cut_targets), 1)
    span = np.int64(num_colors + 1)
    pairs = sorted_distinct(cut_targets * span + cut_colors)
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
    """Survivor mask of the uncolored side after deleting neighbors of members.

    ``cut_targets[i]`` is the local vertex of cut edge i, ``cut_in_set[i]``
    whether its solved-side endpoint belongs to the independent set.  An MIS
    of the induced remainder unions with the existing set to an MIS of the
    whole.
    """
    keep = np.ones(n_vertices, dtype=bool)
    keep[np.asarray(cut_targets, dtype=np.int64)[np.asarray(cut_in_set, dtype=bool)]] = False
    return keep


# ---------------------------------------------------------------------------
# Round-based subroutines


def luby_mis(g: Graph, seed: int, meter: WorkMeter | None = None) -> np.ndarray:
    """Random-priority MIS; returns a membership mask.

    Per round every live vertex draws a 64-bit priority and joins when it
    strictly beats all live neighbors (ties break toward the smaller vertex
    id); winners and their neighbors leave the graph.
    """
    if meter is None:
        meter = WorkMeter()
    n = g.n
    in_set = np.zeros(n, dtype=bool)
    live = np.ones(n, dtype=bool)
    rows, nbrs = g.edge_rows(), g.neighbors
    rng = generator(seed, 0x10BE)
    while live.any():
        r = rng.integers(0, 1 << 63, size=n, dtype=np.int64)
        meter.charge("luby_mis", int(live.sum()) + len(rows), 1)
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
        rows, nbrs = np.compress(keep, rows), np.compress(keep, nbrs)
    return in_set


def palette_color(
    g: Graph,
    palettes: PaletteSet,
    seed: int,
    meter: WorkMeter | None = None,
) -> np.ndarray:
    """Symmetric-discard palette sampling; returns a proper local coloring.

    Per round each uncolored vertex samples uniformly from its residual
    palette (base palette minus colors taken by already-colored neighbors);
    when two uncolored neighbors sample the same color, both discard.
    Sampling is exact: a vertex draws an index j into its allowed colors and
    maps it back with a segmented rank query over its sorted removed colors.
    Raises PaletteDeficit if a palette drops below remaining degree + 1, and
    ColoringRoundsExceeded if vertices are still uncolored after
    COLOR_ROUND_FACTOR * ceil(lg n) rounds.

    Rounds are incremental.  Across rounds only the colors, the live
    (uncolored) mask and the adjacency entries of live rows carry over;
    entries of rows that got colored are dropped, as in ``luby_mis``.  Each
    round builds the forbidden (vertex, color) pairs of the live rows alone:
    their base removals plus the colors their colored neighbors took.  Round
    1 has no taken colors and uses the base pairs unsorted, which relies on
    the PaletteSet invariant that each vertex's removed colors lie in
    [0, num_colors) and strictly increase.  The charge still counts the
    base removals of colored rows, so it equals that of a full rebuild.
    """
    if meter is None:
        meter = WorkMeter()
    n = g.n
    if palettes.n != n:
        raise ValueError("palette set does not match the graph")
    P = palettes.num_colors
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    live_mask = np.ones(n, dtype=bool)
    rows, nbrs = g.edge_rows(), g.neighbors
    removed_counts = np.diff(palettes.removed_offsets)
    base_rows = np.repeat(np.arange(n, dtype=np.int64), removed_counts)
    span = np.int64(P + 2)
    base_pairs = base_rows * span + palettes.removed
    pairs = base_pairs  # sorted and distinct by the PaletteSet invariant
    rng = generator(seed, 0xC010)
    max_rounds = COLOR_ROUND_FACTOR * ceil_log2(n)
    for rounds in range(max_rounds + 1):
        live = np.flatnonzero(live_mask)
        if len(live) == 0:
            return colors
        if rounds == max_rounds:
            raise ColoringRoundsExceeded(f"{len(live)} vertices uncolored after {rounds} rounds")
        if rounds:
            # Forbidden pairs of live rows: base removals plus colors of
            # colored neighbors.
            nbr_colors = colors[nbrs]
            taken = nbr_colors >= 0
            taken_pairs = rows[taken] * span + nbr_colors[taken]
            pairs = sorted_distinct(np.concatenate([base_pairs[live_mask[base_rows]], taken_pairs]))
        seg = pairs // span
        counts = np.bincount(seg, minlength=n)
        seg_offsets = np.concatenate(([0], np.cumsum(counts)))
        sizes = P - counts
        live_deg = np.bincount(rows[live_mask[nbrs]], minlength=n)
        if np.any(sizes[live] < live_deg[live] + 1):
            raise PaletteDeficit("palette smaller than remaining degree + 1")
        colored_base = len(palettes.removed) - int(removed_counts[live].sum())
        meter.charge("palette_color", len(rows) + len(live) + len(pairs) + colored_base, 1)
        j = np.minimum((rng.random(len(live)) * sizes[live]).astype(np.int64), sizes[live] - 1)
        # Allowed color j of v is j plus the number of v's removed colors c
        # with c - rank(c) <= j; pairs - rank keeps that key sorted, and the
        # query v * span + j lands inside v's own segment.
        rank = np.arange(len(pairs), dtype=np.int64) - seg_offsets[seg]
        t = np.searchsorted(pairs - rank, live * span + j, side="right") - seg_offsets[live]
        proposal = np.full(n, -2, dtype=np.int64)
        proposal[live] = j + t
        # Every row is live, so equal proposals mean two live endpoints.
        clash = proposal[rows] == proposal[nbrs]
        conflicted = np.zeros(n, dtype=bool)
        conflicted[rows[clash]] = True
        done = live_mask & ~conflicted
        colors[done] = proposal[done]
        live_mask = conflicted
        still = live_mask[rows]
        rows, nbrs = np.compress(still, rows), np.compress(still, nbrs)


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


def _boost(g: Graph, k: int, seed: int, meter: WorkMeter, stream: int, solve_piece) -> None:
    """The boosting framework: culled partition, reorganize, then each piece.

    Only the non-empty pieces run, in order with the culled set last, so
    the loop is bounded by n rather than k.  ``solve_piece(verts,
    local, cut_rows, cut_nbrs, piece_seed)`` extends the partial solution
    across the piece's cut, solves the piece, and returns how many cut
    entries it read from the solved side; those total at most m.
    """
    part = cull_partition(g, k, derive(seed, 1), meter)
    ro = reorganize(g, part, derive(seed, 2), meter)
    cut_total = 0
    for piece in ro.piece_ids.tolist():
        cut_total += solve_piece(*ro.piece(piece), derive(seed, stream, piece))
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
        cut_colors = colors[cut_nbrs]
        colored_sel = cut_colors != UNCOLORED
        palettes = extend_palettes(
            local.n, np.compress(colored_sel, cut_rows), np.compress(colored_sel, cut_colors),
            num_colors, meter,
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
        meter.charge("mis_extend_prune", len(cut_rows), 1)
        sub, old_ids = local.induced(mis_extend_prune(local.n, cut_rows, member_sel))
        in_set[verts[old_ids[luby_mis(sub, piece_seed, meter)]]] = True
        return int(member_sel.sum())

    _boost(g, k, seed, meter, 4, solve_piece)
    return in_set
