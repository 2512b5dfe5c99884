"""Graphs: generators, culled partitioning, reorganization."""

import hashlib
import math

import numpy as np
import pytest

from semipar.graph import (
    CULLED,
    CulledPartition,
    Graph,
    ID_LIMIT,
    InconsistentPartition,
    alive_degrees,
    cull_partition,
    cull_threshold,
    edge_list,
    from_edges,
    generate,
    phase_cull,
    piece_edge_counts,
    reorganize,
)
from semipar.meter import WorkMeter


def test_from_edges_and_validate():
    g = from_edges(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
    g.validate()
    assert g.n == 4 and g.m == 3
    assert np.array_equal(g.degrees(), [1, 2, 2, 1])
    assert np.array_equal(g.row(1), [0, 2])


@pytest.mark.parametrize(
    "u, v, what",
    [
        ([0, 1, 2], [1, 2, 2], "self-loop"),
        ([0, 1, 0], [1, 2, 1], "duplicate edge"),
        ([0, 1, 1], [1, 2, 0], "duplicate edge"),  # same edge, other orientation
    ],
)
def test_from_edges_rejects_loops_and_duplicates(u, v, what):
    with pytest.raises(ValueError, match=what):
        from_edges(3, np.array(u), np.array(v))


def test_validate_rejects_asymmetry_and_loops():
    g = Graph(n=2, m=1, offsets=np.array([0, 1, 2]), neighbors=np.array([1, 1]))
    with pytest.raises(ValueError):
        g.validate()


def test_validate_rejects_one_way_entry():
    # 0 lists 1 and 2 lists 0, but neither reverse entry exists.
    g = Graph(n=3, m=1, offsets=np.array([0, 1, 1, 2]), neighbors=np.array([1, 0]))
    with pytest.raises(ValueError, match="not symmetric"):
        g.validate()


@pytest.mark.parametrize("u, v", [([0], [5]), ([3], [0]), ([-1], [1]), ([0, 1], [1, -2])])
def test_from_edges_rejects_out_of_range_ids(u, v):
    with pytest.raises(ValueError, match="outside"):
        from_edges(3, np.array(u), np.array(v))


def test_from_edges_rejects_vertex_count_beyond_32_bits():
    # Raised before anything of size n is allocated.
    with pytest.raises(ValueError, match="2\\^32"):
        from_edges(ID_LIMIT, np.array([0]), np.array([1]))


@pytest.mark.parametrize("kind", ["path", "star", "gnm", "power_law"])
def test_generators_produce_valid_graphs(kind):
    g = generate(kind, 500, 1200, seed=3)
    g.validate()
    if kind == "gnm" or kind == "power_law":
        assert g.m == 1200
    if kind == "star":
        assert g.max_degree() == 499


def test_gnm_rejects_impossible_m():
    with pytest.raises(ValueError):
        generate("gnm", 4, 100)


# sha256 of offsets + neighbors (little-endian int64).  The dense cases
# (n = 5, 8, 40) run the rejection loop for more than one pass.
PINNED_GRAPHS = [
    ("gnm", 5, 10, 3, "de850c9cced88cb47673576ae3733d99dd5e26a8854eff4b311cc08d4237897b"),
    ("gnm", 8, 27, 1, "35d4f2529af61f7434c7fc0c3f70f78863d597853aad1024496aebf6a62c5b0f"),
    ("gnm", 40, 700, 4, "48e3a7af777b1ce0717fe3f796712064216c7106d4008be3b6c28f00cc7c9c01"),
    ("gnm", 500, 1200, 3, "ef8779124c9c959e04f957bcd76108b42774f132a8514ea1f0211167aa9f2067"),
    ("gnm", 3000, 12000, 11, "cbfd6c881570e83e1dc913c768690d6b77212b2ffb508c398f3f53b71232fceb"),
    ("power_law", 5, 10, 3, "de850c9cced88cb47673576ae3733d99dd5e26a8854eff4b311cc08d4237897b"),
    ("power_law", 8, 27, 1, "91e58f2ca31dd4235441421f6e4a05a41560187a6e3c15d93a580da8292a1dc9"),
    ("power_law", 40, 700, 4, "a4db44528a601a727e8fdb0095b0ed5f00631e8aaaa1ffcb021b4eac13eadcf2"),
    ("power_law", 500, 1200, 3, "ebcb351dd86a9f190b5a8e1660a157966f1d3914cfdf780c97e42628328bb0d8"),
    ("power_law", 3000, 12000, 11, "df4d23efc8c409c2e28d1163450ac0c7cd72c556917db1bd884cff724a971c78"),
]


@pytest.mark.parametrize("kind,n,m,seed,digest", PINNED_GRAPHS)
def test_generator_bytes_pinned(kind, n, m, seed, digest):
    g = generate(kind, n, m, seed)
    data = g.offsets.astype("<i8").tobytes() + g.neighbors.astype("<i8").tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_gnm_deterministic():
    g1 = generate("gnm", 300, 900, seed=5)
    g2 = generate("gnm", 300, 900, seed=5)
    assert np.array_equal(g1.neighbors, g2.neighbors)


def test_edge_list_each_edge_once():
    g = generate("gnm", 200, 500, seed=1)
    u, v = edge_list(g)
    assert len(u) == g.m
    assert (u < v).all()


# ---------------------------------------------------------------------------
# Views and culling


def test_alive_degrees():
    g = from_edges(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
    deg = alive_degrees(g, np.array([True, True, False, True]))
    assert np.array_equal(deg, [1, 1, 0, 0])
    assert deg.sum() // 2 == 1


def test_phase_cull_uses_entry_degrees():
    # Star: center degree n-1 dwarfs the threshold, leaves stay.
    g = generate("star", 100, 0, 0)
    removed = phase_cull(alive_degrees(g, np.ones(100, dtype=bool)), k=2, n0=100)
    assert 0 in removed
    with pytest.raises(ValueError):
        phase_cull(alive_degrees(g, np.zeros(100, dtype=bool)), 2, 100)


def test_cull_threshold():
    assert cull_threshold(1600, 2, 16) == 1600 / (16 * 4)


def test_cull_partition_invariants():
    g = generate("gnm", 4000, 20_000, seed=7)
    k = 3
    meter = WorkMeter()
    part = cull_partition(g, k, seed=8, meter=meter)
    lg = math.ceil(math.log2(g.n))
    assert len(part.culled) <= max(1, part.phases) * 4 * k**4 * lg
    # Survivors all carry a bucket in [k]; culled carry the sentinel.
    assert (part.assignment[part.culled] == CULLED).all()
    survivors = np.setdiff1d(np.arange(g.n), part.culled)
    assert (part.assignment[survivors] >= 0).all()
    assert (part.assignment[survivors] < k).all()
    # Post-cull degree bound (checked internally too; re-derive here).
    alive = np.ones(g.n, dtype=bool)
    alive[part.culled] = False
    deg = alive_degrees(g, alive)
    e = int(deg.sum()) // 2
    if e:
        assert deg.max() <= cull_threshold(e, k, g.n)
    assert meter.rounds >= part.phases


def test_cull_partition_deterministic():
    g = generate("gnm", 1000, 4000, seed=1)
    p1 = cull_partition(g, 2, seed=5)
    p2 = cull_partition(g, 2, seed=5)
    assert np.array_equal(p1.assignment, p2.assignment)


def test_cull_partition_edgeless():
    g = from_edges(10, np.empty(0, np.int64), np.empty(0, np.int64))
    part = cull_partition(g, 2, seed=0)
    assert part.phases == 0 and len(part.culled) == 0


def test_piece_edge_counts():
    g = from_edges(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
    part = CulledPartition(
        culled=np.array([3]),
        assignment=np.array([0, 0, 1, CULLED]),
        k=2,
        phases=1,
    )
    assert np.array_equal(piece_edge_counts(g, part), [1, 0])


def test_piece_edge_counts_bounded_by_n_not_k():
    # Piece ids up to k - 1 = 10^7 - 1: one entry per non-empty piece, in id
    # order (0, 4, 5, 123, 10^7 - 1), never a length-k array.
    g = generate("path", 10)
    k = 10**7
    part = CulledPartition(
        culled=np.array([5]),
        assignment=np.array([k - 1, k - 1, 5, 5, 5, CULLED, 0, 0, 123, 4]),
        k=k,
        phases=1,
    )
    counts = piece_edge_counts(g, part)
    assert len(counts) <= g.n
    assert np.array_equal(counts, [1, 0, 2, 0, 1])


# ---------------------------------------------------------------------------
# Reorganization


def _check_reorganized(g, part, ro):
    k = part.k
    # perm is a permutation grouped by piece.
    assert np.array_equal(np.sort(ro.perm), np.arange(g.n))
    assert np.array_equal(ro.inv[ro.perm], np.arange(g.n))
    piece_of = np.where(part.assignment == CULLED, k, part.assignment)
    pieces_in_order = piece_of[ro.perm]
    assert (np.diff(pieces_in_order) >= 0).all()
    ro.internal.validate()
    # Each row's internal neighbors (new positions) and cut neighbors
    # (original ids) together hold the original neighbor multiset.
    for pos in range(g.n):
        v = ro.perm[pos]
        inside = ro.perm[ro.internal.row(pos)]
        cut = ro.cut[ro.cut_offsets[pos] : ro.cut_offsets[pos + 1]]
        assert np.array_equal(np.sort(np.concatenate([inside, cut])), np.sort(g.row(v)))
        assert (piece_of[inside] == piece_of[v]).all()
        assert (piece_of[cut] != piece_of[v]).all()
    # Piece boundaries partition the new order, one block per non-empty piece.
    assert ro.piece_boundaries[0] == 0 and ro.piece_boundaries[-1] == g.n
    ids, sizes = np.unique(piece_of, return_counts=True)
    assert np.array_equal(ro.piece_ids, ids)
    assert np.array_equal(np.diff(ro.piece_boundaries), sizes)
    for i in ids:
        lo, hi = ro.piece_range(i)
        assert (pieces_in_order[lo:hi] == i).all()


def _lexsort_oracle(g, piece_of, inv):
    """Expected (internal offsets, internal neighbors, cut offsets, cut):
    all 2m entries in one lexsort by (new row, cut after internal, entry)."""
    rows = g.edge_rows()
    rows_new = inv[rows]
    is_cut = piece_of[g.neighbors] != piece_of[rows]
    order = np.lexsort((np.arange(2 * g.m), is_cut, rows_new))
    nbrs, cut_sorted = g.neighbors[order], is_cut[order]

    def offsets(sel):
        return np.concatenate(([0], np.cumsum(np.bincount(rows_new[sel], minlength=g.n))))

    return offsets(~is_cut), inv[nbrs[~cut_sorted]], offsets(is_cut), nbrs[cut_sorted]


def _assert_matches_oracle(g, part, ro):
    piece_of = np.where(part.assignment == CULLED, part.k, part.assignment)
    int_off, int_nbrs, cut_off, cut = _lexsort_oracle(g, piece_of, ro.inv)
    for got in (ro.internal.offsets, ro.internal.neighbors, ro.cut_offsets, ro.cut):
        assert got.dtype == np.int64
    assert np.array_equal(ro.internal.offsets, int_off)
    assert np.array_equal(ro.internal.neighbors, int_nbrs)
    assert np.array_equal(ro.cut_offsets, cut_off)
    assert np.array_equal(ro.cut, cut)
    assert ro.internal.n == g.n and 2 * ro.internal.m == len(int_nbrs)


def test_reorganize_small():
    g = generate("gnm", 300, 1200, seed=4)
    part = cull_partition(g, 2, seed=5)
    ro = reorganize(g, part, seed=6)
    _check_reorganized(g, part, ro)
    _assert_matches_oracle(g, part, ro)


def _random_partition(g, seed):
    # Culled vertices and an empty piece (2 of k = 4) included.
    rng = np.random.default_rng(seed)
    assignment = rng.choice(np.array([0, 1, 3, CULLED]), size=g.n)
    return CulledPartition(
        culled=np.flatnonzero(assignment == CULLED), assignment=assignment, k=4, phases=1
    )


def test_reorganize_matches_lexsort_oracle():
    g = generate("power_law", 400, 3000, seed=8)
    part = _random_partition(g, 3)
    ro = reorganize(g, part, seed=2)
    _check_reorganized(g, part, ro)
    _assert_matches_oracle(g, part, ro)
    # Piece 2 is empty, so it is not listed and reads as an empty range.
    assert ro.piece_ids.tolist() == [0, 1, 3, 4]
    lo, hi = ro.piece_range(2)
    assert lo == hi


def test_piece_is_induced_subgraph_plus_its_cut():
    g = generate("gnm", 300, 2000, seed=12)
    part = _random_partition(g, 4)
    ro = reorganize(g, part, seed=13)
    piece_of = np.where(part.assignment == CULLED, part.k, part.assignment)
    rows = g.edge_rows()
    for i in range(part.k + 1):
        lo, hi = ro.piece_range(i)
        verts, local, cut_rows, cut_nbrs = ro.piece(i)
        assert np.array_equal(verts, ro.perm[lo:hi])
        local.validate()
        # Local graph: the induced subgraph, relabeled to positions in perm.
        sub, old_ids = g.induced(piece_of == i)
        pos = ro.inv[old_ids] - lo
        got = sorted(zip(local.edge_rows().tolist(), local.neighbors.tolist()))
        want = sorted(zip(pos[sub.edge_rows()].tolist(), pos[sub.neighbors].tolist()))
        assert local.n == len(old_ids) and got == want
        # Cut entries: every entry from a piece-i row to another piece.
        sel = (piece_of[rows] == i) & (piece_of[g.neighbors] != i)
        got = sorted(zip(cut_rows.tolist(), cut_nbrs.tolist()))
        want = sorted(zip((ro.inv[rows[sel]] - lo).tolist(), g.neighbors[sel].tolist()))
        assert got == want


def test_reorganize_rejects_mismatched_partition():
    g = generate("gnm", 50, 100, seed=0)
    part = CulledPartition(
        culled=np.empty(0, np.int64),
        assignment=np.zeros(49, dtype=np.int64),
        k=1,
        phases=0,
    )
    with pytest.raises(InconsistentPartition):
        reorganize(g, part)


def test_piece_vertices():
    g = generate("gnm", 200, 600, seed=9)
    part = cull_partition(g, 2, seed=10)
    ro = reorganize(g, part, seed=11)
    seen = np.concatenate([ro.perm[slice(*ro.piece_range(i))] for i in range(part.k + 1)])
    assert np.array_equal(np.sort(seen), np.arange(g.n))
