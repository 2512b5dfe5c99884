"""Graphs: generators, file formats, culled partitioning, reorganization."""

import hashlib
import math

import numpy as np
import pytest

from semipar.graph import (
    CULLED,
    CulledPartition,
    Graph,
    GraphView,
    InconsistentPartition,
    cull_partition,
    cull_threshold,
    edge_list,
    from_edges,
    generate,
    phase_cull,
    piece_edge_counts,
    read_csr,
    read_edge_list,
    reorganize,
    write_csr,
    write_edge_list,
)
from semipar.meter import WorkMeter


def test_from_edges_and_validate():
    g = from_edges(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
    g.validate()
    assert g.n == 4 and g.m == 3
    assert np.array_equal(g.degrees(), [1, 2, 2, 1])
    assert np.array_equal(g.row(1), [0, 2])


def test_validate_rejects_asymmetry_and_loops():
    g = Graph(n=2, m=1, offsets=np.array([0, 1, 2]), neighbors=np.array([1, 1]))
    with pytest.raises(ValueError):
        g.validate()


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


def test_file_roundtrips(tmp_path):
    g = generate("gnm", 100, 250, seed=2)
    p1, p2 = tmp_path / "g.txt", tmp_path / "g.csr"
    write_edge_list(p1, g)
    write_csr(p2, g)
    h1 = read_edge_list(p1, n=100)
    h2 = read_csr(p2)
    for h in (h1, h2):
        assert h.n == g.n and h.m == g.m
        assert np.array_equal(h.offsets, g.offsets)
        assert np.array_equal(h.neighbors, g.neighbors)


def test_read_csr_rejects_truncated_file(tmp_path):
    g = generate("gnm", 100, 100, seed=2)
    p = tmp_path / "g.csr"
    write_csr(p, g)
    data = p.read_bytes()
    for cut in (40, len(data) - 10):
        p.write_bytes(data[:-cut])
        with pytest.raises(ValueError, match="truncated CSR file"):
            read_csr(p)


def test_read_csr_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.csr"
    p.write_bytes(b"XXXX" + b"\0" * 16)
    with pytest.raises(ValueError):
        read_csr(p)


# ---------------------------------------------------------------------------
# Views and culling


def test_alive_degrees():
    g = from_edges(4, np.array([0, 1, 2]), np.array([1, 2, 3]))
    view = GraphView(g, np.array([True, True, False, True]))
    assert np.array_equal(view.alive_degrees(), [1, 1, 0, 0])
    assert view.edge_count() == 1


def test_phase_cull_uses_entry_degrees():
    # Star: center degree n-1 dwarfs the threshold, leaves stay.
    g = generate("star", 100, 0, 0)
    view = GraphView(g, np.ones(100, dtype=bool))
    removed = phase_cull(view, k=2, n0=100)
    assert 0 in removed
    with pytest.raises(ValueError):
        phase_cull(GraphView(g, np.zeros(100, dtype=bool)), 2, 100)


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
    view = GraphView(g, alive)
    deg = view.alive_degrees()
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


# ---------------------------------------------------------------------------
# Reorganization


def _check_reorganized(g, part, ro):
    k = part.k
    # perm is a permutation grouped by piece.
    assert np.array_equal(np.sort(ro.perm), np.arange(g.n))
    piece_of = np.where(part.assignment == CULLED, k, part.assignment)
    pieces_in_order = piece_of[ro.perm]
    assert (np.diff(pieces_in_order) >= 0).all()
    # Adjacency lists hold the same neighbor multisets as the original.
    for pos in range(g.n):
        v = ro.perm[pos]
        mine = ro.neighbors[ro.offsets[pos] : ro.offsets[pos + 1]]
        assert np.array_equal(np.sort(mine), np.sort(g.row(v)))
        # Internal prefix, then cut neighbors.
        s = ro.split[pos]
        assert (piece_of[mine[:s]] == piece_of[v]).all()
        assert (piece_of[mine[s:]] != piece_of[v]).all()
    # Piece boundaries partition the new order.
    assert ro.piece_boundaries[0] == 0 and ro.piece_boundaries[-1] == g.n


def test_reorganize_small():
    g = generate("gnm", 300, 1200, seed=4)
    part = cull_partition(g, 2, seed=5)
    ro = reorganize(g, part, seed=6)
    _check_reorganized(g, part, ro)


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
    seen = np.concatenate([ro.piece_vertices(i) for i in range(part.k + 1)])
    assert np.array_equal(np.sort(seen), np.arange(g.n))
