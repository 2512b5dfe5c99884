"""MIS, coloring, palettes, extenders, and the boosted pipelines."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semipar.graph import cull_partition, from_edges, generate
import semipar.graph_algos as graph_algos
from semipar.graph_algos import (
    UNCOLORED,
    ColoringRoundsExceeded,
    InvalidPalette,
    PaletteDeficit,
    PaletteSet,
    UncoloredCutEndpoint,
    boosted_coloring,
    boosted_mis,
    extend_palettes,
    luby_mis,
    mis_extend_prune,
    palette_color,
    verify_coloring,
    verify_mis,
)
from semipar.meter import WorkMeter, ceil_log2
from semipar.prng import derive, generator
from semipar.semisort import sorted_distinct


# ---------------------------------------------------------------------------
# Induced subgraphs


def test_local_induced():
    g = generate("path", 6, 0, 0)
    keep = np.array([True, True, False, True, True, True])
    sub, old = g.induced(keep)
    assert np.array_equal(old, [0, 1, 3, 4, 5])
    assert sub.n == 5
    # Edge 1-2 and 2-3 vanish with vertex 2.
    assert sub.m == 3 and sub.degrees().sum() == 2 * 3
    sub.validate()


# ---------------------------------------------------------------------------
# Palettes


def test_palette_full_and_allowed():
    p = PaletteSet.full(3, 5)
    assert np.array_equal(p.sizes(), [5, 5, 5])
    assert np.array_equal(p.allowed(1), [0, 1, 2, 3, 4])


def test_palette_set_rejects_bad_offsets():
    with pytest.raises(InvalidPalette, match="removed_offsets"):
        PaletteSet(5, np.array([0, 2, 1, 3]), np.array([1, 2, 3]))  # not non-decreasing
    with pytest.raises(InvalidPalette, match="removed_offsets"):
        PaletteSet(5, np.array([1, 2]), np.array([1, 2]))  # does not start at 0
    with pytest.raises(InvalidPalette, match="removed_offsets"):
        PaletteSet(5, np.array([0, 1]), np.array([1, 2]))  # does not end at len(removed)


def test_palette_set_rejects_color_out_of_range():
    # -1 would fall into the previous vertex's segment of the (vertex, color) pairs.
    with pytest.raises(InvalidPalette, match="outside"):
        PaletteSet(4, np.array([0, 1, 2]), np.array([0, -1]))
    with pytest.raises(InvalidPalette, match="outside"):
        PaletteSet(4, np.array([0, 1, 2]), np.array([1, 4]))


def test_palette_set_rejects_unsorted_or_repeated_list():
    with pytest.raises(InvalidPalette, match="strictly increasing"):
        PaletteSet(5, np.array([0, 2, 3]), np.array([3, 1, 2]))
    with pytest.raises(InvalidPalette, match="strictly increasing"):
        PaletteSet(5, np.array([0, 0, 2]), np.array([1, 1]))
    # Across a vertex boundary a drop or a repeat is fine.
    p = PaletteSet(5, np.array([0, 2, 2, 4, 5]), np.array([1, 3, 3, 4, 0]))
    assert np.array_equal(p.sizes(), [3, 5, 3, 4])


def test_extend_palettes_matches_setdiff_oracle():
    num_colors = 7
    targets = np.array([0, 0, 2, 2, 2, 1])
    colors = np.array([3, 3, 0, 6, 1, 5])
    p = extend_palettes(3, targets, colors, num_colors)
    for v in range(3):
        gone = set(colors[targets == v])
        expect = np.setdiff1d(np.arange(num_colors), sorted(gone))
        assert np.array_equal(p.allowed(v), expect)
    assert np.array_equal(p.sizes(), [6, 6, 4])


def test_extend_palettes_rejects_uncolored():
    with pytest.raises(UncoloredCutEndpoint):
        extend_palettes(2, np.array([0]), np.array([UNCOLORED]), 4)


def test_extend_palettes_rejects_out_of_range_color():
    with pytest.raises(ValueError):
        extend_palettes(2, np.array([0]), np.array([4]), 4)


def test_extend_palettes_charges_cut_size():
    meter = WorkMeter()
    extend_palettes(4, np.zeros(100, np.int64), np.zeros(100, np.int64), 5, meter)
    assert meter.total_ops == 100


def test_mis_extend_prune():
    keep = mis_extend_prune(
        5, np.array([0, 2, 4]), np.array([True, False, True])
    )
    assert keep.dtype == bool
    assert np.array_equal(keep, [False, True, True, True, False])


# ---------------------------------------------------------------------------
# Luby MIS


@pytest.mark.parametrize("kind,n,m", [("path", 40, 0), ("star", 60, 0), ("gnm", 200, 800)])
def test_luby_mis_valid(kind, n, m):
    g = generate(kind, n, m, seed=2)
    in_set = luby_mis(g, seed=3)
    assert verify_mis(g, in_set)


def test_luby_mis_isolated_vertices_join():
    g = from_edges(5, np.array([0]), np.array([1]))
    in_set = luby_mis(g, seed=0)
    assert in_set[2] and in_set[3] and in_set[4]


def test_luby_mis_rounds_logarithmic():
    g = generate("gnm", 5000, 40_000, seed=4)
    meter = WorkMeter()
    in_set = luby_mis(g, seed=5, meter=meter)
    assert verify_mis(g, in_set)
    assert meter.rounds <= 4 * 13  # O(log n) whp, generous constant


# ---------------------------------------------------------------------------
# Palette coloring


def test_palette_color_full_palettes():
    g = generate("gnm", 300, 1500, seed=6)
    delta = g.max_degree()
    colors = palette_color(g, PaletteSet.full(g.n, delta + 1), seed=7)
    assert verify_coloring(g, colors, delta)


def test_palette_color_star():
    g = generate("star", 2000, 0, 0)
    colors = palette_color(g, PaletteSet.full(g.n, g.max_degree() + 1), seed=8)
    assert verify_coloring(g, colors, g.max_degree())


def test_palette_color_respects_removed_colors():
    # Triangle with color 0 removed everywhere: proper coloring in {1, 2, 3}.
    g = from_edges(3, np.array([0, 1, 2]), np.array([1, 2, 0]))
    p = PaletteSet(4, np.array([0, 1, 2, 3]), np.array([0, 0, 0]))
    colors = palette_color(g, p, seed=9)
    assert (colors > 0).all()
    assert verify_coloring(g, colors, 3)


def test_palette_color_deficit_raises():
    # A single edge with singleton identical palettes can never finish.
    g = from_edges(2, np.array([0]), np.array([1]))
    p = PaletteSet(2, np.array([0, 1, 2]), np.array([1, 1]))
    with pytest.raises(PaletteDeficit):
        palette_color(g, p, seed=10)


def test_palette_color_round_cap(monkeypatch):
    # K5 with 5 colors: seed 0 needs 6 rounds, over the cap of 1 * ceil(lg 5).
    g = generate("gnm", 5, 10, 0)
    monkeypatch.setattr(graph_algos, "COLOR_ROUND_FACTOR", 1)
    meter = WorkMeter()
    with pytest.raises(ColoringRoundsExceeded, match="after 3 rounds"):
        palette_color(g, PaletteSet.full(5, 5), seed=0, meter=meter)
    assert meter.rounds == 3
    # Seed 3 finishes in one round, under the same cap.
    assert verify_coloring(g, palette_color(g, PaletteSet.full(5, 5), seed=3), 4)


def _palette_color_reference(g, palettes, seed, meter):
    """palette_color before its rounds became incremental: every round
    rebuilds and sorts the forbidden pairs of all vertices and scans every
    adjacency entry."""
    n = g.n
    P = palettes.num_colors
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    rows, nbrs = g.edge_rows(), g.neighbors
    base_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(palettes.removed_offsets))
    span = np.int64(P + 2)
    base_pairs = base_rows * span + palettes.removed
    rng = generator(seed, 0xC010)
    max_rounds = graph_algos.COLOR_ROUND_FACTOR * ceil_log2(n)
    for rounds in range(max_rounds + 1):
        live_mask = colors == UNCOLORED
        live = np.flatnonzero(live_mask)
        if len(live) == 0:
            return colors
        if rounds == max_rounds:
            raise ColoringRoundsExceeded(f"{len(live)} vertices uncolored after {rounds} rounds")
        edge_live = live_mask[rows]
        taken_sel = edge_live & (colors[nbrs] >= 0)
        taken_pairs = rows[taken_sel] * span + colors[nbrs[taken_sel]]
        pairs = sorted_distinct(np.concatenate([base_pairs, taken_pairs]))
        seg = (pairs // span).astype(np.int64)
        counts = np.bincount(seg, minlength=n)
        seg_offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        sizes = P - counts
        live_deg = np.bincount(rows[edge_live & live_mask[nbrs]], minlength=n)
        if np.any(sizes[live] < live_deg[live] + 1):
            raise PaletteDeficit("palette smaller than remaining degree + 1")
        meter.charge("palette_color", int(edge_live.sum()) + len(live) + len(pairs), 1)
        j = np.minimum((rng.random(len(live)) * sizes[live]).astype(np.int64), sizes[live] - 1)
        rank = np.arange(len(pairs), dtype=np.int64) - seg_offsets[seg]
        t = np.searchsorted(pairs - rank, live * span + j, side="right") - seg_offsets[live]
        proposal = np.full(n, -2, dtype=np.int64)
        proposal[live] = j + t
        both_live = edge_live & live_mask[nbrs]
        clash = both_live & (proposal[rows] == proposal[nbrs])
        conflicted = np.zeros(n, dtype=bool)
        conflicted[rows[clash]] = True
        keep = live_mask & ~conflicted
        colors[keep] = proposal[keep]


def _run_coloring(fn, g, palettes, seed):
    meter = WorkMeter()
    try:
        out = fn(g, palettes, seed, meter)
    except (PaletteDeficit, ColoringRoundsExceeded) as exc:
        out = type(exc)
    return out, meter.rounds, meter.phase_breakdown


def test_palette_color_matches_reference():
    # Tight palettes (a negative slack can break the degree + 1 floor) make
    # rounds with taken colors; a round factor of 1 makes the cap bite, as
    # in the explicit example.
    multi_round, raised = [], set()

    @given(
        st.integers(2, 40),
        st.floats(0.2, 1),
        st.integers(1, 4),
        st.integers(-1, 1),
        st.sampled_from([1, 64]),
        st.integers(0, 2**32),
    )
    @example(8, 1.0, 1, 0, 1, 2)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def check(n, density, cut_per_vertex, slack, round_factor, seed):
        g = generate("gnm", n, int(density * (n * (n - 1) // 2)), seed)
        rng = np.random.default_rng(seed)
        targets = rng.integers(0, n, size=cut_per_vertex * n)
        floor = g.degrees() + np.bincount(targets, minlength=n) + 1
        num_colors = max(int(floor.max()) + slack, 1)
        palettes = extend_palettes(n, targets, rng.integers(0, num_colors, len(targets)), num_colors)
        saved = graph_algos.COLOR_ROUND_FACTOR
        graph_algos.COLOR_ROUND_FACTOR = round_factor
        try:
            got = _run_coloring(palette_color, g, palettes, seed)
            want = _run_coloring(_palette_color_reference, g, palettes, seed)
        finally:
            graph_algos.COLOR_ROUND_FACTOR = saved
        if isinstance(want[0], np.ndarray):
            assert isinstance(got[0], np.ndarray) and np.array_equal(got[0], want[0])
            multi_round.append(want[1] >= 3 and len(palettes.removed) > 0)
        else:
            assert got[0] is want[0]
            raised.add(want[0])
        assert got[1:] == want[1:]

    check()
    assert sum(multi_round) >= 10, multi_round
    assert raised == {PaletteDeficit, ColoringRoundsExceeded}


# ---------------------------------------------------------------------------
# Verifiers


def test_verify_mis_catches_violations():
    g = from_edges(3, np.array([0, 1]), np.array([1, 2]))
    assert verify_mis(g, np.array([True, False, True]))
    assert not verify_mis(g, np.array([True, True, False]))   # not independent
    assert not verify_mis(g, np.array([True, False, False]))  # not maximal


def test_verify_coloring_catches_violations():
    g = from_edges(3, np.array([0, 1]), np.array([1, 2]))
    assert verify_coloring(g, np.array([0, 1, 0]), 2)
    assert not verify_coloring(g, np.array([0, 0, 1]), 2)  # improper
    assert not verify_coloring(g, np.array([0, 3, 0]), 2)  # out of range


# ---------------------------------------------------------------------------
# Boosted pipelines


@pytest.mark.parametrize("kind,n,m", [("gnm", 3000, 12_000), ("star", 3000, 0), ("power_law", 3000, 9000)])
def test_boosted_mis(kind, n, m):
    g = generate(kind, n, m, seed=11)
    in_set = boosted_mis(g, k=4, seed=12)
    assert verify_mis(g, in_set)


@pytest.mark.parametrize("kind,n,m", [("gnm", 3000, 12_000), ("star", 3000, 0), ("power_law", 3000, 9000)])
def test_boosted_coloring(kind, n, m):
    g = generate(kind, n, m, seed=13)
    colors = boosted_coloring(g, k=4, seed=14)
    assert verify_coloring(g, colors, g.max_degree())


@pytest.mark.parametrize("kind", ["path", "gnm"])  # gnm with m = 0 culls nothing
def test_boosting_is_bounded_by_n_not_k(kind, monkeypatch):
    g = generate(kind, 10, 0, seed=1)
    k = 10**6
    built, reorganize = [], graph_algos.reorganize

    def spy_reorganize(*args):
        built.append(reorganize(*args))
        return built[-1]

    monkeypatch.setattr(graph_algos, "reorganize", spy_reorganize)
    solved = []

    def solve_piece(verts, local, cut_rows, cut_nbrs, piece_seed):
        solved.append(len(verts))
        return 0

    graph_algos._boost(g, k, 5, WorkMeter(), 3, solve_piece)
    (ro,) = built
    for per_piece in (ro.piece_ids, ro.piece_boundaries):
        assert len(per_piece) <= g.n + 2
    assert len(solved) == len(ro.piece_ids) and min(solved) > 0
    assert sum(solved) == g.n
    monkeypatch.undo()
    assert verify_mis(g, boosted_mis(g, k, 5))
    assert verify_coloring(g, boosted_coloring(g, k, 5), g.max_degree())


def test_boosted_deterministic():
    g = generate("gnm", 1000, 5000, seed=15)
    c1 = boosted_coloring(g, 3, seed=16)
    c2 = boosted_coloring(g, 3, seed=16)
    assert np.array_equal(c1, c2)
    s1 = boosted_mis(g, 3, seed=17)
    s2 = boosted_mis(g, 3, seed=17)
    assert np.array_equal(s1, s2)


def test_boosted_work_linear_in_edges():
    per_m = []
    for m in (1 << 13, 1 << 15):
        g = generate("gnm", m // 4, m, seed=m)
        meter = WorkMeter()
        colors = boosted_coloring(g, 4, seed=m, meter=meter)
        assert verify_coloring(g, colors, g.max_degree())
        per_m.append(meter.total_ops / m)
    assert per_m[1] <= 2.0 * per_m[0]


@given(
    st.sampled_from(["gnm", "star", "path", "power_law"]),
    st.integers(1, 64),
    st.integers(1, 64),
    st.floats(0, 1),
    st.integers(0, 2**32),
)
@settings(max_examples=100, deadline=None)
def test_boosted_small_graphs(kind, n, k, density, seed):
    # k can reach n here, so piece ids reach n in the vertex integer sort.
    g = generate(kind, n, int(density * (n * (n - 1) // 2)), seed)
    assert verify_mis(g, boosted_mis(g, k, seed))
    assert verify_coloring(g, boosted_coloring(g, k, seed), g.max_degree())


# Graph seed 21, solver seed 22.  Output digest: sha256 of the little-endian
# int64 output; work digest: sha256 of the sorted-key JSON of the meter's
# per-label work.
PINNED_BOOSTED = [
    ("gnm", 2000, 16000, 2, "color", "060e979f3677c78c82bf7a6d56b818c7c3e7585b3140402e7cce6b28b044658e", 159978, 42, "1c822ec916604225b7a98a19f0c29c851dbf54d32836e65b47973f1c53fe9cd5"),
    ("gnm", 2000, 16000, 2, "mis", "1f48a01417f34341c2eb116c34c7b389af93f2c50cfc0b87238e29df1cd7d3dd", 133238, 42, "508961feda0143d903968c8c95bcdfb10ff3ab1209879c1d2abcd03d9244e247"),
    ("gnm", 2000, 16000, 4, "color", "48398fa7ebf7c741b3c82413161749176b5ca225061395171078253ad5622388", 198722, 44, "42de8456b6db14fe82e7024d2c0794185af1f0f11506e244016224019abce862"),
    ("gnm", 2000, 16000, 4, "mis", "0f35e7c1f05da481b1fb9897516f827c7238e5db18a8e78b00624610ec0cd056", 180530, 45, "4c3d51a401559b841683857ddafbedd21aab01eddd23fcd9f0249bfe3f3bc58a"),
    ("power_law", 2000, 12000, 2, "color", "6856d73869c93f89a294e66aa72e2209bf28e433fef9a61fc7606106cb961151", 141506, 44, "4e1bc1c17aebef29eb28a34d0efa84024367d7a2dc67fff3d5d02bfb9edf8472"),
    ("power_law", 2000, 12000, 2, "mis", "75ac32c7c978abab62ef6991f86810a4e8e8b4c75a86780488b533d34d6cbc99", 129297, 43, "9968e778d43f5d4af99b271ca39b377b8aaae941adba1f84c86383920cbd6a79"),
    ("power_law", 2000, 12000, 4, "color", "7010feabafcef9ea99580d011136b8d95f5223d0ead798a25779c4618c44d03d", 164405, 51, "747d28f735a0e02e271bd2724ac043198fc44925b24b5eb3f4fc452fe8441cc0"),
    ("power_law", 2000, 12000, 4, "mis", "53c3a16545732ff940f960c375ac165b27e7486f6fb0a68e0f020b4b437ce8a5", 147786, 52, "e297da376ee8d98ca34540b9d179f030aa744fffe797d036019f43cc89a5a9ac"),
    ("star", 500, 0, 2, "color", "c4d38b6f6513b4caf3af3ce49c8b9b29355a0285110d0cf0f54e87983a0ee14b", 8302, 34, "b19313620f27385a309b2305d0e5e6767d27506b5aa331a5bf5d3284cb1d6762"),
    ("star", 500, 0, 2, "mis", "3e6a9fd3d68c14526e6d8c55a926c38eb402e7b7168988ce02662e24ca0d7ea0", 8490, 33, "48e59afe4b5b029665adf0a28e1cdf01225858b5349d07fad2d5c06fdda4c043"),
    ("star", 500, 0, 4, "color", "f2bb6073b06e5d5eec6cd70807a3bcf9677748a19b4e5cfe6bbcb3b11a5c854b", 8490, 34, "ad337790d50e02a49548979b14bc88644ebad325791df527ea05fbe965be4a07"),
    ("star", 500, 0, 4, "mis", "3e6a9fd3d68c14526e6d8c55a926c38eb402e7b7168988ce02662e24ca0d7ea0", 8689, 35, "424ef898a150bd3bfe925a3bbddec9d1755522149a75f5b1e225a2771ab52953"),
]


# Edge cases, pinned the same way: k >= n (the vertex sort keys each vertex
# by its piece id's rank), a cull phase that removes vertices
# (test_pinned_cull_case_culls), and an edgeless graph.
PINNED_BOOSTED_EDGE_CASES = {
    "rank-color": ("gnm", 40, 300, 64, "color", "41595f0ff8394a82d85eec4e2f3340c65086327a9d3e2317e365492799f11e62", 4188, 31, "80e373bfdef3eaefc0c6847a9feed35ed3431e7dbe3a6f782a7a94a5a6f936be"),
    "rank-mis": ("gnm", 40, 300, 64, "mis", "d5080b6c0dd601f837ab5e97b30c834b8eed2b899f395ad67eca32015fd7a24b", 3797, 31, "47d86f967713acd2787f025d5d24f52fed5b2ce3b8313a5fa6db5aae030f49ea"),
    "culls-color": ("power_law", 3000, 30000, 2, "color", "196c02a6c20f520f469bfa09de3c385bf6086b79ff945fa334a1edb28bc852d2", 327225, 45, "b59cd55807977e532d6a0b07c6f1dcca302db874000d7b68c3ffcc446fc8cbe8"),
    "culls-mis": ("power_law", 3000, 30000, 2, "mis", "b565653bd56b4eebf4294ddad8843d9d1e8bc2364d4d547d4d9be335e72ccc9b", 310975, 45, "aba2f84e30dcf108b4b8d6c9c116d33848a0750d84a7892ae771e53ad9c71d48"),
    "edgeless-color": ("gnm", 50, 0, 3, "color", "7a12e561363385e9dfeeab326368731c030ed4b374e7f5897ac819159d2884c5", 302, 23, "1e8651ab6e2207ef2039c2b7183c1ae25c34baac0191ff0a931ab19578e60ea4"),
    "edgeless-mis": ("gnm", 50, 0, 3, "mis", "f33daf5fc5cddc53a4edc108cc7617823eba7f63958f7e79379335d6a0f6eae7", 302, 23, "68dfe171532fab4e29fb7924915f5bc37c1fb010c43e6b8c4bb08f611405d26a"),
}


@pytest.mark.parametrize(
    "kind,n,m,k,algo,out_digest,total_ops,rounds,work_digest",
    PINNED_BOOSTED + list(PINNED_BOOSTED_EDGE_CASES.values()),
    ids=[f"{c[0]}-k{c[3]}-{c[4]}" for c in PINNED_BOOSTED] + list(PINNED_BOOSTED_EDGE_CASES),
)
def test_boosted_outputs_pinned(kind, n, m, k, algo, out_digest, total_ops, rounds, work_digest):
    g = generate(kind, n, m, seed=21)
    meter = WorkMeter()
    out = (boosted_coloring if algo == "color" else boosted_mis)(g, k, 22, meter)
    assert hashlib.sha256(out.astype("<i8").tobytes()).hexdigest() == out_digest
    assert (meter.total_ops, meter.rounds) == (total_ops, rounds)
    work = json.dumps(meter.phase_breakdown, sort_keys=True).encode()
    assert hashlib.sha256(work).hexdigest() == work_digest


def test_pinned_cull_case_culls():
    # The boosted call partitions with seed derive(22, 1).
    kind, n, m, k = PINNED_BOOSTED_EDGE_CASES["culls-mis"][:4]
    part = cull_partition(generate(kind, n, m, seed=21), k, derive(22, 1))
    assert len(part.culled) > 0
