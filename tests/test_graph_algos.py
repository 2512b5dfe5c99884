"""MIS, coloring, palettes, extenders, and the boosted pipelines."""

import numpy as np
import pytest

from semipar.graph import from_edges, generate
from semipar.graph_algos import (
    UNCOLORED,
    LocalGraph,
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
from semipar.meter import WorkMeter
from semipar.prng import generator


def _local(g):
    return LocalGraph(g.n, g.offsets, g.neighbors)


# ---------------------------------------------------------------------------
# Local graphs


def test_local_induced():
    g = _local(generate("path", 6, 0, 0))
    keep = np.array([True, True, False, True, True, True])
    sub, old = g.induced(keep)
    assert np.array_equal(old, [0, 1, 3, 4, 5])
    assert sub.n == 5
    # Edge 1-2 and 2-3 vanish with vertex 2.
    assert sub.degrees().sum() == 2 * 3


# ---------------------------------------------------------------------------
# Palettes


def test_palette_full_and_allowed():
    p = PaletteSet.full(3, 5)
    assert np.array_equal(p.sizes(), [5, 5, 5])
    assert np.array_equal(p.allowed(1), [0, 1, 2, 3, 4])


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
    survivors = mis_extend_prune(
        5, np.array([0, 2, 4]), np.array([True, False, True])
    )
    assert np.array_equal(survivors, [1, 2, 3])


# ---------------------------------------------------------------------------
# Luby MIS


@pytest.mark.parametrize("kind,n,m", [("path", 40, 0), ("star", 60, 0), ("gnm", 200, 800)])
def test_luby_mis_valid(kind, n, m):
    g = generate(kind, n, m, seed=2)
    in_set = luby_mis(_local(g), seed=3)
    assert verify_mis(g, in_set)


def test_luby_mis_isolated_vertices_join():
    g = from_edges(5, np.array([0]), np.array([1]))
    in_set = luby_mis(_local(g), seed=0)
    assert in_set[2] and in_set[3] and in_set[4]


def test_luby_mis_rounds_logarithmic():
    g = generate("gnm", 5000, 40_000, seed=4)
    meter = WorkMeter()
    in_set = luby_mis(_local(g), seed=5, meter=meter)
    assert verify_mis(g, in_set)
    assert meter.rounds <= 4 * 13  # O(log n) whp, generous constant


# ---------------------------------------------------------------------------
# Palette coloring


def test_palette_color_full_palettes():
    g = generate("gnm", 300, 1500, seed=6)
    delta = g.max_degree()
    colors = palette_color(_local(g), PaletteSet.full(g.n, delta + 1), seed=7)
    assert verify_coloring(g, colors, delta)


def test_palette_color_star():
    g = generate("star", 2000, 0, 0)
    colors = palette_color(_local(g), PaletteSet.full(g.n, g.max_degree() + 1), seed=8)
    assert verify_coloring(g, colors, g.max_degree())


def test_palette_color_respects_removed_colors():
    # Triangle with color 0 removed everywhere: proper coloring in {1, 2, 3}.
    g = from_edges(3, np.array([0, 1, 2]), np.array([1, 2, 0]))
    p = PaletteSet(4, np.array([0, 1, 2, 3]), np.array([0, 0, 0]))
    colors = palette_color(_local(g), p, seed=9)
    assert (colors > 0).all()
    assert verify_coloring(g, colors, 3)


def test_palette_color_deficit_raises():
    # A single edge with singleton identical palettes can never finish.
    g = from_edges(2, np.array([0]), np.array([1]))
    p = PaletteSet(2, np.array([0, 1, 2]), np.array([1, 1]))
    with pytest.raises(PaletteDeficit):
        palette_color(_local(g), p, seed=10)


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
