"""The benchmark's workloads: seeded inputs, the library call, and its check.

Every input and every algorithm seed is drawn from the workload seed through
numpy's SeedSequence, so the library receives only generated inputs and the
same seed always gives the same inputs.  Each pool input is called with its
own fixed algorithm seed, so repeated calls on one input replay exactly.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

semisort_mod = importlib.import_module("semipar.semisort")
graph_mod = importlib.import_module("semipar.graph")
graph_algos = importlib.import_module("semipar.graph_algos")
placement_mod = importlib.import_module("semipar.placement")
records_mod = importlib.import_module("semipar.records")

N_SORT = 1 << 20
ZIPF_THETA = 1.2
N_GRAPH = 1 << 17
M_GRAPH = 1 << 20
# k = ceil(log2 n) would make the cull threshold fall below 1 and cull every
# vertex, so the pieces would be empty; k = 4 keeps every vertex and cuts
# real edges.
K_PIECES = 4
POOL = 3

# Exceptions the library raises on a run that did not succeed; each one is
# a counted failure, never an aborted benchmark.
NAMED_FAILURES = (
    semisort_mod.RestartExceeded,
    placement_mod.PlacementTimeout,
    graph_algos.PaletteDeficit,
    graph_mod.InvariantViolation,
)


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable[[np.random.Generator], Any]
    call: Callable[[Any, int, Any], Any]
    verify: Callable[[Any, Any], bool]
    items: Callable[[Any], int]
    input_bytes: Callable[[Any], int]
    deadline_s: float
    is_graph: bool


@dataclass
class SortInput:
    records: Any
    counts: dict[int, int] | None = None  # per-key multiplicities, on first use
    verified: Any = None                  # an output that passed every check


@dataclass
class GraphInput:
    graph: Any
    delta: int


def _uniform_keys(rng: np.random.Generator) -> SortInput:
    keys = rng.integers(0, N_SORT, size=N_SORT, dtype=np.uint64)
    return SortInput(records_mod.Records.from_keys(keys))


def _zipf_keys(rng: np.random.Generator) -> SortInput:
    w = np.arange(1, N_SORT + 1, dtype=np.float64) ** -ZIPF_THETA
    keys = rng.choice(N_SORT, size=N_SORT, p=w / w.sum()).astype(np.uint64)
    return SortInput(records_mod.Records.from_keys(keys))


def _graph(kind: str) -> Callable[[np.random.Generator], GraphInput]:
    def make(rng: np.random.Generator) -> GraphInput:
        seed = int(rng.integers(0, 1 << 63))
        g = graph_mod.generate(kind, N_GRAPH, M_GRAPH, seed)
        return GraphInput(g, g.max_degree())

    return make


def _call_semisort(inp: SortInput, seed: int, meter: Any) -> Any:
    out, _ = semisort_mod.semisort(inp.records, None, seed, meter)
    return out


def _verify_semisort(inp: SortInput, out: Any) -> bool:
    """The three checks of the library, or equality with an output that passed them.

    Calls on one input reuse one seed and replay the same output, so the
    equality test, about a millisecond, stands in for a second or two of
    checks; any output that differs gets the full checks.
    """
    v = inp.verified
    if v is not None and np.array_equal(v.keys, out.keys) and np.array_equal(v.payloads, out.payloads):
        return True
    if inp.counts is None:
        inp.counts = records_mod.group_counts(inp.records)
    ok = bool(
        records_mod.is_semisorted(out)
        and records_mod.same_multiset(inp.records, out)
        and records_mod.group_counts(out) == inp.counts
    )
    if ok:
        inp.verified = out
    return ok


def _call_coloring(inp: GraphInput, seed: int, meter: Any) -> Any:
    return graph_algos.boosted_coloring(inp.graph, K_PIECES, seed, meter)


def _verify_coloring(inp: GraphInput, colors: Any) -> bool:
    return graph_algos.verify_coloring(inp.graph, colors, inp.delta)


def _call_mis(inp: GraphInput, seed: int, meter: Any) -> Any:
    return graph_algos.boosted_mis(inp.graph, K_PIECES, seed, meter)


def _verify_mis(inp: GraphInput, in_set: Any) -> bool:
    return graph_algos.verify_mis(inp.graph, in_set)


def _sort_bytes(inp: SortInput) -> int:
    return inp.records.keys.nbytes + inp.records.payloads.nbytes


def _graph_bytes(inp: GraphInput) -> int:
    g = inp.graph
    # Offsets, neighbours, and the per-entry source array the library caches.
    return g.offsets.nbytes + 2 * g.neighbors.nbytes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "semisort-uniform",
            _uniform_keys, _call_semisort, _verify_semisort,
            lambda inp: len(inp.records), _sort_bytes, 30.0, False,
        ),
        Workload(
            "semisort-zipf",
            _zipf_keys, _call_semisort, _verify_semisort,
            lambda inp: len(inp.records), _sort_bytes, 30.0, False,
        ),
        Workload(
            "boost-color-gnm",
            _graph("gnm"), _call_coloring, _verify_coloring,
            lambda inp: inp.graph.m, _graph_bytes, 30.0, True,
        ),
        Workload(
            "boost-mis-powerlaw",
            _graph("power_law"), _call_mis, _verify_mis,
            lambda inp: inp.graph.m, _graph_bytes, 20.0, True,
        ),
    )
}


def input_rng(seed: int, workload: str, j: int) -> np.random.Generator:
    """Generator for pool input ``j`` of ``workload`` under the workload seed."""
    return np.random.default_rng(np.random.SeedSequence([seed, _wid(workload), j, 0]))


def algo_seed(seed: int, workload: str, j: int) -> int:
    """The library seed used for every call on pool input ``j``."""
    ss = np.random.SeedSequence([seed, _wid(workload), j, 1])
    return int(ss.generate_state(1, np.uint64)[0])


def _wid(workload: str) -> int:
    return list(WORKLOADS).index(workload)


def partition_counts(g: Any, part: Any) -> dict[str, float]:
    """Internal and cut edges, non-empty pieces, and culled share of a partition.

    The culled set counts as one more piece: its edges to the survivors are
    the cut the extenders carry the last piece across.
    """
    u, v = graph_mod.edge_list(g)
    a = part.assignment
    internal = int(graph_mod.piece_edge_counts(g, part).sum())
    cut = int(np.count_nonzero(a[u] != a[v]))
    survivors = a[a != graph_mod.CULLED]
    nonempty = int(np.count_nonzero(np.bincount(survivors, minlength=part.k)))
    return {
        "internal_edges": internal,
        "cut_edges": cut,
        "nonempty_pieces": nonempty,
        "phases": part.phases,
        "culled_fraction": len(part.culled) / g.n,
    }
