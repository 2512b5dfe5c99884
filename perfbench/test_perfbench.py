"""Tests of the benchmark itself: determinism, failure counting, tracing.

Run from the repository root (takes a few minutes, since it builds the
full-size pools of every workload):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Per-layer metrics that depend on timing rather than on inputs and seeds.
TIMED = {"trace.overhead", "baseline.semisort_over_argsort"}


def _counts(metrics: dict[str, float]) -> dict[str, float]:
    units = tracing.per_layer_units()
    return {k: v for k, v in metrics.items() if units[k] != "s" and k not in TIMED}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_counts_other_seed_other_inputs(name):
    wl = workloads.WORKLOADS[name]
    runs = []
    for _ in range(2):
        run = bench.Run(wl)
        pool = run.build_pool(7)
        e2e = bench.end_to_end(pool, [])
        layers = bench.traced(run, pool, 0.0)
        assert run.failed == 0
        runs.append((pool, e2e, _counts(layers)))
    (pool_a, e2e_a, layers_a), (_, e2e_b, layers_b) = runs
    for key in ("work_per_item", "rounds_per_call"):
        assert e2e_a[key] == e2e_b[key] > 0
    assert layers_a == layers_b
    if wl.is_graph:
        assert layers_a["graph.partition.nonempty_pieces"] >= 2
        assert layers_a["graph.partition.cut_edges"] > 0

    other = wl.make_input(workloads.input_rng(8, name, 0))
    same = wl.make_input(workloads.input_rng(7, name, 0))
    assert wl.input_bytes(other) == wl.input_bytes(pool_a[0].data)
    assert _fingerprint(same) == _fingerprint(pool_a[0].data)
    assert _fingerprint(other) != _fingerprint(pool_a[0].data)


def _fingerprint(inp) -> bytes:
    if isinstance(inp, workloads.SortInput):
        return inp.records.keys.tobytes()
    return inp.graph.neighbors.tobytes()


def _fake(call, deadline_s=0.5):
    wl = workloads.WORKLOADS["semisort-uniform"]
    return replace(wl, call=call, verify=lambda inp, out: out == "ok", deadline_s=deadline_s)


def _item():
    return bench.PoolItem(data=None, seed=0, items=1, gen_s=0.0)


def test_hang_and_named_exception_are_counted_failures():
    def hang(inp, seed, meter):
        time.sleep(5)
        return "ok"

    def timeout(inp, seed, meter):
        raise workloads.placement_mod.PlacementTimeout(1, 0, 1)

    for call, failed in ((hang, 1), (timeout, 1), (lambda i, s, m: "wrong", 1), (lambda i, s, m: "ok", 0)):
        run = bench.Run(_fake(call))
        t0 = time.perf_counter()
        result = run.call(_item())
        assert time.perf_counter() - t0 < 2
        assert (run.attempted, run.failed, result.ok) == (1, failed, failed == 0)


def test_unnamed_exception_aborts():
    def broken(inp, seed, meter):
        raise ValueError("bug")

    with pytest.raises(ValueError):
        bench.Run(_fake(broken)).call(_item())


def test_vacuous_partition_fails_loudly():
    g = workloads.graph_mod.generate("gnm", 1 << 10, 1 << 12, 1)
    capture = tracing.Tracer([tracing.CULL_SPEC])
    with capture.installed():
        # k = ceil(log2 n) culls every vertex at this size.
        workloads.graph_algos.boosted_mis(g, 10, 1)
    with pytest.raises(SystemExit):
        bench.check_cut(capture)


def test_tracer_restores_originals_and_splits_self_time():
    originals = {(s.owner, s.attr): vars(s.owner)[s.attr] for s in tracing.SPECS}
    tr = tracing.Tracer(tracing.SPECS)
    keys = np.random.default_rng(0).integers(0, 1 << 12, size=1 << 12, dtype=np.uint64)
    with tr.installed():
        workloads.semisort_mod.semisort(workloads.records_mod.Records.from_keys(keys), seed=3)
    for (owner, attr), fn in originals.items():
        assert vars(owner)[attr] is fn
    outer = tr.stats["semisort.semisort"]
    inner = tr.stats["semisort.local_semisort"]
    assert outer.calls == 1 and inner.calls > 1
    assert 0 < outer.self_s < outer.total_s - inner.total_s + 1e-6
