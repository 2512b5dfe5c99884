"""Per-layer tracing by wrapping library functions from the benchmark's side.

Each wrapped function records its call count, inclusive time and self time
(its span minus the spans of the wrapped functions it calls).  A function is
wrapped in the namespace its caller looks it up in, for example ``place`` in
``semipar.semisort`` and ``reorganize`` in ``semipar.graph_algos``; leaving
``Tracer.installed`` restores every original.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np

from workloads import partition_counts

_mod = importlib.import_module
semisort_ns = _mod("semipar.semisort")
placement_ns = _mod("semipar.placement")
hashing_ns = _mod("semipar.hashing")
prng_ns = _mod("semipar.prng")
graph_ns = _mod("semipar.graph")
graph_algos_ns = _mod("semipar.graph_algos")
Records = _mod("semipar.records").Records
WorkMeter = _mod("semipar.meter").WorkMeter


@dataclass(frozen=True)
class Spec:
    owner: Any                 # module or class whose attribute is replaced
    attr: str
    name: str                  # span name: layer.function
    keep: Callable[[tuple, Any], Any] | None = None  # (args, result) -> kept value
    meter_pos: int | None = None  # positional index of the WorkMeter argument


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    rounds: int = 0


class Tracer:
    def __init__(self, specs: list[Spec]):
        self.specs = specs
        self.stats: dict[str, Stat] = {s.name: Stat() for s in specs}
        self.kept: dict[str, list] = {s.name: [] for s in specs}
        self._stack: list[float] = []   # child time of each open span

    @contextmanager
    def installed(self):
        saved = []
        try:
            for spec in self.specs:
                orig = vars(spec.owner)[spec.attr]
                saved.append((spec.owner, spec.attr, orig))
                setattr(spec.owner, spec.attr, self._wrap(spec, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def _wrap(self, spec: Spec, fn: Callable) -> Callable:
        stat = self.stats[spec.name]
        kept = self.kept[spec.name]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            meter = None
            if spec.meter_pos is not None:
                meter = kwargs.get("meter", args[spec.meter_pos] if len(args) > spec.meter_pos else None)
            rounds0 = meter.rounds if meter is not None else 0
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
            if meter is not None:
                stat.rounds += meter.rounds - rounds0
            if spec.keep is not None:
                kept.append(spec.keep(args, out))
            return out

        return wrapper


def _keep_semisort(args: tuple, out: Any) -> tuple:
    return args[0].keys, out[1]


def _keep_partition(args: tuple, out: Any) -> tuple:
    return args[0], out


CULL_SPEC = Spec(graph_algos_ns, "cull_partition", "graph.cull_partition", _keep_partition)

SPECS = [
    Spec(semisort_ns, "semisort", "semisort.semisort", _keep_semisort),
    Spec(semisort_ns, "local_semisort", "semisort.local_semisort", lambda a, o: o[1]),
    Spec(graph_ns, "integer_sort", "semisort.integer_sort"),
    Spec(semisort_ns, "place", "placement.place",
         lambda a, o: (len(a[0].targets), o.rounds_used, o.probes)),
    Spec(semisort_ns, "universal_new", "hashing.universal_new"),
    Spec(semisort_ns, "universal_hash_array", "hashing.universal_hash_array"),
    Spec(semisort_ns, "tab_bucket", "hashing.tab_bucket"),
    Spec(semisort_ns, "detect_collision", "hashing.detect_collision"),
    Spec(Records, "take", "records.take"),
    Spec(WorkMeter, "charge", "meter.charge"),
    CULL_SPEC,
    Spec(graph_algos_ns, "reorganize", "graph.reorganize"),
    Spec(graph_algos_ns, "palette_color", "graph_algos.palette_color", meter_pos=3),
    Spec(graph_algos_ns, "extend_palettes", "graph_algos.extend_palettes"),
    Spec(graph_algos_ns, "luby_mis", "graph_algos.luby_mis", meter_pos=2),
    Spec(graph_algos_ns, "mis_extend_prune", "graph_algos.mis_extend_prune"),
    Spec(graph_algos_ns, "boosted_coloring", "graph_algos.boosted_coloring"),
    Spec(graph_algos_ns, "boosted_mis", "graph_algos.boosted_mis"),
] + [
    Spec(ns, "derive", "prng.derive")
    for ns in (prng_ns, semisort_ns, placement_ns, graph_algos_ns)
]

# WorkMeter label -> per-layer metric of charged work per item.
WORK_LABELS = {
    "sample": "semisort.work.sample",
    "sample_sort": "semisort.work.sample_sort",
    "classify": "semisort.work.classify",
    "heavy_sort": "semisort.work.heavy_sort",
    "heavy_pack": "semisort.work.heavy_pack",
    "light_sort": "semisort.work.light_sort",
    "light_hash": "semisort.work.light_hash",
    "light_pack": "semisort.work.light_pack",
    "local_semisort": "semisort.work.local_semisort",
    "small_sort": "semisort.work.small_sort",
    "final_pack": "semisort.work.final_pack",
    "integer_sort_pass": "semisort.work.integer_sort_pass",
    "placement.probe": "placement.work.probe",
    "cull.degree_pass": "graph.work.cull_degree_pass",
    "cull.assign": "graph.work.cull_assign",
    "reorganize.adjacency": "graph.work.reorganize_adjacency",
    "extend_palettes": "graph_algos.work.extend_palettes",
    "palette_color": "graph_algos.work.palette_color",
    "mis_extend_prune": "graph_algos.work.mis_extend_prune",
    "luby_mis": "graph_algos.work.luby_mis",
}
WORK_OTHER = "meter.work.other"

# Span metrics: "<span name>.<field>", averaged per workload call.
SPAN_FIELDS = {"s": ("total_s", "s"), "self_s": ("self_s", "s"),
               "calls": ("calls", "count"), "rounds": ("rounds", "rounds")}
SPAN_METRICS = [
    "semisort.semisort.self_s", "semisort.semisort.calls",
    "semisort.local_semisort.self_s", "semisort.local_semisort.calls",
    "semisort.integer_sort.self_s",
    "placement.place.s", "placement.place.calls",
    "hashing.universal_new.s", "hashing.universal_new.calls",
    "hashing.universal_hash_array.s", "hashing.tab_bucket.s",
    "hashing.detect_collision.s",
    "records.take.s", "records.take.calls",
    "prng.derive.calls", "meter.charge.calls",
    "graph.cull_partition.s", "graph.reorganize.self_s",
    "graph_algos.palette_color.s", "graph_algos.palette_color.calls",
    "graph_algos.palette_color.rounds", "graph_algos.extend_palettes.s",
    "graph_algos.luby_mis.s", "graph_algos.luby_mis.rounds",
    "graph_algos.mis_extend_prune.s",
    "graph_algos.boosted_coloring.self_s", "graph_algos.boosted_mis.self_s",
]
OTHER_METRICS = {
    "semisort.rehash.success_ratio": "ratio",
    "semisort.restarts": "count",
    "semisort.heavy_fraction": "ratio",
    "semisort.max_bucket_size": "count",
    "semisort.alloc_ratio": "ratio",
    "placement.rounds_per_call": "rounds",
    "placement.probes_per_record": "ratio",
    "graph.generate.s": "s",
    "graph.cull.phases": "count",
    "graph.cull.culled_fraction": "ratio",
    "graph.partition.internal_edges": "count",
    "graph.partition.cut_edges": "count",
    "graph.partition.nonempty_pieces": "count",
    "baseline.argsort_s": "s",
    "baseline.semisort_over_argsort": "ratio",
    "trace.overhead": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {m: SPAN_FIELDS[m.rsplit(".", 1)[1]][1] for m in SPAN_METRICS}
    units.update(OTHER_METRICS)
    units.update({name: "ops/item" for name in WORK_LABELS.values()})
    units[WORK_OTHER] = "ops/item"
    return units


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else 0.0


def layer_metrics(
    tr: Tracer,
    n_calls: int,
    n_items: int,
    work: dict[str, int],
    generate_s: float,
    overhead: float,
) -> dict[str, float]:
    """Per-layer values of a traced loop of ``n_calls`` workload calls.

    A function that the workload never calls reads 0.
    """
    out: dict[str, float] = {}
    for metric in SPAN_METRICS:
        span, field = metric.rsplit(".", 1)
        out[metric] = getattr(tr.stats[span], SPAN_FIELDS[field][0]) / n_calls

    attempts = sum(tr.kept["semisort.local_semisort"])
    out["semisort.rehash.success_ratio"] = (
        tr.stats["semisort.local_semisort"].calls / attempts if attempts else 0.0
    )
    traces = [t for _, t in tr.kept["semisort.semisort"]]
    out["semisort.restarts"] = _mean([t.restarts for t in traces])
    out["semisort.heavy_fraction"] = _mean([t.heavy_count / t.n for t in traces])
    out["semisort.max_bucket_size"] = _mean([t.max_bucket_size for t in traces])
    out["semisort.alloc_ratio"] = _mean([t.allocated_space / t.n for t in traces])

    placed = tr.kept["placement.place"]
    out["placement.rounds_per_call"] = _mean([r for _, r, _ in placed])
    records = sum(n for n, _, _ in placed)
    out["placement.probes_per_record"] = sum(p for _, _, p in placed) / records if records else 0.0

    out["graph.generate.s"] = generate_s
    parts = [partition_counts(g, p) for g, p in tr.kept["graph.cull_partition"]]
    out["graph.cull.phases"] = _mean([c["phases"] for c in parts])
    out["graph.cull.culled_fraction"] = _mean([c["culled_fraction"] for c in parts])
    for key in ("internal_edges", "cut_edges", "nonempty_pieces"):
        out[f"graph.partition.{key}"] = _mean([c[key] for c in parts])

    argsort_s = semisort_s = 0.0
    if traces:
        keys = tr.kept["semisort.semisort"][-1][0]
        argsort_s = statistics.median(_time(np.argsort, keys, kind="stable") for _ in range(3))
        stat = tr.stats["semisort.semisort"]
        semisort_s = stat.total_s / stat.calls
    out["baseline.argsort_s"] = argsort_s
    out["baseline.semisort_over_argsort"] = semisort_s / argsort_s if argsort_s else 0.0
    out["trace.overhead"] = overhead

    for name in WORK_LABELS.values():
        out[name] = 0.0
    out[WORK_OTHER] = 0.0
    for label, ops in work.items():
        out[WORK_LABELS.get(label, WORK_OTHER)] += ops / n_items
    return out


def _time(fn: Callable, *args, **kwargs) -> float:
    t0 = perf_counter()
    fn(*args, **kwargs)
    return perf_counter() - t0
