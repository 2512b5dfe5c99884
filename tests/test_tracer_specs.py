"""The benchmark (perfbench/) reads and wraps library names that exist."""

import ast
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

from semipar.placement import PlacementResult

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer_specs(monkeypatch):
    # Import only: nothing under perfbench/ runs or gets written.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        return importlib.import_module("tracing").SPECS
    finally:
        sys.modules.pop("tracing", None)
        sys.modules.pop("workloads", None)


def test_tracer_specs_name_existing_attributes(monkeypatch):
    missing = [
        f"{spec.name}: {spec.attr}"
        for spec in _tracer_specs(monkeypatch)
        if spec.attr not in vars(spec.owner)
    ]
    assert not missing, missing


def test_tracer_meter_positions_name_the_meter(monkeypatch):
    # The tracer reads a wrapped call's rounds from the argument at
    # meter_pos; a reordered signature would silently drop them.
    wrong = []
    for spec in _tracer_specs(monkeypatch):
        if spec.meter_pos is None:
            continue
        params = list(inspect.signature(vars(spec.owner)[spec.attr]).parameters)
        if spec.meter_pos >= len(params) or params[spec.meter_pos] != "meter":
            wrong.append(f"{spec.name}: position {spec.meter_pos} of {params}")
    assert not wrong, wrong


def test_tracer_reads_placement_result_fields():
    # The "placement.place" span keeps rounds_used and probes of each result.
    fields = {f.name for f in dataclasses.fields(PlacementResult)}
    assert {"rounds_used", "probes"} <= fields


def _library_module(node, aliases):
    """The semipar module ``node`` names: an alias bound to one, or a call
    such as ``importlib.import_module("semipar.x")``; None otherwise."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Call) and len(node.args) == 1:
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and str(arg.value).startswith("semipar."):
            return arg.value
    return None


def test_perfbench_reads_existing_library_attributes():
    # A library deletion must fail here rather than break the benchmark,
    # which a library change may not edit.  The sources are parsed, never
    # run, and no bytecode is written.
    missing, checked, aliases_seen = [], 0, set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                module = _library_module(node.value, {})
                if module and isinstance(node.targets[0], ast.Name):
                    aliases[node.targets[0].id] = module
        aliases_seen |= set(aliases)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                module, names = _library_module(node.value, aliases), [node.attr]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("semipar"):
                module, names = node.module, [a.name for a in node.names]
            else:
                continue
            if module is None:
                continue
            for name in names:
                checked += 1
                if not hasattr(importlib.import_module(module), name):
                    missing.append(f"{path.name}:{node.lineno}: {module}.{name}")
    workload_aliases = {"semisort_mod", "graph_mod", "graph_algos", "placement_mod", "records_mod"}
    assert workload_aliases <= aliases_seen
    assert checked >= 20, checked
    assert not missing, missing
