"""The benchmark's tracer (perfbench/tracing.py) wraps names that exist."""

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
