"""The benchmark's tracer (perfbench/tracing.py) wraps names that exist."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_specs_name_existing_attributes(monkeypatch):
    # Import only: nothing under perfbench/ runs or gets written.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        tracing = importlib.import_module("tracing")
        missing = [
            f"{spec.name}: {spec.attr}"
            for spec in tracing.SPECS
            if spec.attr not in vars(spec.owner)
        ]
    finally:
        sys.modules.pop("tracing", None)
        sys.modules.pop("workloads", None)
    assert not missing, missing
