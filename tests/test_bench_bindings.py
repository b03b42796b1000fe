"""The traced benchmark run (perfbench/spans.py) wraps program functions by
module and name. A renamed or deleted function would break that run only
when it is traced, so its bindings are checked here."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_layer_function_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read perfbench/, write nothing
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    bindings = [(module, name) for module, names in spans.LAYERS.values() for name in names]
    assert bindings
    unresolved = [f"{module}.{name}" for module, name in bindings
                  if not callable(getattr(importlib.import_module(module), name, None))]
    assert unresolved == []
