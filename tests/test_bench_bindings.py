"""The benchmark (perfbench/) binds to the program by name: the traced run
(perfbench/spans.py) wraps program functions by module and name, and the
pipeline run reads keys of the model documents. A renamed function or key
would break the benchmark only when it runs, so both are checked here."""

import importlib
import importlib.util
import json
import sys
import warnings
from pathlib import Path

from latefuse.cli import main

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


TINY_CONFIG = """\
[inputs]
modality_a = {root}/data/modality_a.csv
modality_b = {root}/data/modality_b.csv

[output]
directory = {root}/out

[split]
test_benign = 10
test_malignant = 10

[mrcv]
base_seed = 11
repeats = 2
rf_mtry = 2
rf_ntree = 5

[synth]
seed = 5
n_benign = 40
n_malignant = 40
n_features_a = 6
n_features_b = 6
planted_a = 0:2.0
planted_b = 0:2.0
"""


def test_model_documents_hold_what_the_benchmark_reads(tmp_path):
    """perfbench/pipeline.py reads a model document's selected_features (its
    planted recall) and, for a forest, model.params.ntree (its document bytes
    per tree)."""
    config = tmp_path / "run.ini"
    config.write_text(TINY_CONFIG.format(root=tmp_path), encoding="utf-8")
    args = ["--config", str(config)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert main(args + ["synth"]) == 0
        for model in ("lr", "rf"):
            assert main(args + ["train", "--modality", "a", "--model", model]) == 0
    docs = {model: json.loads((tmp_path / "out" / f"model_a_{model}.json").read_text())
            for model in ("lr", "rf")}
    for doc in docs.values():
        selected = doc["selected_features"]
        assert selected and all(isinstance(name, str) for name in selected)
    assert docs["rf"]["model"]["params"]["ntree"] == 5
