"""Checks of the benchmark itself on seconds-scale inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(cwd: Path, workload: str, trace: int, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == ["desk", "cohort"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    result = result_of(run(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                                             "unit": m["unit"]} for m in wanted}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace:
        # full-size pipelines are >= 0.9 covered; on tiny inputs the fixed
        # per-command cost outside any layer weighs more
        assert 0.5 < values["trace.coverage"] <= 1.0
    else:
        assert all(values[m["name"]] > 0 for m in SPEC["end_to_end"])
        assert values["ops_ok_frac"] == 1.0


def test_same_seed_same_digest_and_other_seed_differs():
    def digest(proc):
        return next(line.split()[1] for line in proc.stdout.splitlines()
                    if line.startswith("digest "))

    first, again, other = (run(ROOT, "desk", 0, seed) for seed in (5, 5, 6))
    assert result_of(again)["correct"] and digest(first) == digest(again)
    assert digest(first) != digest(other)


def test_install_wraps_every_alias():
    check = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import latefuse.cli as cli, latefuse.mrcv as mrcv, spans
from latefuse import metrics, preprocess, tables, univariate
spans.install(spans.Recorder())
for name, homes in [("run_mrcv_lr", (cli, mrcv)), ("load_feature_table", (cli, tables)),
                    ("spearman_matrix", (cli, preprocess)),
                    ("univariate_screen", (cli, univariate)),
                    ("best_threshold_bacc", (cli, mrcv, metrics))]:
    bound = {id(getattr(m, name)) for m in homes}
    assert len(bound) == 1 and hasattr(getattr(homes[0], name), "__wrapped__"), name
"""
    proc = subprocess.run([sys.executable, "-c", check, str(ROOT / "src"), str(HERE)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_scaling_follows_units():
    sys.path.insert(0, str(HERE))
    import run
    assert run.host_scale([run.REF_KERNEL_S * 2] * 3) == pytest.approx(0.5)
    units = {"a_s": "s", "b_ms": "ms", "rate": "1/s", "n": "count", "cov": "ratio"}
    scaled = run.scaled_layers({name: 4.0 for name in units}, units, 0.5)
    assert scaled == {"a_s": 2.0, "b_ms": 2.0, "rate": 8.0, "n": 4.0, "cov": 4.0}


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run(tmp_path, "desk", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
