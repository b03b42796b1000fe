"""One pipeline of one benchmark workload, run in a fresh process.

    python3 perfbench/pipeline.py --workload desk --seed 1 --work DIR \
        --t0 MONOTONIC --result FILE [--trace | --setup-only] [--size tiny]

Set-up: import the program from `src/`, generate the workload's modality
CSVs from the seed with `latefuse.synth`, blank cells where the workload asks
for it, and write the run config. The pipeline then calls
`latefuse.cli.main(argv)` once per command, in order, with the CLI defaults.
The program sees only the CSVs and the config. A fixed calibration kernel
runs after the set-up and after every command, outside the timed spans, so
that the runner can tell how fast the host ran. Afterwards the output
directory is checked (exit codes, artifact set, MRCV repeat counts) and
digested, and one JSON result is written to FILE.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RULES = ("stouffer", "mean", "max", "product")

# Full-size workloads. Sizes were chosen so that one pipeline takes about ten
# seconds on a 2-vCPU box and a run holds three to five.
WORKLOADS = {
    # criterion-11 shape at reduced MRCV repeats: every command, LR and RF.
    # Planted features sit outside the correlated block and are strong enough
    # that a correct run recovers all of them on every seed.
    "desk": dict(
        n_benign=250, n_malignant=250, n_features=100,
        planted_a=((5, 1.8), (6, 1.6), (7, 1.4)), planted_b=((0, 1.8), (3, 1.6)),
        blocks_a=((5, 0.9),), blank_fraction=0.0,
        test=(40, 40), repeats=5, rf_mtry=(5, 10), rf_ntree=(25,),
        commands=(("univariate", "a"), ("univariate", "b"),
                  ("train", "a", "lr"), ("evaluate", "a", "lr"),
                  ("train", "a", "rf"), ("evaluate", "a", "rf"),
                  ("train", "b", "lr"), ("evaluate", "b", "lr"),
                  ("train", "b", "rf"), ("evaluate", "b", "rf"),
                  ("fuse", "lr"), ("fuse", "rf"), ("report",))),
    # S2-radiomics sample count and class balance, 1% blank cells, LR only.
    # p is half the paper's so that a run holds about five pipelines.
    "cohort": dict(
        n_benign=4569, n_malignant=440, n_features=50,
        planted_a=((10, 1.6), (11, 1.2), (12, 1.0)),
        planted_b=((0, 1.6), (1, 1.2), (2, 1.0)),
        blocks_a=((10, 0.97),), blank_fraction=0.01,
        test=(400, 40), repeats=1, rf_mtry=(5,), rf_ntree=(25,),
        commands=(("univariate", "a"), ("univariate", "b"),
                  ("train", "a", "lr"), ("evaluate", "a", "lr"),
                  ("train", "b", "lr"), ("evaluate", "b", "lr"),
                  ("fuse", "lr"), ("report",))),
}

# Seconds-scale versions of the same command lists, for the benchmark's tests.
TINY = {
    "desk": dict(n_benign=30, n_malignant=30, n_features=12, planted_a=((0, 2.5), (1, 2.0)),
                 planted_b=((0, 2.5),), blocks_a=(), test=(5, 5), repeats=2,
                 rf_mtry=(2, 3), rf_ntree=(5,)),
    "cohort": dict(n_benign=60, n_malignant=20, n_features=12,
                   planted_a=((4, 2.5), (5, 2.0)), planted_b=((0, 2.5),),
                   blocks_a=((3, 0.97),), test=(5, 5), repeats=2),
}


def workload(name: str, size: str) -> dict:
    return {**WORKLOADS[name], **(TINY[name] if size == "tiny" else {})}


def config_text(spec: dict, seed: int, work: Path) -> str:
    return "\n".join([
        "[inputs]",
        f"modality_a = {work / 'data' / 'modality_a.csv'}",
        f"modality_b = {work / 'data' / 'modality_b.csv'}",
        "[output]",
        f"directory = {work / 'out'}",
        "[split]",
        f"test_benign = {spec['test'][0]}",
        f"test_malignant = {spec['test'][1]}",
        "[mrcv]",
        f"base_seed = {20240811 + seed}",
        f"repeats = {spec['repeats']}",
        "rf_mtry = " + ",".join(map(str, spec["rf_mtry"])),
        "rf_ntree = " + ",".join(map(str, spec["rf_ntree"])),
        "",
    ])


def argv_for(command: tuple[str, ...]) -> list[str]:
    name, *rest = command
    if name == "univariate":
        return [name, "--modality", rest[0]]
    if name in ("train", "evaluate"):
        return [name, "--modality", rest[0], "--model", rest[1]]
    if name == "fuse":
        return [name, "--model", rest[0]]
    return [name]


def expected_artifacts(command: tuple[str, ...]) -> list[str]:
    name, *rest = command
    if name == "univariate":
        return [f"univariate_{rest[0]}.csv"]
    if name == "train":
        m, k = rest
        names = [f"model_{m}_{k}.json", f"folds_{m}_{k}.csv", f"ranking_{m}_{k}.csv",
                 f"elbow_{m}_{k}.svg"]
        return names + ([f"importance_{m}_rf.csv"] if k == "rf" else [])
    if name == "evaluate":
        m, k = rest
        return [f"metrics_{m}_{k}.csv", f"roc_{m}_{k}.csv", f"roc_{m}_{k}.svg",
                f"confusion_{m}_{k}.svg", f"scores_{m}_{k}.csv"]
    if name == "fuse":
        return [f"metrics_fused_{rest[0]}.csv"] + [f"fused_scores_{rest[0]}_{r}.csv"
                                                  for r in RULES]
    return ["report_summary.csv"]


def _data_rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[1:]


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def setup(spec: dict, seed: int, work: Path) -> tuple[Path, dict]:
    """Write the modality CSVs and the config; return the config path and
    the time spent generating and saving."""
    from latefuse.synth import SynthSpec, generate_pair
    from latefuse.tables import save_feature_table
    import numpy as np

    t = time.perf_counter()
    common = dict(n_benign=spec["n_benign"], n_malignant=spec["n_malignant"],
                  n_features=spec["n_features"], seed=seed)
    tables = generate_pair(
        SynthSpec(planted=spec["planted_a"], correlation_blocks=spec["blocks_a"], **common),
        SynthSpec(planted=spec["planted_b"], **common))
    if spec["blank_fraction"]:
        rng = np.random.default_rng([seed, 7])
        tables = tuple(t.with_matrix(t.values, rng.random(t.values.shape)
                                     < spec["blank_fraction"]) for t in tables)
    generate_s = time.perf_counter() - t
    (work / "data").mkdir(parents=True)
    t = time.perf_counter()
    for table, m in zip(tables, "ab"):
        save_feature_table(table, work / "data" / f"modality_{m}.csv")
    save_s = time.perf_counter() - t
    config = work / "run.ini"
    config.write_text(config_text(spec, seed, work), encoding="utf-8")
    return config, {"synth.generate_s": generate_s, "tables.save_s": save_s}


def check(spec: dict, out: Path, codes: list[int]) -> dict:
    """Correctness gate and quality figures of one finished pipeline."""
    ok = []
    expected: set[str] = set()
    repeats = flagged = 0
    for command, code in zip(spec["commands"], codes):
        names = expected_artifacts(command)
        expected.update(names)
        good = code == 0 and all((out / n).is_file() for n in names)
        if good and command[0] == "train":
            rows = _data_rows(out / names[1])
            good = len(rows) == spec["repeats"]
            repeats += len(rows)
            flagged += sum(1 for r in rows if r[-1])
        ok.append(good)
    present = {p.name for p in out.iterdir()} if out.is_dir() else set()
    ok.append(present == expected)  # the whole artifact set, nothing missing or extra

    planted = {"a": spec["planted_a"], "b": spec["planted_b"]}
    found = wanted = 0
    for name in sorted(present):
        if name.startswith("model_") and name.endswith(".json"):
            modality = name.split("_")[1]
            selected = set(json.loads((out / name).read_text())["selected_features"])
            names = {f"f{i:03d}" for i, _ in planted[modality]}
            found += len(names & selected)
            wanted += len(names)
    aucs = []
    for name in sorted(present):
        if name.startswith("metrics_") and name.endswith(".csv"):
            aucs.extend(float(r[-1]) for r in _data_rows(out / name))
    return {
        "ops_ok": ok,
        "repeats": repeats,
        "repeats_flagged": flagged,
        "planted_recall": found / wanted if wanted else 0.0,
        "test_auc_mean": sum(aucs) / len(aucs) if aucs else 0.0,
        "bytes_written": sum(p.stat().st_size for p in out.iterdir()) if present else 0,
        "forest_doc_bytes_per_tree": _doc_bytes_per_tree(out, present),
        "digest": digest(out) if present else "",
    }


def _doc_bytes_per_tree(out: Path, present: set[str]) -> float:
    size = trees = 0
    for name in present:
        if name.startswith("model_") and name.endswith("_rf.json"):
            size += (out / name).stat().st_size
            trees += json.loads((out / name).read_text())["model"]["params"]["ntree"]
    return size / trees if trees else 0.0


def kernel() -> float:
    """Seconds for a fixed piece of work shaped like the program's inner
    loops: interpreted Python, small dense algebra and sorting a column.
    The runner turns the kernel times of a run into its host-speed scale."""
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.random((420, 8))
    col = rng.random(420)
    t = time.perf_counter()
    acc = 0
    for i in range(180000):
        acc += i * i % 7
    for _ in range(2700):
        g = x.T @ x
        np.linalg.solve(g + np.eye(8), x.T @ col)
        np.argsort(col, kind="stable")
    return time.perf_counter() - t


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import latefuse.cli
    import spans

    spec = workload(args.workload, args.size)
    config, setup_layers = setup(spec, args.seed, args.work)
    setup_wall = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    kernels = [kernel()]
    if args.setup_only:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        args.result.write_text(json.dumps({"setup_wall_s": setup_wall, "kernel_s": kernels,
                                           "cpu_s": usage.ru_utime + usage.ru_stime}))
        return 0

    recorder = spans.Recorder()
    if args.trace:
        spans.install(recorder)
    warnings.simplefilter("ignore")
    codes, times = [], []
    for command in spec["commands"]:
        recorder.open("cli." + command[0])
        t = time.perf_counter()
        codes.append(latefuse.cli.main(["--config", str(config), *argv_for(command)]))
        times.append(time.perf_counter() - t)
        recorder.close()
        kernels.append(kernel())
    usage = resource.getrusage(resource.RUSAGE_SELF)

    result = check(spec, args.work / "out", codes)
    result.update({
        "setup_wall_s": setup_wall,
        "command_wall_s": times,
        "kernel_s": kernels,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "codes": codes,
    })
    if args.trace:
        layers = spans.layer_metrics(recorder.spans, sum(times))
        layers.update(setup_layers)
        layers["reports.bytes_written"] = result["bytes_written"]
        layers["forest.doc_bytes_per_tree"] = result["forest_doc_bytes_per_tree"]
        result["layers"] = layers
        result["tree_costs"] = spans.tree_costs(recorder.spans)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
