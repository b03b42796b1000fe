"""Pipeline benchmark for latefuse.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 50 --trace 0

A run repeats one workload's whole pipeline, each time in a fresh process
(perfbench/pipeline.py), until `--seconds` have passed and at least
MIN_PIPELINES have finished, then adds set-up-only processes until there
are MIN_SETUPS set-ups. It reports the median set-up time, for every
command the mean of its times over the run's pipelines (summed into
pipeline_s, train_s and score_s), and the median of everything else. All
times are scaled to a reference host speed (see `host_scale`). Every
pipeline of a run uses the same seed, so every one must leave a
byte-identical output directory; its digest is also kept per (workload,
seed, code hash) under .perfbench_work/ and later runs must match it.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json. `--trace 1`
alternates untraced and traced pipelines and prints the per-layer metrics
from the traced ones, plus the tracing overhead (traced minus untraced
`pipeline_s`). The last line of standard output is the JSON result; the
lines before it hold the environment, each pipeline, and the noise figures.
`--size tiny` runs seconds-scale inputs for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread for the benchmark and every pipeline it starts: on a
# 2-vCPU host OpenBLAS's second thread spins after each call, which made the
# same pipeline 10-25% slower and its times far noisier (see README.md).
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import pipeline  # noqa: E402  (workload definitions; imports no program code)

MIN_PIPELINES = 2
MIN_SETUPS = 5  # setup_s is the median of at least this many set-ups
DEADLINE_S = 150.0  # start no pipeline that would end after this; runs end within 180 s
# Time of pipeline.kernel() on the host the benchmark was written on, in its
# fast stretches (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, one BLAS thread).
REF_KERNEL_S = 0.07
PAPER_GRID = {"mtry": (5, 10, 15, 20, 25, 30), "ntree": (100, 500, 1000, 2000),
              "repeats": 100}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def code_hash() -> str:
    """Hash of the program and of the workload definitions."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [HERE / "pipeline.py"]:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded (None if not found)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "code": code_hash(),
    }


def steal_seconds() -> float:
    """Machine-wide steal time so far, from the first line of /proc/stat."""
    with open("/proc/stat", encoding="utf-8") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def run_pipeline(args, work: Path, traced: bool, setup_only: bool,
                 remaining: float) -> dict | None:
    """One pipeline (or only its set-up) in a fresh process; None when it
    crashed or timed out."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), "--result", str(result),
           "--size", args.size]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    log = work.parent / "pipeline.log"
    with log.open("w") as fh:
        t0 = monotonic()
        try:
            code = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, stdout=fh,
                                  stderr=subprocess.STDOUT, timeout=remaining).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        wall = monotonic() - t0
    if code != 0 or not result.is_file():
        tail = log.read_text(errors="replace")[-2000:]
        print(f"pipeline failed ({code}):\n{tail}", file=sys.stderr)
        return None
    out = json.loads(result.read_text())
    out.update(traced=traced, wall_s=wall)
    return out


def projection(costs: list[dict], workload: dict, scale: float) -> dict:
    """Extrapolate the paper's default forest grid from measured per-tree
    costs, scaled to the reference host speed: growth linear in mtry through
    the measured points, every grid forest predicting the MRCV table's rows
    once, and importance on one kept forest of the grid's mean ntree per
    repeat."""
    grow = {int(m): scale * statistics.median(c["grow_ms_per_tree"][m] for c in costs)
            for m in costs[0]["grow_ms_per_tree"]}
    predict = scale * statistics.median(c["predict_ms_per_tree_row"] for c in costs)
    importance = scale * statistics.median(c["importance_ms_per_tree"] for c in costs)
    lo, hi = min(grow), max(grow)
    # a slope between two close mtry values is mostly noise; a negative one
    # is taken as flat rather than letting larger mtry look cheaper
    slope = max(grow[hi] - grow[lo], 0.0) / (hi - lo) if hi > lo else 0.0
    rows = workload["n_benign"] + workload["n_malignant"] - sum(workload["test"])
    ntrees = sum(PAPER_GRID["ntree"])
    per_repeat_ms = sum((grow[lo] + slope * (m - lo) + predict * rows) * ntrees
                        for m in PAPER_GRID["mtry"])
    per_repeat_ms += importance * statistics.mean(PAPER_GRID["ntree"])
    return {
        "label": "extrapolated, not gated",
        "grid": PAPER_GRID,
        "trees_per_repeat": ntrees * len(PAPER_GRID["mtry"]),
        "mrcv_rows": rows,
        "grow_ms_per_tree_measured": grow,
        "predict_ms_per_tree_row": predict,
        "importance_ms_per_kept_tree": importance,
        "repeat_s": per_repeat_ms / 1e3,
        "modality_h": per_repeat_ms * PAPER_GRID["repeats"] / 3.6e6,
    }


def digest_record(key: str, digest: str, record: Path) -> str:
    """The digest stored for `key`, storing `digest` first if there is none."""
    known = json.loads(record.read_text()) if record.is_file() else {}
    if key not in known:
        known[key] = digest
        record.write_text(json.dumps(known, indent=1, sort_keys=True))
    return known[key]


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def command_means(rows: list[dict]) -> list[float]:
    """Each command's mean wall time over the pipelines in `rows`."""
    return [statistics.fmean(times) for times in zip(*(r["command_wall_s"] for r in rows))]


def host_scale(kernels: list[float]) -> float:
    """Factor that turns the run's wall times into seconds at the reference
    speed: REF_KERNEL_S over the mean time of the calibration kernel, which
    ran after every set-up and every command of the run. A shared host runs
    the same pipeline up to 1.6 times slower for minutes at a time; the
    kernel slows with it, so scaled times stay put while raw ones swing."""
    return REF_KERNEL_S / statistics.fmean(kernels)


def scaled_layers(layers: dict, units: dict, scale: float) -> dict:
    """Per-layer values with times scaled and rates divided by `scale`."""
    factor = {"s": scale, "ms": scale, "us": scale, "1/s": 1.0 / scale}
    return {name: value * factor.get(units[name], 1.0) for name, value in layers.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    if not (ROOT / "src" / "latefuse" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'latefuse'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = environment()
    print("env " + json.dumps(env))
    work_root = ROOT / ".perfbench_work"
    run_dir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    start, steal0 = monotonic(), steal_seconds()
    results: list[dict] = []
    setups: list[float] = []  # set-up wall time / the kernel time just after it
    kernels: list[float] = []
    crashed = 0
    try:
        while True:
            traced = bool(args.trace) and len(results) % 2 == 1
            r = run_pipeline(args, run_dir / "p", traced, False,
                             DEADLINE_S + 25.0 - (monotonic() - start))
            if r is None:
                crashed += 1
                break
            results.append(r)
            setups.append(r["setup_wall_s"] / r["kernel_s"][0])
            kernels.extend(r["kernel_s"])
            print("pipeline " + json.dumps({k: r[k] for k in (
                "traced", "wall_s", "setup_wall_s", "command_wall_s", "kernel_s",
                "peak_rss_mb", "cpu_s", "codes", "digest")}))
            elapsed, last = monotonic() - start, r["wall_s"]
            if elapsed + last > DEADLINE_S:
                break
            if len(results) >= MIN_PIPELINES and elapsed + last > args.seconds:
                break
        while not crashed and len(setups) < MIN_SETUPS:
            r = run_pipeline(args, run_dir / "p", False, True,
                             DEADLINE_S + 25.0 - (monotonic() - start))
            if r is None:
                crashed += 1
                break
            setups.append(r["setup_wall_s"] / r["kernel_s"][0])
            kernels.extend(r["kernel_s"])
            print("setup " + json.dumps({k: r[k] for k in ("setup_wall_s", "kernel_s", "cpu_s")}))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    steal = steal_seconds() - steal0
    wall = monotonic() - start
    plain = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no pipeline finished", file=sys.stderr)
        return 1

    key = f"{args.workload}/{args.size}/seed={args.seed}/code={env['code']}"
    reference = digest_record(key, results[0]["digest"], work_root / "digests.json")
    ops = [ok for r in results for ok in r["ops_ok"] + [r["digest"] == reference]]
    attempted = len(ops) + crashed
    failed = attempted - sum(ops)
    scale = host_scale(kernels)
    print("noise " + json.dumps({
        "run_wall_s": wall, "machine_steal_s": steal, "pipelines": len(results),
        "setups": len(setups),
        "child_cpu_s": sum(r["cpu_s"] for r in results),
        "pipeline_wall_s": sorted(sum(r["command_wall_s"]) for r in plain),
        "kernel_s_min_median_max": [min(kernels), statistics.median(kernels), max(kernels)],
        "host_scale": scale,
        "loadavg": os.getloadavg()}))
    print(f"digest {reference} ({'consistent' if failed == 0 else 'MISMATCH OR FAILURE'})")

    if args.trace:
        units = {m["name"]: m["unit"] for m in wanted}
        values = scaled_layers({name: median_of([r["layers"] for r in traced], name)
                                for name in traced[0]["layers"]}, units, scale)
        values["trace.overhead_s"] = scale * (sum(command_means(traced))
                                              - sum(command_means(plain)))
        costs = [r["tree_costs"] for r in traced if r["tree_costs"]]
        if costs:
            print("projection " + json.dumps(
                projection(costs, pipeline.workload(args.workload, args.size), scale)))
    else:
        repeats = sum(r["repeats"] for r in results)
        # Every pipeline of a run does the same deterministic work, so each
        # command's time is its mean over the pipelines, as the kernel's is.
        commands = pipeline.workload(args.workload, args.size)["commands"]
        times = [t * scale for t in command_means(plain)]
        values = {"pipeline_s": sum(times),
                  "train_s": sum(t for c, t in zip(commands, times) if c[0] == "train"),
                  "score_s": sum(t for c, t in zip(commands, times) if c[0] != "train")}
        values.update({name: median_of(plain, name) for name in (
            "peak_rss_mb", "planted_recall", "test_auc_mean")})
        # a set-up is scaled by the kernel that ran right after it, in its
        # own process: set-ups are short and the host's speed moves fast
        values["setup_s"] = statistics.median(setups) * REF_KERNEL_S
        values["ops_ok_frac"] = sum(ops) / attempted
        values["repeats_ok_frac"] = (1.0 - sum(r["repeats_flagged"] for r in results)
                                     / repeats) if repeats else 0.0
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
