"""Golden artifact hashes: a reduced desk run must reproduce, byte for byte,
the sha256 of every artifact recorded in tests/golden/desk_small.sha256.

Criterion 11 checks determinism from one run to the next; this test checks
it across code versions, so a change that moves a selected feature or a
threshold fails here. After an intended change, regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

which prints the artifacts whose hash changed, and name each of them, with
the reason, in CHANGES.md.
"""

import hashlib
import platform
import tempfile
import warnings
from pathlib import Path

import numpy

from latefuse.cli import main

GOLDEN = Path(__file__).parent / "golden" / "desk_small.sha256"

CONFIG = """\
[inputs]
modality_a = {root}/data/modality_a.csv
modality_b = {root}/data/modality_b.csv

[output]
directory = {root}/out

[split]
test_benign = 40
test_malignant = 40

[mrcv]
base_seed = 20240811
repeats = 3
rf_mtry = 5,10
rf_ntree = 25

[synth]
seed = 777
n_benign = 250
n_malignant = 250
n_features_a = 100
n_features_b = 100
planted_a = 0:1.6,1:1.1,2:0.8
planted_b = 0:1.3,3:0.9
blocks_a = 5:0.9
common_fraction = 1.0
"""

COMMANDS = ([["synth"]] + [["univariate", "--modality", m] for m in "ab"]
            + [[verb, "--modality", m, "--model", model] for m in "ab"
               for model in ("lr", "rf") for verb in ("train", "evaluate")]
            + [["fuse", "--model", model] for model in ("lr", "rf")] + [["report"]])


def environment() -> str:
    """The versions that can touch an artifact: python and numpy (the
    program imports nothing else outside the standard library)."""
    return f"python {platform.python_version()} numpy {numpy.__version__}"


def artifact_hashes(root: Path) -> dict[str, str]:
    """Run every command under root; sha256 of each file written, keyed by
    its path relative to root."""
    config = root / "run.ini"
    config.write_text(CONFIG.format(root=root), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for cmd in COMMANDS:
            assert main(["--config", str(config), *cmd]) == 0, cmd
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for sub in ("data", "out") for p in sorted((root / sub).iterdir())}


def read_golden() -> tuple[str, dict[str, str]]:
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    header = lines[0].lstrip("# ")
    return header, {name: digest for digest, name in (line.split("  ", 1) for line in lines[1:])}


def changed(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Artifacts whose hash differs, or that only one side has, by name."""
    return sorted(name for name in expected.keys() | actual.keys()
                  if expected.get(name) != actual.get(name))


def test_desk_small_matches_golden(tmp_path):
    recorded_env, expected = read_golden()
    actual = artifact_hashes(tmp_path)
    changed_names = changed(expected, actual)
    assert not changed_names, (f"artifacts differ from {GOLDEN.name}: {changed_names} "
                               f"(recorded with {recorded_env}; running {environment()})")


if __name__ == "__main__":
    previous = read_golden()[1] if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        hashes = artifact_hashes(Path(tmp))
    GOLDEN.write_text(f"# {environment()}\n"
                      + "".join(f"{h}  {name}\n" for name, h in sorted(hashes.items())),
                      encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")
    for name in changed(previous, hashes):
        print(f"changed: {name}")
