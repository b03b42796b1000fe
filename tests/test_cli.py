import csv
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

from latefuse import cli
from latefuse.cli import main
from latefuse.config import load_config
from latefuse.errors import ConfigError, LatefuseError
from latefuse.fuse import FusionRule, fuse_modalities
from latefuse.metrics import best_threshold_bacc
from latefuse.mrcv import FoldOutcome, final_rf_params
from latefuse.reports import read_scores_csv, scores_csv, write_text

from test_golden import COMMANDS  # every command, both modalities and models

BASE_CONFIG = """\
[inputs]
modality_a = {root}/data/modality_a.csv
modality_b = {root}/data/modality_b.csv

[output]
directory = {root}/out

[split]
test_benign = 12
test_malignant = 12

[mrcv]
base_seed = 424242
repeats = 8
rf_mtry = 3
rf_ntree = 25

[synth]
seed = 99
n_benign = 80
n_malignant = 80
n_features_a = 12
n_features_b = 10
planted_a = 0:2.2,1:1.4
planted_b = 0:1.8
common_fraction = 0.9
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(BASE_CONFIG.format(root=tmp_path), encoding="utf-8")
    return path


def run(config_path, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return main(["--config", str(config_path), *args])


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [r for r in csv.reader(fh) if r and not r[0].startswith("#")]


def test_config_defaults_and_overrides(config_path):
    cfg = load_config(config_path)
    assert cfg.repeats == 8
    assert cfg.rf_mtry == (3,) and cfg.rf_ntree == (25,)
    assert cfg.delta_bic_stop == 2.0
    assert cfg.correlation_threshold == 0.95
    over = load_config(config_path, ["mrcv.repeats=3", "preprocess.per_cohort=true"])
    assert over.repeats == 3 and over.per_cohort is True
    for stop in ("-inf", "inf"):
        assert load_config(config_path, [f"mrcv.delta_bic_stop={stop}"]).delta_bic_stop \
            == float(stop)


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    text = text.replace("= data/", f"= {tmp_path}/data/").replace("= out", f"= {tmp_path}/out")
    path = tmp_path / "readme.ini"
    path.write_text(text, encoding="utf-8")
    cfg = load_config(path)
    assert cfg.modality_a == tmp_path / "data" / "modality_a.csv"
    assert cfg.out_dir == tmp_path / "out" and cfg.synth is not None


def test_config_requires_seed(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[inputs]\nmodality_a=x\nmodality_b=y\n[output]\ndirectory=o\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError, match="base_seed"):
        load_config(path)


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.ini")


@pytest.mark.parametrize("override", [
    "mrcv.repeats=abc", "preprocess.per_cohort=maybe", "mrcv.rf_mtry=5,x",
    # out of the range the library enforces
    "preprocess.correlation_threshold=1.5", "preprocess.correlation_threshold=0",
    "preprocess.max_missing_fraction=2", "mrcv.lr_validation_fraction=1.5",
    "mrcv.rf_validation_fraction=0", "mrcv.repeats=0",
    "mrcv.rf_ntree=0", "mrcv.rf_mtry=", "mrcv.rf_mtry=5,-1", "split.test_benign=-1",
    "split.test_malignant=-2", "univariate.alpha=7", "univariate.alpha=nan",
    "mrcv.delta_bic_stop=nan", "mrcv.base_seed=-1", "synth.seed=-1",
    # a one-tree forest fits, but its importances cannot be normalized
    "mrcv.rf_ntree=1,25",
    # keys that load_config does not read, among them the removed forest options,
    # the removed scaling switch and the removed fusion rule list (fuse runs
    # every rule)
    "mrcv.repeat=5", "mrcv.rf_mtyr=3", "schema.group_column=patient", "preprocess.scale=maybe",
    "mrcv.rf_min_leaf=0", "mrcv.rf_weighted=false", "fusion.rules=foo", "fusion.rules=",
    "fusion.rules=stouffer,mean,max,product"])
def test_malformed_typed_value_is_a_config_error(config_path, capsys, override):
    section, option = override.split("=")[0].split(".")
    with pytest.raises(ConfigError, match=rf"\[{section}\] {option}"):
        load_config(config_path, [override])
    assert run(config_path, "--set", override, "synth") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("edit, override", [
    (("modality_a.csv", "modality_%a.csv"), []),
    (None, ["inputs.modality_a={root}/data/a%b.csv"]),
], ids=["percent_in_file", "percent_in_override"])
def test_percent_in_config_value_is_literal(config_path, tmp_path, edit, override):
    if edit:
        config_path.write_text(config_path.read_text().replace(*edit), encoding="utf-8")
    overrides = [o.format(root=tmp_path) for o in override]
    cfg = load_config(config_path, overrides)
    assert "%" in cfg.modality_a.name
    assert run(config_path, *(f"--set={o}" for o in overrides), "synth") == 0
    assert cfg.modality_a.exists()


@pytest.mark.parametrize("edit, override, named", [
    (("[inputs]\n", ""), [], "run.ini"),
    (("repeats = 8\n", "repeats = 8\nrepeats = 9\n"), [], "run.ini"),
    (None, ["DEFAULT.base_seed=1"], "DEFAULT"),
    (("repeats = 8\n", "repeats = 8\nrf_ntrees = 7\n"), [], r"\[mrcv\] rf_ntrees"),
    (("[inputs]\n", "[DEFAULT]\nrepeat = 5\n[inputs]\n"), [], r"\[DEFAULT\] repeat"),
    (("[inputs]\n", "[runs]\n[inputs]\n"), [], r"\[runs\]"),
], ids=["no_section_header", "repeated_key", "default_section_override", "unknown_key",
        "unknown_default_key", "unknown_section"])
def test_config_syntax_error_is_a_config_error(config_path, capsys, edit, override, named):
    if edit:
        config_path.write_text(config_path.read_text().replace(*edit), encoding="utf-8")
    with pytest.raises(ConfigError, match=named):
        load_config(config_path, override)
    assert run(config_path, *(f"--set={o}" for o in override), "synth") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_synth_writes_both_modalities(config_path, tmp_path):
    assert run(config_path, "synth") == 0
    for name in ("modality_a.csv", "modality_b.csv"):
        assert (tmp_path / "data" / name).exists()


def test_missing_input_exit_2(config_path):
    assert run(config_path, "univariate", "--modality", "a") == 2


def test_univariate_lists_planted_on_top(config_path, tmp_path):
    run(config_path, "synth")
    assert run(config_path, "univariate", "--modality", "a") == 0
    rows = read_rows(tmp_path / "out" / "univariate_a.csv")
    assert rows[0] == ["Feature", "Normality benign", "Normality malignant",
                       "Rg effect size", "P-value", "FDR"]
    assert {rows[1][0], rows[2][0]} == {"f000", "f001"}  # smallest FDR first


def test_empty_feature_set_exit_3(config_path, tmp_path):
    run(config_path, "synth")
    # absurd missingness threshold cannot trigger on complete data; instead
    # force the scaler to drop everything via constant columns
    data = tmp_path / "data" / "modality_a.csv"
    lines = data.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        for j in range(3, len(header)):
            row[j] = "1.0"
    data.write_text("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n",
                    encoding="utf-8")
    assert run(config_path, "univariate", "--modality", "a") == 3


def test_other_preprocessing_errors_exit_1(config_path, tmp_path, capsys):
    # only an empty feature set exits 3; a modality with no Benign row has no
    # reference samples to scale by
    run(config_path, "synth")
    data = tmp_path / "data" / "modality_a.csv"
    rows = read_rows(data)
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([rows[0]] + [r[:2] + ["Malignant"] + r[3:] for r in rows[1:]])
    capsys.readouterr()
    assert run(config_path, "univariate", "--modality", "a") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: no Benign reference samples"), err


@pytest.mark.parametrize("fault, cell, detail", [
    ("long-field", b"1" * (csv.field_size_limit() + 1),
     f": line 5: field larger than field limit ({csv.field_size_limit()})"),
    ("not-utf-8", b"\xff", ": not UTF-8 text: invalid start byte (byte 0xff)"),
])
def test_unreadable_table_is_an_error_line(config_path, tmp_path, capsys, fault, cell, detail):
    run(config_path, "synth")
    data = tmp_path / "data" / "modality_a.csv"
    lines = data.read_bytes().split(b"\n")
    row = lines[4].split(b",")  # the fourth data row, line 5
    lines[4] = b",".join(row[:3] + [cell] + row[4:])
    data.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert run(config_path, "univariate", "--modality", "a") == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {data}{detail}"]


def test_all_blank_feature_is_dropped_at_any_threshold(config_path, tmp_path):
    # at max_missing_fraction 1; the scaler drops the column first, as a
    # feature with fewer than two observed benign values
    run(config_path, "synth")
    data = tmp_path / "data" / "modality_a.csv"
    rows = read_rows(data)
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([rows[0] + ["all_blank"]] + [r + [""] for r in rows[1:]])
    flags = ["--set", "preprocess.max_missing_fraction=1.0"]
    assert run(config_path, *flags, "univariate", "--modality", "a") == 0
    for model in ("lr", "rf"):
        assert run(config_path, *flags, "train", "--modality", "a", "--model", model) == 0
    out = tmp_path / "out"
    assert {"univariate_a.csv", "model_a_lr.json", "model_a_rf.json"} <= {
        p.name for p in out.iterdir()}
    for path in out.iterdir():
        assert "all_blank" not in path.read_text(encoding="utf-8"), path.name


def test_full_pipeline_and_artifacts(config_path, tmp_path):
    run(config_path, "synth")
    for modality in ("a", "b"):
        for model in ("lr", "rf"):
            assert run(config_path, "train", "--modality", modality,
                       "--model", model) == 0
            assert run(config_path, "evaluate", "--modality", modality,
                       "--model", model) == 0
    assert run(config_path, "fuse", "--model", "lr") == 0
    assert run(config_path, "report") == 0
    out = tmp_path / "out"

    metrics = read_rows(out / "metrics_a_lr.csv")
    assert metrics[0] == ["Model", "Sensitivity", "Specificity", "PPV", "NPV",
                          "F1", "Balanced Accuracy", "AUC"]

    fused = read_rows(out / "metrics_fused_lr.csv")
    assert [r[0] for r in fused[1:]] == [f"fused-{rule.value}-lr" for rule in FusionRule]

    model_doc = json.loads((out / "model_a_lr.json").read_text())
    assert model_doc["format"] == "latefuse-model"
    assert 0.0 <= model_doc["threshold"] <= 1.0
    assert model_doc["selected_features"]

    roc_rows = read_rows(out / "roc_a_lr.csv")
    assert roc_rows[0] == ["threshold", "fpr", "tpr"]
    assert float(roc_rows[1][1]) == 0.0 and float(roc_rows[-1][2]) == 1.0

    for svg in ("roc_a_lr.svg", "confusion_a_lr.svg", "elbow_a_lr.svg"):
        text = (out / svg).read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    importance = read_rows(out / "importance_a_rf.csv")
    assert importance[0] == ["feature", "mean_decrease", "std_error", "normalized"]
    assert len(importance) - 1 == len(json.loads(
        (out / "model_a_rf.json").read_text())["selected_features"])

    summary = read_rows(out / "report_summary.csv")
    assert summary[0][0] == "Metric"
    assert summary[1][0] == "Sensitivity"
    # every emitted CSV carries a schema version line
    for name in out.glob("*.csv"):
        assert name.read_text().startswith("# latefuse-csv v1 kind=")


def voted(*pairs):
    """Repeat outcomes whose chosen (mtry, ntree) are `pairs`; None is a flagged repeat."""
    return [FoldOutcome(r, 0, 0, math.nan, math.nan, math.nan, error="flagged")
            if pair is None else
            FoldOutcome(r, 10, 5, 1.0, 1.0, 0.5,
                        chosen_params={"mtry": pair[0], "ntree": pair[1]})
            for r, pair in enumerate(pairs)]


@pytest.mark.parametrize("pairs, selected, expected", [
    # the most-voted grid point wins, wherever it first appears
    (((3, 25), (5, 50), None, (5, 50)), 6, (5, 50)),
    # a tie goes to the earlier grid point, not the first vote cast
    (((5, 50), (3, 25), (5, 50), (3, 25)), 6, (3, 25)),
    (((5, 25), (3, 25)), 6, (3, 25)),
    # mtry is clamped to the selected feature count
    (((5, 50), (5, 50), (3, 25)), 2, (2, 50)),
])
def test_final_forest_parameters_are_the_vote_of_the_repeats(pairs, selected, expected):
    names = [f"f{j:03d}" for j in range(selected)]
    params = final_rf_params((3, 5), (25, 50), voted(*pairs), names, 77)
    assert (params.mtry, params.ntree, params.seed) == (*expected, 77)


def test_final_forest_vote_with_every_repeat_flagged(config_path, capsys, monkeypatch):
    with pytest.raises(LatefuseError, match="no successful MRCV repeat"):
        final_rf_params((3,), (25,), voted(None, None), ["f000"], 77)
    run(config_path, "synth")
    monkeypatch.setattr(cli, "run_mrcv_rf", lambda table, repeats, **kw: voted(*[None] * repeats))
    monkeypatch.setattr(cli, "elbow_cut", lambda ranking: ranking.names()[:2])
    capsys.readouterr()
    assert run(config_path, "train", "--modality", "a", "--model", "rf") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: no successful MRCV repeat"), err


def test_report_without_metrics_exit_2(config_path, tmp_path, capsys):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "scores_a_lr.csv").write_text("# not a metrics file\n")
    capsys.readouterr()
    assert run(config_path, "report") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: no metrics CSVs found"), err
    assert not (tmp_path / "out" / "report_summary.csv").exists()


def test_report_refuses_a_metrics_file_without_model_header(config_path, tmp_path, capsys):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "metrics_a_lr.csv").write_text(
        "# latefuse-csv v1 kind=metrics\nLabel,Sensitivity\na-lr,0.5\n")
    capsys.readouterr()
    assert run(config_path, "report") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "metrics_a_lr.csv is not a metrics CSV" in err[0]
    assert not (tmp_path / "out" / "report_summary.csv").exists()


def test_report_refuses_a_metrics_row_shorter_than_its_header(config_path, tmp_path, capsys):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "metrics_a_lr.csv").write_text(
        "# latefuse-csv v1 kind=metrics\nModel,Sensitivity,Specificity\na-lr,0.5\n")
    capsys.readouterr()
    assert run(config_path, "report") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "metrics_a_lr.csv: line 3: 2 cells, expected 3" in err[0], err[0]
    assert not (tmp_path / "out" / "report_summary.csv").exists()


def test_report_refuses_metrics_files_with_different_headers(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "metrics_a_lr.csv").write_text("Model,Sensitivity\na-lr,0.5\n")
    (out / "metrics_b_lr.csv").write_text("Model,Specificity\nb-lr,0.25\n")
    capsys.readouterr()
    assert run(config_path, "report") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert (f"{out / 'metrics_a_lr.csv'} and {out / 'metrics_b_lr.csv'} have different "
            "metric headers") in err[0], err[0]
    assert not (out / "report_summary.csv").exists()


def test_evaluate_without_model_exit_2(config_path):
    run(config_path, "synth")
    assert run(config_path, "evaluate", "--modality", "a", "--model", "lr") == 2


def test_model_feature_mismatch_exit_4(config_path, tmp_path):
    run(config_path, "synth")
    assert run(config_path, "train", "--modality", "a", "--model", "lr") == 0
    doc = json.loads((tmp_path / "out" / "model_a_lr.json").read_text())
    doc["selected_features"] = ["not_a_feature"]
    doc["model"]["coefficients"] = {"not_a_feature": 1.0}
    (tmp_path / "out" / "model_a_lr.json").write_text(json.dumps(doc), encoding="utf-8")
    assert run(config_path, "evaluate", "--modality", "a", "--model", "lr") == 4


def test_evaluate_does_not_reprune_stored_features(config_path, tmp_path):
    run(config_path, "synth")
    assert run(config_path, "train", "--modality", "a", "--model", "lr") == 0
    assert run(config_path, "evaluate", "--modality", "a", "--model", "lr") == 0
    scores = (tmp_path / "out" / "scores_a_lr.csv").read_bytes()
    # a threshold this low would prune the stored features at train time
    assert run(config_path, "--set", "preprocess.correlation_threshold=0.01",
               "evaluate", "--modality", "a", "--model", "lr") == 0
    assert (tmp_path / "out" / "scores_a_lr.csv").read_bytes() == scores


def test_fuse_empty_intersection_exit_5(config_path, tmp_path):
    run(config_path, "synth")
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    head = "# latefuse-csv v1 kind=scores\n# threshold=0.5\nsample_id,label,score\n"
    (out / "scores_a_lr.csv").write_text(head + "A1,0,0.4\n", encoding="utf-8")
    (out / "scores_b_lr.csv").write_text(head + "B1,1,0.6\n", encoding="utf-8")
    assert run(config_path, "fuse", "--model", "lr") == 5


@pytest.mark.parametrize("body, line", [
    ("A2,1\n", "line 4: 2 cells, expected 3"),
    ("A2,benign,0.5\n", "line 4: invalid literal"),
    ("A2,1,high\n", "line 4: could not convert"),
    ("A2,1,0.5,extra\n", "line 4: 4 cells, expected 3"),
    ("A2,2,0.5\n", "line 4: label 2 is not 0 or 1"),
    ("A2,1,0.5\nA3,0,0.2\nA2,0,0.3\n", "line 6: repeated sample id 'A2'"),
    ("A2,1,nan\n", "line 4: score is nan"),
    ("A2,1,1.5\n", "line 4: score 1.5 is outside [0, 1]"),
    ("A2,1,-0.25\n", "line 4: score -0.25 is outside [0, 1]"),
    ("A2,1,inf\n", "line 4: score inf is outside [0, 1]"),
    ("# threshold=nan\nA2,1,0.5\n", "line 4: threshold is nan"),
    # (header line, rows): the first row that is not a comment must be the header
    pytest.param(("", "A1,0,0.4\nA2,1,0.9\n"),
                 "line 3: header 'A1,0,0.4' is not 'sample_id,label,score'", id="no-header"),
    pytest.param(("label,sample_id,score\n", "0,A1,0.4\n"),
                 "line 3: header 'label,sample_id,score' is not 'sample_id,label,score'",
                 id="reordered-header"),
])
def test_malformed_scores_file_is_an_error_line(config_path, tmp_path, capsys, body, line):
    run(config_path, "synth")
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    preamble, header = "# latefuse-csv v1 kind=scores\n# threshold=0.5\n", "sample_id,label,score\n"
    head = preamble + header
    if isinstance(body, tuple):
        header, body = body
    (out / "scores_a_lr.csv").write_text(preamble + header + body, encoding="utf-8")
    (out / "scores_b_lr.csv").write_text(head.replace("0.5", "half") + "A1,0,0.4\n",
                                         encoding="utf-8")
    capsys.readouterr()
    assert run(config_path, "fuse", "--model", "lr") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert f"scores_a_lr.csv: {line}" in err[0]
    (out / "scores_a_lr.csv").write_text(head + "A1,0,0.4\n", encoding="utf-8")
    assert run(config_path, "fuse", "--model", "lr") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "scores_b_lr.csv: line 2: could not convert" in err[0]


@pytest.mark.parametrize("tail, detail", [
    (b"\xff", ": not UTF-8 text: invalid start byte (byte 0xff)"),
    (b"A2,1," + b"1" * (csv.field_size_limit() + 1) + b"\n",
     f": line 5: field larger than field limit ({csv.field_size_limit()})"),
], ids=["not-utf-8", "long-field"])
def test_unreadable_scores_file_is_an_error_line(config_path, tmp_path, capsys, tail, detail):
    out = tmp_path / "out"
    out.mkdir()
    head = b"# latefuse-csv v1 kind=scores\n# threshold=0.5\nsample_id,label,score\nA1,0,0.4\n"
    (out / "scores_a_lr.csv").write_bytes(head + tail)
    (out / "scores_b_lr.csv").write_bytes(head)
    capsys.readouterr()
    assert run(config_path, "fuse", "--model", "lr") == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {out / 'scores_a_lr.csv'}{detail}"]


def test_metrics_file_not_utf8_is_an_error_line(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "metrics_a_lr.csv").write_bytes(b"Model,Sensitivity\na-lr,0.5\n\xff")
    capsys.readouterr()
    assert run(config_path, "report") == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {out / 'metrics_a_lr.csv'}: not UTF-8 text: invalid start byte (byte 0xff)"]
    assert not (out / "report_summary.csv").exists()


def test_test_id_file_not_utf8_is_an_error_line(config_path, tmp_path, capsys):
    run(config_path, "synth")
    ids = tmp_path / "test_ids.txt"
    ids.write_bytes("".join(f"P{i:04d}\n" for i in (*range(10), *range(100, 110))).encode()
                    + b"\xff")
    text = config_path.read_text().replace("[split]", f"[split]\ntest_ids_file = {ids}")
    config_path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run(config_path, "train", "--modality", "a", "--model", "lr") == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: {ids}: not UTF-8 text: invalid start byte (byte 0xff)"]


def test_byte_order_mark_starts_no_config_key_or_test_id(config_path, tmp_path):
    # Excel's "CSV UTF-8" export and Notepad begin the file with U+FEFF
    ids = tmp_path / "test_ids.txt"
    ids.write_bytes(b"\xef\xbb\xbfP0000\nP0100\n")
    text = config_path.read_text().replace("[split]", f"[split]\ntest_ids_file = {ids}")
    config_path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    cfg = load_config(config_path)
    assert cfg.test_ids_file == ids
    assert cli._test_ids(cfg, "a", None) == {"P0000", "P0100"}
    assert run(config_path, "synth") == 0


def test_one_tree_forest_has_no_elbow(config_path, capsys):
    # one tree has a zero importance SE, so its normalized importances would
    # be infinite and sink every repeat's ranking: the config refuses it
    run(config_path, "synth")
    capsys.readouterr()
    assert run(config_path, "--set", "mrcv.rf_ntree=1",
               "train", "--modality", "a", "--model", "rf") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: invalid config value [mrcv] rf_ntree = '1': "
                   "must be a non-empty list of integers >= 2"]


def test_malformed_model_file_is_an_error_line(config_path, tmp_path, capsys):
    run(config_path, "synth")
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    head = ('{"format": "latefuse-model", "version": 1, "kind": "%s", "modality": "a", '
            '"selected_features": ["f000"], "threshold": 0.5')
    forest = '"model": {"format": "latefuse-forest", "version": %d}}'
    logistic = '"model": {"format": "latefuse-logreg", "version": %d}}'
    # well-formed models of features f000, f001 (logistic in that order)
    stump = (', "model": {"format": "latefuse-forest", "version": 4, "n_train": 10, '
             '"feature_names": ["f000", "f001"], "params": {"mtry": 1, "ntree": 1, '
             '"seed": 1}, "trees": [{"feature": [-1], "value": [0.5]}]}}')
    two = (', "model": {"format": "latefuse-logreg", "version": 2, "intercept": 0.0, '
           '"coefficients": {"f000": 1.0, "f001": 0.5}, "log_likelihood": -1.0, '
           '"n_train": 10, "converged": true, "separated": false}}')
    names = lambda text: head.replace('["f000"]', text)  # noqa: E731
    for model, body, detail in [
        ("lr", '{"format": "latefuse-model",', "not valid JSON"),
        ("lr", '{"format": "latefuse-model"}', "not a version-1 a/lr model document"),
        ("lr", head + "}", "lacks key 'model'"),
        ("lr", head.replace('["f000"]', "[]") + "}", "no selected features"),
        ("rf", f"{head}, {forest % 4}", "lacks key 'trees'"),
        ("rf", f"{head}, {forest % 2}", "unrecognized forest document version 2; re-run train"),
        ("rf", f"{head}, {forest % 3}", "unrecognized forest document version 3; re-run train"),
        ("lr", f"{head}, {logistic % 1}",
         "unrecognized logistic model document version 1; re-run train"),
        ("lr", names('"f000"') + two, "selected_features 'f000' is not a list of names"),
        ("rf", names('["f000", "f000"]') + stump, "are not the model's features"),
        ("rf", names('["f000", "f000"]') + stump.replace('"f001"', '"f000"'),
         "feature_names ['f000', 'f000'] is not a list of distinct names"),
        ("rf", names('["f001", "f000"]') + stump, "are not the model's features"),
        ("lr", names('["f001", "f000", "f002"]') + two, "are not the model's features"),
        # JSON integers, not floats, strings or booleans
        ("rf", names('["f000", "f001"]') + stump.replace('"mtry": 1', '"mtry": 2.5'),
         "forest mtry 2.5 is not an integer"),
        ("rf", names('["f000", "f001"]') + stump.replace('"ntree": 1', '"ntree": true'),
         "forest ntree True is not an integer"),
        ("rf", names('["f000", "f001"]') + stump.replace('"seed": 1', '"seed": "x"'),
         "forest seed 'x' is not an integer"),
        ("rf", names('["f000", "f001"]') + stump.replace('"n_train": 10', '"n_train": 420.7'),
         "forest n_train 420.7 is not an integer"),
    ]:
        path = out / f"model_a_{model}.json"
        path.write_text(body.replace("%s", model), encoding="utf-8")
        capsys.readouterr()
        assert run(config_path, "evaluate", "--modality", "a", "--model", model) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), body
        assert str(path) in err[0] and detail in err[0], err[0]


@pytest.mark.parametrize("edit", [
    pytest.param({"version": 99}, id="version-99"),
    pytest.param({"version": None}, id="no-version"),
    pytest.param({"kind": "rf"}, id="kind-rf"),
    pytest.param({"modality": "a"}, id="modality-a"),
])
def test_evaluate_refuses_a_model_document_of_another_version_kind_or_modality(
        config_path, tmp_path, capsys, edit):
    run(config_path, "synth")
    assert run(config_path, "train", "--modality", "a", "--model", "lr") == 0
    out = tmp_path / "out"
    doc = json.loads((out / "model_a_lr.json").read_text(encoding="utf-8"))
    # modality a's document as modality b's, with one outer field wrong
    doc = {key: value for key, value in {**doc, "modality": "b", **edit}.items()
           if value is not None}
    path = out / "model_b_lr.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert run(config_path, "evaluate", "--modality", "b", "--model", "lr") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert f"{path} is not a version-1 b/lr model document" in err[0], err[0]


@pytest.mark.parametrize("model", ["lr", "rf"])
def test_evaluate_refuses_a_non_finite_threshold(config_path, tmp_path, capsys, model):
    run(config_path, "synth")
    assert run(config_path, "train", "--modality", "a", "--model", model) == 0
    path = tmp_path / "out" / f"model_a_{model}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    for value in ("NaN", "Infinity", "-Infinity"):
        path.write_text(json.dumps(dict(doc, threshold=float(value))), encoding="utf-8")
        capsys.readouterr()
        assert run(config_path, "evaluate", "--modality", "a", "--model", model) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "malformed model document" in err[0] and "not finite" in err[0], err[0]


@pytest.mark.parametrize("key, value, detail", [
    ("intercept", math.nan, "must be finite"),
    ("coefficients", math.inf, "must be finite"),
    ("log_likelihood", math.nan, "must be finite"),
    ("n_train", 2.7, "n_train 2.7 is not a positive integer"),
    ("n_train", 0, "n_train 0 is not a positive integer"),
    ("n_train", True, "n_train True is not a positive integer"),
    ("converged", "false", "('false', False) are not booleans"),
    ("separated", "no", "are not booleans"),
])
def test_evaluate_refuses_a_logistic_model_that_to_doc_never_writes(
        config_path, tmp_path, capsys, key, value, detail):
    run(config_path, "synth")
    assert run(config_path, "train", "--modality", "a", "--model", "lr") == 0
    path = tmp_path / "out" / "model_a_lr.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    model = doc["model"]
    if key == "coefficients":
        first = next(iter(model[key]))
        value = dict(model[key], **{first: value})
    path.write_text(json.dumps(dict(doc, model=dict(model, **{key: value}))), encoding="utf-8")
    capsys.readouterr()
    assert run(config_path, "evaluate", "--modality", "a", "--model", "lr") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "malformed model document" in err[0] and detail in err[0], err[0]


def test_evaluate_refuses_a_cyclic_forest(config_path, tmp_path, capsys):
    run(config_path, "synth")
    assert run(config_path, "train", "--modality", "a", "--model", "rf") == 0
    path = tmp_path / "out" / "model_a_rf.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    # node 1 is split 0, whose derived left child is node 1 itself
    doc["model"]["trees"][0].update(feature=[-1, 0, -1], value=[0.5, 0.0, 0.5])
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert run(config_path, "evaluate", "--modality", "a", "--model", "rf") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "child index" in err[0]


def test_fusing_modality_with_itself_under_mean_is_identity(config_path, tmp_path):
    run(config_path, "synth")
    run(config_path, "train", "--modality", "a", "--model", "lr")
    run(config_path, "evaluate", "--modality", "a", "--model", "lr")
    out = tmp_path / "out"
    scores = (out / "scores_a_lr.csv").read_text()
    (out / "scores_b_lr.csv").write_text(scores, encoding="utf-8")
    assert run(config_path, "fuse", "--model", "lr") == 0
    single = read_rows(out / "metrics_a_lr.csv")[1][1:]
    fused_rows = read_rows(out / "metrics_fused_lr.csv")
    mean_row = next(r for r in fused_rows[1:] if r[0].startswith("fused-mean"))
    assert mean_row[1:] == single


def test_fused_scores_files_hold_the_aligned_scores_and_derived_predictions(config_path,
                                                                            tmp_path, capsys):
    run(config_path, "synth")
    for modality in ("a", "b"):
        assert run(config_path, "train", "--modality", modality, "--model", "lr") == 0
        assert run(config_path, "evaluate", "--modality", modality, "--model", "lr") == 0
    out = tmp_path / "out"
    ids_a, y_a, p_a, t_a = read_scores_csv(out / "scores_a_lr.csv")
    ids_b, y_b, p_b, t_b = read_scores_csv(out / "scores_b_lr.csv")
    # b lists its rows reversed, lacks a's first id and holds one id of its own
    keep = [j for j in reversed(range(len(ids_b))) if ids_b[j] != ids_a[0]]
    ids_b, y_b, p_b = [ids_b[j] for j in keep] + ["B-only"], [*y_b[keep], 1], [*p_b[keep], 0.25]
    write_text(out / "scores_b_lr.csv", scores_csv(ids_b, y_b, p_b, t_b))
    assert run(config_path, "fuse", "--model", "lr") == 0

    shared = [i for i, s in enumerate(ids_a) if s in ids_b]
    assert 0 < len(shared) < len(ids_a)
    thresholds = (cli._fusable_threshold(t_a, "a", "lr"), cli._fusable_threshold(t_b, "b", "lr"))
    for rule in FusionRule:
        rows = read_rows(out / f"fused_scores_lr_{rule.value}.csv")
        assert rows[0] == ["sample_id", "p_a", "p_b", "fused_p", "fused_threshold", "prediction"]
        assert [r[0] for r in rows[1:]] == [ids_a[i] for i in shared]
        assert [float(r[1]) for r in rows[1:]] == [p_a[i] for i in shared]
        assert [float(r[2]) for r in rows[1:]] == [p_b[ids_b.index(ids_a[i])] for i in shared]
        threshold = float(fuse_modalities(*thresholds, rule))
        assert {float(r[4]) for r in rows[1:]} == {threshold}
        assert [r[5] for r in rows[1:]] == [str(int(float(r[3]) >= threshold)) for r in rows[1:]]

    # a shared id whose labels differ in the two files
    conflict = ids_b.index(ids_a[shared[0]])
    y_b[conflict] = 1 - y_b[conflict]
    write_text(out / "scores_b_lr.csv", scores_csv(ids_b, y_b, p_b, t_b))
    capsys.readouterr()
    assert run(config_path, "fuse", "--model", "lr") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: conflicting labels for shared sample {ids_b[conflict]!r}"]


def test_rerun_is_byte_identical(config_path, tmp_path):
    def full_run():
        run(config_path, "synth")
        run(config_path, "univariate", "--modality", "a")
        run(config_path, "train", "--modality", "a", "--model", "lr")
        run(config_path, "evaluate", "--modality", "a", "--model", "lr")
        out = tmp_path / "out"
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = full_run()
    second = full_run()
    assert first.keys() == second.keys()
    assert all(first[k] == second[k] for k in first)


def test_rf_train_rerun_is_byte_identical(config_path, tmp_path):
    run(config_path, "synth")

    def train_rf():
        assert run(config_path, "train", "--modality", "a", "--model", "rf") == 0
        out = tmp_path / "out"
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = train_rf()
    assert first == train_rf()


def test_per_cohort_scaling_cancels_a_cohort_scale_factor(config_path, tmp_path):
    # every other sample is in cohort C2; multiplying C2's feature cells by 4
    # (a power of two, so exact in floating point) scales its benign medians
    # and IQRs by 4 too, and per-cohort robust scaling cancels the factor
    run(config_path, "synth")
    data = tmp_path / "data"
    tables = {p: list(csv.reader(p.open(newline="", encoding="utf-8")))
              for p in sorted(data.glob("modality_*.csv"))}

    def artifacts(factor, per_cohort):
        for path, rows in tables.items():
            body = [rows[0]] + [
                [row[0], "C2" if i % 2 else "C1", row[2]]
                + [repr(float(v) * factor) if i % 2 and v else v for v in row[3:]]
                for i, row in enumerate(rows[1:])]
            with path.open("w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(body)
        out = tmp_path / "out"
        for p in out.glob("*"):
            p.unlink()
        for model in ("lr", "rf"):
            for verb in ("train", "evaluate"):
                assert run(config_path, "--set", f"preprocess.per_cohort={per_cohort}",
                           verb, "--modality", "a", "--model", model) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    per_cohort = artifacts(1.0, "true")
    assert len(per_cohort) == 19  # train and evaluate of both model families
    assert artifacts(4.0, "true") == per_cohort
    pooled, pooled_scaled = artifacts(1.0, "false"), artifacts(4.0, "false")
    assert pooled.keys() == pooled_scaled.keys() == per_cohort.keys()
    changed = {name for name in pooled if pooled[name] != pooled_scaled[name]}
    assert {"model_a_lr.json", "scores_a_lr.csv", "model_a_rf.json",
            "scores_a_rf.csv"} <= changed


def test_no_command_imports_scipy(config_path):
    """The program runs on numpy and the standard library: in a fresh process
    where importing scipy or hypothesis (the test dependencies) fails, every
    command exits 0 and loads no module file from outside the standard library
    but numpy's (numpy's compiled code also registers file-less Cython runtime
    modules), lazily or not, and no numpy.ma module, which np.quantile,
    np.nanmedian and a bare np.unique import on first use."""
    script = (
        "import json, sys, warnings\n"
        "sys.modules['scipy'] = sys.modules['hypothesis'] = None\n"
        "startup = set(sys.modules)\n"
        "from latefuse.cli import main\n"
        "warnings.simplefilter('ignore')\n"
        f"codes = [main(['--config', {str(config_path)!r}, *cmd]) for cmd in {COMMANDS!r}]\n"
        "own = {*sys.stdlib_module_names, 'latefuse', 'numpy'}\n"
        "print(json.dumps([codes, sorted(m for m in set(sys.modules) - startup"
        " if getattr(sys.modules[m], '__file__', None) and m.partition('.')[0] not in own"
        " or (m + '.').startswith('numpy.ma.'))]))\n")
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True)
    codes, unwanted = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * len(COMMANDS)
    assert unwanted == []


@pytest.mark.parametrize("id_file", [False, True])
def test_each_command_reads_each_input_once(config_path, tmp_path, monkeypatch, id_file):
    run(config_path, "synth")
    if id_file:
        ids = tmp_path / "test_ids.txt"
        # shared ids: P0000-P0071 are benign, P0072-P0143 malignant
        ids.write_text("".join(f"P{i:04d}\n" for i in (*range(10), *range(100, 110))),
                       encoding="utf-8")
        text = config_path.read_text().replace("[split]", f"[split]\ntest_ids_file = {ids}")
        config_path.write_text(text, encoding="utf-8")
    reads, parses, matrices = Counter(), Counter(), []
    real_load, real_matrix = cli.load_feature_table, cli.spearman_matrix

    def counting_load(path, *args, **kwargs):
        reads[Path(path).name] += 1
        if kwargs.get("features") != ():  # a roles-only read parses no cell
            parses[Path(path).name] += 1
        return real_load(path, *args, **kwargs)

    def counting_matrix(table):
        matrices.append(table)
        return real_matrix(table)

    monkeypatch.setattr(cli, "load_feature_table", counting_load)
    monkeypatch.setattr(cli, "spearman_matrix", counting_matrix)
    for modality in ("a", "b"):
        own = f"modality_{modality}.csv"
        once_each = Counter([own] if id_file else ["modality_a.csv", "modality_b.csv"])
        for verb in ("train", "evaluate"):
            reads.clear()
            parses.clear()
            matrices.clear()
            assert run(config_path, verb, "--modality", modality, "--model", "lr") == 0
            assert reads == once_each, (verb, modality)
            # the other modality is read for ids and labels only, never parsed in full
            assert parses == Counter([own]), (verb, modality)
            assert len(matrices) == (1 if verb == "train" else 0), (verb, modality)


def test_conflicting_labels_across_modalities_fail_train(config_path, tmp_path, capsys):
    run(config_path, "synth")
    path_a, path_b = tmp_path / "data" / "modality_a.csv", tmp_path / "data" / "modality_b.csv"
    shared = {r[0]: r[2] for r in read_rows(path_a)[1:]}
    rows = read_rows(path_b)
    row = next(r for r in rows[1:] if r[0] in shared)
    row[2] = "Benign" if shared[row[0]] == "Malignant" else "Malignant"
    with path_b.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    capsys.readouterr()
    for modality in ("a", "b"):
        assert run(config_path, "train", "--modality", modality, "--model", "lr") == 1
        assert f"conflicting labels for shared sample {row[0]!r}" in capsys.readouterr().err


def test_fuse_reads_a_threshold_below_every_probability_as_zero(config_path, tmp_path, capsys):
    # non-discriminating training scores store the all-positive sentinel
    sentinel, _ = best_threshold_bacc([0.5] * 4, [0, 1, 0, 1])
    assert sentinel < 0.0
    out = tmp_path / "out"
    out.mkdir()
    body = "sample_id,label,score\nA1,0,0.0\nA2,1,0.7\nA3,0,0.4\nA4,1,1.0\n"

    def fuse(threshold_a, threshold_b="0.5"):
        for m, t in (("a", threshold_a), ("b", threshold_b)):
            (out / f"scores_{m}_lr.csv").write_text(
                f"# latefuse-csv v1 kind=scores\n# threshold={t}\n{body}", encoding="utf-8")
        capsys.readouterr()
        code = run(config_path, "fuse", "--model", "lr")
        return code, {p.name: p.read_bytes() for p in sorted(out.glob("*fused*"))}

    code, at_zero = fuse("0.0")
    assert code == 0 and len(at_zero) == 1 + len(FusionRule)
    assert fuse(repr(sentinel)) == (0, at_zero)
    # all predicted negative has no threshold in [0, 1]: one error line
    for threshold_a, threshold_b, named in (("1.5", "0.5", "a/lr"), ("0.5", "inf", "b/lr")):
        assert fuse(threshold_a, threshold_b)[0] == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot fuse {named}:"), err


def rewrite_rows(path, edit):
    rows = read_rows(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(edit(rows))


def test_evaluate_exit_codes_follow_the_parsed_columns(config_path, tmp_path, capsys):
    # evaluate parses only the model's columns; a selected column that
    # preprocessing drops is still a model/data mismatch, a fault of the file
    # itself is not
    run(config_path, "synth")
    assert run(config_path, "train", "--modality", "a", "--model", "lr") == 0
    selected = json.loads((tmp_path / "out" / "model_a_lr.json").read_text())[
        "selected_features"]
    data = tmp_path / "data" / "modality_a.csv"
    original = data.read_bytes()

    def evaluate():
        capsys.readouterr()
        code = run(config_path, "evaluate", "--modality", "a", "--model", "lr")
        return code, capsys.readouterr().err.strip().splitlines()

    for blank, named in ((selected[-1:], selected[-1]), (selected, selected[0])):
        data.write_bytes(original)
        rewrite_rows(data, lambda rows: [rows[0]] + [
            ["" if name in blank else cell for name, cell in zip(rows[0], row)]
            for row in rows[1:]])
        assert evaluate() == (4, [f"error: model/data mismatch for a/lr: "
                                  f"unknown feature {named!r}"])
    data.write_bytes(original)
    rewrite_rows(data, lambda rows: rows + rows[1:2])
    code, err = evaluate()
    assert code == 1 and len(err) == 1 and "duplicate sample id" in err[0]


def test_quoted_crlf_inputs_give_identical_artifacts(config_path, tmp_path):
    # CRLF line ends and quoted role cells send the reader down its csv
    # module path from the first line; the artifacts must not change
    run(config_path, "synth")

    def artifacts():
        out = tmp_path / "out"
        for p in out.glob("*"):
            p.unlink()
        for args in (("univariate", "--modality", "a"),
                     ("train", "--modality", "a", "--model", "lr"),
                     ("evaluate", "--modality", "a", "--model", "lr")):
            assert run(config_path, *args) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    plain = artifacts()
    for path in sorted((tmp_path / "data").glob("modality_*.csv")):
        rows = read_rows(path)
        path.write_text("".join(
            ",".join([f'"{cell}"' for cell in row[:3]] + row[3:]) + "\r\n" for row in rows),
            encoding="utf-8", newline="")
        assert read_rows(path) == rows
    assert artifacts() == plain
