"""Pipeline CLI: deterministic end-to-end runs driven by a config file.

Subcommands: synth, univariate, train, evaluate, fuse, report. Data
artifacts (CSV, SVG, model JSON) go only to the configured output
directory; diagnostics go to stderr. A full run is a pure function of
(config, input files): re-running produces byte-identical artifacts.

Exit codes: 0 success, else the `exit_code` of the error's class (errors.py).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import forest as rf
from . import logreg as lr
from .config import RunConfig, load_config
from .errors import (ConfigError, DataError, LatefuseError, MissingInputError, ModelError,
                     NoCommonSamplesError, NoFeaturesLeftError, PredictError,
                     UnknownFeatureError, not_utf8)
from .fuse import FusionRule, fuse_modalities
from .metrics import auc, best_threshold_bacc, confusion, metrics_from_confusion, roc_curve
from .mrcv import (derive_seed, elbow_cut, final_rf_params, rank_features_lr, rank_features_rf,
                   run_mrcv_lr, run_mrcv_rf)
from .plots import confusion_svg, elbow_svg, roc_svg
from .preprocess import (apply_scaler, drop_correlated, filter_missingness,
                         fit_robust_scaler, spearman_matrix)
from .reports import (folds_csv, fused_scores_csv, importance_csv, metrics_csv,
                      ranking_csv, read_metrics_csv, read_scores_csv, roc_csv,
                      scores_csv, summary_csv, univariate_csv, write_text)
from .synth import generate_pair
from .tables import (FeatureTable, align_common_samples, load_feature_table, partition,
                     save_feature_table)
from .univariate import univariate_screen


def _require_file(path: Path, role: str) -> Path:
    if not Path(path).exists():
        raise MissingInputError(f"missing {role}: {path}")
    return Path(path)


def _table_file(cfg: RunConfig, modality: str) -> Path:
    path = cfg.modality_a if modality == "a" else cfg.modality_b
    return _require_file(path, f"modality {modality} table")


def _load_table(cfg: RunConfig, modality: str,
                features: list[str] | None = None) -> FeatureTable:
    return load_feature_table(_table_file(cfg, modality), cfg.schema, features)


def _preprocess_full(cfg: RunConfig, table: FeatureTable) -> FeatureTable:
    scaled = apply_scaler(fit_robust_scaler(table, per_cohort=cfg.per_cohort), table)
    return filter_missingness(scaled, cfg.max_missing_fraction)


def _test_ids(cfg: RunConfig, modality: str, raw: FeatureTable) -> frozenset[str]:
    """Fixed test membership: an explicit id file, or a seeded per-class draw
    from the samples common to both modalities, in modality a's row order.
    `raw` is the parsed table of `modality`; of the other file only the ids
    and labels are read."""
    if cfg.test_ids_file is not None:
        path = _require_file(cfg.test_ids_file, "test id file")
        try:
            text = path.read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise not_utf8(path, exc) from None
        return frozenset(line.strip() for line in text.splitlines() if line.strip())
    other = load_feature_table(_table_file(cfg, "b" if modality == "a" else "a"), cfg.schema,
                               features=())
    a, b = (raw, other) if modality == "a" else (other, raw)
    rows_a, _ = align_common_samples(a.sample_ids, a.labels, b.sample_ids, b.labels)
    rng = np.random.default_rng(derive_seed(cfg.base_seed, "test-split"))
    chosen: list[str] = []
    for cls, k in ((0, cfg.test_benign), (1, cfg.test_malignant)):
        ids = [a.sample_ids[i] for i in rows_a if a.labels[i] == cls]
        if len(ids) < k:
            raise ConfigError(f"only {len(ids)} common class-{cls} samples "
                              f"available for a test draw of {k}")
        chosen.extend(ids[i] for i in rng.choice(len(ids), size=k, replace=False))
    return frozenset(chosen)


def _split(cfg: RunConfig, modality: str,
           features: list[str] | None = None) -> tuple[FeatureTable, FeatureTable]:
    """Parse one modality once (its `features` only, when given), scale and
    impute the full table (internal standardization), and split it into
    (train, test). Correlation pruning is left to `cmd_train`; `cmd_evaluate`
    scores the stored features."""
    raw = _load_table(cfg, modality, features)
    table = _preprocess_full(cfg, raw)
    return partition(table, _test_ids(cfg, modality, raw))


def _out(cfg: RunConfig) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg.out_dir


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_synth(cfg: RunConfig) -> None:
    if cfg.synth is None:
        raise ConfigError("config has no [synth] section")
    table_a, table_b = generate_pair(*cfg.synth)
    for table, path in ((table_a, cfg.modality_a), (table_b, cfg.modality_b)):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        save_feature_table(table, path, cfg.schema)
        _log(f"wrote {path} ({table.n_samples} samples x {table.n_features} features)")


def cmd_univariate(cfg: RunConfig, modality: str) -> None:
    table = _preprocess_full(cfg, _load_table(cfg, modality))
    screen = univariate_screen(table, cfg.alpha)
    out = _out(cfg) / f"univariate_{modality}.csv"
    write_text(out, univariate_csv(screen))
    _log(f"{screen.n_significant} significant features at FDR<{cfg.alpha} "
         f"({screen.n_up} up, {screen.n_down} down) -> {out}")


def cmd_train(cfg: RunConfig, modality: str, model: str) -> None:
    """Prune correlated features on the training part, run MRCV, refit, and
    write the model document; the only place where pruning is decided."""
    unpruned, _ = _split(cfg, modality)
    train, removed = drop_correlated(unpruned, spearman_matrix(unpruned),
                                     cfg.correlation_threshold)
    seed = derive_seed(cfg.base_seed, modality, model)
    if model == "lr":
        outcomes = run_mrcv_lr(train, repeats=cfg.repeats,
                               validation_fraction=cfg.lr_validation_fraction,
                               base_seed=seed, delta_bic_stop=cfg.delta_bic_stop)
        ranking = rank_features_lr(outcomes, train.feature_names)
        selected = elbow_cut(ranking)
        final = lr.fit(train, selected)
        scores = lr.predict_proba(final, train)
        model_doc = lr.to_doc(final)
    else:
        outcomes = run_mrcv_rf(train, repeats=cfg.repeats,
                               validation_fraction=cfg.rf_validation_fraction,
                               mtry=cfg.rf_mtry, ntree=cfg.rf_ntree, base_seed=seed)
        ranking = rank_features_rf(outcomes, train.feature_names)
        selected = elbow_cut(ranking)
        params = final_rf_params(cfg.rf_mtry, cfg.rf_ntree, outcomes, selected,
                                 derive_seed(cfg.base_seed, modality, model, "final"))
        train_view = train.select_features(selected)
        final = rf.fit_forest(train_view, params)
        scores = rf.predict_proba(final, train_view)
        model_doc = rf.to_doc(final)
        write_text(_out(cfg) / f"importance_{modality}_rf.csv",
                   importance_csv(rf.oob_permutation_importance(final, train_view)))
    threshold, bacc_train = best_threshold_bacc(scores, train.labels)

    out = _out(cfg)
    doc = {
        "format": "latefuse-model",
        "version": 1,
        "kind": model,
        "modality": modality,
        "selected_features": selected,
        "threshold": threshold,
        "train_bacc": bacc_train,
        "removed_correlated": removed,
        "model": model_doc,
    }
    (out / f"model_{modality}_{model}.json").write_text(
        json.dumps(doc) + "\n", encoding="utf-8")
    write_text(out / f"folds_{modality}_{model}.csv", folds_csv(outcomes))
    write_text(out / f"ranking_{modality}_{model}.csv", ranking_csv(ranking, selected))
    write_text(out / f"elbow_{modality}_{model}.svg",
               elbow_svg(ranking, len(selected),
                         title=f"Feature ranking ({modality}/{model})"))
    errors = sum(1 for o in outcomes if o.error is not None)
    _log(f"trained {modality}/{model}: {len(selected)} features selected, "
         f"train BAcc {bacc_train:.3f}, threshold {threshold:.4f}, "
         f"{errors}/{len(outcomes)} repeats flagged")


def _load_model(cfg: RunConfig, modality: str, model: str):
    """The selected features, threshold and fitted model of a model file; the
    selected features are the model's own, in its order, as train writes them."""
    path = _require_file(_out(cfg) / f"model_{modality}_{model}.json",
                         f"model file for {modality}/{model}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON or UTF-8
        raise LatefuseError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != "latefuse-model":
        raise LatefuseError(f"{path} is not a model document")
    head = {"version": 1, "kind": model, "modality": modality}
    if {key: doc.get(key) for key in head} != head:
        raise LatefuseError(f"{path} is not a version-1 {modality}/{model} model document: "
                            f"version {doc.get('version')!r}, kind {doc.get('kind')!r}, "
                            f"modality {doc.get('modality')!r}")
    try:
        selected = doc["selected_features"]
        if not (isinstance(selected, list) and all(isinstance(f, str) for f in selected)):
            raise ValueError(f"selected_features {selected!r} is not a list of names")
        if not selected:  # train selects at least one; evaluate parses only these
            raise ValueError("no selected features")
        threshold = float(doc["threshold"])
        if not math.isfinite(threshold):  # train writes a finite score cut
            raise ValueError(f"threshold {threshold} is not finite")
        fitted = (lr if model == "lr" else rf).from_doc(doc["model"])
        features = fitted.selected_order if model == "lr" else fitted.feature_names
        if list(features) != selected:
            raise ValueError(f"selected_features {selected} are not the model's "
                             f"features {list(features)}")
        return selected, threshold, fitted
    except KeyError as exc:  # here or in a sub-document
        raise LatefuseError(f"{path}: model document lacks key {exc}") from None
    except (TypeError, ValueError, AttributeError, ModelError) as exc:
        raise LatefuseError(f"{path}: malformed model document: {exc}") from None


def cmd_evaluate(cfg: RunConfig, modality: str, model: str) -> None:
    """Score the test rows with a trained model. Only the role columns and
    the model's selected features are parsed: scaling, the missingness filter
    and imputation work column by column, so the other columns cannot move a
    score. A selected feature that the table lacks, or that preprocessing
    drops, is a model/data mismatch (a PredictError, exit 4)."""
    selected, threshold, fitted = _load_model(cfg, modality, model)
    mismatch = f"model/data mismatch for {modality}/{model}"
    try:
        _, test = _split(cfg, modality, selected)
    except UnknownFeatureError as exc:
        raise PredictError(f"{mismatch}: {exc}") from None
    except NoFeaturesLeftError:  # every selected feature dropped
        raise PredictError(f"{mismatch}: unknown feature {selected[0]!r}") from None
    try:
        scores = (lr if model == "lr" else rf).predict_proba(fitted,
                                                             test.select_features(selected))
    except (DataError, PredictError) as exc:
        raise PredictError(f"{mismatch}: {exc}") from None
    conf = confusion(scores, test.labels, threshold)
    row = metrics_from_confusion(conf, auc(scores, test.labels))
    curve = roc_curve(scores, test.labels)
    label = f"{modality}-{model}"
    out = _out(cfg)
    write_text(out / f"metrics_{modality}_{model}.csv", metrics_csv([(label, row)]))
    write_text(out / f"roc_{modality}_{model}.csv", roc_csv(curve))
    write_text(out / f"roc_{modality}_{model}.svg",
               roc_svg(curve, row.auc, title=f"ROC ({label})"))
    write_text(out / f"confusion_{modality}_{model}.svg",
               confusion_svg(conf, title=f"Confusion ({label})"))
    write_text(out / f"scores_{modality}_{model}.csv",
               scores_csv(test.sample_ids, test.labels.tolist(),
                          scores.tolist(), threshold))
    _log(f"evaluated {label}: BAcc {row.balanced_accuracy:.3f}, AUC {row.auc:.3f}")


def _fusable_threshold(threshold: float, modality: str, model: str) -> float:
    """A stored threshold as a probability. best_threshold_bacc stores one
    below every score when predicting all positive is best: 0.0 predicts the
    same for scores in [0, 1]. One above every score (all negative) has no
    equivalent, as no threshold in [0, 1] puts a score of 1.0 below it."""
    if threshold > 1.0:
        raise LatefuseError(f"cannot fuse {modality}/{model}: its threshold {threshold!r} "
                            "lies above every probability (all predicted negative)")
    return max(threshold, 0.0)


def cmd_fuse(cfg: RunConfig, model: str) -> None:
    out = _out(cfg)
    ids_a, y_a, p_a, t_a = read_scores_csv(
        _require_file(out / f"scores_a_{model}.csv", "modality a scores"))
    ids_b, y_b, p_b, t_b = read_scores_csv(
        _require_file(out / f"scores_b_{model}.csv", "modality b scores"))
    rows_a, rows_b = align_common_samples(ids_a, y_a, ids_b, y_b)
    if not rows_a:
        raise NoCommonSamplesError("no common samples between modality outputs")
    t_a, t_b = _fusable_threshold(t_a, "a", model), _fusable_threshold(t_b, "b", model)
    ids = [ids_a[i] for i in rows_a]
    labels, pa, pb = y_a[rows_a], p_a[rows_a], p_b[rows_b]
    rows = []
    for rule in FusionRule:
        fused = fuse_modalities(pa, pb, rule)
        threshold = float(fuse_modalities(t_a, t_b, rule))
        conf = confusion(fused, labels, threshold)
        row = metrics_from_confusion(conf, auc(fused, labels))
        rows.append((f"fused-{rule.value}-{model}", row))
        write_text(out / f"fused_scores_{model}_{rule.value}.csv",
                   fused_scores_csv(rule.value, ids, pa, pb, fused, threshold))
        _log(f"fused {model} under {rule.value}: BAcc {row.balanced_accuracy:.3f}")
    write_text(out / f"metrics_fused_{model}.csv", metrics_csv(rows))


def cmd_report(cfg: RunConfig) -> None:
    """Collect all emitted metric rows into one summary table (metrics as rows).
    Every metrics file must carry the same metric header."""
    out = _out(cfg)
    files = sorted(out.glob("metrics_*.csv"))
    if not files:
        raise MissingInputError(f"no metrics CSVs found in {out}")
    header, columns = read_metrics_csv(files[0])
    for path in files[1:]:
        names, rows = read_metrics_csv(path)
        if names != header:
            raise DataError(f"{files[0]} and {path} have different metric headers")
        columns.extend(rows)
    write_text(out / "report_summary.csv", summary_csv(header, columns))
    _log(f"summary over {len(columns)} model column(s) -> {out / 'report_summary.csv'}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latefuse",
        description="Two-modality classifier building and late-fusion pipeline")
    parser.add_argument("--config", required=True, help="run configuration file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override a config value (repeatable; flags win)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synth", help="generate the configured synthetic modality files"
                   ).set_defaults(run=cmd_synth)
    p = sub.add_parser("univariate", help="univariate screen of one modality")
    p.add_argument("--modality", choices=("a", "b"), required=True)
    p.set_defaults(run=cmd_univariate)
    for name, run in (("train", cmd_train), ("evaluate", cmd_evaluate)):
        p = sub.add_parser(name)
        p.add_argument("--modality", choices=("a", "b"), required=True)
        p.add_argument("--model", choices=("lr", "rf"), required=True)
        p.set_defaults(run=run)
    p = sub.add_parser("fuse", help="fuse the two modalities' evaluated scores")
    p.add_argument("--model", choices=("lr", "rf"), required=True)
    p.set_defaults(run=cmd_fuse)
    sub.add_parser("report", help="merge emitted metric rows into a summary table"
                   ).set_defaults(run=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # a subcommand's options are its command function's keyword arguments
    options = {k: v for k, v in vars(args).items() if k in ("modality", "model")}
    try:
        args.run(load_config(args.config, args.overrides), **options)
    except (LatefuseError, OSError) as exc:
        _log(f"error: {exc}")
        return getattr(exc, "exit_code", 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
