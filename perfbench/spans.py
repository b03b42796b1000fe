"""Layer spans for the traced benchmark run, kept entirely outside the program.

`install` wraps each layer's public functions at every name a caller looks
them up by: the defining module and every `latefuse.*` module that imported
the function under its own name (for example both `latefuse.mrcv.run_mrcv_lr`
and the `run_mrcv_lr` alias inside `latefuse.cli`). Each call becomes one
span `[name, start, end, parent, info]` in an in-memory list; nothing is
written until the pipeline has finished. `layer_metrics` turns the spans of
one pipeline into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, function names). Spans nest: a span's parent is the
# innermost open span when it starts, so self time = duration - children.
LAYERS = {
    "config.load": ("latefuse.config", ("load_config",)),
    "tables.load": ("latefuse.tables", ("load_feature_table",)),
    "tables.align": ("latefuse.tables", ("align_common_samples", "partition")),
    "preprocess.scale_impute": ("latefuse.preprocess",
                                ("fit_robust_scaler", "apply_scaler", "filter_missingness")),
    "preprocess.spearman": ("latefuse.preprocess", ("spearman_matrix",)),
    "preprocess.prune": ("latefuse.preprocess", ("drop_correlated",)),
    "univariate.screen": ("latefuse.univariate", ("univariate_screen",)),
    "logreg.fit": ("latefuse.logreg", ("fit",)),
    "logreg.select": ("latefuse.logreg", ("forward_select",)),
    "logreg.predict": ("latefuse.logreg", ("predict_proba", "to_doc", "from_doc")),
    "forest.fit": ("latefuse.forest", ("fit_forest",)),
    "forest.predict": ("latefuse.forest", ("predict_proba",)),
    "forest.importance": ("latefuse.forest", ("oob_permutation_importance",)),
    "forest.doc": ("latefuse.forest", ("to_doc", "from_doc")),
    "mrcv.run_lr": ("latefuse.mrcv", ("run_mrcv_lr",)),
    "mrcv.run_rf": ("latefuse.mrcv", ("run_mrcv_rf",)),
    "mrcv.split": ("latefuse.mrcv", ("stratified_split",)),
    "mrcv.rank": ("latefuse.mrcv", ("rank_features_lr", "rank_features_rf", "elbow_cut")),
    "metrics.threshold": ("latefuse.metrics", ("best_threshold_bacc",)),
    "metrics.eval": ("latefuse.metrics",
                     ("confusion", "metrics_from_confusion", "auc", "roc_curve")),
    "fuse.fuse": ("latefuse.fuse", ("fuse_modalities",)),
    "reports.write": ("latefuse.reports",
                      ("write_text", "univariate_csv", "folds_csv", "ranking_csv",
                       "metrics_csv", "roc_csv", "scores_csv", "read_scores_csv",
                       "importance_csv", "fused_scores_csv", "read_metrics_csv",
                       "summary_csv")),
    "plots.svg": ("latefuse.plots", ("roc_svg", "elbow_svg", "confusion_svg")),
}


# span name -> info(args, kwargs, result), the counts recorded at the boundary
INFO = {
    "tables.load": lambda a, k, r: r.n_samples * r.n_features,
    "preprocess.prune": lambda a, k, r: len(r[1]),
    "univariate.screen": lambda a, k, r: len(r.rows),
    "logreg.select": lambda a, k, r: len(r.selected_order),
    "forest.fit": lambda a, k, r: (r.params.mtry, len(r.trees),
                                   sum(t.feature.size for t in r.trees)),
    "forest.predict": lambda a, k, r: len(a[0].trees) * r.size,
    "forest.importance": lambda a, k, r: len(a[0].trees),
    "mrcv.run_lr": lambda a, k, r: (len(r), sum(o.error is not None for o in r)),
    "mrcv.run_rf": lambda a, k, r: (len(r), sum(o.error is not None for o in r)),
}


class Recorder:
    """In-memory span list; `open` and `close` bracket the per-command roots."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent, None])

    def close(self, info=None) -> None:
        span = self.spans[self._stack.pop()]
        span[2] = perf_counter()
        span[4] = info

    def wrap(self, name: str, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close("error")
                raise
            self.close(info(args, kwargs, result) if info else None)
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Wrap every LAYERS function at each name it is bound to."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "latefuse" or n.startswith("latefuse."))]
    for name, (module_name, functions) in LAYERS.items():
        home = sys.modules[module_name]
        for fn_name in functions:
            original = getattr(home, fn_name)
            traced = recorder.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)


def layer_metrics(spans: list[list], pipeline_s: float) -> dict[str, float]:
    """Per-layer metrics of one pipeline from its spans (command roots are
    the spans named `cli.*`)."""
    dur = [s[2] - s[1] for s in spans]
    child_s = defaultdict(float)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child_s[s[3]] += d
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    infos = defaultdict(list)
    for i, (s, d) in enumerate(zip(spans, dur)):
        total[s[0]] += d
        self_s[s[0]] += d - child_s[i]
        calls[s[0]] += 1
        infos[s[0]].append(s[4])

    roots = {i for i, s in enumerate(spans) if s[0].startswith("cli.")}
    covered = sum(d for s, d in zip(spans, dur) if s[3] in roots)
    cli_self = pipeline_s - covered

    fit_children = defaultdict(int)
    for s in spans:
        if s[0] == "logreg.fit" and s[3] >= 0 and spans[s[3]][0] == "logreg.select":
            fit_children[s[3]] += 1
    candidate_fits = sum(n - 1 for n in fit_children.values())
    added = sum(v for v in infos["logreg.select"] if v != "error")

    fits = [v for v in infos["forest.fit"] if v != "error"]
    trees = sum(v[1] for v in fits)
    nodes = sum(v[2] for v in fits)
    kept = sum(v for v in infos["forest.importance"] if v != "error")
    lr_runs = [v for v in infos["mrcv.run_lr"] if v != "error"]
    rf_runs = [v for v in infos["mrcv.run_rf"] if v != "error"]
    lr_repeats = sum(v[0] for v in lr_runs)
    rf_repeats = sum(v[0] for v in rf_runs)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    return {
        "logreg.fit_calls": calls["logreg.fit"],
        "logreg.fit_s": total["logreg.fit"],
        "logreg.fit_us_per_call": ratio(total["logreg.fit"], calls["logreg.fit"], 1e6),
        "logreg.fit_failures": infos["logreg.fit"].count("error"),
        "logreg.select_s": self_s["logreg.select"],
        "logreg.accept_ratio": ratio(added, candidate_fits),
        "forest.fit_s": total["forest.fit"],
        "forest.trees_grown": trees,
        "forest.ms_per_tree": ratio(total["forest.fit"], trees, 1e3),
        "forest.nodes_per_tree": ratio(nodes, trees),
        "forest.trees_per_kept_tree": ratio(trees, kept),
        "forest.predict_s": total["forest.predict"],
        "forest.predict_tree_rows": sum(infos["forest.predict"]),
        "forest.importance_s": total["forest.importance"],
        "forest.importance_ms_per_tree": ratio(total["forest.importance"], kept, 1e3),
        "reports.write_s": total["reports.write"],
        "plots.svg_s": total["plots.svg"],
        "tables.load_calls": calls["tables.load"],
        "tables.load_s": total["tables.load"],
        "tables.cells_per_s": ratio(sum(infos["tables.load"]), total["tables.load"]),
        "preprocess.scale_impute_s": total["preprocess.scale_impute"],
        "preprocess.spearman_s": total["preprocess.spearman"],
        "preprocess.prune_s": total["preprocess.prune"],
        "preprocess.features_removed": sum(infos["preprocess.prune"]),
        "univariate.screen_s": total["univariate.screen"],
        "univariate.features_tested": sum(infos["univariate.screen"]),
        "mrcv.lr_repeat_s": ratio(total["mrcv.run_lr"], lr_repeats),
        "mrcv.rf_repeat_s": ratio(total["mrcv.run_rf"], rf_repeats),
        "mrcv.split_s": total["mrcv.split"],
        "mrcv.self_s": (self_s["mrcv.run_lr"] + self_s["mrcv.run_rf"]
                        + total["mrcv.rank"]),
        "mrcv.repeats_flagged": sum(v[1] for v in lr_runs + rf_runs),
        "metrics.threshold_calls": calls["metrics.threshold"],
        "metrics.threshold_s": total["metrics.threshold"],
        "metrics.eval_s": total["metrics.eval"],
        "fuse.fuse_s": total["fuse.fuse"],
        "cli.self_s": cli_self,
        "trace.coverage": ratio(covered, pipeline_s),
    }


def _inside(spans: list[list], s: list, name: str) -> bool:
    while s[3] >= 0:
        s = spans[s[3]]
        if s[0] == name:
            return True
    return False


def tree_costs(spans: list[list]) -> dict:
    """Growth ms per tree by mtry, predict ms per tree-row and importance ms
    per kept tree: the inputs of the default-grid projection. Growth counts
    the MRCV grid forests only; a final forest is grown on the selected
    features alone, with mtry clamped to their count."""
    grow = defaultdict(lambda: [0.0, 0])
    predict = [0.0, 0]
    importance = [0.0, 0]
    for s in spans:
        if s[4] == "error":
            continue
        d = s[2] - s[1]
        if s[0] == "forest.fit" and _inside(spans, s, "mrcv.run_rf"):
            grow[s[4][0]][0] += d
            grow[s[4][0]][1] += s[4][1]
        elif s[0] == "forest.predict":
            predict[0] += d
            predict[1] += s[4]
        elif s[0] == "forest.importance":
            importance[0] += d
            importance[1] += s[4]
    if not grow or not predict[1] or not importance[1]:
        return {}
    return {
        "grow_ms_per_tree": {str(m): v[0] / v[1] * 1e3 for m, v in sorted(grow.items())},
        "predict_ms_per_tree_row": predict[0] / predict[1] * 1e3,
        "importance_ms_per_tree": importance[0] / importance[1] * 1e3,
    }
