"""CSV report emission and parsing.

Every emitted CSV starts with a schema version comment line so downstream
tooling can detect format drift; numeric cells use round-trip repr.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import DataError, not_utf8
from .metrics import METRIC_NAMES, MetricsRow, RocCurve
from .mrcv import FeatureRanking, FoldOutcome
from .univariate import ScreenResult

SCHEMA_VERSION = 1

SCORES_HEADER = ("sample_id", "label", "score")
UNIVARIATE_COLUMNS = ("Feature", "Normality benign", "Normality malignant",
                      "Rg effect size", "P-value", "FDR")


def _schema_line(kind: str) -> list[str]:
    return [f"# latefuse-csv v{SCHEMA_VERSION} kind={kind}"]


def _num(x: float) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "NA"
    return repr(float(x))


def _render(lines: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    for line in lines:
        buf.write(line + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def univariate_csv(screen: ScreenResult) -> str:
    """Screen report with the published univariate column set, sorted by FDR,
    then raw p, then feature name. Effect-size orientation is stated in the
    header; per-feature flags become comment lines to keep the column set exact."""
    lines = _schema_line("univariate") + \
        ["# rg orientation: positive = elevated in malignant"]
    for r in screen.rows:
        if r.note:
            lines.append(f"# flagged {r.feature}: {r.note}")
    rows = [list(UNIVARIATE_COLUMNS)]
    for r in sorted(screen.rows, key=lambda r: (r.fdr, r.p_value, r.feature)):
        rows.append([r.feature, _num(r.normality_p_benign), _num(r.normality_p_malignant),
                     _num(r.rg), _num(r.p_value), _num(r.fdr)])
    return _render(lines, rows)


def folds_csv(outcomes: Sequence[FoldOutcome]) -> str:
    """One row per MRCV repeat."""
    rows = [["repeat_index", "n_train", "n_validation", "bacc_train",
             "bacc_validation", "threshold", "detail", "error"]]
    for out in outcomes:
        if out.lr_selected_order is not None:
            detail = "|".join(out.lr_selected_order)
        elif out.chosen_params is not None:
            detail = f"mtry={out.chosen_params['mtry']};ntree={out.chosen_params['ntree']}"
        else:
            detail = ""
        rows.append([str(out.repeat_index), str(out.n_train),
                     str(out.n_validation), _num(out.bacc_train),
                     _num(out.bacc_validation), _num(out.threshold),
                     detail, out.error or ""])
    return _render(_schema_line("mrcv-folds"), rows)


def ranking_csv(ranking: FeatureRanking, selected: Sequence[str] = ()) -> str:
    chosen = set(selected)
    rows = [["rank", "feature", "score", "selected"]]
    for i, (name, score) in enumerate(ranking.entries, start=1):
        rows.append([str(i), name, _num(score), "1" if name in chosen else "0"])
    return _render(_schema_line("feature-ranking"), rows)


def metrics_csv(rows_by_label: Sequence[tuple[str, MetricsRow]]) -> str:
    """Metric rows with the published metric names and order."""
    rows = [["Model", *METRIC_NAMES]]
    for label, row in rows_by_label:
        d = row.as_dict()
        rows.append([label] + [_num(d[name]) for name in METRIC_NAMES])
    return _render(_schema_line("metrics"), rows)


def roc_csv(curve: RocCurve) -> str:
    rows = [["threshold", "fpr", "tpr"]]
    for t, f, tp in zip(curve.thresholds.tolist(), curve.fpr.tolist(), curve.tpr.tolist()):
        rows.append([repr(float(t)), _num(f), _num(tp)])
    return _render(_schema_line("roc"), rows)


def scores_csv(sample_ids: Sequence[str], labels: Sequence[int],
               scores: Sequence[float], threshold: float) -> str:
    """Per-sample scores of one evaluated model, with its decision threshold
    carried in a header line so fusion can consume this file alone."""
    lines = _schema_line("scores") + [f"# threshold={repr(float(threshold))}"]
    rows = [list(SCORES_HEADER)]
    for sid, label, score in zip(sample_ids, labels, scores):
        rows.append([sid, str(int(label)), _num(float(score))])
    return _render(lines, rows)


def _csv_rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    """(line number, row) of each non-empty row of a UTF-8 CSV file. A byte
    that is not UTF-8, or a row csv cannot read (such as a field over its
    size limit), raises DataError naming the file."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if row:
                    yield reader.line_num, row
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def read_scores_csv(path: str | Path) -> tuple[list[str], np.ndarray, np.ndarray, float]:
    """Parse a scores CSV back into (ids, labels, scores, threshold).

    A first row other than the header sample_id,label,score, a data row
    without exactly three cells, a repeated sample id, a label other than 0
    or 1, a score or threshold that does not parse or is NaN, or a score
    outside [0, 1] raises DataError naming the file and line; so does a file
    csv cannot read (see _csv_rows).
    """
    path = Path(path)
    threshold = None
    ids: list[str] = []
    labels: list[int] = []
    scores: list[float] = []
    seen: set[str] = set()
    header_seen = False
    for line, row in _csv_rows(path):
        try:
            if row[0].startswith("#"):
                text = row[0].lstrip("# ")
                if text.startswith("threshold="):
                    threshold = float(text.split("=", 1)[1])
                    if math.isnan(threshold):
                        raise ValueError("threshold is nan")
            elif not header_seen:
                if tuple(row) != SCORES_HEADER:
                    raise ValueError(f"header {','.join(row)!r} is not "
                                     f"{','.join(SCORES_HEADER)!r}")
                header_seen = True
            elif len(row) != 3:
                raise ValueError(f"{len(row)} cells, expected 3")
            else:
                label, score = int(row[1]), float(row[2])
                if row[0] in seen:
                    raise ValueError(f"repeated sample id {row[0]!r}")
                if label not in (0, 1):
                    raise ValueError(f"label {label} is not 0 or 1")
                if not 0.0 <= score <= 1.0:
                    raise ValueError("score is nan" if math.isnan(score)
                                     else f"score {row[2]} is outside [0, 1]")
                seen.add(row[0])
                ids.append(row[0])
                labels.append(label)
                scores.append(score)
        except ValueError as exc:
            raise DataError(f"{path}: line {line}: {exc}") from None
    if threshold is None:
        raise DataError(f"{path}: no threshold header line")
    return ids, np.asarray(labels, dtype=np.int8), np.asarray(scores, dtype=float), threshold


def importance_csv(report) -> str:
    """Permutation importance table: feature, mean accuracy drop, SE, mean/SE."""
    rows = [["feature", "mean_decrease", "std_error", "normalized"]]
    for i, name in enumerate(report.feature_names):
        rows.append([name, _num(float(report.mean_decrease[i])),
                     _num(float(report.std_error[i])),
                     repr(float(report.normalized[i]))])
    return _render(_schema_line("importance"), rows)


def fused_scores_csv(rule: str, sample_ids: Sequence[str], p_a, p_b,
                     fused_p, fused_threshold: float) -> str:
    """Per-sample fused scores; a prediction is 1 iff fused_p >= fused_threshold."""
    lines = _schema_line("fused-scores") + [f"# rule={rule}"]
    rows = [["sample_id", "p_a", "p_b", "fused_p", "fused_threshold", "prediction"]]
    for i, sid in enumerate(sample_ids):
        rows.append([sid, _num(float(p_a[i])), _num(float(p_b[i])),
                     _num(float(fused_p[i])), _num(float(fused_threshold)),
                     str(int(fused_p[i] >= fused_threshold))])
    return _render(lines, rows)


def read_metrics_csv(path: str | Path) -> tuple[list[str], list[tuple[str, list[str]]]]:
    """Return (metric header, [(model label, metric cells)]) without reparsing
    floats. A data row with more or fewer cells than the header, or a file
    csv cannot read (see _csv_rows), raises DataError naming the file."""
    rows = [(line, r) for line, r in _csv_rows(Path(path)) if not r[0].startswith("#")]
    if not rows or rows[0][1][0] != "Model":
        raise DataError(f"{path} is not a metrics CSV")
    header = rows[0][1]
    for line, row in rows[1:]:
        if len(row) != len(header):
            raise DataError(f"{path}: line {line}: {len(row)} cells, expected {len(header)}")
    return header[1:], [(r[0], r[1:]) for _, r in rows[1:]]


def summary_csv(metric_names: Sequence[str],
                columns: Sequence[tuple[str, Sequence[str]]]) -> str:
    """Transpose metric rows into the published table layout (metrics as rows)."""
    rows = [["Metric", *[label for label, _ in columns]]]
    for i, metric in enumerate(metric_names):
        rows.append([metric] + [cells[i] for _, cells in columns])
    return _render(_schema_line("report-summary"), rows)


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")
