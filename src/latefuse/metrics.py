"""Confusion matrices, classification metrics, ROC/AUC, and threshold search.

Decision boundary is inclusive everywhere: a sample is predicted positive
iff its score is >= the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricsError

METRIC_NAMES = ("Sensitivity", "Specificity", "PPV", "NPV", "F1",
                "Balanced Accuracy", "AUC")


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise MetricsError("confusion counts must be non-negative")

    @property
    def positives(self) -> int:
        return self.tp + self.fn

    @property
    def negatives(self) -> int:
        return self.tn + self.fp


@dataclass(frozen=True)
class MetricsRow:
    sensitivity: float
    specificity: float
    ppv: float
    npv: float
    f1: float
    balanced_accuracy: float
    auc: float = math.nan

    def as_dict(self) -> dict[str, float]:
        return {
            "Sensitivity": self.sensitivity,
            "Specificity": self.specificity,
            "PPV": self.ppv,
            "NPV": self.npv,
            "F1": self.f1,
            "Balanced Accuracy": self.balanced_accuracy,
            "AUC": self.auc,
        }


@dataclass(frozen=True)
class RocCurve:
    """Operating points from (0,0) to (1,1); thresholds[i] realises point i."""

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray

    def __post_init__(self) -> None:
        for name in ("thresholds", "fpr", "tpr"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _check_scores_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=float)
    y = np.asarray([int(v) for v in labels], dtype=np.int64)
    if scores.shape != y.shape or scores.ndim != 1:
        raise MetricsError("scores and labels must be 1-D and of equal length")
    if np.any((y != 0) & (y != 1)):
        raise MetricsError("labels must be 0 or 1")
    if np.isnan(scores).any():
        raise MetricsError("scores must not be NaN")
    return scores, y


def confusion(scores, labels, threshold: float) -> Confusion:
    """Count outcomes of thresholding scores (positive iff score >= threshold)."""
    s, y = _check_scores_labels(scores, labels)
    pred = s >= threshold
    return Confusion(
        tp=int(np.sum(pred & (y == 1))),
        fp=int(np.sum(pred & (y == 0))),
        tn=int(np.sum(~pred & (y == 0))),
        fn=int(np.sum(~pred & (y == 1))),
    )


def metrics_from_confusion(c: Confusion, auc: float = math.nan) -> MetricsRow:
    """The six threshold-dependent metrics of `c`, with `auc` (NaN when not given).

    A ratio with a zero denominator (an empty predicted class) comes back as
    NaN rather than silently zeroed.
    """
    if c.positives == 0 or c.negatives == 0:
        raise MetricsError("confusion must contain at least one sample of each class")

    def ratio(num: int, den: int) -> float:
        return num / den if den else math.nan

    sens = c.tp / c.positives
    spec = c.tn / c.negatives
    return MetricsRow(
        sensitivity=sens,
        specificity=spec,
        ppv=ratio(c.tp, c.tp + c.fp),
        npv=ratio(c.tn, c.tn + c.fn),
        f1=ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn),
        balanced_accuracy=(sens + spec) / 2,
        auc=auc,
    )


def _sweep_counts(scores: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct score values (descending) with cumulative tp/fp when thresholding at each."""
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    y_sorted = y[order]
    distinct = np.flatnonzero(np.diff(s_sorted) != 0)
    last = np.concatenate([distinct, [len(s_sorted) - 1]])  # last index of each tie group
    tp = np.cumsum(y_sorted == 1)[last]
    fp = np.cumsum(y_sorted == 0)[last]
    return s_sorted[last], tp, fp


def roc_curve(scores, labels) -> RocCurve:
    """Sweep distinct score thresholds in descending order.

    The first point is (0,0) at threshold +inf (nothing predicted positive);
    the last, at the minimum score, is (1,1).
    """
    s, y = _check_scores_labels(scores, labels)
    pos = int(np.sum(y == 1))
    neg = int(np.sum(y == 0))
    if pos == 0 or neg == 0:
        raise MetricsError("ROC requires both classes")
    values, tp, fp = _sweep_counts(s, y)
    thresholds = np.concatenate([[math.inf], values])
    tpr = np.concatenate([[0.0], tp / pos])
    fpr = np.concatenate([[0.0], fp / neg])
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr)


def auc(scores, labels) -> float:
    """Area under the ROC curve by the trapezoidal rule.

    Tied positive/negative scores contribute half a pair each, which the
    trapezoid over tie groups yields exactly.
    """
    s, y = _check_scores_labels(scores, labels)
    pos = int(np.sum(y == 1))
    neg = int(np.sum(y == 0))
    if pos == 0 or neg == 0:
        raise MetricsError("AUC requires both classes")
    _, tp, fp = _sweep_counts(s, y)
    tp = np.concatenate([[0], tp]).astype(float)
    fp = np.concatenate([[0], fp]).astype(float)
    # trapezoids in integer count units, normalized once at the end
    area = float(np.sum(np.diff(fp) * (tp[1:] + tp[:-1]) / 2.0))
    return area / (pos * neg)


def best_threshold_bacc(scores, labels) -> tuple[float, float]:
    """Return (threshold, balanced accuracy) maximizing BAcc over all cuts.

    Candidates are midpoints of consecutive distinct sorted scores plus one
    sentinel below the minimum (everything positive) and one above the
    maximum (everything negative). A midpoint that rounds onto the lower
    score or overflows is replaced by the higher score, so every candidate
    gives the counts it is scored with. Ties on BAcc resolve to the median
    tied candidate (lower middle for an even count) for stability.
    """
    s, y = _check_scores_labels(scores, labels)
    pos = int(np.sum(y == 1))
    neg = int(np.sum(y == 0))
    if pos == 0 or neg == 0:
        raise MetricsError("threshold search requires both classes")
    values, tp, fp = _sweep_counts(s, y)  # distinct values descending; tp/fp at >= value
    hi, lo = values[:-1], values[1:]
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    # ascending candidates with the tp/fp counts each one realises
    candidates = np.concatenate([
        [values[-1] - 1.0],                                 # all predicted positive
        np.where((lo < mid) & (mid <= hi), mid, hi)[::-1],  # midpoints, ascending
        [values[0] + 1.0],                                  # all predicted negative
    ])
    tp_at = np.concatenate([tp[::-1], [0]])
    fp_at = np.concatenate([fp[::-1], [0]])
    bacc = (tp_at / pos + (neg - fp_at) / neg) / 2.0
    best = bacc.max()
    tied = candidates[bacc == best]
    threshold = float(tied[(len(tied) - 1) // 2])  # already ascending
    return threshold, float(best)
