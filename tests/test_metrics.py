import math

import numpy as np
import pytest

from latefuse.errors import MetricsError
from latefuse.metrics import (Confusion, auc, best_threshold_bacc, confusion,
                              metrics_from_confusion, roc_curve)
from latefuse.univariate import mann_whitney


def test_confusion_simple():
    c = confusion([0.9, 0.1], [1, 0], 0.5)
    assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 0, 0)


def test_confusion_boundary_inclusive():
    c = confusion([0.5, 0.2], [1, 0], 0.5)
    assert c.tp == 1 and c.fp == 0  # score == threshold predicts positive
    c = confusion([0.3, 0.2], [1, 0], 0.0)
    assert c.tp == 1 and c.fp == 1  # threshold below all scores -> all positive


def test_confusion_length_mismatch():
    with pytest.raises(MetricsError):
        confusion([0.1, 0.2], [1], 0.5)


def test_labels_outside_0_1_and_nan_scores_rejected():
    with pytest.raises(MetricsError, match="labels must be 0 or 1"):
        confusion([0.3, 0.2, 0.9], [2, 0, 1], 0.5)
    with pytest.raises(MetricsError, match="labels must be 0 or 1"):
        auc([0.3, 0.2, 0.9], [256, 0, 1])  # out of int8 range
    for check in (lambda s, y: confusion(s, y, 0.5), auc, roc_curve, best_threshold_bacc):
        with pytest.raises(MetricsError, match="NaN"):
            check([0.3, math.nan, 0.9], [1, 0, 1])


def test_metrics_published_row_reconstruction():
    # sens 0.60 / spec 0.85 at 20/20 requires exactly tp=12, fn=8, tn=17, fp=3
    row = metrics_from_confusion(Confusion(tp=12, fn=8, tn=17, fp=3))
    published = (0.60, 0.85, 0.80, 0.68, 0.69, 0.73)
    got = (row.sensitivity, row.specificity, row.ppv, row.npv, row.f1,
           row.balanced_accuracy)
    for value, target in zip(got, published):
        assert abs(value - target) <= 0.005 + 1e-9


def test_metrics_chance_and_perfect():
    chance = metrics_from_confusion(Confusion(tp=5, fn=5, tn=7, fp=7))
    assert chance.balanced_accuracy == 0.5
    perfect = metrics_from_confusion(Confusion(tp=9, fn=0, tn=4, fp=0))
    for v in (perfect.sensitivity, perfect.specificity, perfect.ppv,
              perfect.npv, perfect.f1, perfect.balanced_accuracy):
        assert v == 1.0


def test_metrics_bacc_identity_exact():
    rng = np.random.default_rng(0)
    for _ in range(50):
        tp, fn, tn, fp = rng.integers(0, 30, 4)
        if tp + fn == 0 or tn + fp == 0:
            continue
        row = metrics_from_confusion(Confusion(int(tp), int(fp), int(tn), int(fn)))
        assert row.balanced_accuracy == (row.sensitivity + row.specificity) / 2


def test_metrics_undefined_ratios_flagged():
    # nothing predicted positive: PPV is undefined, and its NaN is the flag
    row = metrics_from_confusion(Confusion(tp=0, fp=0, tn=3, fn=2))
    assert math.isnan(row.ppv) and row.npv == 0.6 and row.f1 == 0.0
    assert math.isnan(row.auc)
    assert metrics_from_confusion(Confusion(tp=0, fp=0, tn=3, fn=2), 0.75).auc == 0.75
    with pytest.raises(MetricsError):
        metrics_from_confusion(Confusion(tp=0, fp=1, tn=1, fn=0))


def test_auc_pairwise_example():
    assert auc([0.35, 0.8, 0.1, 0.4], [1, 1, 0, 0]) == 0.75


def test_auc_perfect_separation():
    assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_auc_monotone_transform_invariant():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=40)
    labels = rng.integers(0, 2, 40)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    base = auc(scores, labels)
    assert auc(np.exp(scores), labels) == base
    assert auc(3 * scores + 7, labels) == base


def test_auc_equals_mann_whitney_u():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n_pos = int(rng.integers(2, 30))
        n_neg = int(rng.integers(2, 30))
        # coarse grid of values forces plenty of ties
        pool = rng.choice(np.linspace(0, 1, 11), size=n_pos + n_neg)
        pos, neg = pool[:n_pos], pool[n_pos:]
        u_pos, _ = mann_whitney(pos, neg)
        a = auc(pool, [1] * n_pos + [0] * n_neg)
        assert abs(a - u_pos / (n_pos * n_neg)) <= 1e-12


def test_roc_curve_endpoints_and_monotone():
    rng = np.random.default_rng(4)
    scores = rng.random(30)
    labels = rng.integers(0, 2, 30)
    labels[:2] = [0, 1]
    curve = roc_curve(scores, labels)
    assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
    assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
    assert (np.diff(curve.fpr) >= 0).all() and (np.diff(curve.tpr) >= 0).all()


def test_roc_points_achievable():
    rng = np.random.default_rng(9)
    scores = rng.choice([0.1, 0.3, 0.3, 0.7, 0.9], size=25)
    labels = rng.integers(0, 2, 25)
    labels[:2] = [0, 1]
    pos = int(np.sum(labels == 1))
    neg = int(np.sum(labels == 0))
    curve = roc_curve(scores, labels)
    for t, f, tp in zip(curve.thresholds, curve.fpr, curve.tpr):
        c = confusion(scores, labels, t)
        assert c.fp / neg == f and c.tp / pos == tp


def test_roc_single_class_rejected():
    with pytest.raises(MetricsError):
        roc_curve([0.1, 0.2], [1, 1])
    with pytest.raises(MetricsError):
        auc([0.1, 0.2], [0, 0])


def test_best_threshold_midpoint_example():
    threshold, bacc = best_threshold_bacc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
    assert threshold == 0.5 and bacc == 1.0


@pytest.mark.parametrize("scores", [[0.1, np.nextafter(0.1, 1.0)], [1.7e308, 1.79e308]])
def test_best_threshold_realises_reported_bacc_between_adjacent_scores(scores):
    # the midpoint rounds down onto the lower score, or overflows to inf
    threshold, bacc = best_threshold_bacc(scores, [0, 1])
    assert bacc == 1.0
    c = confusion(scores, [0, 1], threshold)
    assert (c.tp, c.tn) == (1, 1)


def test_best_threshold_identical_scores_sentinel():
    threshold, bacc = best_threshold_bacc([0.4] * 6, [0, 1, 0, 1, 0, 1])
    assert bacc == 0.5
    assert threshold in (0.4 - 1.0, 0.4 + 1.0)


def _sweep_oracle(scores, labels):
    """Exhaustive all-cut evaluation, independent of the library's sweep."""
    values = sorted(set(scores))
    cands = [values[0] - 1] + [(a + b) / 2 for a, b in zip(values, values[1:])] \
        + [values[-1] + 1]
    pos = sum(labels)
    neg = len(labels) - pos
    best = -1.0
    for t in cands:
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 0)
        best = max(best, (tp / pos + (neg - fp) / neg) / 2)
    return best


def test_best_threshold_matches_exhaustive_oracle():
    rng = np.random.default_rng(21)
    for _ in range(500):
        n = int(rng.integers(4, 40))
        scores = np.round(rng.random(n), 2).tolist()  # duplicates likely
        labels = rng.integers(0, 2, n).tolist()
        if sum(labels) in (0, n):
            continue
        threshold, bacc = best_threshold_bacc(scores, labels)
        assert abs(bacc - _sweep_oracle(scores, labels)) <= 1e-12
        assert bacc >= 0.5
        # the returned threshold actually realises the reported bacc
        row = metrics_from_confusion(confusion(scores, labels, threshold))
        assert abs(row.balanced_accuracy - bacc) <= 1e-12
