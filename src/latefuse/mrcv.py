"""Multiple Random Cross-Validation: repeated stratified splits, per-repeat
model building and threshold estimation, feature-stability ranking, and the
elbow cut that extracts the final feature set.

Repeat r draws all randomness from a stream derived from (base_seed, r), so
a run is a pure function of its inputs regardless of execution order.
"""

from __future__ import annotations

import warnings
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import forest as rf
from . import logreg as lr
from .errors import ElbowError, LatefuseError, SplitError
from .metrics import best_threshold_bacc, confusion, metrics_from_confusion
from .tables import FeatureTable


@dataclass(frozen=True)
class FoldOutcome:
    repeat_index: int
    n_train: int
    n_validation: int
    bacc_train: float
    bacc_validation: float
    threshold: float
    lr_selected_order: tuple[str, ...] | None = None
    importances: dict[str, float] | None = None
    chosen_params: dict | None = None
    error: str | None = None


@dataclass(frozen=True)
class FeatureRanking:
    """(feature, score) pairs, non-increasing by score, ties lexicographic."""

    entries: tuple[tuple[str, float], ...]

    def names(self) -> list[str]:
        return [name for name, _ in self.entries]

    def scores(self) -> list[float]:
        return [score for _, score in self.entries]


def stratified_split(table: FeatureTable, validation_fraction: float,
                     seed: int | Sequence[int]) -> tuple[FeatureTable, FeatureTable]:
    """Per-class sampling without replacement into a validation subset.

    Each class contributes round(fraction * n_c) rows (half-up rounding);
    row order of the input is preserved within both outputs.
    """
    if not 0.0 < validation_fraction < 1.0:
        raise SplitError("validation fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    validation = np.zeros(table.n_samples, dtype=bool)
    for cls in (0, 1):
        rows = np.flatnonzero(table.labels == cls)
        if rows.size < 2:
            raise SplitError(f"class {cls} has fewer than 2 samples")
        k = int(np.floor(validation_fraction * rows.size + 0.5))
        validation[rng.choice(rows, size=k, replace=False)] = True
    return (table.select_rows(np.flatnonzero(~validation)),
            table.select_rows(np.flatnonzero(validation)))


def _evaluate_fold(p_train, y_train, p_val, y_val) -> tuple[float, float, float]:
    """Threshold from the training subset, applied to both subsets."""
    threshold, bacc_train = best_threshold_bacc(p_train, y_train)
    bacc_val = metrics_from_confusion(confusion(p_val, y_val, threshold)).balanced_accuracy
    return threshold, bacc_train, bacc_val


def _run_repeats(table: FeatureTable, repeats: int, validation_fraction: float,
                 base_seed: int, fold: Callable) -> list[FoldOutcome]:
    """The MRCV loop: repeat r splits `table` with the (base_seed, r) stream
    and `fold(r, train, validation)` returns ((threshold, bacc_train,
    bacc_validation), family fields). A LatefuseError inside a repeat is
    recorded on its FoldOutcome instead of aborting the run."""
    outcomes: list[FoldOutcome] = []
    for r in range(repeats):
        try:
            train, val = stratified_split(table, validation_fraction, [base_seed, r])
            (threshold, bacc_tr, bacc_val), fields = fold(r, train, val)
            outcomes.append(FoldOutcome(r, train.n_samples, val.n_samples,
                                        bacc_tr, bacc_val, threshold, **fields))
        except LatefuseError as exc:
            outcomes.append(FoldOutcome(r, 0, 0, np.nan, np.nan, np.nan, error=str(exc)))
    return outcomes


def run_mrcv_lr(table: FeatureTable, repeats: int = 100, validation_fraction: float = 0.3,
                base_seed: int = 0, delta_bic_stop: float = 2.0) -> list[FoldOutcome]:
    """Per repeat: forward-select a logistic model over the table's features
    on the training subset, estimate the threshold there, and record balanced
    accuracies."""
    def fold(r, train, val):
        model = lr.forward_select(train, table.feature_names, delta_bic_stop)
        scores = _evaluate_fold(lr.predict_proba(model, train), train.labels,
                                lr.predict_proba(model, val), val.labels)
        return scores, {"lr_selected_order": model.selected_order}

    return _run_repeats(table, repeats, validation_fraction, base_seed, fold)


def derive_seed(*keys: int | str) -> int:
    """Stable 64-bit stream seed from integer keys and string tags; a tag
    enters the seed sequence as its CRC-32."""
    entropy = [zlib.crc32(k.encode()) if isinstance(k, str) else int(k) for k in keys]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def run_mrcv_rf(table: FeatureTable, repeats: int = 100, validation_fraction: float = 0.2,
                grid: Sequence[tuple[int, int]] = ((5, 100),),
                base_seed: int = 0) -> list[FoldOutcome]:
    """Per repeat: fit one forest per (mtry, ntree) grid point over the
    table's features, keep the point with the best validation balanced
    accuracy (first in grid order wins ties), and record that forest's
    normalized permutation importances.

    A forest's seed follows from (base_seed, repeat, mtry), so the forests of
    one mtry are nested: each is the first ntree trees of the largest one.
    That forest is grown once, and each point's scores are means over its
    prefix, equal to predict_proba of the prefix forest.
    """
    if not grid:
        raise LatefuseError("RF grid must not be empty")
    usable = [(m, t) for m, t in grid if m <= table.n_features]
    if len(usable) < len(grid):
        warnings.warn("grid points with mtry > n_features were skipped")
    if not usable:
        raise LatefuseError("no usable grid point (all mtry exceed feature count)")
    points: dict[int, list[tuple[int, int]]] = {}  # mtry -> (grid index, ntree)
    for gi, (mtry, ntree) in enumerate(usable):
        points.setdefault(mtry, []).append((gi, ntree))

    def fold(r, train, val):
        best = None
        for mtry, mtry_points in points.items():
            sizes = [ntree for _, ntree in mtry_points]
            fitted = rf.fit_forest(train, rf.ForestParams(
                mtry=mtry, ntree=max(sizes), seed=derive_seed(base_seed, r, mtry)))
            scores = zip(rf.prefix_proba(fitted, train, sizes),
                         rf.prefix_proba(fitted, val, sizes))
            for (gi, ntree), (p_train, p_val) in zip(mtry_points, scores):
                evaluated = _evaluate_fold(p_train, train.labels, p_val, val.labels)
                rank = (-evaluated[2], gi)  # best validation BAcc, then grid order
                if best is None or rank < best[0]:
                    best = (rank, evaluated, fitted, ntree)
        _, evaluated, fitted, ntree = best
        kept = replace(fitted, trees=fitted.trees[:ntree],
                       params=replace(fitted.params, ntree=ntree))
        report = rf.oob_permutation_importance(kept, train)
        return evaluated, {
            "importances": {name: float(v) for name, v
                            in zip(report.feature_names, report.normalized)},
            "chosen_params": {"mtry": kept.params.mtry, "ntree": ntree}}

    return _run_repeats(table, repeats, validation_fraction, base_seed, fold)


def _ranked(scores: dict[str, float]) -> FeatureRanking:
    entries = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return FeatureRanking(entries=tuple(entries))


def rank_features_lr(outcomes: Sequence[FoldOutcome],
                     features: Sequence[str]) -> FeatureRanking:
    """Stability score of each of `features`: sum over folds of proportional
    addition order times validation BAcc.

    In a fold that selected m features, the feature added at position i
    contributes ((m - i + 1) / m) * bacc_validation; unselected features
    contribute 0. Flagged folds are skipped.
    """
    scores = dict.fromkeys(features, 0.0)
    for out in outcomes:
        if out.error is not None:
            continue
        m = len(out.lr_selected_order)
        for i, name in enumerate(out.lr_selected_order, start=1):
            scores[name] += (m - i + 1) / m * out.bacc_validation
    return _ranked(scores)


def rank_features_rf(outcomes: Sequence[FoldOutcome],
                     features: Sequence[str]) -> FeatureRanking:
    """Mean normalized importance of each of `features` across the unflagged
    repeats (absent-in-repeat counts 0)."""
    scores = dict.fromkeys(features, 0.0)
    n_ok = 0
    for out in outcomes:
        if out.error is not None:
            continue
        n_ok += 1
        for name, value in out.importances.items():
            scores[name] += value
    if n_ok:
        scores = {k: v / n_ok for k, v in scores.items()}
    return _ranked(scores)


def elbow_cut(ranking: FeatureRanking) -> list[str]:
    """Prefix of the ranking up to the elbow of the score curve.

    Each point (k, score_k) is scored by its perpendicular distance to the
    chord between (1, score_1) and (K, score_K); the cut keeps every feature
    strictly before the point of maximum distance, i.e. the shoulder of the
    curve. A strictly linear curve has no interior extremum and returns the
    top feature with a warning; identical scores admit no elbow at all.
    """
    k_total = len(ranking.entries)
    if k_total < 3:
        raise ElbowError("elbow needs at least 3 ranked features")
    s = np.asarray(ranking.scores(), dtype=float)
    if s[0] == s[-1]:
        raise ElbowError("all scores are equal; no elbow exists")
    k = np.arange(1, k_total + 1, dtype=float)
    # |cross product| with the chord direction; the positive normalization
    # shared by all points is irrelevant to the argmax
    dist = np.abs((k_total - 1) * (s - s[0]) - (k - 1) * (s[-1] - s[0]))
    if np.all(dist == 0.0):
        warnings.warn("score curve is exactly linear; returning the top feature")
        return ranking.names()[:1]
    return ranking.names()[: int(np.argmax(dist))]
