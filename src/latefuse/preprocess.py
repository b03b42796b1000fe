"""Benign-referenced robust scaling, missingness handling, and redundancy pruning.

All operations are pure: they return new FeatureTables and leave inputs
untouched.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PreprocessError
from .tables import ClassLabel, FeatureTable
from .univariate import _midranks


@dataclass(frozen=True)
class RobustScaler:
    """Per-feature median/IQR computed on reference-class rows.

    Quartiles use linear interpolation between order statistics (the type-7
    convention). Features whose IQR is zero, or with fewer than two observed
    reference values, are flagged unusable and dropped by apply_scaler.
    """

    feature_names: tuple[str, ...]
    median: np.ndarray
    iqr: np.ndarray
    unusable: np.ndarray  # bool per feature

    def __post_init__(self) -> None:
        for arr in (self.median, self.iqr, self.unusable):
            np.asarray(arr).flags.writeable = False


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric Spearman matrix; `undefined` marks pairs stored as 0 by fiat."""

    feature_names: tuple[str, ...]
    rho: np.ndarray
    undefined: np.ndarray

    def __post_init__(self) -> None:
        self.rho.flags.writeable = False
        self.undefined.flags.writeable = False


def _fit_single_scaler(table: FeatureTable, reference_label: ClassLabel,
                       reference_desc: str) -> RobustScaler:
    ref_rows = table.labels == int(reference_label)
    if not ref_rows.any():
        raise PreprocessError(f"no {reference_label} reference samples ({reference_desc})")
    n_feat = table.n_features
    median = np.full(n_feat, np.nan)
    iqr = np.full(n_feat, np.nan)
    unusable = np.zeros(n_feat, dtype=bool)
    for j in range(n_feat):
        vals = table.values[ref_rows, j]
        vals = vals[~np.isnan(vals)]
        if vals.size < 2:
            unusable[j] = True
            continue
        q1, med, q3 = np.percentile(vals, [25.0, 50.0, 75.0])
        median[j] = med
        iqr[j] = q3 - q1
        if iqr[j] == 0:
            unusable[j] = True
    if unusable.any():
        bad = [table.feature_names[j] for j in np.flatnonzero(unusable)]
        warnings.warn(f"{len(bad)} feature(s) unusable for scaling (zero IQR or "
                      f"too few reference values): {bad[:5]}")
    return RobustScaler(
        feature_names=table.feature_names,
        median=median,
        iqr=iqr,
        unusable=unusable,
    )


def fit_robust_scaler(table: FeatureTable,
                      reference_label: ClassLabel = ClassLabel.BENIGN,
                      per_cohort: bool = False) -> RobustScaler | dict[str, RobustScaler]:
    """Median/IQR over reference-class rows; one scaler per cohort when flagged."""
    if not per_cohort:
        return _fit_single_scaler(table, reference_label, f"{reference_label} (all cohorts)")
    scalers: dict[str, RobustScaler] = {}
    for cohort in sorted(set(table.cohort)):
        rows = [i for i, c in enumerate(table.cohort) if c == cohort]
        sub = table.select_rows(rows)
        scalers[cohort] = _fit_single_scaler(sub, reference_label,
                                             f"{reference_label} within {cohort}")
    return scalers


def apply_scaler(scaler: RobustScaler | dict[str, RobustScaler],
                 table: FeatureTable) -> FeatureTable:
    """Transform to (x - median) / IQR; missing cells stay missing.

    Features flagged unusable (in any cohort's scaler) are excluded from the
    output with a warning. A table feature absent from the scaler is an error.
    """
    scalers = scaler if isinstance(scaler, dict) else {None: scaler}
    for s in scalers.values():
        missing_feats = set(table.feature_names) - set(s.feature_names)
        if missing_feats:
            raise PreprocessError(f"scaler does not cover features {sorted(missing_feats)[:5]}")
    drop = set()
    for s in scalers.values():
        pos = {n: j for j, n in enumerate(s.feature_names)}
        drop |= {n for n in table.feature_names if s.unusable[pos[n]]}
    keep = [n for n in table.feature_names if n not in drop]
    if drop:
        warnings.warn(f"excluding {len(drop)} unusable feature(s) from scaled output")
    if not keep:
        raise PreprocessError("no usable features left after scaling")

    out = np.empty((table.n_samples, len(keep)))
    if isinstance(scaler, dict):
        for cohort in set(table.cohort):
            if cohort not in scaler:
                raise PreprocessError(f"no scaler fitted for cohort {cohort!r}")
        row_groups = [(scaler[c], np.array([i for i, rc in enumerate(table.cohort) if rc == c]))
                      for c in sorted(set(table.cohort))]
    else:
        row_groups = [(scaler, np.arange(table.n_samples))]
    col_of = {n: j for j, n in enumerate(table.feature_names)}
    for s, rows in row_groups:
        pos = {n: j for j, n in enumerate(s.feature_names)}
        med = np.array([s.median[pos[n]] for n in keep])
        iqr = np.array([s.iqr[pos[n]] for n in keep])
        cols = [col_of[n] for n in keep]
        out[rows[:, None], np.arange(len(keep))] = (table.values[np.ix_(rows, cols)] - med) / iqr
    return table.with_matrix(out, False, feature_names=keep)


def filter_missingness(table: FeatureTable, max_missing_fraction: float) -> FeatureTable:
    """Drop features whose fraction of NaN cells exceeds the threshold or that
    have no observed value (at any threshold), and impute the NaN cells of the
    rest with the median of the column's observed values.

    The result holds no NaN; every later stage relies on that and refuses a
    NaN cell.
    """
    if not 0.0 <= max_missing_fraction <= 1.0:
        raise PreprocessError("max_missing_fraction must lie in [0, 1]")
    holes = np.isnan(table.values)
    keep = np.flatnonzero((holes.mean(axis=0) <= max_missing_fraction) & ~holes.all(axis=0))
    if keep.size == 0:
        raise PreprocessError("every feature exceeds the missingness threshold "
                              "or has no observed value")
    values = table.values[:, keep]
    values = np.where(np.isnan(values), np.nanmedian(values, axis=0), values)
    return table.with_matrix(values, False,
                             feature_names=[table.feature_names[j] for j in keep])


def spearman_matrix(table: FeatureTable) -> CorrelationMatrix:
    """Spearman rho via midranks followed by Pearson correlation of the ranks.

    The table must be fully observed (filter_missingness imputes it); a
    NaN cell raises PreprocessError. A pair is undefined (and stored as 0
    with a flag) when either feature is constant or fewer than three rows
    exist. The diagonal is exactly 1.
    """
    if np.isnan(table.values).any():
        raise PreprocessError("Spearman correlation needs a fully observed table")
    f = table.n_features
    rho = np.zeros((f, f))
    np.fill_diagonal(rho, 1.0)
    ranks = np.column_stack([_midranks(table.values[:, j]) for j in range(f)])
    sd = ranks.std(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        full = np.corrcoef(ranks, rowvar=False)
    undefined = np.logical_or.outer(sd == 0, sd == 0) | (table.n_samples < 3)
    np.fill_diagonal(undefined, False)
    i, j = np.triu_indices(f, 1)  # mirror the upper triangle: full[j, i] may round apart
    rho[i, j] = rho[j, i] = np.where(undefined[i, j], 0.0, np.atleast_2d(full)[i, j])
    return CorrelationMatrix(tuple(table.feature_names), rho, undefined)


def drop_correlated(table: FeatureTable, matrix: CorrelationMatrix,
                    threshold: float) -> tuple[FeatureTable, list[str]]:
    """Greedy redundancy pruning.

    While any active pair satisfies |rho| >= threshold, take the pair with
    the largest |rho| (ties by lexicographic pair) and remove whichever
    member has the larger mean absolute correlation to the remaining active
    features; mean ties remove the lexicographically later name. Returns the
    pruned table (original column order) and removal order.

    |rho| never changes and the active set only shrinks, so the pairs are
    sorted once and walked in order, skipping any pair with a removed member.
    """
    if not 0.0 < threshold <= 1.0:
        raise PreprocessError("threshold must lie in (0, 1]")
    if tuple(matrix.feature_names) != tuple(table.feature_names):
        raise PreprocessError("correlation matrix does not match table features")
    names = list(table.feature_names)
    absrho = np.abs(matrix.rho).copy()
    np.fill_diagonal(absrho, 0.0)
    upper_i, upper_j = np.triu_indices(len(names), 1)
    strong = absrho[upper_i, upper_j] >= threshold
    pairs = sorted((-absrho[i, j], names[i], names[j], i, j)
                   for i, j in zip(upper_i[strong].tolist(), upper_j[strong].tolist()))
    active = np.ones(len(names), dtype=bool)
    removed: list[str] = []
    for _, _, _, i, j in pairs:
        if not (active[i] and active[j]):
            continue
        rest = np.flatnonzero(active)
        mean_i = absrho[i, rest[rest != i]].mean()
        mean_j = absrho[j, rest[rest != j]].mean()
        if mean_i > mean_j:
            victim = i
        elif mean_j > mean_i:
            victim = j
        else:
            victim = max(i, j, key=lambda k: names[k])
        removed.append(names[victim])
        active[victim] = False
    kept = [names[k] for k in np.flatnonzero(active)]
    return table.select_features(kept), removed
