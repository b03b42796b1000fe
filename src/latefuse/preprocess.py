"""Benign-referenced robust scaling, missingness handling, and redundancy pruning.

All operations are pure: they return new FeatureTables and leave inputs
untouched. Scaling and imputation work in place in the one fresh matrix
that becomes the result's.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoFeaturesLeftError, PreprocessError
from .tables import ClassLabel, FeatureTable, _frozen
from .univariate import _midranks


@dataclass(frozen=True)
class RobustScaler:
    """Per-feature median/IQR of the benign rows, as (groups, features) arrays:
    one group when pooled (`cohorts` is None), else one per sorted cohort.
    Quartiles are type-7 (linear interpolation) over a group's observed values;
    the IQR is NaN where a group has fewer than two observed values."""

    feature_names: tuple[str, ...]
    cohorts: tuple[str, ...] | None
    median: np.ndarray
    iqr: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.median, self.iqr):
            np.asarray(arr).flags.writeable = False

    @property
    def unusable(self) -> np.ndarray:
        """Per feature: its IQR is zero or NaN in some group, so apply_scaler
        drops it."""
        return ~(self.iqr > 0).all(axis=0)


def _group_rows(cohorts: tuple[str, ...] | None, table: FeatureTable) -> list[np.ndarray]:
    """Row mask of each scaler group in `table`: all rows when pooled."""
    tags = np.asarray(table.cohort, dtype=str)
    return [np.ones(len(tags), dtype=bool)] if cohorts is None else [tags == c for c in cohorts]


def _sorted_observed(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`block`, each column sorted ascending in place with its NaNs last, and
    each column's count of observed values."""
    n = block.shape[0] - np.isnan(block).sum(axis=0)
    block.sort(axis=0)
    return block, n


def _type7(xs: np.ndarray, n: np.ndarray, q: float) -> np.ndarray:
    """The q-quantile of each column's n >= 2 observed values, sorted first
    in `xs`, bit for bit as np.nanpercentile gives it: virtual index
    v = (n - 1) * q between a = xs[floor(v)] and b the next value, and
    numpy's lerp with g = v - floor(v): b - (b - a) * (1 - g) when g >= 0.5,
    else a + (b - a) * g (Hyndman & Fan 1996, type 7)."""
    v = (n - 1) * q
    i = v.astype(np.intp)  # v >= 0, so this is floor(v); i + 1 <= n - 1 as q < 1
    g = v - i
    cols = np.arange(xs.shape[1])
    a, b = xs[i, cols], xs[i + 1, cols]
    d = b - a
    return np.where(g >= 0.5, b - d * (1 - g), a + d * g)


def fit_robust_scaler(table: FeatureTable, per_cohort: bool = False) -> RobustScaler:
    """Median/IQR over the benign rows, pooled or within each cohort."""
    cohorts = tuple(sorted(set(table.cohort))) if per_cohort else None
    groups = _group_rows(cohorts, table)
    median = np.full((len(groups), table.n_features), np.nan)
    iqr = median.copy()
    for g, rows in enumerate(groups):
        ref = table.values[rows & (table.labels == ClassLabel.BENIGN)]
        if not len(ref):
            where = "(all cohorts)" if cohorts is None else f"within {cohorts[g]}"
            raise PreprocessError(f"no Benign reference samples (Benign {where})")
        xs, n = _sorted_observed(ref)
        enough = n >= 2
        if enough.any():
            q1, median[g, enough], q3 = (_type7(xs[:, enough], n[enough], q)
                                         for q in (0.25, 0.5, 0.75))
            iqr[g, enough] = q3 - q1
    scaler = RobustScaler(table.feature_names, cohorts, median, iqr)
    if scaler.unusable.any():
        bad = [table.feature_names[j] for j in np.flatnonzero(scaler.unusable)]
        warnings.warn(f"{len(bad)} feature(s) unusable for scaling (zero IQR or "
                      f"too few reference values): {bad[:5]}")
    return scaler


def apply_scaler(scaler: RobustScaler, table: FeatureTable) -> FeatureTable:
    """Transform each row to (x - median) / IQR of its group; missing cells stay
    missing and unusable features are excluded with a warning. A table feature
    or cohort the scaler does not cover is an error."""
    pos = {n: j for j, n in enumerate(scaler.feature_names)}
    uncovered = sorted(set(table.feature_names) - set(pos))
    if uncovered:
        raise PreprocessError(f"scaler does not cover features {uncovered[:5]}")
    unusable = scaler.unusable
    cols = [j for j, n in enumerate(table.feature_names) if not unusable[pos[n]]]
    if len(cols) < table.n_features:
        warnings.warn(f"excluding {table.n_features - len(cols)} unusable feature(s) "
                      "from scaled output")
    if not cols:
        raise NoFeaturesLeftError("no usable features left after scaling")
    unknown = set(table.cohort) - set(scaler.cohorts or ())
    if scaler.cohorts is not None and unknown:
        raise PreprocessError(f"no scaler fitted for cohort {min(unknown)!r}")
    keep = [table.feature_names[j] for j in cols]
    at = [pos[n] for n in keep]
    out = table.values.take(cols, axis=1)
    for g, rows in enumerate(_group_rows(scaler.cohorts, table)):
        where = rows[:, None]
        np.subtract(out, scaler.median[g, at], out=out, where=where)
        np.divide(out, scaler.iqr[g, at], out=out, where=where)
    return table.with_matrix(_frozen(out), False, feature_names=keep)


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
        raise NoFeaturesLeftError("every feature exceeds the missingness threshold "
                                  "or has no observed value")
    values = table.values.take(keep, axis=1)
    holes = holes.take(keep, axis=1)
    gappy = np.flatnonzero(holes.any(axis=0))
    if gappy.size:
        xs, n = _sorted_observed(values.take(gappy, axis=1))
        cols = np.arange(gappy.size)
        fill = np.zeros(keep.size)
        # low and high middle values, the same one when n is odd
        fill[gappy] = (xs[(n - 1) // 2, cols] + xs[n // 2, cols]) / 2
        np.copyto(values, fill, where=holes)
    return table.with_matrix(_frozen(values), False,
                             feature_names=[table.feature_names[j] for j in keep])


def spearman_matrix(table: FeatureTable) -> np.ndarray:
    """Read-only symmetric (features, features) Spearman rho, in the table's
    feature order, via midranks followed by Pearson correlation of the ranks.

    The table must be fully observed (filter_missingness imputes it); a
    NaN cell raises PreprocessError. A pair is undefined, and stored as 0,
    when either feature is constant or fewer than three rows exist. The
    diagonal is exactly 1.
    """
    if np.isnan(table.values).any():
        raise PreprocessError("Spearman correlation needs a fully observed table")
    f = table.n_features
    rho = np.zeros((f, f))
    np.fill_diagonal(rho, 1.0)
    ranks = np.column_stack([_midranks(table.values[:, j])[0] for j in range(f)])
    sd = ranks.std(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        full = np.corrcoef(ranks, rowvar=False)
    undefined = np.logical_or.outer(sd == 0, sd == 0) | (table.n_samples < 3)
    i, j = np.triu_indices(f, 1)  # mirror the upper triangle: full[j, i] may round apart
    rho[i, j] = rho[j, i] = np.where(undefined[i, j], 0.0, np.atleast_2d(full)[i, j])
    rho.flags.writeable = False
    return rho


def drop_correlated(table: FeatureTable, rho: np.ndarray,
                    threshold: float) -> tuple[FeatureTable, list[str]]:
    """Greedy redundancy pruning by `rho`, the spearman_matrix of `table`.

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
    if np.shape(rho) != (table.n_features, table.n_features):
        raise PreprocessError(f"correlation matrix of shape {np.shape(rho)} does not "
                              f"match {table.n_features} table features")
    names = list(table.feature_names)
    absrho = np.abs(rho)
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
