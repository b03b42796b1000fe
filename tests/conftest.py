import numpy as np
import pytest

from latefuse.tables import FeatureTable


def make_table(values, labels, feature_names=None, cohorts=None, ids=None, missing=None):
    """A table of `values`; the cells marked in the boolean `missing` become NaN."""
    values = np.asarray(values, dtype=float)
    if missing is not None:
        values = np.where(missing, np.nan, values)
    n, f = values.shape
    return FeatureTable(
        sample_ids=tuple(ids) if ids is not None else tuple(f"S{i:04d}" for i in range(n)),
        cohort=tuple(cohorts) if cohorts is not None else ("C",) * n,
        labels=np.asarray(labels, dtype=np.int8),
        feature_names=tuple(feature_names) if feature_names is not None
        else tuple(f"f{j:03d}" for j in range(f)),
        values=values,
    )


def class_counts(table):
    """(n_benign, n_malignant)."""
    return tuple(np.bincount(table.labels, minlength=2).tolist())


def gaussian_table(n_benign, n_malignant, n_features, shifts=None, seed=0):
    """Noise features with optional per-feature mean shifts in the malignant class."""
    rng = np.random.default_rng(seed)
    n = n_benign + n_malignant
    labels = np.array([0] * n_benign + [1] * n_malignant, dtype=np.int8)
    values = rng.normal(size=(n, n_features))
    for idx, shift in (shifts or {}).items():
        values[labels == 1, idx] += shift
    return make_table(values, labels)


def complementary_pair(seed, n_per=1600, shift=1.4):
    """Two single-feature modalities; A's signal sits on the first half of the
    positives, B's on the second half. Shared ids and labels."""
    rng = np.random.default_rng(seed)
    n = 2 * n_per
    labels = np.array([0] * n_per + [1] * n_per, dtype=np.int8)
    pos = np.flatnonzero(labels == 1)
    ids = tuple(f"S{i:05d}" for i in range(n))

    def modality(detectable):
        vals = rng.normal(size=(n, 1))
        vals[detectable, 0] += shift
        return make_table(vals, labels, feature_names=("signal",), ids=ids)

    return modality(pos[: n_per // 2]), modality(pos[n_per // 2:])


def split_rows(labels, fraction, rng):
    """Per-class holdout rows (sorted) and the complementary training rows."""
    labels = np.asarray(labels)
    held = []
    for cls in (0, 1):
        rows = np.flatnonzero(labels == cls)
        held.extend(rng.choice(rows, size=int(round(fraction * rows.size)),
                               replace=False).tolist())
    held = np.sort(np.asarray(held))
    return np.setdiff1d(np.arange(labels.size), held), held


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
