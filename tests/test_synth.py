import numpy as np
import pytest

from latefuse.errors import DataError
from latefuse.mrcv import stratified_split
from latefuse.synth import SynthSpec, generate, generate_pair
from latefuse.univariate import univariate_screen

from conftest import class_counts


def test_spec_validation():
    with pytest.raises(DataError):
        SynthSpec(n_benign=5, n_malignant=5, n_features=2, planted=((3, 1.0),))
    with pytest.raises(DataError):
        SynthSpec(n_benign=5, n_malignant=5, n_features=2, common_fraction=1.5)
    with pytest.raises(DataError):
        SynthSpec(n_benign=5, n_malignant=5, n_features=2,
                  correlation_blocks=((3, 0.5),))


def test_same_spec_same_bits():
    spec = SynthSpec(n_benign=30, n_malignant=20, n_features=10,
                     planted=((0, 2.0),), correlation_blocks=((3, 0.7),), seed=5)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.values, b.values)
    assert a.sample_ids == b.sample_ids
    c = generate(SynthSpec(n_benign=30, n_malignant=20, n_features=10,
                           planted=((0, 2.0),), correlation_blocks=((3, 0.7),), seed=6))
    assert not np.array_equal(a.values, c.values)


def test_planted_shift_within_sampling_error():
    n = 400
    spec = SynthSpec(n_benign=n, n_malignant=n, n_features=5,
                     planted=((1, 2.0), (3, -1.0)), seed=9)
    t = generate(spec)
    tol = 4.0 / np.sqrt(n)
    benign = t.values[t.labels == 0]
    malignant = t.values[t.labels == 1]
    assert abs(malignant[:, 1].mean() - benign[:, 1].mean() - 2.0) <= 2 * tol
    assert abs(malignant[:, 3].mean() - benign[:, 3].mean() + 1.0) <= 2 * tol
    assert abs(malignant[:, 0].mean() - benign[:, 0].mean()) <= 2 * tol


def test_correlation_block_structure():
    spec = SynthSpec(n_benign=500, n_malignant=500, n_features=6,
                     correlation_blocks=((3, 0.8),), seed=10)
    t = generate(spec)
    corr = np.corrcoef(t.values, rowvar=False)
    for i in range(3):
        for j in range(i + 1, 3):
            assert corr[i, j] == pytest.approx(0.8, abs=0.06)
    assert abs(corr[0, 4]) < 0.12


def test_null_spec_yields_no_significant_features():
    spec = SynthSpec(n_benign=100, n_malignant=100, n_features=50, seed=11)
    screen = univariate_screen(generate(spec), alpha=0.05)
    assert screen.n_significant <= 1


def test_strong_plant_is_overwhelming():
    spec = SynthSpec(n_benign=100, n_malignant=100, n_features=20,
                     planted=((4, 3.0),), seed=12)
    screen = univariate_screen(generate(spec), alpha=0.05)
    row = next(r for r in screen.rows if r.feature == "f004")
    assert row.fdr < 1e-10
    assert row.rg > 0


def test_published_imbalance_shape_splits_cleanly():
    spec = SynthSpec(n_benign=4569, n_malignant=440, n_features=3, seed=13)
    t = generate(spec)
    assert class_counts(t) == (4569, 440)
    train, val = stratified_split(t, 0.2, seed=14)
    assert class_counts(val) == (914, 88)  # round(0.2 * counts)
    assert class_counts(train) == (3655, 352)


def test_pair_common_fraction_and_label_consistency():
    spec_a = SynthSpec(n_benign=60, n_malignant=40, n_features=4,
                       common_fraction=0.5, seed=15)
    spec_b = SynthSpec(n_benign=30, n_malignant=50, n_features=6,
                       common_fraction=0.5, seed=15)
    a, b = generate_pair(spec_a, spec_b)
    assert class_counts(a) == (60, 40)
    assert class_counts(b) == (30, 50)
    shared = set(a.sample_ids) & set(b.sample_ids)
    # per class: round(0.5 * min(60,30)) + round(0.5 * min(40,50)) = 15 + 20
    assert len(shared) == 35
    label_a = dict(zip(a.sample_ids, a.labels.tolist()))
    label_b = dict(zip(b.sample_ids, b.labels.tolist()))
    assert all(label_a[s] == label_b[s] for s in shared)


def test_pair_modalities_statistically_independent():
    spec = SynthSpec(n_benign=300, n_malignant=300, n_features=2,
                     common_fraction=1.0, seed=16)
    a, b = generate_pair(spec, spec)
    assert a.sample_ids == b.sample_ids
    r = np.corrcoef(a.values[:, 0], b.values[:, 0])[0, 1]
    assert abs(r) < 0.1
    assert not np.array_equal(a.values, b.values)
