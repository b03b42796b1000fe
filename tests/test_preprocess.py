import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from latefuse.cli import _preprocess_full
from latefuse.errors import PreprocessError
from latefuse.preprocess import (apply_scaler, drop_correlated, filter_missingness,
                                 fit_robust_scaler, spearman_matrix)
from latefuse.tables import ClassLabel

from conftest import gaussian_table, make_table


def test_scaler_hand_quartiles():
    # benign rows carry {1..5}: median 3, Q1 2, Q3 4 under linear interpolation
    values = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [100.0]])
    t = make_table(values, [0, 0, 0, 0, 0, 1])
    scaler = fit_robust_scaler(t)
    assert scaler.median[0] == 3.0 and scaler.iqr[0] == 2.0
    out = apply_scaler(scaler, t)
    benign = out.values[:5, 0]
    assert np.median(benign) == 0.0
    q1, q3 = np.percentile(benign, [25, 75])
    assert q3 - q1 == pytest.approx(1.0, abs=1e-12)
    assert out.values[2, 0] == 0.0  # center maps to zero


def test_scaler_constant_feature_flagged_and_dropped():
    values = np.column_stack([np.ones(6), np.arange(6.0)])
    t = make_table(values, [0, 0, 0, 1, 1, 1])
    with pytest.warns(UserWarning, match="unusable"):
        scaler = fit_robust_scaler(t)
    assert scaler.unusable.tolist() == [True, False]
    with pytest.warns(UserWarning, match="excluding"):
        out = apply_scaler(scaler, t)
    assert out.feature_names == ("f001",)


def test_scaler_requires_reference_samples():
    t = make_table(np.eye(3), [1, 1, 1])
    with pytest.raises(PreprocessError):
        fit_robust_scaler(t, ClassLabel.BENIGN)


def test_scaler_per_cohort_centers_each_cohort():
    rng = np.random.default_rng(8)
    n = 120
    cohorts = ["EARLY"] * 60 + ["LATE"] * 60
    labels = ([0] * 40 + [1] * 20) * 2
    values = rng.normal(size=(n, 3))
    values[60:] += 50.0  # cohort-level batch offset
    t = make_table(values, labels, cohorts=cohorts)
    scalers = fit_robust_scaler(t, per_cohort=True)
    assert set(scalers) == {"EARLY", "LATE"}
    out = apply_scaler(scalers, t)
    for cohort in ("EARLY", "LATE"):
        rows = [i for i, c in enumerate(out.cohort) if c == cohort]
        benign = [i for i in rows if out.labels[i] == 0]
        med = np.median(out.values[benign], axis=0)
        assert np.allclose(med, 0.0, atol=1e-12)


def test_scaler_benign_rows_have_zero_median_property():
    for seed in range(20):
        t = gaussian_table(15, 10, 4, seed=seed)
        out = apply_scaler(fit_robust_scaler(t), t)
        benign_median = np.median(out.values[out.labels == 0], axis=0)
        assert np.max(np.abs(benign_median)) <= 1e-12


def test_scaler_inverse_recovers_input():
    t = gaussian_table(20, 20, 5, seed=4)
    scaler = fit_robust_scaler(t)
    out = apply_scaler(scaler, t)
    recovered = out.values * scaler.iqr + scaler.median
    assert np.allclose(recovered, t.values, rtol=1e-10)


def test_scaler_missing_stays_missing():
    missing = np.zeros((6, 2), dtype=bool)
    missing[0, 0] = True
    t = make_table(np.arange(12.0).reshape(6, 2), [0, 0, 0, 1, 1, 1], missing=missing)
    out = apply_scaler(fit_robust_scaler(t), t)
    assert np.isnan(out.values).tolist() == missing.tolist()


def test_scaler_unknown_feature_rejected():
    t = make_table(np.eye(3), [0, 0, 1])
    scaler = fit_robust_scaler(t.select_features(["f000"]))
    with pytest.raises(PreprocessError):
        apply_scaler(scaler, t)


def test_filter_missingness_drops_above_threshold():
    missing = np.zeros((10, 2), dtype=bool)
    missing[:6, 0] = True  # 60% missing
    t = make_table(np.ones((10, 2)), [0] * 5 + [1] * 5, missing=missing)
    out = filter_missingness(t, 0.5)
    assert out.feature_names == ("f001",)


def test_filter_missingness_threshold_one_keeps_everything():
    # ...that has an observed value: an all-blank column is dropped at any
    # threshold, without a warning
    missing = np.zeros((4, 2), dtype=bool)
    missing[:, 0] = True
    missing[0, 1] = True
    t = make_table(np.ones((4, 2)), [0, 0, 1, 1], missing=missing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = filter_missingness(t, 1.0)
    assert out.feature_names == ("f001",)
    assert not np.isnan(out.values).any()


def test_filter_missingness_imputes_observed_median():
    missing = np.zeros((3, 1), dtype=bool)
    missing[1, 0] = True
    t = make_table([[1.0], [999.0], [3.0]], [0, 1, 0], missing=missing)
    out = filter_missingness(t, 0.5)
    assert out.values[:, 0].tolist() == [1.0, 2.0, 3.0]


def test_filter_missingness_never_drops_fully_observed():
    rng = np.random.default_rng(6)
    t = gaussian_table(8, 8, 5, seed=6)
    out = filter_missingness(t, 0.0)
    assert out.feature_names == t.feature_names


def test_filter_missingness_all_dropped():
    missing = np.ones((4, 2), dtype=bool)
    t = make_table(np.ones((4, 2)), [0, 0, 1, 1], missing=missing)
    with pytest.raises(PreprocessError):
        filter_missingness(t, 0.5)


@st.composite
def blank_tables(draw):
    """Small tables of tie-heavy values; each column is fully observed,
    blank at random, blank everywhere, or blank in one class only."""
    n = draw(st.integers(4, 12))
    labels = np.array([0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2,
                                             max_size=n - 2)), dtype=np.int8)
    cohorts = [draw(st.sampled_from("AB")) for _ in range(n)]
    p = draw(st.integers(1, 4))
    values = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.5, -1.0]),
                                    min_size=n * p, max_size=n * p))).reshape(n, p)
    missing = np.zeros((n, p), dtype=bool)
    for j in range(p):
        pattern = draw(st.sampled_from(["none", "random", "all", "benign", "malignant"]))
        if pattern == "random":
            missing[:, j] = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        elif pattern == "all":
            missing[:, j] = True
        elif pattern != "none":
            missing[:, j] = labels == (pattern == "malignant")
    return make_table(values, labels, cohorts=cohorts, missing=missing)


@settings(max_examples=200, deadline=None)
@given(blank_tables(), st.booleans(), st.booleans(), st.sampled_from([0.0, 0.5, 1.0]))
def test_preprocess_full_leaves_no_missing_cell(table, scale, per_cohort, max_missing):
    cfg = SimpleNamespace(scale=scale, per_cohort=per_cohort,
                          max_missing_fraction=max_missing)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            out = _preprocess_full(cfg, table)
        except PreprocessError:
            return
    assert np.isfinite(out.values).all()
    blank = {name for name, gone in zip(table.feature_names, np.isnan(table.values).all(axis=0))
             if gone}
    assert out.n_features >= 1 and not blank & set(out.feature_names)
    spearman_matrix(out)


def test_spearman_monotone_and_antimonotone():
    t = make_table(np.column_stack([[1, 2, 3], [2, 4, 6], [3, 2, 1]]), [0, 0, 1])
    m = spearman_matrix(t)
    assert m.rho[0, 1] == 1.0
    assert m.rho[0, 2] == -1.0
    assert np.array_equal(np.diag(m.rho), np.ones(3))
    assert np.array_equal(m.rho, m.rho.T)


def test_spearman_midranks_hand_computed():
    # x={1,2,2,3}, y={1,3,2,4}: midranks x -> {1, 2.5, 2.5, 4}, y -> {1,3,2,4}
    rx = np.array([1.0, 2.5, 2.5, 4.0])
    ry = np.array([1.0, 3.0, 2.0, 4.0])
    expected = np.corrcoef(rx, ry)[0, 1]
    t = make_table(np.column_stack([[1, 2, 2, 3], [1, 3, 2, 4]]), [0, 0, 1, 1])
    m = spearman_matrix(t)
    assert m.rho[0, 1] == pytest.approx(expected, abs=1e-12)
    # by hand: cov 4.5, sd^2 4.5 and 5.0 -> rho = 4.5/sqrt(22.5) = sqrt(0.9)
    assert m.rho[0, 1] == pytest.approx(np.sqrt(0.9), abs=1e-12)


def test_spearman_matches_reference_with_missing():
    # missing cells end at filter_missingness; Spearman refuses them
    rng = np.random.default_rng(14)
    values = rng.normal(size=(30, 4))
    missing = rng.random((30, 4)) < 0.2
    t = make_table(values, rng.integers(0, 2, 30), missing=missing)
    with pytest.raises(PreprocessError, match="fully observed"):
        spearman_matrix(t)
    m = spearman_matrix(make_table(values, t.labels))
    assert np.allclose(m.rho, sps.spearmanr(values).statistic, rtol=0, atol=1e-12)


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(15)
    values = rng.normal(size=(25, 3))
    t1 = make_table(values, rng.integers(0, 2, 25))
    transformed = values.copy()
    transformed[:, 1] = np.exp(transformed[:, 1])  # strictly monotone
    t2 = make_table(transformed, t1.labels)
    m1, m2 = spearman_matrix(t1), spearman_matrix(t2)
    assert np.max(np.abs(m1.rho - m2.rho)) <= 1e-12


def test_spearman_constant_feature_flagged_zero():
    t = make_table(np.column_stack([np.ones(5), np.arange(5.0)]), [0, 0, 0, 1, 1])
    m = spearman_matrix(t)
    assert m.rho[0, 1] == 0.0 and m.undefined[0, 1]
    assert m.rho[0, 0] == 1.0
    # fewer than three samples: every off-diagonal pair is undefined and 0
    m = spearman_matrix(make_table([[1.0, 2.0, 3.0], [2.0, 1.0, 5.0]], [0, 1]))
    off = ~np.eye(3, dtype=bool)
    assert m.undefined[off].all() and not np.diag(m.undefined).any()
    assert np.array_equal(m.rho, np.eye(3)) and np.array_equal(m.rho, m.rho.T)


def test_drop_correlated_duplicate_column():
    values = np.column_stack([np.arange(6.0), np.arange(6.0), np.random.default_rng(1).normal(size=6)])
    t = make_table(values, [0, 0, 0, 1, 1, 1], feature_names=["f1", "f2", "other"])
    m = spearman_matrix(t)
    pruned, removed = drop_correlated(t, m, 0.95)
    assert removed == ["f2"]  # lexicographically later member of the tied pair
    assert pruned.feature_names == ("f1", "other")


def test_drop_correlated_identity_when_uncorrelated():
    t = gaussian_table(20, 20, 5, seed=30)
    m = spearman_matrix(t)
    pruned, removed = drop_correlated(t, m, 0.95)
    assert removed == [] and pruned.feature_names == t.feature_names


def test_drop_correlated_triple_block_keeps_one():
    rng = np.random.default_rng(44)
    latent = rng.normal(size=200)
    values = np.column_stack([latent + rng.normal(scale=0.01, size=200) for _ in range(3)]
                             + [rng.normal(size=200)])
    t = make_table(values, [0] * 100 + [1] * 100)
    m = spearman_matrix(t)
    pruned, removed = drop_correlated(t, m, 0.95)
    assert len(removed) == 2
    assert pruned.n_features == 2  # one survivor of the block + the free feature
    assert "f003" in pruned.feature_names


def test_drop_correlated_output_has_no_offending_pair():
    rng = np.random.default_rng(45)
    latent = rng.normal(size=100)
    values = rng.normal(size=(100, 6))
    values[:, :3] = latent[:, None] + rng.normal(scale=0.3, size=(100, 3))
    t = make_table(values, [0] * 50 + [1] * 50)
    pruned, _ = drop_correlated(t, spearman_matrix(t), 0.8)
    m2 = spearman_matrix(pruned)
    off_diag = m2.rho[~np.eye(pruned.n_features, dtype=bool)]
    assert np.all(np.abs(off_diag) < 0.8)


def reference_drop_correlated(table, matrix, threshold):
    """The loop drop_correlated replaced, kept verbatim as the reference its
    removal order and kept table are checked against: it rebuilds and sorts
    the active pairs after every removal."""
    names = list(table.feature_names)
    absrho = np.abs(matrix.rho).copy()
    np.fill_diagonal(absrho, 0.0)
    active = list(range(len(names)))
    removed = []
    while len(active) > 1:
        pairs = [(absrho[i, j], names[i], names[j], i, j)
                 for ai, i in enumerate(active) for j in active[ai + 1:]
                 if absrho[i, j] >= threshold]
        if not pairs:
            break
        pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
        _, _, _, i, j = pairs[0]
        rest = [k for k in active]
        mean_i = absrho[i, [k for k in rest if k != i]].mean()
        mean_j = absrho[j, [k for k in rest if k != j]].mean()
        if mean_i > mean_j:
            victim = i
        elif mean_j > mean_i:
            victim = j
        else:
            victim = max(i, j, key=lambda k: names[k])
        removed.append(names[victim])
        active.remove(victim)
    kept = [names[k] for k in sorted(active)]
    return table.select_features(kept), removed


@pytest.mark.parametrize("threshold", [0.8, 0.95])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_drop_correlated_matches_rebuilding_reference(threshold, data):
    # correlated blocks, |rho| rounded to create ties, names not in column order
    p = data.draw(st.integers(2, 30))
    seed = data.draw(st.integers(0, 2**32 - 1))
    decimals = data.draw(st.sampled_from((1, 2)))
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(40, max(1, p // 4)))
    values = latent[:, rng.integers(0, latent.shape[1], p)]
    values = values + rng.normal(scale=data.draw(st.sampled_from((0.05, 0.2, 0.5))),
                                 size=values.shape)
    names = [f"f{j:02d}" for j in rng.permutation(p)]
    t = make_table(values, [0, 1] * 20, feature_names=names)
    m = spearman_matrix(t)
    rho = np.round(m.rho, decimals) * rng.choice((-1.0, 1.0), size=(p, p))
    rho = np.triu(rho, 1) + np.triu(rho, 1).T + np.eye(p)
    tied = SimpleNamespace(feature_names=m.feature_names, rho=rho)
    got_table, got_removed = drop_correlated(t, tied, threshold)
    want_table, want_removed = reference_drop_correlated(t, tied, threshold)
    assert got_removed == want_removed
    assert got_table.feature_names == want_table.feature_names
    assert np.array_equal(got_table.values, want_table.values)
