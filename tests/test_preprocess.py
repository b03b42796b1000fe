from __future__ import annotations

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from latefuse.cli import _preprocess_full
from latefuse.errors import NoFeaturesLeftError, PreprocessError
from latefuse.preprocess import (RobustScaler, apply_scaler, drop_correlated,
                                 filter_missingness, fit_robust_scaler, spearman_matrix)
from latefuse.tables import ClassLabel, FeatureTable

from conftest import gaussian_table, make_table


def test_scaler_hand_quartiles():
    # benign rows carry {1..5}: median 3, Q1 2, Q3 4 under linear interpolation
    values = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [100.0]])
    t = make_table(values, [0, 0, 0, 0, 0, 1])
    scaler = fit_robust_scaler(t)
    assert scaler.median[0, 0] == 3.0 and scaler.iqr[0, 0] == 2.0
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
        fit_robust_scaler(t)


def test_scaler_per_cohort_centers_each_cohort():
    rng = np.random.default_rng(8)
    n = 120
    cohorts = ["EARLY"] * 60 + ["LATE"] * 60
    labels = ([0] * 40 + [1] * 20) * 2
    values = rng.normal(size=(n, 3))
    values[60:] += 50.0  # cohort-level batch offset
    t = make_table(values, labels, cohorts=cohorts)
    scaler = fit_robust_scaler(t, per_cohort=True)
    assert scaler.cohorts == ("EARLY", "LATE")
    out = apply_scaler(scaler, t)
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


# The pooled/per-cohort scaler that the single-group scaler replaced, kept
# verbatim as the reference its output is checked against: only the names
# carry a `reference_` prefix and a namespace stands in for the old scaler.
def reference_fit_single_scaler(table: FeatureTable, reference_label: ClassLabel,
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
    return SimpleNamespace(
        feature_names=table.feature_names,
        median=median,
        iqr=iqr,
        unusable=unusable,
    )


def reference_fit_robust_scaler(table: FeatureTable,
                                reference_label: ClassLabel = ClassLabel.BENIGN,
                                per_cohort: bool = False
                                ) -> RobustScaler | dict[str, RobustScaler]:
    """Median/IQR over reference-class rows; one scaler per cohort when flagged."""
    if not per_cohort:
        return reference_fit_single_scaler(table, reference_label,
                                           f"{reference_label} (all cohorts)")
    scalers: dict[str, RobustScaler] = {}
    for cohort in sorted(set(table.cohort)):
        rows = [i for i, c in enumerate(table.cohort) if c == cohort]
        sub = table.select_rows(rows)
        scalers[cohort] = reference_fit_single_scaler(sub, reference_label,
                                                      f"{reference_label} within {cohort}")
    return scalers


def reference_apply_scaler(scaler: RobustScaler | dict[str, RobustScaler],
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
        raise NoFeaturesLeftError("no usable features left after scaling")

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


def run_scaler(fit, apply, fit_table, apply_table, per_cohort):
    """("fit"/"apply", exception type, message) for a failure, else
    ("ok", scaler, scaled table); warnings are silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stage = "fit"
        try:
            scaler = fit(fit_table, per_cohort=per_cohort)
            stage = "apply"
            return "ok", scaler, apply(scaler, apply_table)
        except Exception as exc:
            return stage, type(exc), str(exc)


def bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def assert_scaler_matches_reference(fit_table, apply_table, per_cohort):
    """The scaler's fields, the scaled table and every exception (type and
    message) are those of the reference; returns the outcome."""
    got = run_scaler(fit_robust_scaler, apply_scaler, fit_table, apply_table, per_cohort)
    want = run_scaler(reference_fit_robust_scaler, reference_apply_scaler,
                      fit_table, apply_table, per_cohort)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1:] == want[1:]
        return got
    (_, scaler, out), (_, ref, ref_out) = got, want
    groups = list(ref.values()) if per_cohort else [ref]
    assert scaler.cohorts == (tuple(ref) if per_cohort else None)
    assert scaler.feature_names == fit_table.feature_names
    for field in ("median", "iqr"):
        want_field = np.array([getattr(s, field) for s in groups])
        assert np.array_equal(bits(getattr(scaler, field)), bits(want_field))
    assert np.array_equal(scaler.unusable, np.any([s.unusable for s in groups], axis=0))
    assert out.feature_names == ref_out.feature_names
    assert np.array_equal(bits(out.values), bits(ref_out.values))
    return got


@st.composite
def scaler_cases(draw):
    """A table to fit on and a table to apply to: 1-3 cohorts, tie-heavy or
    continuous values at magnitudes 1 and 1e+-300, 0-90% blank cells, names
    out of column order. The applied table holds fresh values in a shuffled
    subset of the columns, maybe a feature the scaler lacks, and maybe rows
    of a cohort it lacks."""
    n = draw(st.integers(2, 24))
    p = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    labels = draw(st.lists(st.sampled_from([0, 0, 1]), min_size=n, max_size=n))
    tags = "ABC"[:draw(st.integers(1, 3))]
    cohorts = draw(st.lists(st.sampled_from(tags), min_size=n, max_size=n))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e300]))
    ties = draw(st.booleans())
    blank = draw(st.sampled_from([0.0, 0.0, 0.3, 0.6, 0.9]))

    def matrix(cols):
        values = rng.integers(-2, 3, (n, cols)) if ties else rng.normal(size=(n, cols))
        return np.where(rng.random((n, cols)) < blank, np.nan, values * scale)

    names = [f"f{j}" for j in range(p)][::-1]
    fit_table = make_table(matrix(p), labels, feature_names=names, cohorts=cohorts)
    cols = draw(st.permutations(range(p)))[:draw(st.integers(1, p))]
    apply_names = [names[j] for j in cols] + (["extra"] if draw(st.integers(0, 4)) == 0 else [])
    apply_cohorts = list(cohorts)
    if draw(st.integers(0, 3)) == 0:
        apply_cohorts[draw(st.integers(0, n - 1))] = "D"
    apply_table = make_table(matrix(len(apply_names)), labels, feature_names=apply_names,
                             cohorts=apply_cohorts)
    return fit_table, apply_table


@settings(max_examples=300, deadline=None)
@given(scaler_cases(), st.booleans())
def test_scaler_matches_pooled_and_per_cohort_reference(case, per_cohort):
    assert_scaler_matches_reference(*case, per_cohort)


def test_scaler_matches_reference_on_named_cases():
    rng = np.random.default_rng(21)
    values = rng.normal(size=(12, 3))
    labels = [0, 0, 0, 1] * 3
    cohorts = ["A"] * 4 + ["B"] * 4 + ["C"] * 4
    t = make_table(values, labels, cohorts=cohorts)
    # every pooled and per-cohort scaling succeeds, on the fitted table and
    # on a shuffled subset of its columns
    subset = t.select_features(["f002", "f000"])
    for per_cohort in (False, True):
        assert assert_scaler_matches_reference(t, t, per_cohort)[0] == "ok"
        _, _, out = assert_scaler_matches_reference(t, subset, per_cohort)
        assert out.feature_names == ("f002", "f000")
    # a cohort with no benign row
    no_benign = make_table(values, [0, 0, 0, 1] * 2 + [1] * 4, cohorts=cohorts)
    assert assert_scaler_matches_reference(no_benign, no_benign, True)[1:] == (
        PreprocessError, "no Benign reference samples (Benign within C)")
    assert assert_scaler_matches_reference(no_benign, no_benign, False)[0] == "ok"
    # a feature unusable in one cohort only: dropped when per cohort
    tied = values.copy()
    tied[4:7, 1] = 5.0
    one_cohort = make_table(tied, labels, cohorts=cohorts)
    _, scaler, out = assert_scaler_matches_reference(one_cohort, one_cohort, True)
    assert scaler.unusable.tolist() == [False, True, False]
    assert out.feature_names == ("f000", "f002")
    assert assert_scaler_matches_reference(one_cohort, one_cohort, False)[2].n_features == 3
    # a table cohort the scaler lacks, and a table feature it lacks
    fit_ab = t.select_rows(range(8))
    assert assert_scaler_matches_reference(fit_ab, t, True)[1:] == (
        PreprocessError, "no scaler fitted for cohort 'C'")
    assert assert_scaler_matches_reference(fit_ab, t, False)[0] == "ok"
    assert assert_scaler_matches_reference(subset, t, True)[1:] == (
        PreprocessError, "scaler does not cover features ['f001']")


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
    assert m[0, 1] == 1.0
    assert m[0, 2] == -1.0
    assert np.array_equal(np.diag(m), np.ones(3))
    assert np.array_equal(m, m.T)


def test_spearman_midranks_hand_computed():
    # x={1,2,2,3}, y={1,3,2,4}: midranks x -> {1, 2.5, 2.5, 4}, y -> {1,3,2,4}
    rx = np.array([1.0, 2.5, 2.5, 4.0])
    ry = np.array([1.0, 3.0, 2.0, 4.0])
    expected = np.corrcoef(rx, ry)[0, 1]
    t = make_table(np.column_stack([[1, 2, 2, 3], [1, 3, 2, 4]]), [0, 0, 1, 1])
    m = spearman_matrix(t)
    assert m[0, 1] == pytest.approx(expected, abs=1e-12)
    # by hand: cov 4.5, sd^2 4.5 and 5.0 -> rho = 4.5/sqrt(22.5) = sqrt(0.9)
    assert m[0, 1] == pytest.approx(np.sqrt(0.9), abs=1e-12)


def test_spearman_matches_reference_with_missing():
    # missing cells end at filter_missingness; Spearman refuses them
    rng = np.random.default_rng(14)
    values = rng.normal(size=(30, 4))
    missing = rng.random((30, 4)) < 0.2
    t = make_table(values, rng.integers(0, 2, 30), missing=missing)
    with pytest.raises(PreprocessError, match="fully observed"):
        spearman_matrix(t)
    m = spearman_matrix(make_table(values, t.labels))
    assert np.allclose(m, sps.spearmanr(values).statistic, rtol=0, atol=1e-12)


def test_spearman_monotone_transform_invariance():
    rng = np.random.default_rng(15)
    values = rng.normal(size=(25, 3))
    t1 = make_table(values, rng.integers(0, 2, 25))
    transformed = values.copy()
    transformed[:, 1] = np.exp(transformed[:, 1])  # strictly monotone
    t2 = make_table(transformed, t1.labels)
    m1, m2 = spearman_matrix(t1), spearman_matrix(t2)
    assert np.max(np.abs(m1 - m2)) <= 1e-12


def test_spearman_constant_feature_flagged_zero():
    t = make_table(np.column_stack([np.ones(5), np.arange(5.0)]), [0, 0, 0, 1, 1])
    m = spearman_matrix(t)
    # a pair with a constant feature is undefined and stored as 0
    assert np.array_equal(m, np.eye(2))
    # fewer than three samples: every off-diagonal pair is undefined and 0
    m = spearman_matrix(make_table([[1.0, 2.0, 3.0], [2.0, 1.0, 5.0]], [0, 1]))
    assert np.array_equal(m, np.eye(3))


def test_drop_correlated_duplicate_column():
    values = np.column_stack([np.arange(6.0), np.arange(6.0), np.random.default_rng(1).normal(size=6)])
    t = make_table(values, [0, 0, 0, 1, 1, 1], feature_names=["f1", "f2", "other"])
    m = spearman_matrix(t)
    pruned, removed = drop_correlated(t, m, 0.95)
    assert removed == ["f2"]  # lexicographically later member of the tied pair
    assert pruned.feature_names == ("f1", "other")
    assert not m.flags.writeable
    with pytest.raises(PreprocessError, match="does not match 2 table features"):
        drop_correlated(t.select_features(["f1", "other"]), m, 0.95)


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
    off_diag = m2[~np.eye(pruned.n_features, dtype=bool)]
    assert np.all(np.abs(off_diag) < 0.8)


def reference_drop_correlated(table, rho, threshold):
    """The loop drop_correlated replaced, kept verbatim as the reference its
    removal order and kept table are checked against: it rebuilds and sorts
    the active pairs after every removal."""
    names = list(table.feature_names)
    absrho = np.abs(rho).copy()
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
    rho = np.round(m, decimals) * rng.choice((-1.0, 1.0), size=(p, p))
    rho = np.triu(rho, 1) + np.triu(rho, 1).T + np.eye(p)
    got_table, got_removed = drop_correlated(t, rho, threshold)
    want_table, want_removed = reference_drop_correlated(t, rho, threshold)
    assert got_removed == want_removed
    assert got_table.feature_names == want_table.feature_names
    assert np.array_equal(got_table.values, want_table.values)
