import math
import pickle
import warnings

import numpy as np
import pytest

from latefuse import forest as rf
from latefuse import mrcv
from latefuse.errors import ElbowError, SplitError
from latefuse.metrics import best_threshold_bacc, confusion, metrics_from_confusion
from latefuse.mrcv import (FeatureRanking, FoldOutcome, derive_seed, elbow_cut,
                           final_rf_params, rank_features_lr, rank_features_rf, run_mrcv_lr,
                           run_mrcv_rf, stratified_split)
from latefuse.reports import folds_csv

from conftest import class_counts, gaussian_table


def outcome(repeat=0, bacc_val=0.8, order=None, importances=None, error=None):
    return FoldOutcome(repeat_index=repeat, n_train=0, n_validation=0,
                       bacc_train=0.9, bacc_validation=bacc_val, threshold=0.5,
                       lr_selected_order=order, importances=importances, error=error)


def ranking(*pairs):
    return FeatureRanking(entries=tuple(pairs))


# ------------------------------------------------------------ stratified_split

def test_split_exact_proportions():
    t = gaussian_table(100, 100, 2, seed=0)
    train, val = stratified_split(t, 0.3, seed=1)
    assert class_counts(val) == (30, 30)
    assert class_counts(train) == (70, 70)


def test_split_published_cohort_rounding():
    # 103 per class at 30 percent -> 31 validation rows per class
    t = gaussian_table(103, 103, 2, seed=1)
    _, val = stratified_split(t, 0.3, seed=2)
    assert class_counts(val) == (31, 31)


def test_split_disjoint_exhaustive_order_preserved():
    t = gaussian_table(20, 15, 2, seed=2)
    train, val = stratified_split(t, 0.25, seed=3)
    assert set(train.sample_ids) | set(val.sample_ids) == set(t.sample_ids)
    assert not set(train.sample_ids) & set(val.sample_ids)
    pos = {s: i for i, s in enumerate(t.sample_ids)}
    assert [pos[s] for s in train.sample_ids] == sorted(pos[s] for s in train.sample_ids)
    assert [pos[s] for s in val.sample_ids] == sorted(pos[s] for s in val.sample_ids)


def test_split_seed_determinism():
    t = gaussian_table(30, 30, 2, seed=3)
    a1 = stratified_split(t, 0.3, seed=7)[1].sample_ids
    a2 = stratified_split(t, 0.3, seed=7)[1].sample_ids
    b = stratified_split(t, 0.3, seed=8)[1].sample_ids
    assert a1 == a2
    assert a1 != b


def test_split_validation():
    t = gaussian_table(10, 1, 2, seed=4)
    with pytest.raises(SplitError):
        stratified_split(t, 0.3, seed=1)
    good = gaussian_table(10, 10, 2, seed=5)
    with pytest.raises(SplitError):
        stratified_split(good, 0.0, seed=1)
    with pytest.raises(SplitError):
        stratified_split(good, 1.0, seed=1)


# ------------------------------------------------------------------ MRCV runs

def test_mrcv_lr_planted_signal():
    t = gaussian_table(80, 80, 8, shifts={0: 2.5, 1: 2.0}, seed=6)
    outs = run_mrcv_lr(t, repeats=15, base_seed=42)
    assert len(outs) == 15
    assert all(o.error is None for o in outs)
    mean_val = np.mean([o.bacc_validation for o in outs])
    assert mean_val > 0.8
    for o in outs:
        assert (o.n_train, o.n_validation) == (112, 48)


def test_mrcv_lr_null_signal_near_chance():
    t = gaussian_table(60, 60, 6, seed=7)
    outs = run_mrcv_lr(t, repeats=15, base_seed=43)
    mean_val = np.mean([o.bacc_validation for o in outs])
    assert 0.4 <= mean_val <= 0.6


def test_mrcv_lr_single_repeat_matches_forward_select():
    from latefuse import logreg as lr
    from latefuse.metrics import best_threshold_bacc
    t = gaussian_table(50, 50, 5, shifts={2: 2.0}, seed=8)
    outs = run_mrcv_lr(t, repeats=1, base_seed=44)
    assert len(outs) == 1
    out = outs[0]
    train, val = stratified_split(t, 0.3, [44, 0])
    assert (out.n_train, out.n_validation) == (train.n_samples, val.n_samples)
    model = lr.forward_select(train, list(t.feature_names))
    assert out.lr_selected_order == model.selected_order
    thr, bacc = best_threshold_bacc(lr.predict_proba(model, train), train.labels)
    assert out.threshold == thr and out.bacc_train == bacc


def test_mrcv_lr_determinism():
    t = gaussian_table(40, 40, 4, shifts={0: 1.5}, seed=9)
    outs1 = run_mrcv_lr(t, repeats=5, base_seed=11)
    outs2 = run_mrcv_lr(t, repeats=5, base_seed=11)
    assert outs1 == outs2


def test_mrcv_rf_grid_selection_and_importances():
    t = gaussian_table(50, 50, 6, shifts={0: 2.0}, seed=10)
    outs = run_mrcv_rf(t, repeats=4, mtry=(2, 3), ntree=(20, 40), base_seed=12)
    assert len(outs) == 4
    for o in outs:
        assert o.error is None
        assert o.chosen_params["mtry"] in (2, 3)
        assert set(o.importances) == set(t.feature_names)


def test_mrcv_rf_single_grid_point_records_it():
    t = gaussian_table(30, 30, 4, shifts={0: 2.0}, seed=11)
    outs = run_mrcv_rf(t, repeats=3, mtry=(2,), ntree=(15,), base_seed=13)
    assert all(o.chosen_params == {"mtry": 2, "ntree": 15} for o in outs)


def test_mrcv_rf_oversized_mtry_skipped():
    t = gaussian_table(30, 30, 3, shifts={0: 2.0}, seed=12)
    with pytest.warns(UserWarning, match="skipped"):
        outs = run_mrcv_rf(t, repeats=2, mtry=(2, 30), ntree=(10,), base_seed=14)
    assert all(o.chosen_params["mtry"] == 2 for o in outs)


def test_mrcv_rf_nested_ntree_grid_grows_the_largest_forest_once(monkeypatch):
    t = gaussian_table(40, 40, 6, shifts={0: 1.2, 1: 0.8}, seed=21)
    grown = []
    fit = rf.fit_forest

    def counting_fit(table, params):
        grown.append((params.mtry, params.ntree))
        return fit(table, params)

    monkeypatch.setattr(rf, "fit_forest", counting_fit)
    outs = run_mrcv_rf(t, repeats=4, mtry=(5,), ntree=(25, 50), base_seed=18)
    assert grown == [(5, 50)] * 4
    monkeypatch.undo()
    for r, out in enumerate(outs):
        # each grid point fitted as its own forest, first point wins ties
        train, val = stratified_split(t, 0.2, [18, r])
        best = None
        for ntree in (25, 50):
            fo = rf.fit_forest(train, rf.ForestParams(mtry=5, ntree=ntree,
                                                      seed=derive_seed(18, r, 5)))
            thr, bacc_tr = best_threshold_bacc(rf.predict_proba(fo, train), train.labels)
            bacc_val = metrics_from_confusion(
                confusion(rf.predict_proba(fo, val), val.labels, thr)).balanced_accuracy
            if best is None or bacc_val > best[0]:
                best = (bacc_val, bacc_tr, thr, fo)
        bacc_val, bacc_tr, thr, fo = best
        assert (out.bacc_validation, out.bacc_train, out.threshold) == (bacc_val, bacc_tr, thr)
        assert out.chosen_params == {"mtry": 5, "ntree": fo.params.ntree}
        report = rf.oob_permutation_importance(fo, train)
        assert out.importances == {name: float(v) for name, v
                                   in zip(report.feature_names, report.normalized)}
    assert {o.chosen_params["ntree"] for o in outs} == {25, 50}  # both prefixes kept


def test_mrcv_rf_repeated_grid_values_count_once(monkeypatch):
    """A value repeated in mtry or ntree is one grid point, where it first
    appears: one forest per distinct mtry per repeat, and the same outcomes
    and vote as the grid without the repeats."""
    t = gaussian_table(40, 40, 6, shifts={0: 1.2, 1: 0.8}, seed=22)
    grown = []
    fit = rf.fit_forest

    def counting_fit(table, params):
        grown.append((params.mtry, params.ntree))
        return fit(table, params)

    monkeypatch.setattr(rf, "fit_forest", counting_fit)
    outs = run_mrcv_rf(t, repeats=3, mtry=(5, 3, 5), ntree=(25, 50, 25), base_seed=19)
    assert grown == [(5, 50), (3, 50)] * 3
    assert outs == run_mrcv_rf(t, repeats=3, mtry=(5, 3), ntree=(25, 50), base_seed=19)
    assert (final_rf_params((5, 3, 5), (25, 50, 25), outs, t.feature_names, 7)
            == final_rf_params((5, 3), (25, 50), outs, t.feature_names, 7))


def test_mrcv_repeat_is_a_picklable_function_of_plain_values():
    """Each repeat is a module-level function of plain values that survives a
    pickle round trip, as a process pool sends it; computed alone, and in
    reverse order, repeat r equals outcome r of the run."""
    t = gaussian_table(30, 30, 4, shifts={0: 1.5}, seed=23)
    for outs, fraction, fold, params in [
            (run_mrcv_lr(t, repeats=3, base_seed=24), 0.3, mrcv._lr_fold, (2.0,)),
            (run_mrcv_rf(t, repeats=3, mtry=(2, 3), ntree=(10, 20), base_seed=24), 0.2,
             mrcv._rf_fold, ([2, 3], [10, 20]))]:
        calls = [pickle.loads(pickle.dumps((mrcv._repeat, (t, r, fraction, 24, fold, *params))))
                 for r in reversed(range(3))]
        assert [repeat(*args) for repeat, args in calls][::-1] == outs
        assert all(o.error is None for o in outs)


def test_mrcv_planted_beats_null_at_same_seed():
    planted = gaussian_table(50, 50, 5, shifts={0: 2.5}, seed=13)
    null = gaussian_table(50, 50, 5, seed=13)
    out_p = run_mrcv_rf(planted, repeats=3, mtry=(2,), ntree=(30,), base_seed=15)
    out_n = run_mrcv_rf(null, repeats=3, mtry=(2,), ntree=(30,), base_seed=15)
    assert np.mean([o.bacc_validation for o in out_p]) \
        >= np.mean([o.bacc_validation for o in out_n])


def test_mrcv_flags_every_repeat_of_an_unsplittable_table():
    """A single class-1 row fails every split; both families record each
    repeat as flagged instead of aborting."""
    t = gaussian_table(10, 1, 3, seed=14)
    error = "class 1 has fewer than 2 samples"
    for outs in (run_mrcv_lr(t, repeats=2, base_seed=16),
                 run_mrcv_rf(t, repeats=2, mtry=(2,), ntree=(10,), base_seed=16)):
        assert [o.repeat_index for o in outs] == [0, 1]
        for o in outs:
            assert o.error == error
            assert np.isnan([o.bacc_train, o.bacc_validation, o.threshold]).all()
            assert (o.n_train, o.n_validation) == (0, 0)
            assert (o.lr_selected_order, o.importances, o.chosen_params) == (None, None, None)
        assert folds_csv(outs).splitlines()[2:] == [f"{r},0,0,NA,NA,NA,,{error}"
                                                    for r in (0, 1)]


# -------------------------------------------------------------------- ranking

def test_rank_lr_hand_computed():
    outs = [outcome(order=("A", "B"), bacc_val=0.8)]
    r = rank_features_lr(outs, ["A", "B"])
    assert dict(r.entries) == {"A": pytest.approx(0.8), "B": pytest.approx(0.4)}


def test_rank_lr_unselected_scores_zero():
    outs = [outcome(order=("A",), bacc_val=0.9)]
    r = rank_features_lr(outs, features=["A", "B"])
    assert dict(r.entries)["B"] == 0.0


def test_rank_lr_additive_over_folds():
    one = [outcome(order=("A", "B"), bacc_val=0.8)]
    two = one + [outcome(repeat=1, order=("A", "B"), bacc_val=0.8)]
    r1 = dict(rank_features_lr(one, ["A", "B"]).entries)
    r2 = dict(rank_features_lr(two, ["A", "B"]).entries)
    assert r2 == {k: pytest.approx(2 * v) for k, v in r1.items()}


def test_rank_lr_order_invariant_and_skips_errors():
    a = outcome(order=("A",), bacc_val=0.7)
    b = outcome(repeat=1, order=("B", "A"), bacc_val=0.6)
    bad = outcome(repeat=2, error="boom")
    assert rank_features_lr([a, b, bad], "AB") == rank_features_lr([bad, b, a], "AB")


def test_rank_rf_mean_with_missing_as_zero():
    outs = [outcome(importances={"A": 2.0, "B": 0.0}),
            outcome(repeat=1, importances={"A": 0.0, "B": 4.0})]
    r = rank_features_rf(outs, ["A", "B"])
    assert dict(r.entries) == {"A": pytest.approx(1.0), "B": pytest.approx(2.0)}
    assert r.names()[0] == "B"


def test_rank_rf_single_repeat_is_that_report():
    outs = [outcome(importances={"A": 1.0, "B": 3.0, "C": 2.0})]
    r = rank_features_rf(outs, ["A", "B", "C"])
    assert r.names() == ["B", "C", "A"]


def test_rank_all_zero_scores_lexicographic():
    outs = [outcome(importances={"b": 0.0, "a": 0.0, "c": 0.0})]
    r = rank_features_rf(outs, ["b", "a", "c"])
    assert r.names() == ["a", "b", "c"]
    assert r.scores() == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------- elbow

def test_elbow_plateau_then_cliff():
    r = ranking(("a", 10.0), ("b", 9.0), ("c", 8.0), ("d", 1.0),
                ("e", 0.9), ("f", 0.8))
    assert elbow_cut(r) == ["a", "b", "c"]


def test_elbow_steep_drop_keeps_top():
    r = ranking(("a", 5.0), ("b", 1.0), ("c", 0.9))
    assert elbow_cut(r) == ["a"]


def test_elbow_linear_decay_warns_first_feature():
    r = ranking(("a", 4.0), ("b", 3.0), ("c", 2.0), ("d", 1.0))
    with pytest.warns(UserWarning, match="linear"):
        assert elbow_cut(r) == ["a"]


def test_elbow_rejects_degenerate_inputs():
    with pytest.raises(ElbowError):
        elbow_cut(ranking(("a", 2.0), ("b", 1.0)))
    with pytest.raises(ElbowError):
        elbow_cut(ranking(("a", 1.0), ("b", 1.0), ("c", 1.0)))


@pytest.mark.parametrize("at, bad", [(0, math.inf), (3, -math.inf), (1, math.nan)])
def test_elbow_refuses_a_score_that_is_not_finite(at, bad):
    # a one-tree forest's normalized importances are infinite or NaN
    scores = [3.0, 2.0, 1.5, 1.0]
    scores[at] = bad
    r = ranking(*zip("abcd", scores))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ElbowError, match=f"no elbow: the score {bad} of feature "
                                             f"'{'abcd'[at]}' is not finite"):
            elbow_cut(r)


def test_elbow_keeps_planted_features_across_seeds():
    hits = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # occasional separation on strong plants
        for seed in range(10):
            t = gaussian_table(70, 70, 12, shifts={0: 2.6, 1: 2.2}, seed=seed)
            outs = run_mrcv_lr(t, repeats=20, base_seed=seed)
            ranking = rank_features_lr(outs, t.feature_names)
            selected = set(elbow_cut(ranking))
            hits += {"f000", "f001"} <= selected
    assert hits >= 9


def test_elbow_output_is_prefix():
    rng = np.random.default_rng(50)
    for _ in range(30):
        scores = np.sort(rng.random(int(rng.integers(3, 15))))[::-1]
        if scores[0] == scores[-1]:
            continue
        names = [f"f{i}" for i in range(scores.size)]
        r = ranking(*zip(names, scores.tolist()))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            cut = elbow_cut(r)
        assert cut == names[: len(cut)]
        assert 1 <= len(cut) < scores.size
