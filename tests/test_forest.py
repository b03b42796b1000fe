import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latefuse import forest as rf
from latefuse.errors import ModelError, PredictError

from conftest import gaussian_table, make_table


def trees_equal(a, b):
    return np.array_equal(a.feature, b.feature) and np.array_equal(a.value, b.value)


def children(tree):
    """Each node's (left, right) child by the breadth-first rule: the k-th
    split has children 2k + 1 and 2k + 2 (a leaf's entries are meaningless)."""
    left = 2 * np.cumsum(tree.feature >= 0) - 1
    return left, left + 1


def test_params_validation():
    with pytest.raises(ModelError):
        rf.ForestParams(mtry=0, ntree=10)
    with pytest.raises(ModelError):
        rf.ForestParams(mtry=2, ntree=0)
    with pytest.raises(ModelError, match="seed -7 is negative"):
        rf.ForestParams(mtry=2, ntree=2, seed=-7)


def test_single_leaf_forest_predicts_balanced_prior():
    t = make_table(np.ones((100, 3)), [0] * 50 + [1] * 50)  # constant: no cut
    fo = rf.fit_forest(t, rf.ForestParams(mtry=2, ntree=1, seed=3))
    tree = fo.trees[0]
    assert len(tree.feature) == 1 and tree.feature[0] == -1
    # per-bootstrap balanced weights make the weighted prior exactly one half
    assert np.allclose(rf.predict_proba(fo, t), 0.5)


def test_perfect_feature_reaches_training_accuracy_one():
    t = gaussian_table(40, 40, 5, shifts={2: 10.0}, seed=1)
    fo = rf.fit_forest(t, rf.ForestParams(mtry=3, ntree=100, seed=5))
    pred = rf.predict_proba(fo, t) >= 0.5
    assert np.mean(pred == (t.labels == 1)) == 1.0


def test_single_class_and_missing_rejected():
    t = gaussian_table(10, 0, 2, seed=2)
    with pytest.raises(ModelError):
        rf.fit_forest(t, rf.ForestParams(mtry=1, ntree=2))
    missing = np.zeros((4, 1), dtype=bool)
    missing[0, 0] = True
    holed = make_table(np.ones((4, 1)), [0, 0, 1, 1], missing=missing)
    with pytest.raises(ModelError):
        rf.fit_forest(holed, rf.ForestParams(mtry=1, ntree=2))


def test_mtry_exceeding_features_rejected():
    t = gaussian_table(10, 10, 3, seed=3)
    with pytest.raises(ModelError):
        rf.fit_forest(t, rf.ForestParams(mtry=4, ntree=2))


def test_sort_key_overflow_rejected(monkeypatch):
    # a block of cells * n * 2**n.bit_length() >= 2**63 would wrap the keys;
    # reached here by an oversized GROW_CELLS and ntree instead of ~4e5 rows
    t = gaussian_table(30, 30, 3, seed=3)
    monkeypatch.setattr(rf, "GROW_CELLS", 2 ** 62)
    monkeypatch.setattr(rf, "_rank_table", None)  # a missed guard fails, not grows
    with pytest.raises(ModelError, match="overflow"):
        rf.fit_forest(t, rf.ForestParams(mtry=2, ntree=2 ** 48))


def test_default_growth_blocks_fit_the_sort_keys_at_s2_size():
    # an MRCV split of the paper's S2 table leaves 4,007 training rows; no
    # block the default budget allows there trips the overflow guard
    blocks = [rf._growth_block(4007, mtry, ntree=10 ** 6) for mtry in range(5, 31)]
    assert blocks[0] == 6 and blocks[-1] == 1


def test_packed_class_counts_widen_past_32_bits():
    # a column's class counts are packed as rows0 + rows1 << n.bit_length(),
    # below (n + 1) << n.bit_length(): at 2**16 rows that passes 2**31, so
    # _key_dtype widens them to 64 bits; int32 counts would wrap and the root
    # would not take its one perfect cut. _growth_block's 64-bit guard holds
    # this bound too, as it is below that of the sort keys
    n = 2 ** 16 + 3
    t = make_table(np.arange(n, dtype=float)[:, None], np.arange(n) >= n // 2)
    assert (n + 1) << n.bit_length() > 2 ** 31
    tree = rf.fit_forest(t, rf.ForestParams(mtry=1, ntree=1, seed=4)).trees[0]
    assert tree.feature.tolist() == [0, -1, -1]
    assert tree.value.tolist() == [n // 2 - 0.5, 0.0, 1.0]


def traced_peak(call):
    """call() and tracemalloc's peak of the memory it allocated."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forest_working_memory(monkeypatch):
    """A memory count, not a time: the traced peak of one fit_forest and of
    one importance pass at the shape of a desk benchmark MRCV split, and of
    scoring a forest forty descent blocks deep."""
    t = gaussian_table(168, 168, 100, shifts={f: 0.5 + 0.1 * f for f in range(8)}, seed=3)
    fo, growth = traced_peak(lambda: rf.fit_forest(t, rf.ForestParams(mtry=10, ntree=25, seed=7)))
    _, importance = traced_peak(lambda: rf.oob_permutation_importance(fo, t))
    # GROW_CELLS and CELLS bound the cells; these bound the bytes per cell.
    # 2.04 and 2.37 MB measured. Growth read 2.24 MB with a shifted copy of
    # the whole rank table per block, 2.77 MB with two prefix sums over
    # every cell and five float64 arrays per scored cut, and 6.06 MB with
    # 64-bit growth keys and rank table; importance 4.31 MB with a list of
    # permutation arrays and a copy of each descent's start nodes
    assert growth <= 2.1e6 and importance <= 2.65e6, (growth, importance)
    # blocks of ten trees, so an array over every (tree, row) pair of the 400
    # trees would outweigh one block's. 0.19 and 0.48 MB measured; 1.32 and
    # 0.81 MB with an ntree x n matrix of per-tree outputs and its cumulative
    # sum, and with every tree's out-of-bag rows derived before the first block
    t = gaussian_table(100, 100, 10, shifts={0: 1.0}, seed=3)
    fo = rf.fit_forest(t, rf.ForestParams(mtry=3, ntree=400, seed=7))
    monkeypatch.setattr(rf, "CELLS", 10 * t.n_samples)
    _, prefix = traced_peak(lambda: rf.prefix_proba(fo, t, [200, 400]))
    _, importance = traced_peak(lambda: rf.oob_permutation_importance(fo, t))
    assert prefix <= 0.3e6 and importance <= 0.6e6, (prefix, importance)


def test_bootstrap_and_oob_structure():
    n = 120
    sizes = []
    for tree_index in range(100):
        _, counts = rf._tree_stream(7, tree_index, n)
        draw = np.random.default_rng([7, tree_index]).integers(0, n, size=n)
        assert np.array_equal(counts, np.bincount(draw, minlength=n))
        boot, oob = np.repeat(np.arange(n), counts), np.flatnonzero(counts == 0)
        assert boot.size == n
        assert not set(boot.tolist()) & set(oob.tolist())
        assert set(boot.tolist()) | set(oob.tolist()) == set(range(n))
        sizes.append(oob.size)
    assert 0.30 * n <= np.mean(sizes) <= 0.44 * n


def test_same_seed_refit_is_identical():
    t = gaussian_table(40, 40, 6, shifts={0: 1.0}, seed=5)
    params = rf.ForestParams(mtry=3, ntree=50, seed=11)
    first = rf.fit_forest(t, params)
    second = rf.fit_forest(t, params)
    assert all(trees_equal(a, b) for a, b in zip(first.trees, second.trees))
    r1 = rf.oob_permutation_importance(first, t)
    r2 = rf.oob_permutation_importance(second, t)
    assert np.array_equal(r1.mean_decrease, r2.mean_decrease)
    assert np.array_equal(r1.normalized, r2.normalized)


def test_predict_is_mean_of_tree_outputs():
    t = gaussian_table(30, 30, 4, shifts={0: 2.0}, seed=6)
    fo = rf.fit_forest(t, rf.ForestParams(mtry=2, ntree=25, seed=13))
    per_tree = np.vstack([reference_tree_predict(tree, t.values) for tree in fo.trees])
    assert np.array_equal(rf.predict_proba(fo, t), per_tree.mean(axis=0))
    assert (per_tree >= 0).all() and (per_tree <= 1).all()


def test_prefix_scores_equal_prefix_forests():
    t = gaussian_table(30, 30, 4, shifts={0: 2.0}, seed=6)
    fo = rf.fit_forest(t, rf.ForestParams(mtry=2, ntree=25, seed=13))
    sizes = [1, 7, 25]
    scores = rf.prefix_proba(fo, t, sizes)
    for k, row in zip(sizes, scores):
        prefix = rf.fit_forest(t, rf.ForestParams(mtry=2, ntree=k, seed=13))
        assert all(trees_equal(a, b) for a, b in zip(prefix.trees, fo.trees))
        assert np.array_equal(row, rf.predict_proba(prefix, t))


@pytest.mark.parametrize("sizes, bad", [([0, 5], 0), ([-1, 5], -1), ([6], 6)])
def test_prefix_sizes_outside_the_forest_rejected(sizes, bad):
    t = gaussian_table(20, 20, 3, seed=14)
    fo = rf.fit_forest(t, rf.ForestParams(mtry=2, ntree=5, seed=43))
    with pytest.raises(PredictError, match=rf"prefix size {bad} is outside 1\.\.5"):
        rf.prefix_proba(fo, t, sizes)


def test_trees_do_not_depend_on_the_block(monkeypatch):
    t = gaussian_table(30, 30, 6, shifts={0: 1.0}, seed=4)
    for params in (rf.ForestParams(mtry=3, ntree=12, seed=5),
                   rf.ForestParams(mtry=2, ntree=12, seed=6)):
        whole = rf.fit_forest(t, params)  # one block under the default GROW_CELLS
        assert rf.GROW_CELLS // (t.n_samples * params.mtry) >= params.ntree
        for cells in (1, 5 * t.n_samples * params.mtry):  # blocks of one tree, of five
            monkeypatch.setattr(rf, "GROW_CELLS", cells)
            blocked = rf.fit_forest(t, params)
            assert all(trees_equal(a, b) for a, b in zip(whole.trees, blocked.trees))
            monkeypatch.undo()


def test_scores_and_importance_do_not_depend_on_the_block(monkeypatch):
    t = gaussian_table(30, 30, 6, shifts={0: 1.0}, seed=4)
    for params in (rf.ForestParams(mtry=3, ntree=12, seed=5),
                   rf.ForestParams(mtry=2, ntree=12, seed=6)):
        fo = rf.fit_forest(t, params)

        def outputs():
            rep = rf.oob_permutation_importance(fo, t)
            # sizes out of order and repeated; in blocks of five trees, 1 ends
            # inside a block, 5 at its end, 6 one past it, 12 in a short block
            return (rf.prefix_proba(fo, t, [1, 5, 12]), rf.prefix_proba(fo, t, [12, 1, 5, 5, 6]),
                    rf.predict_proba(fo, t), rep.mean_decrease, rep.std_error, rep.normalized)

        whole = outputs()  # one block under the default CELLS
        assert rf.CELLS // t.n_samples >= params.ntree
        assert np.array_equal(whole[1][[1, 2, 3, 0]], whole[0][[0, 1, 1, 2]])
        for cells in (1, 5 * t.n_samples, 2 ** 62):  # blocks of one tree, of five, all
            monkeypatch.setattr(rf, "CELLS", cells)
            assert all(np.array_equal(a, b) for a, b in zip(whole, outputs()))
            monkeypatch.undo()


def test_permutation_stream_differs_from_growth_stream(monkeypatch):
    t = gaussian_table(30, 30, 4, shifts={0: 2.0, 1: 1.0}, seed=8)
    fo = rf.fit_forest(t, rf.ForestParams(mtry=2, ntree=10, seed=19))
    first_state = {}  # generator -> its state before its first permutation
    draw = rf._oob_permutations

    def spy(rng, k, m):
        first_state.setdefault(rng, rng.bit_generator.state)
        return draw(rng, k, m)

    monkeypatch.setattr(rf, "_oob_permutations", spy)
    rf.oob_permutation_importance(fo, t)
    growth = [np.random.default_rng([fo.params.seed, i]).bit_generator.state
              for i in range(10)]
    assert len(first_state) == 10  # one generator per tree
    assert not any(state in growth for state in first_state.values())
    for seed in (0, 19, 2**32 + 3, 2**64 - 1):
        for tree_index in (0, 1, 2**20):
            growth = np.random.default_rng([seed, tree_index]).bit_generator.state
            key = [seed, tree_index, rf._PERMUTATION_KEY]
            assert np.random.default_rng(key).bit_generator.state != growth
            # why the key is not 0: SeedSequence pads short entropy with zeros
            assert np.random.default_rng([seed, tree_index, 0]).bit_generator.state == growth


@pytest.mark.parametrize("m", [1, 2, 3, 50])
@pytest.mark.parametrize("k", [0, 1, 4])
def test_one_call_permutations_match_successive_draws(m, k):
    # the importance stream is k successive rng.permutation(m) calls
    one, many = np.random.default_rng([7, m, k]), np.random.default_rng([7, m, k])
    drawn = rf._oob_permutations(one, k, m)
    assert np.array_equal(drawn, np.array([many.permutation(m) for _ in range(k)]).reshape(k, m))
    assert one.bit_generator.state == many.bit_generator.state


def test_identical_feature_vectors_score_identically():
    t = gaussian_table(20, 20, 3, shifts={0: 1.5}, seed=7)
    fo = rf.fit_forest(t, rf.ForestParams(mtry=2, ntree=30, seed=17))
    x = np.vstack([t.values, t.values[:1]])  # repeat the first row
    p = np.mean([reference_tree_predict(tree, x) for tree in fo.trees], axis=0)
    assert p[0] == p[-1]


def test_identity_permutation_gives_exactly_zero(monkeypatch):
    t = gaussian_table(30, 30, 5, shifts={0: 2.0}, seed=8)
    fo = rf.fit_forest(t, rf.ForestParams(mtry=3, ntree=40, seed=19))
    monkeypatch.setattr(rf, "_oob_permutations",
                        lambda rng, k, m: np.tile(np.arange(m), (k, 1)))
    rep = rf.oob_permutation_importance(fo, t)
    assert np.array_equal(rep.mean_decrease, np.zeros(5))
    assert np.array_equal(rep.normalized, np.zeros(5))


def test_unused_feature_importance_exactly_zero():
    # one overwhelming feature; a pure-noise column the trees never split on
    t = gaussian_table(40, 40, 2, shifts={0: 20.0}, seed=9)
    fo = rf.fit_forest(t, rf.ForestParams(mtry=1, ntree=60, seed=23))
    used = set()
    for tree in fo.trees:
        used |= set(tree.feature[tree.feature >= 0].tolist())
    rep = rf.oob_permutation_importance(fo, t)
    for j in range(2):
        if j not in used:
            assert rep.mean_decrease[j] == 0.0 and rep.normalized[j] == 0.0


def test_planted_feature_tops_importance_single_seed():
    t = gaussian_table(60, 60, 10, shifts={4: 2.0}, seed=10)
    fo = rf.fit_forest(t, rf.ForestParams(mtry=3, ntree=200, seed=29))
    rep = rf.oob_permutation_importance(fo, t)
    assert int(np.argmax(rep.normalized)) == 4


def test_gini_split_gains_nonnegative():
    # every accepted split must strictly reduce weighted impurity
    t = gaussian_table(50, 50, 4, shifts={0: 1.0}, seed=12)
    fo = rf.fit_forest(t, rf.ForestParams(mtry=2, ntree=20, seed=37))
    for tree_index, tree in enumerate(fo.trees):
        _, counts = rf._tree_stream(fo.params.seed, tree_index, t.n_samples)
        boot = np.repeat(np.arange(t.n_samples), counts)
        x = t.values[boot]
        y = (t.labels[boot] == 1).astype(float)
        w = np.where(y == 1, y.size / (2 * y.sum()), y.size / (2 * (y.size - y.sum())))
        idx_sets = {0: np.arange(len(boot))}
        lefts, rights = children(tree)
        for node in range(len(tree.feature)):
            if tree.feature[node] < 0:
                continue
            idx = idx_sets[node]
            go_left = x[idx, tree.feature[node]] <= tree.value[node]
            left, right = idx[go_left], idx[~go_left]
            idx_sets[lefts[node]] = left
            idx_sets[rights[node]] = right

            def cost(rows):
                wt = w[rows].sum()
                p1 = (w[rows] * y[rows]).sum() / wt
                return wt * (1 - p1 ** 2 - (1 - p1) ** 2)

            gain = cost(idx) - cost(left) - cost(right)
            assert gain > 0


def test_forest_serialization_round_trip():
    t = gaussian_table(25, 25, 3, shifts={0: 1.5}, seed=13)
    fo = rf.fit_forest(t, rf.ForestParams(mtry=2, ntree=10, seed=41))
    doc = json.loads(json.dumps(rf.to_doc(fo)))
    back = rf.from_doc(doc)
    assert back.params == fo.params
    assert back.feature_names == fo.feature_names
    assert all(trees_equal(a, b) for a, b in zip(fo.trees, back.trees))
    assert np.array_equal(rf.predict_proba(back, t), rf.predict_proba(fo, t))


def test_only_version_4_documents_load():
    t = gaussian_table(25, 25, 3, shifts={0: 1.5}, seed=13)
    doc = json.loads(json.dumps(rf.to_doc(rf.fit_forest(t, rf.ForestParams(mtry=2, ntree=3,
                                                                            seed=41)))))
    assert set(doc["params"]) == {"mtry", "ntree", "seed"}
    assert set(doc["trees"][0]) == {"feature", "value"}
    # version 2 stored each tree's left and right children, version 3 a
    # threshold and a leaf proportion at every node
    for version in (1, 2, 3):
        with pytest.raises(ModelError, match=f"document version {version}; re-run train"):
            rf.from_doc(dict(doc, version=version))
    del doc["params"]["seed"]
    with pytest.raises(KeyError, match="seed"):
        rf.from_doc(doc)


@pytest.mark.parametrize("edit, detail", [
    # node 1 is split 0, whose derived left child is node 1 itself
    (lambda d, t: t.update(feature=[-1, 0, -1], value=[0.5, 0.0, 0.5]), "child index"),
    # 2s nodes for s splits: the last split's right child is past the last node
    (lambda d, t: t.update({name: cells[:-1] for name, cells in t.items()}), "child index"),
    (lambda d, t: t["feature"].__setitem__(0, 3), "feature index"),
    (lambda d, t: t["feature"].__setitem__(0, 0.5), "not an integer"),
    # JSON numbers, not booleans or strings, which numpy would convert
    (lambda d, t: t.update(feature=[True, -1, -1], value=[0.5, 0.2, 1.0]),
     "feature index is not an integer"),
    (lambda d, t: t.update(feature=[0, -1, -1], value=["0.5", 0.2, "1"]), "value is not a number"),
    (lambda d, t: t["value"].__setitem__(-1, True), "tree value is not a number"),
    (lambda d, t: t["value"].pop(), "equal length"),
    # JSON integers past int64 or past the float range
    (lambda d, t: t["feature"].__setitem__(0, 2 ** 70), "out of range"),
    (lambda d, t: t["value"].__setitem__(0, 10 ** 400), "out of range"),
    # values to_doc never writes: a split without a finite threshold, a leaf
    # value that is not a proportion in 0..1, more trees named than held
    (lambda d, t: t["value"].__setitem__(0, math.nan), "split threshold"),
    (lambda d, t: t["value"].__setitem__(0, math.inf), "split threshold"),
    (lambda d, t: t["value"].__setitem__(0, -math.inf), "split threshold"),
    (lambda d, t: t["value"].__setitem__(-1, 2.0), "leaf value"),
    (lambda d, t: t["value"].__setitem__(-1, -1.0), "leaf value"),
    (lambda d, t: t["value"].__setitem__(-1, math.nan), "leaf value"),
    (lambda d, t: t["value"].__setitem__(-1, math.inf), "leaf value"),
    (lambda d, t: d["params"].__setitem__("ntree", 999), "ntree"),
    # a seed or a training size to_doc never writes; with a negative seed,
    # importance would stop on numpy's bare ValueError
    (lambda d, t: d["params"].__setitem__("seed", -7), "seed -7 is negative"),
    (lambda d, t: d.__setitem__("n_train", 0), "n_train 0 is not a positive"),
    # feature names no table can match: repeated, not text, not a list
    (lambda d, t: d["feature_names"].__setitem__(1, d["feature_names"][0]), "distinct names"),
    (lambda d, t: d["feature_names"].__setitem__(2, 3), "distinct names"),
    (lambda d, t: d.__setitem__("feature_names", "f000"), "distinct names"),
])
def test_from_doc_refuses_trees_descend_cannot_walk(edit, detail):
    t = gaussian_table(25, 25, 3, shifts={0: 1.5}, seed=13)
    doc = json.loads(json.dumps(rf.to_doc(rf.fit_forest(t, rf.ForestParams(mtry=2, ntree=3,
                                                                            seed=41)))))
    assert doc["trees"][1]["feature"][0] >= 0  # the root splits
    edit(doc, doc["trees"][1])
    with pytest.raises(ModelError, match=detail):
        rf.from_doc(doc)


def test_importance_requires_the_training_table():
    t = gaussian_table(25, 25, 3, shifts={0: 1.5}, seed=16)
    fo = rf.fit_forest(t, rf.ForestParams(mtry=2, ntree=5, seed=47))
    with pytest.raises(PredictError, match="training table"):
        rf.oob_permutation_importance(fo, t.select_rows(np.arange(t.n_samples - 1)))


def test_feature_mismatch_rejected_at_predict():
    t = gaussian_table(20, 20, 3, seed=14)
    fo = rf.fit_forest(t, rf.ForestParams(mtry=2, ntree=5, seed=43))
    other = gaussian_table(5, 5, 2, seed=15)
    with pytest.raises(PredictError):
        rf.predict_proba(fo, other)


def reference_importance(forest, table):
    """Per-tree, per-feature loop: one descent of every OOB row per permuted
    feature, the permutations drawn one call each, in feature order, from one
    generator per tree."""
    x = np.ascontiguousarray(table.values)
    y = table.labels.astype(np.int8)
    diffs = []
    skipped = 0
    for t, tree in enumerate(forest.trees):
        _, counts = rf._tree_stream(forest.params.seed, t, forest.n_train)
        oob = np.flatnonzero(counts == 0)
        if oob.size == 0:
            skipped += 1
            continue
        xo = x[oob].copy()
        yo = y[oob]
        base_acc = float(np.mean((reference_tree_predict(tree, xo) >= 0.5) == (yo == 1)))
        row = np.zeros(table.n_features)
        rng = np.random.default_rng([forest.params.seed, t, 1])  # one per tree
        for f in sorted(set(tree.feature[tree.feature >= 0].tolist())):
            perm = rng.permutation(oob.size)
            original = xo[:, f].copy()
            xo[:, f] = original[perm]
            perm_acc = float(np.mean((reference_tree_predict(tree, xo) >= 0.5) == (yo == 1)))
            xo[:, f] = original
            row[f] = base_acc - perm_acc
        diffs.append(row)
    d = np.vstack(diffs)
    mean = d.mean(axis=0)
    sd = d.std(axis=0, ddof=1) if d.shape[0] > 1 else np.zeros(table.n_features)
    se = sd / math.sqrt(d.shape[0])
    normalized = np.zeros(table.n_features)
    nz = se > 0
    normalized[nz] = mean[nz] / se[nz]
    degenerate = ~nz & (mean != 0)
    normalized[degenerate] = np.sign(mean[degenerate]) * math.inf
    return mean, se, normalized, skipped


@pytest.mark.parametrize("n_benign, n_malignant, mtry", [
    (45, 35, 1), (45, 35, 5), (60, 20, 1),
    (2, 2, 1),  # tiny n: some trees draw every row and have no OOB rows
])
def test_importance_matches_per_feature_reference(n_benign, n_malignant, mtry):
    t = gaussian_table(n_benign, n_malignant, 8, shifts={0: 1.5, 3: 0.7}, seed=17)
    fo = rf.fit_forest(t, rf.ForestParams(mtry=mtry, ntree=30, seed=53))
    mean, se, normalized, skipped = reference_importance(fo, t)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = rf.oob_permutation_importance(fo, t)
    assert np.array_equal(rep.mean_decrease, mean)
    assert np.array_equal(rep.std_error, se)
    assert np.array_equal(rep.normalized, normalized)
    assert any("no out-of-bag rows" in str(w.message) for w in caught) == (skipped > 0)
    if n_benign + n_malignant == 4:
        assert skipped > 0


def test_single_leaf_trees_have_zero_importance():
    t = make_table(np.ones((80, 8)), [0] * 40 + [1] * 40)  # constant: no used feature
    fo = rf.fit_forest(t, rf.ForestParams(mtry=5, ntree=30, seed=53))
    assert all(tree.feature.size == 1 for tree in fo.trees)
    rep = rf.oob_permutation_importance(fo, t)
    mean, se, normalized, _ = reference_importance(fo, t)
    assert np.array_equal(rep.mean_decrease, mean) and np.array_equal(rep.normalized, normalized)
    assert np.array_equal(rep.normalized, np.zeros(8))


@pytest.mark.parametrize("lo, hi", [
    # adjacent doubles, lo with an odd mantissa: the midpoint rounds onto hi
    (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)),
    (1e308, 1.5e308),  # lo + hi overflows to +inf
    (-1.5e308, -1e308),  # lo + hi overflows to -inf
])
def test_split_between_values_without_a_midpoint(lo, hi):
    t = make_table([[lo]] * 10 + [[hi]] * 10, [0] * 10 + [1] * 10)
    fo = rf.fit_forest(t, rf.ForestParams(mtry=1, ntree=5, seed=3))
    for tree in fo.trees:
        assert tree.feature[0] == 0 and lo <= tree.value[0] < hi
    assert np.array_equal(rf.predict_proba(fo, t), t.labels.astype(float))


def reference_tree(x, y, params, t, rejected=None):
    """Tree t of fit_forest grown alone by a plain breadth-first builder of
    the stream layout: n bootstrap rows drawn first from the (seed, t)
    generator, then per level one draw of mtry features for each splittable
    node of the level,
    and per node a scan over the cuts between distinct values with the class
    counts on each side. The Gini gains of best cuts turned down by the rule
    gain > 1e-12 are appended to `rejected`. The builder numbers each split's
    children itself and asserts they are the ones Tree derives."""
    n, p = x.shape
    rng = np.random.default_rng([params.seed, t])
    boot = rng.integers(0, n, size=n)
    # balanced weights n / (2 n_c) of the bootstrap, 0 for a class it lacks
    n1 = int(y[boot].sum())
    c0, c1 = (n / (2 * m) if m else 0.0 for m in (n - n1, n1))
    feature, value, left, right = [], [], [], []
    level = [boot]  # bootstrap rows of each node, duplicates included
    while level:
        splittable = []
        for rows in level:
            n1 = int(y[rows].sum())
            n0 = rows.size - n1
            splittable.append((len(feature), rows, n0, n1))
            feature.append(-1)
            value.append(n1 * c1 / (n0 * c0 + n1 * c1))  # a split's threshold replaces it
            left.append(-1)
            right.append(-1)
        splittable = [s for s in splittable if s[2] and s[3]]
        draws = rng.random((len(splittable), p))
        level = []
        for (node, rows, n0, n1), u in zip(splittable, draws):
            w0, w1 = n0 * c0, n1 * c1
            best = None
            # the features of the mtry smallest draws, in draw order; draws
            # are compared on their top 53 bits (fewer when p > 1023), then
            # by feature index
            shift = max(0, p.bit_length() - 10)
            drawn = sorted(range(p), key=lambda f: (int(u[f] * 2.0 ** 53) >> shift, f))
            for f in drawn[:params.mtry]:
                values = sorted(set(x[rows, f].tolist()))
                for lo, hi in zip(values, values[1:]):
                    go_left = x[rows, f] <= lo
                    nl = int(go_left.sum())
                    l1 = int(y[rows][go_left].sum())
                    # halved Gini of each side from its class weights; the
                    # right side's are the node's minus the left side's
                    a0, a1 = (nl - l1) * c0, l1 * c1
                    b0, b1 = w0 - a0, w1 - a1
                    cost = a0 * a1 / (a0 + a1) + b0 * b1 / (b0 + b1)
                    if best is None or cost < best[0]:
                        mid = (lo + hi) / 2.0
                        best = (cost, int(f), mid if lo <= mid < hi else lo, go_left)
            if best is None:
                continue
            gain = 2 * (w0 * w1 / (w0 + w1) - best[0])  # twice the halved Gini
            if not gain > 1e-12:
                if rejected is not None:
                    rejected.append(gain)
                continue
            _, feature[node], value[node], go_left = best
            left[node] = len(feature) + len(level)
            right[node] = left[node] + 1
            level += [rows[go_left], rows[~go_left]]
    tree = rf.Tree(
        feature=np.asarray(feature, dtype=np.int64),
        value=np.asarray(value, dtype=float),
    )
    split = tree.feature >= 0
    assert all((np.asarray(own)[split] == derived[split]).all()
               for own, derived in zip((left, right), children(tree)))
    return tree


def reference_trees(table, params, rejected=None):
    x = np.ascontiguousarray(table.values)
    y = table.labels.astype(np.int8)
    return [reference_tree(x, y, params, t, rejected) for t in range(params.ntree)]


def reference_tree_predict(tree, x):
    left, right = children(tree)
    node = np.zeros(x.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[node]
        live = np.flatnonzero(feat >= 0)
        if live.size == 0:
            return tree.value[node]
        go_left = x[live, feat[live]] <= tree.value[node[live]]
        node[live[go_left]] = left[node[live[go_left]]]
        node[live[~go_left]] = right[node[live[~go_left]]]


@st.composite
def forest_cases(draw):
    """Tables on a grid of quarters. Small grids give heavy ties;
    some columns copy or mirror others, so gains tie across features; some
    columns are constant; some rows copy others, with either label."""
    n = draw(st.integers(2, 40))
    n_feat = draw(st.integers(1, 6))
    levels = draw(st.sampled_from([1, 2, 3, 8, 64]))
    cells = draw(st.lists(st.integers(-levels, levels), min_size=n * n_feat,
                          max_size=n * n_feat))
    values = np.asarray(cells, dtype=float).reshape(n, n_feat) / 4.0
    for src, dst, sign in draw(st.lists(st.tuples(st.integers(0, n_feat - 1),
                                                  st.integers(0, n_feat - 1),
                                                  st.sampled_from([1.0, -1.0])),
                                        max_size=n_feat)):
        values[:, dst] = sign * values[:, src]
    for j in draw(st.sets(st.integers(0, n_feat - 1))):
        values[:, j] = values[0, j]
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=n)):
        values[dst] = values[src]
    n_pos = draw(st.integers(1, n - 1))
    labels = np.zeros(n, dtype=np.int8)
    labels[draw(st.permutations(range(n)))[:n_pos]] = 1
    params = rf.ForestParams(mtry=draw(st.integers(1, n_feat)),
                             ntree=draw(st.integers(1, 4)),
                             seed=draw(st.integers(0, 2**32 - 1)))
    return make_table(values, labels), params


@settings(max_examples=150, deadline=None)
@given(forest_cases())
def test_trees_match_reference_builder(case):
    table, params = case
    fo = rf.fit_forest(table, params)
    reference = reference_trees(table, params)
    assert len(fo.trees) == len(reference)
    assert all(trees_equal(a, b) for a, b in zip(fo.trees, reference))
    # rows on the grid, rows at the cuts and rows off both
    x = np.vstack([table.values, table.values + 0.125, table.values - 0.3])
    stack, left, roots = rf._stack(fo.trees)
    leaf = rf.descend(stack, left, x, np.repeat(roots, len(x)), lambda i, f: i % len(x))
    per_tree = stack.value[leaf].reshape(len(fo.trees), len(x))
    for tree, prob in zip(fo.trees, per_tree):
        assert np.array_equal(prob, reference_tree_predict(tree, x))


def test_wide_table_trees_match_reference_builder():
    # p = 1,000 at mtry 30: each level gathers its drawn features' ranks from
    # a wide rank table
    table = gaussian_table(30, 30, 1000)
    params = rf.ForestParams(mtry=30, ntree=6, seed=5)
    assert all(trees_equal(a, b) for a, b in zip(rf.fit_forest(table, params).trees,
                                                 reference_trees(table, params)))


def test_cut_with_rounding_sized_gain_is_not_taken():
    # binary columns: some best cuts leave both sides with the parent's class
    # proportions, and their computed gain is a rounding residue above 0
    x = [[0, 0], [1, 1], [0, 0], [0, 1], [0, 1], [0, 0], [0, 0], [1, 0], [1, 1],
         [1, 1], [0, 1], [0, 0], [1, 1], [0, 0], [0, 1], [1, 1], [1, 0]]
    y = [0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1]
    table = make_table(np.asarray(x, dtype=float), y)
    params = rf.ForestParams(mtry=2, ntree=5, seed=98)
    rejected = []
    reference = reference_trees(table, params, rejected)
    assert any(0 < gain <= 1e-12 for gain in rejected)
    assert all(trees_equal(a, b) for a, b in zip(rf.fit_forest(table, params).trees, reference))


RUNS = np.repeat([0, 1, 0, 1, 0], [40, 15, 30, 20, 15])  # long same-class runs


@pytest.mark.parametrize("x, y", [
    # integer columns, one with a rank per row, one in groups of ten
    (np.c_[np.arange(120), np.arange(120) // 10], RUNS),
    # equal class counts; the seed gives four trees a balanced bootstrap
    (np.c_[np.arange(120) % 40, np.arange(120)], np.repeat([0, 1, 0, 1], 30)),
    # every row twice, once with each label: each rank group is mixed
    (np.tile(np.c_[np.arange(60) % 17, np.arange(60)], (2, 1)),
     np.r_[RUNS[::2], 1 - RUNS[::2]]),
    # a constant column beside an integer one
    (np.c_[np.zeros(120), np.arange(120) // 3], RUNS),
], ids=["runs", "balanced", "mixed-ties", "constant"])
def test_boundary_cuts_match_the_all_cuts_reference(x, y):
    # _grow_block scores only cuts at class or tie boundaries; the reference
    # scans every cut between distinct values
    table = make_table(np.asarray(x, dtype=float), y)
    for mtry in (1, 2):
        params = rf.ForestParams(mtry=mtry, ntree=16, seed=36)
        reference = reference_trees(table, params)
        assert all(trees_equal(a, b) for a, b in zip(rf.fit_forest(table, params).trees,
                                                     reference))
    if 2 * y.sum() == y.size:  # some bootstraps weigh both classes alike
        assert any(2 * (rf._tree_stream(36, t, y.size)[1] @ y) == y.size for t in range(16))


@pytest.mark.parametrize("mtry", [1, 3])
def test_key_widths_grow_the_same_trees(monkeypatch, mtry):
    # _grow_block types its packed class counts and each level's keys by
    # _key_dtype of their bound. Keys that are int32 wherever they fit (the
    # default), int64 everywhere, or int32 only below 2**13 (here the counts
    # and some levels) grow the reference's trees. Tree 0 draws a row 8 or
    # more times, so the block's multiplicity field is 4 bits wide.
    t = gaussian_table(20, 20, 5, shifts={0: 1.0, 2: 0.5}, seed=21)
    params = rf.ForestParams(mtry=mtry, ntree=6, seed=508)
    assert rf._tree_stream(params.seed, 0, t.n_samples)[1].max() >= 8
    reference = reference_trees(t, params)
    policies = [(rf._key_dtype, {np.int32}),
                (lambda bound: np.int64, {np.int64}),
                (lambda bound: np.int32 if bound < 2 ** 13 else np.int64, {np.int32, np.int64})]
    for policy, want in policies:
        widths = set()

        def recorded(bound, policy=policy):
            width = policy(bound)
            widths.add(width)
            return width

        monkeypatch.setattr(rf, "_key_dtype", recorded)
        fo = rf.fit_forest(t, params)
        monkeypatch.undo()
        assert widths == want
        assert all(trees_equal(a, b) for a, b in zip(fo.trees, reference))


@settings(max_examples=150, deadline=None)
@given(forest_cases())
def test_importance_matches_reference(case):
    table, params = case
    fo = rf.fit_forest(table, params)
    # a tree that draws every row has no out-of-bag rows
    skipped = sum(rf._tree_stream(params.seed, t, table.n_samples)[1].all()
                  for t in range(params.ntree))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if skipped == params.ntree:
            with pytest.raises(ModelError, match="no tree had out-of-bag rows"):
                rf.oob_permutation_importance(fo, table)
        else:
            rep = rf.oob_permutation_importance(fo, table)
    assert any("no out-of-bag rows" in str(w.message) for w in caught) == (skipped > 0)
    if skipped < params.ntree:
        mean, se, normalized, ref_skipped = reference_importance(fo, table)
        assert ref_skipped == skipped
        assert np.array_equal(rep.mean_decrease, mean)
        assert np.array_equal(rep.std_error, se)
        assert np.array_equal(rep.normalized, normalized)


def stable_rank_table(x):
    """_rank_table with a stable sort, the reference for the default sort."""
    n, p = x.shape
    order = x.argsort(axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    new = np.ones((n, p), dtype=bool)
    new[1:] = xs[1:] != xs[:-1]
    rank = np.empty((n, p), dtype=np.int64)
    np.put_along_axis(rank, order, np.maximum.accumulate(
        np.where(new, np.arange(n)[:, None], 0), axis=0), axis=0)
    return rank.T.ravel(), xs.T.ravel()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_rank_table_matches_a_stable_sort(n, p, seed):
    # tie-heavy columns, -0.0 beside 0.0; values compare with ==, as a sort
    # may place either zero first
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.5, -0.0, 0.0, 2.0, 7.0], (n, p))
    x[:, 0] = rng.integers(0, max(1, n // 8), n)
    rank, value = rf._rank_table(x)
    want_rank, want_value = stable_rank_table(x)
    assert np.array_equal(rank, want_rank)
    assert np.array_equal(value, want_value)
