"""Random forest of CART-style trees with class-weighted Gini splits.

Determinism contract: every tree draws all of its randomness from a stream
derived from (forest seed, tree index), and the permutation pass for feature
f in tree t from (forest seed, t, f). Results are therefore bit-identical
for a given seed, and a tree's bootstrap and out-of-bag rows follow from
(seed, tree index, n_train), so a forest does not store them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, PredictError
from .tables import FeatureTable


@dataclass(frozen=True)
class ForestParams:
    mtry: int
    ntree: int
    min_leaf: int = 1
    seed: int = 0
    weighted: bool = True  # balanced class weighting inside Gini and leaves

    def __post_init__(self) -> None:
        if self.mtry < 1 or self.ntree < 1 or self.min_leaf < 1:
            raise ModelError("mtry, ntree, and min_leaf must all be >= 1")


@dataclass(frozen=True)
class Tree:
    """Flat node arrays; feature == -1 marks a leaf. leaf_prob is the
    class-weighted positive proportion of the node's bootstrap rows."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    leaf_prob: np.ndarray

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        node = np.zeros(x.shape[0], dtype=np.int64)
        live = np.flatnonzero(self.feature[node] >= 0)
        while live.size:
            at = node[live]
            node[live] = nxt = np.where(x[live, self.feature[at]] <= self.threshold[at],
                                        self.left[at], self.right[at])
            live = live[self.feature[nxt] >= 0]
        return self.leaf_prob[node]


@dataclass(frozen=True)
class Forest:
    trees: tuple[Tree, ...]
    feature_names: tuple[str, ...]
    params: ForestParams
    class_weights: dict[int, float]
    n_train: int


@dataclass(frozen=True)
class ImportanceReport:
    feature_names: tuple[str, ...]
    mean_decrease: np.ndarray
    std_error: np.ndarray
    normalized: np.ndarray  # mean/SE; 0 when both are 0, +/-inf flagged when SE=0


class _TreeBuilder:
    def __init__(self, x: np.ndarray, y: np.ndarray, weights: np.ndarray,
                 mtry: int, min_leaf: int, rng: np.random.Generator):
        self.x, self.y, self.w = x, y, weights
        self.w1 = weights * (y == 1)  # each row's weight toward the positive class
        self.mtry, self.min_leaf, self.rng = mtry, min_leaf, rng
        self.cols = np.arange(mtry)
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.prob: list[float] = []

    def build(self) -> Tree:
        self._grow(np.arange(self.x.shape[0]))
        return Tree(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=float),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            leaf_prob=np.asarray(self.prob, dtype=float),
        )

    def _new_node(self, w1: float, wt: float) -> int:
        self.feature.append(-1)
        self.threshold.append(math.nan)
        self.left.append(-1)
        self.right.append(-1)
        self.prob.append(w1 / wt)
        return len(self.feature) - 1

    def _grow(self, idx: np.ndarray) -> int:
        y = self.y[idx]
        w = self.w[idx]
        wt = float(w.sum())
        w1 = float(w[y == 1].sum())
        node = self._new_node(w1, wt)
        if idx.size < 2 * self.min_leaf or y.min() == y.max():
            return node
        split = self._best_split(idx, w1, wt)
        if split is None:
            return node
        feat, thr = split
        go_left = self.x[idx, feat] <= thr
        self.feature[node] = feat
        self.threshold[node] = thr
        self.left[node] = self._grow(idx[go_left])
        self.right[node] = self._grow(idx[~go_left])
        return node

    def _best_split(self, idx: np.ndarray, w1: float, wt: float) -> tuple[int, float] | None:
        """Weighted-Gini search over mtry sampled features; None if no split
        strictly reduces impurity while honoring min_leaf on both sides.

        Gain ties resolve to the earliest feature in draw order, then the
        lowest cut position, so the result is a pure function of the rng.
        The cut lies between adjacent distinct sorted values lo < hi, at their
        midpoint, or at lo when the midpoint rounds onto hi (or overflows), so
        the rows sent left are exactly those the search evaluated.
        """
        n = idx.size
        feats = self.rng.choice(self.x.shape[1], size=self.mtry, replace=False)
        xs = self.x[idx[:, None], feats]  # (n, mtry)
        order = xs.argsort(axis=0, kind="stable")
        xso = xs[order, self.cols]
        rows = idx[order]
        wl = self.w[rows].cumsum(axis=0)[:-1]
        w1l = self.w1[rows].cumsum(axis=0)[:-1]
        # Weight-scaled Gini wt * (1 - p^2 - (1 - p)^2) of the parent and both
        # sides. Every weight is > 0 and each side of a cut holds at least one
        # row, so no side weight is 0 and the proportions need no guard.
        # Squares are products, which is what numpy's `** 2` computes.
        p = w1 / wt
        parent_cost = wt * (1.0 - p * p - (1.0 - p) * (1.0 - p))
        p = w1l / wl
        q = 1.0 - p
        gain = parent_cost - wl * (1.0 - p * p - q * q)
        wr = wt - wl
        p = (w1 - w1l) / wr
        q = 1.0 - p
        gain -= wr * (1.0 - p * p - q * q)
        gain[xso[:-1] == xso[1:]] = -np.inf
        if self.min_leaf > 1:  # cut after row i leaves i + 1 rows on the left
            gain[:self.min_leaf - 1] = -np.inf
            gain[n - self.min_leaf:] = -np.inf
        flat = gain.T.argmax()  # feature-major: draw order first, then cut position
        f_pick, pos = divmod(int(flat), n - 1)
        if gain[pos, f_pick] <= 1e-12:
            return None
        lo, hi = float(xso[pos, f_pick]), float(xso[pos + 1, f_pick])
        thr = (lo + hi) / 2.0
        return int(feats[f_pick]), thr if lo <= thr < hi else lo


def class_weights_for(y: np.ndarray) -> dict[int, float]:
    """Balanced weights w_c = n / (2 * n_c) for the classes present in y."""
    n = y.size
    return {int(c): n / (2.0 * float(np.sum(y == c))) for c in np.unique(y)}


def _tree_stream(seed: int, t: int, n: int) -> tuple[np.random.Generator, np.ndarray, np.ndarray]:
    """Tree t's stream over n training rows: (generator positioned after the
    bootstrap draw, sorted bootstrap rows, out-of-bag rows). The only code
    that knows the stream layout."""
    rng = np.random.default_rng([seed, t])
    boot = np.sort(rng.integers(0, n, size=n))
    return rng, boot, np.flatnonzero(np.bincount(boot, minlength=n) == 0)


def _fit_one_tree(x, y, params, tree_index) -> Tree:
    rng, boot, _ = _tree_stream(params.seed, tree_index, x.shape[0])
    yb = y[boot]
    cw = class_weights_for(yb) if params.weighted else {0: 1.0, 1: 1.0}
    wb = np.where(yb == 1, cw.get(1, 0.0), cw.get(0, 0.0))  # a bootstrap may hold one class
    return _TreeBuilder(x[boot], yb, wb, params.mtry, params.min_leaf, rng).build()


def fit_forest(table: FeatureTable, params: ForestParams) -> Forest:
    """Grow ntree trees on bootstrap samples of the table.

    Balanced class weights (n / 2n_c, recomputed on each tree's bootstrap so
    the weighted class masses are always equal) enter both the Gini criterion
    and the leaf proportions. Trees have no depth limit; growth stops at pure
    nodes, min_leaf, or when no split reduces impurity.
    """
    y = table.labels.astype(np.int8)
    if y.min() == y.max():
        raise ModelError("forest training requires both classes")
    if table.missing.any():
        raise ModelError("forest training requires a fully observed table")
    if params.mtry > table.n_features:
        raise ModelError(f"mtry={params.mtry} exceeds {table.n_features} features")
    x = np.ascontiguousarray(table.values)
    return Forest(
        trees=tuple(_fit_one_tree(x, y, params, t) for t in range(params.ntree)),
        feature_names=table.feature_names,
        params=params,
        class_weights=class_weights_for(y) if params.weighted else {0: 1.0, 1: 1.0},
        n_train=table.n_samples,
    )


def _check_features(forest: Forest, table: FeatureTable) -> np.ndarray:
    if tuple(table.feature_names) != forest.feature_names:
        raise PredictError("table features do not match the fitted forest")
    if table.missing.any():
        raise PredictError("prediction requires a fully observed table")
    return np.ascontiguousarray(table.values)


def predict_proba(forest: Forest, table: FeatureTable) -> np.ndarray:
    """Arithmetic mean of the per-tree leaf positive proportions."""
    x = _check_features(forest, table)
    acc = np.zeros(x.shape[0])
    for tree in forest.trees:
        acc += tree.predict_proba(x)
    return acc / len(forest.trees)


def _oob_permutation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Permutation used for the importance pass (separable for testing)."""
    return rng.permutation(n)


def _permuted_leaf_prob(tree: Tree, x: np.ndarray, rows: np.ndarray,
                        perms: np.ndarray, block_feature: np.ndarray) -> np.ndarray:
    """Leaf probabilities of `rows` under one permuted copy per block, in one
    descent: block b reads feature block_feature[b] from row rows[perms[b, i]]
    and every other feature from rows[i]. Returns (blocks, rows.size)."""
    blocks, m = perms.shape
    permuted = rows[perms].ravel()
    plain = np.tile(rows, blocks)
    swapped = np.repeat(block_feature, m)
    node = np.zeros(blocks * m, dtype=np.int64)
    live = np.flatnonzero(tree.feature[node] >= 0)
    while live.size:
        at = node[live]
        f = tree.feature[at]
        src = np.where(f == swapped[live], permuted[live], plain[live])
        node[live] = nxt = np.where(x[src, f] <= tree.threshold[at],
                                    tree.left[at], tree.right[at])
        live = live[tree.feature[nxt] >= 0]
    return tree.leaf_prob[node].reshape(blocks, m)


def oob_permutation_importance(forest: Forest, table: FeatureTable) -> ImportanceReport:
    """Per-tree OOB accuracy drop after permuting each feature column.

    For tree t the unweighted accuracy on its out-of-bag rows is compared
    against the accuracy after shuffling feature f within those rows (stream
    seeded by (seed, t, f)); the differences are averaged over the trees that
    have out-of-bag rows and normalized by their standard error (sd with ddof=1
    over those contributing trees, divided by the square root of their number).
    One descent per tree scores the unpermuted rows and every permuted copy.
    The out-of-bag rows are derived from the (seed, t) stream, so the table
    must be the training table.
    """
    x = _check_features(forest, table)
    if table.n_samples != forest.n_train:
        raise PredictError(f"importance needs the {forest.n_train}-row training table, "
                           f"got {table.n_samples} rows")
    y = table.labels.astype(np.int8)
    n_feat = table.n_features
    diffs: list[np.ndarray] = []
    skipped = 0
    for t, tree in enumerate(forest.trees):
        _, _, oob = _tree_stream(forest.params.seed, t, forest.n_train)
        if oob.size == 0:
            skipped += 1
            continue
        used = np.unique(tree.feature[tree.feature >= 0])
        perms = np.vstack([np.arange(oob.size)] + [
            _oob_permutation(np.random.default_rng([forest.params.seed, t, int(f)]), oob.size)
            for f in used])
        prob = _permuted_leaf_prob(tree, x, oob, perms, np.concatenate([[-1], used]))
        acc = np.mean((prob >= 0.5) == (y[oob] == 1), axis=1)
        row = np.zeros(n_feat)  # unused features keep an exact 0 difference
        row[used] = acc[0] - acc[1:]
        diffs.append(row)
    if skipped:
        warnings.warn(f"{skipped} tree(s) had no out-of-bag rows and were skipped")
    if not diffs:
        raise ModelError("no tree had out-of-bag rows; cannot compute importance")
    d = np.vstack(diffs)
    t_count = d.shape[0]
    mean = d.mean(axis=0)
    sd = d.std(axis=0, ddof=1) if t_count > 1 else np.zeros(n_feat)
    se = sd / math.sqrt(t_count)
    normalized = np.zeros(n_feat)
    nz = se > 0
    normalized[nz] = mean[nz] / se[nz]
    degenerate = ~nz & (mean != 0)
    if degenerate.any():
        normalized[degenerate] = np.sign(mean[degenerate]) * math.inf
        warnings.warn("some features have zero standard error with nonzero mean "
                      "importance; reported as infinite")
    return ImportanceReport(
        feature_names=table.feature_names,
        mean_decrease=mean,
        std_error=se,
        normalized=normalized,
    )


def to_doc(forest: Forest) -> dict:
    """Versioned text-serializable document with flat per-tree node arrays."""
    return {
        "format": "latefuse-forest",
        "version": 2,
        "feature_names": list(forest.feature_names),
        "params": {"mtry": forest.params.mtry, "ntree": forest.params.ntree,
                   "min_leaf": forest.params.min_leaf, "seed": forest.params.seed,
                   "weighted": forest.params.weighted},
        "class_weights": {str(k): v for k, v in forest.class_weights.items()},
        "n_train": forest.n_train,
        "trees": [
            {
                "feature": t.feature.tolist(),
                "threshold": [None if math.isnan(v) else v for v in t.threshold.tolist()],
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "leaf_prob": t.leaf_prob.tolist(),
            }
            for t in forest.trees
        ],
    }


def from_doc(doc: dict) -> Forest:
    # version 1 also stored each tree's bootstrap and OOB rows; they are ignored
    if doc.get("format") != "latefuse-forest" or doc.get("version") not in (1, 2):
        raise ModelError("unrecognized forest document")
    trees = tuple(
        Tree(
            feature=np.asarray(t["feature"], dtype=np.int64),
            threshold=np.asarray([math.nan if v is None else v for v in t["threshold"]]),
            left=np.asarray(t["left"], dtype=np.int64),
            right=np.asarray(t["right"], dtype=np.int64),
            leaf_prob=np.asarray(t["leaf_prob"], dtype=float),
        )
        for t in doc["trees"]
    )
    p = doc["params"]
    return Forest(
        trees=trees,
        feature_names=tuple(doc["feature_names"]),
        params=ForestParams(mtry=p["mtry"], ntree=p["ntree"], min_leaf=p["min_leaf"],
                            seed=p["seed"], weighted=p.get("weighted", True)),
        class_weights={int(k): float(v) for k, v in doc["class_weights"].items()},
        n_train=int(doc["n_train"]),
    )
