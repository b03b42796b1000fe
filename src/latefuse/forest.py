"""Random forest of fully grown CART-style trees with Gini splits weighted by
balanced class weights, which each tree takes from its own bootstrap.

Determinism contract: tree t is grown from one generator seeded by (forest
seed, t). It draws the bootstrap first, then, per depth level, the features
of all the tree's splittable nodes of that level in one call, in
breadth-first node order. The importance pass draws tree t's permutations,
one per used feature in feature order, in one call from a second generator
seeded by (forest seed, t, 1). Results are therefore bit-identical for a
given seed, whichever trees are grown or descended together, and a tree's
bootstrap and out-of-bag rows follow from (seed, tree index, n_train), so a
forest does not store them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ModelError, PredictError
from .tables import FeatureTable

# fit_forest grows its trees in blocks of about GROW_CELLS (tree x bootstrap
# row x drawn feature) cells, which bounds the sorted cells of one level; a
# level pass has a fixed cost, shared by more trees in a larger block.
# Prediction and importance descend blocks of about CELLS (tree x row) pairs
GROW_CELLS = 2 ** 17
CELLS = 2 ** 15
# appended to (seed, t) for tree t's importance permutations; SeedSequence
# pads short entropy with zeros, so 0 would repeat the growth stream
_PERMUTATION_KEY = 1


@dataclass(frozen=True)
class ForestParams:
    mtry: int
    ntree: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mtry < 1 or self.ntree < 1:
            raise ModelError("mtry and ntree must both be >= 1")
        if self.seed < 0:  # np.random.default_rng refuses it
            raise ModelError(f"forest seed {self.seed} is negative")


@dataclass(frozen=True)
class Tree:
    """Flat node arrays in breadth-first order; feature == -1 marks a leaf.
    value is a split's threshold and a leaf's class-weighted positive
    proportion of its bootstrap rows. Children are not stored: the k-th split
    node (0-based, in node order) has children 2k + 1 (left) and 2k + 2
    (right)."""

    feature: np.ndarray
    value: np.ndarray


@dataclass(frozen=True)
class Forest:
    trees: tuple[Tree, ...]
    feature_names: tuple[str, ...]
    params: ForestParams
    n_train: int


@dataclass(frozen=True)
class ImportanceReport:
    feature_names: tuple[str, ...]
    mean_decrease: np.ndarray
    std_error: np.ndarray
    normalized: np.ndarray  # mean/SE; 0 when both are 0, +/-inf flagged when SE=0


def _tree_stream(seed: int, t: int, n: int) -> tuple[np.random.Generator, np.ndarray, np.ndarray]:
    """Tree t's stream over n training rows: (generator positioned after the
    bootstrap draw, sorted bootstrap rows, out-of-bag rows). The feature
    draws that follow are made by _grow_block."""
    rng = np.random.default_rng([seed, t])
    boot = np.sort(rng.integers(0, n, size=n))
    return rng, boot, np.flatnonzero(np.bincount(boot, minlength=n) == 0)


def _rank_table(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Feature-major flat tables over the n training rows: rank[f * n + i] is
    the number of values in column f below x[i, f], so tied values share a
    rank and their order in the sort does not matter, and value[f * n + r]
    is the value of rank r in column f. Ranks are int32, as n is far below
    2**31."""
    n, p = x.shape
    xt = np.ascontiguousarray(x.T)
    at = xt.argsort(axis=1)
    at += (np.arange(p) * n)[:, None]  # each sorted cell's flat index
    xs = xt.take(at)
    del xt
    new = np.ones((p, n), dtype=bool)
    new[:, 1:] = xs[:, 1:] != xs[:, :-1]
    first = np.where(new, np.arange(n, dtype=np.int32), 0)
    del new
    np.maximum.accumulate(first, axis=1, out=first)  # each value's first position
    rank = np.empty(p * n, dtype=np.int32)
    rank[at] = first
    return rank, xs.ravel()


@np.errstate(over="ignore")  # a midpoint of two huge values; see its use below
def _grow_block(rank: np.ndarray, value: np.ndarray, y: np.ndarray,
                streams: list[tuple[np.random.Generator, np.ndarray]],
                mtry: int) -> list[Tree]:
    """Grow one tree per (generator, sorted bootstrap) stream, breadth first;
    each array call covers every node of a level of every tree in the block.

    An element is one distinct bootstrap row of a splittable node, with its
    class and multiplicity packed as `cls << k | mult`. A tree has one weight
    per class, so the weighted Gini of a cut is exact arithmetic on the class
    counts on each side, and a tree does not depend on its block. A node's
    bootstrap rows of either class are packed as `rows0 + rows1 << s`, and a
    child's are those left (or right) of its parent's winning cut. An element
    moves to its child's slot in the next level, or is dropped when that
    child cannot split.

    A level takes each tree's feature draws from one call, as raw 64-bit
    outputs, builds the sort keys of its cells draw-major (one row of
    elements per drawn feature, so every broadcast runs along the elements)
    and sorts every (node, drawn feature) column in one sort. One prefix sum
    of the cells' packed counts, restarted at each column, gives the counts
    left of every cut; the cut costs are computed for the scored cuts alone.
    Leaf values, features and thresholds are written once per block, after
    its last level. The level's arrays of one entry per cell set the fit's
    working memory, so each is released as soon as it has been used.

    Only boundary cuts are scored (Fayyad & Irani 1992). Along a run of
    cells of one class, each alone at its rank, the cost is strictly concave
    in that class's weight left of the cut, all other side weights fixed, so
    a cut inside the run costs more than one at its ends. Where the run ends
    a column, that end is the uncut node, which costs at least as much as any
    cut, so the other end is cheaper. An inside cut is thus never the first
    minimum: it loses by at least about cost / (8 n**3), above the rounding
    of a cost at thousands of rows. A cut is scored when its two cells differ
    in class or either shares its rank: a superset of the run ends.
    """
    n, b = y.size, len(streams)
    p = rank.size // n
    boots = np.stack([boot for _, boot in streams])
    mult = np.bincount((boots + n * np.arange(b)[:, None]).ravel(), minlength=b * n)
    k = int(mult.max()).bit_length()  # 2**k > any multiplicity of the block
    low_mask = (2 << k) - 1  # the class and multiplicity bits of a key
    stride = n << (k + 1)  # key span of one (node, drawn feature) column
    rank_key = rank.astype(_key_dtype(stride))  # one key table per block
    rank_key <<= k + 1
    # rows0 + rows1 << s of a cell, by its key's low bits; a column's prefix
    # sums stay below (n + 1) << s
    s = n.bit_length()
    rows0 = (1 << s) - 1
    counts = np.arange(1 << k, dtype=_key_dtype((n + 1) << s))
    counts = np.concatenate([counts, counts << s])
    at = np.flatnonzero(mult)
    node, erow = np.divmod(at, n)  # the roots are nodes 0..b-1
    elow = mult[at].astype(np.int32)
    elow |= y[erow].astype(np.int32) << k
    del mult, at
    n1 = y[boots].sum(axis=1)
    n_c = np.stack([n - n1, n1])
    # balanced weights n / (2 n_c) per bootstrap (0 for a class it lacks)
    cw0, cw1 = np.divide(n, 2.0 * n_c, out=np.zeros((2, b)), where=n_c > 0)
    node_rows = (n - n1 + (n1 << s)).astype(counts.dtype)
    gens = [rng.bit_generator for rng, _ in streams]
    features = np.arange(p, dtype=np.uint64)
    f_mask = (1 << p.bit_length()) - 1
    # PCG64's random() is the top 53 bits of a raw 64-bit output over 2**53;
    # a key keeps those bits (fewer when p > 1023) over the feature index
    draw_mask = np.uint64(2 ** 64 - (2 << max(10, p.bit_length())))
    node_tree = np.arange(b)
    cand = np.flatnonzero((node_rows & rows0 != 0) & (node_rows > rows0))
    # each element's slot among the level's splittable nodes
    slot = np.full(b, -1)
    slot[cand] = np.arange(cand.size)
    enode = slot[node]
    inside = enode >= 0
    erow, elow, enode = erow[inside], elow[inside], enode[inside]
    del node, slot, inside
    levels, splits, first = [], [], 0
    while True:
        levels.append((node_tree, node_rows))
        if not cand.size:
            break
        # each tree draws one key per (splittable node, feature) in one call,
        # in level order; a node takes the features of its mtry smallest keys,
        # in key order. Keys are distinct and ties go to the lower feature
        tree = node_tree[cand]
        per_tree = np.bincount(tree, minlength=b)
        drawn = np.flatnonzero(per_tree)
        keys = np.concatenate([gens[t].random_raw(m) for t, m in
                               zip(drawn.tolist(), (per_tree[drawn] * p).tolist())])
        keys = keys.reshape(-1, p)
        keys &= draw_mask
        keys |= features
        feats = np.sort(np.partition(keys, mtry - 1, axis=1)[:, :mtry], axis=1)
        del keys
        feats &= f_mask
        # drawn feature j of node i starts at offset[j, i] of the rank table
        offset = feats.T.astype(np.intp, order="C") * n
        del feats
        # one sort orders every (node, drawn feature) column: by column, then
        # by rank; class and multiplicity ride in the low bits
        dtype = _key_dtype(cand.size * mtry * stride)
        cell = offset.take(enode, axis=1)
        cell += erow
        key = rank_key.take(cell).astype(dtype, copy=False)
        del cell
        key += (enode * (mtry * stride) + elow).astype(dtype)
        key += np.arange(0, mtry * stride, stride, dtype=dtype)[:, None]
        key = key.ravel()
        key.sort()
        # column c holds cells start[c]..start[c + 1] - 1: all of its node's
        # rows, so subtracting the node's rows at the next column's first cell
        # restarts the prefix sum
        start = np.zeros(cand.size * mtry + 1, dtype=np.intp)
        np.cumsum(np.repeat(np.bincount(enode, minlength=cand.size), mtry), out=start[1:])
        cand_rows = node_rows[cand]
        cum = counts.take(np.bitwise_and(key, low_mask, dtype=np.intp))
        cum[start[1:-1]] -= np.repeat(cand_rows, mtry)[:-1]
        cum.cumsum(out=cum)
        # a cut after cell i falls between distinct values when cell i + 1 of
        # the same column has another rank; it is scored when cells i and
        # i + 1 differ in class or either shares its rank with another cell
        step = key[1:] ^ key[:-1]
        new = step > low_mask
        edge = (step & 1 << k) != 0
        del step
        tied = ~new
        edge[1:] |= tied[:-1]
        edge[:-1] |= tied[1:]
        del tied
        cuts = np.logical_and(new, edge, out=edge)
        del new
        cuts[start[1:-1] - 1] = False
        cut = np.flatnonzero(cuts)
        del cuts
        left = cum.take(cut)  # rows0 + rows1 << s left of each cut
        del cum
        # a node's cuts run in draw order, then by position
        seg = cut.searchsorted(start[::mtry])
        count = seg[1:] - seg[:-1]
        # the halved Gini w0 w1 / (w0 + w1) of both sides; a side's class
        # weight is its count times the class weight, or for the right side
        # the node's minus the left side's. At most four cut arrays are live
        c0, c1 = cw0[tree], cw1[tree]
        w0, w1 = (cand_rows & rows0) * c0, (cand_rows >> s) * c1
        a0 = np.repeat(c0, count)
        a0 *= left & rows0
        a1 = np.repeat(c1, count)
        a1 *= left >> s
        b0 = np.repeat(w0, count)
        b0 -= a0
        cost = a0 + a1
        a0 *= a1
        a0 /= cost
        del cost
        b1 = np.repeat(w1, count)
        b1 -= a1
        np.add(b0, b1, out=a1)
        b0 *= b1
        b0 /= a1
        cost = a0
        cost += b0
        del a1, b0, b1
        # best cut per node: the first minimum, i.e. the earliest drawn
        # feature, then the lowest cut; its Gini gain must exceed 1e-12
        has = np.flatnonzero(count)
        seg = seg[has]
        best = np.minimum.reduceat(cost, seg)
        hit = np.flatnonzero(cost == np.repeat(best, count[has]))
        del cost
        won_cut = hit[hit.searchsorted(seg)]
        won = (w0 * w1 / (w0 + w1))[has] - best > 0.5e-12
        has, won_cut = has[won], won_cut[won]
        pick = cut[won_cut]
        del cut
        # the ranks either side of the cut, and the column's rank-table offset
        col, lo_rank = np.divmod(key[pick] >> (k + 1), n)
        hi_rank = (key[pick + 1] >> (k + 1)) - col * n
        del key
        at = offset[col % mtry, has]
        lo, hi = value[at + lo_rank], value[at + hi_rank]
        mid = (lo + hi) / 2.0
        # the midpoint, or lo when it rounds onto hi or overflows, so the rows
        # sent left are exactly those scored
        split = cand[has]
        splits.append((first + split, at // n, np.where((lo <= mid) & (mid < hi), mid, lo)))
        first += node_tree.size
        # the i-th split's children are nodes 2i, 2i + 1 of the next level;
        # the left one holds its parent's rows up to the cut, the right one
        # the rest
        parent, left = node_rows[split], left[won_cut]
        node_rows = np.repeat(left, 2)
        node_rows[1::2] = parent - left
        node_tree = np.repeat(node_tree[split], 2)
        nxt = np.flatnonzero((node_rows & rows0 != 0) & (node_rows > rows0))
        # each element moves to its child's slot among the next level's
        # splittable nodes; -1 drops it
        slot = np.full(2 * has.size, -1)
        slot[nxt] = np.arange(nxt.size)
        to = np.full((cand.size, 2), -1)
        to[has] = slot.reshape(-1, 2)
        at_node = np.zeros(cand.size, dtype=np.intp)
        at_node[has] = at
        cut_rank = np.zeros(cand.size, dtype=rank.dtype)
        cut_rank[has] = lo_rank
        side = rank.take(at_node.take(enode) + erow) > cut_rank.take(enode)
        enode *= 2
        enode += side
        enode = to.ravel().take(enode)
        inside = enode >= 0
        erow, elow, enode = erow[inside], elow[inside], enode[inside]
        del side, inside
        cand = nxt
    tree_of, node_rows = (np.concatenate(c) for c in zip(*levels))
    # leaf values from each node's class weights; a split overwrites its own
    w0 = (node_rows & rows0) * cw0[tree_of]
    w1 = (node_rows >> s) * cw1[tree_of]
    node_value = w1 / (w0 + w1)
    feature = np.full(tree_of.size, -1, dtype=np.int64)
    if splits:
        split, f, threshold = (np.concatenate(c) for c in zip(*splits))
        feature[split] = f
        node_value[split] = threshold
    order = np.argsort(tree_of, kind="stable")
    feature, node_value = feature[order], node_value[order]
    end = np.cumsum(np.bincount(tree_of, minlength=b)).tolist()
    return [Tree(feature[i:j], node_value[i:j]) for i, j in zip([0] + end, end)]


def _key_dtype(bound: int) -> type:
    """The integer type of growth keys or packed class counts below `bound`:
    int32 where it holds them, else int64. numpy integers wrap without a warning, so this bound is
    the only guard."""
    return np.int32 if bound <= 2 ** 31 else np.int64


def _growth_block(n: int, mtry: int, ntree: int) -> int:
    """Trees per growth block over n training rows; ModelError when a block
    of them would overflow the 64-bit sort keys of _grow_block."""
    block = max(1, GROW_CELLS // (n * mtry))
    # a level's sort keys stay below cells * n * 2**n.bit_length(), since
    # each (node, feature) column holds at least two of its cells; a
    # column's packed class counts stay below the smaller (n + 1) << that
    # bit length, so this guard holds them too
    if min(block, ntree) * n * mtry * n << n.bit_length() >= 2 ** 63:
        raise ModelError(f"{n} training rows at mtry={mtry} overflow the "
                         "forest's 64-bit sort keys")
    return block


def fit_forest(table: FeatureTable, params: ForestParams) -> Forest:
    """Grow ntree trees on bootstrap samples of the table.

    Balanced class weights (n / 2n_c, recomputed on each tree's bootstrap so
    the weighted class masses are always equal) enter both the Gini criterion
    and the leaf proportions. Trees are fully grown, with no depth limit or
    minimum leaf size: a node is a leaf when it is pure, when its rows share
    each drawn feature's value, or when no cut reduces impurity. The trees
    grow together in blocks of about GROW_CELLS cells; a tree does not
    depend on its block.
    """
    y = table.labels.astype(np.int8)
    if y.min() == y.max():
        raise ModelError("forest training requires both classes")
    if np.isnan(table.values).any():
        raise ModelError("forest training requires a fully observed table")
    if params.mtry > table.n_features:
        raise ModelError(f"mtry={params.mtry} exceeds {table.n_features} features")
    n = table.n_samples
    block = _growth_block(n, params.mtry, params.ntree)
    rank, value = _rank_table(np.ascontiguousarray(table.values))
    trees: list[Tree] = []
    for first in range(0, params.ntree, block):
        streams = [_tree_stream(params.seed, t, n)[:2]
                   for t in range(first, min(first + block, params.ntree))]
        trees += _grow_block(rank, value, y, streams, params.mtry)
    return Forest(trees=tuple(trees), feature_names=table.feature_names, params=params,
                  n_train=table.n_samples)


def _check_features(forest: Forest, table: FeatureTable) -> np.ndarray:
    if tuple(table.feature_names) != forest.feature_names:
        raise PredictError("table features do not match the fitted forest")
    if np.isnan(table.values).any():
        raise PredictError("prediction requires a fully observed table")
    return np.ascontiguousarray(table.values)


def _stack(trees: Sequence[Tree]) -> tuple[Tree, np.ndarray, np.ndarray]:
    """The node arrays of the trees laid end to end as one Tree, each node's
    left child in it (2s - 1 after its tree's root for the node with s splits
    up to and including it, see Tree; a leaf's is never read), and each
    tree's root index in it."""
    size = np.array([tree.feature.size for tree in trees])
    roots = np.cumsum(size) - size
    splits = np.concatenate([np.cumsum(tree.feature >= 0) for tree in trees])
    return (Tree(feature=np.concatenate([tree.feature for tree in trees]),
                 value=np.concatenate([tree.value for tree in trees])),
            2 * splits - 1 + np.repeat(roots, size), roots)


def descend(stack: Tree, left: np.ndarray, x: np.ndarray, start: np.ndarray,
            rows: Callable[[np.ndarray, np.ndarray], np.ndarray],
            path: list[tuple[np.ndarray, np.ndarray]] | None = None) -> np.ndarray:
    """Leaf nodes of elements walked down `stack` with left children `left`
    (see _stack) from their start nodes, one array step per level. Element i
    at a node splitting on feature f reads x[rows(i, f), f]; `rows` gets the
    live elements and their features. Given `path`, each level appends
    (live elements, their nodes). An int64 `start` is overwritten with the
    leaves and returned."""
    node = np.asarray(start, dtype=np.int64)
    live = np.flatnonzero(stack.feature[node] >= 0)
    while live.size:
        at = node[live]
        f = stack.feature[at]
        if path is not None:
            path.append((live, at))
        go_left = x.take(rows(live, f) * x.shape[1] + f) <= stack.value[at]
        node[live] = nxt = left[at] + ~go_left
        live = live[stack.feature[nxt] >= 0]
    return node


def predict_proba(forest: Forest, table: FeatureTable) -> np.ndarray:
    """Arithmetic mean of the per-tree leaf positive proportions."""
    return prefix_proba(forest, table, [len(forest.trees)])[0]


def prefix_proba(forest: Forest, table: FeatureTable, sizes: Sequence[int]) -> np.ndarray:
    """predict_proba of each prefix forest of the first k trees, k in sizes,
    one row each, from one cumulative sum over the per-tree outputs (the
    same additions in the same order as a running sum over the prefix).
    Every (tree, row) pair of a block of about CELLS pairs is one element of
    one descent."""
    x = _check_features(forest, table)
    k = np.asarray(sizes)
    bad = k[(k < 1) | (k > len(forest.trees))]
    if bad.size:
        raise PredictError(f"prefix size {bad[0]} is outside 1..{len(forest.trees)}")
    n = x.shape[0]
    block = max(1, CELLS // max(n, 1))
    per_tree = np.empty((k.max(), n))
    for first in range(0, k.max(), block):
        stack, left, roots = _stack(forest.trees[first:min(first + block, k.max())])
        leaf = descend(stack, left, x, np.repeat(roots, n), lambda i, f: i % n)
        per_tree[first:first + roots.size] = stack.value[leaf].reshape(roots.size, n)
    return per_tree.cumsum(axis=0)[k - 1] / k[:, None]


def _oob_permutations(rng: np.random.Generator, k: int, m: int) -> np.ndarray:
    """k permutations of range(m), one per row, drawn in one call: the same
    draws as k successive rng.permutation(m) (separable for testing)."""
    return rng.permuted(np.tile(np.arange(m), (k, 1)), axis=1)


def _accuracy_drops(forest: Forest, x: np.ndarray, positive: np.ndarray,
                    trees: Sequence[int], oobs: Sequence[np.ndarray]) -> np.ndarray:
    """(tree, feature) OOB accuracy drops of a block of trees with OOB rows.

    Permuting feature g can change a row's leaf only from the first node on
    its path that splits on g, and the path above that node is the
    unpermuted one. So one descent walks every OOB row and records its path,
    and a second starts each (row, feature on its path) pair at that node,
    reading the permuted row at g-splits and the row's own value elsewhere.
    """
    p = x.shape[1]
    stack, left, roots = _stack([forest.trees[t] for t in trees])
    m = np.array([oob.size for oob in oobs])
    tree = np.repeat(np.arange(len(trees)), m)  # an element's tree in the block
    row = np.concatenate(oobs)
    path = [(row[:0], row[:0])]  # no records yet; single-leaf trees add none
    leaf = descend(stack, left, x, roots[tree], lambda i, f: row[i], path)
    correct = (stack.value[leaf] >= 0.5) == positive[row]
    # path records run level by level, so a key's first index is its first node
    elem, node = (np.concatenate(c) for c in zip(*path))
    del path
    key, first = np.unique(elem * p + stack.feature[node], return_index=True)
    start = node[first]
    del elem, node, first
    e, g = np.divmod(key, p)
    del key
    # tree t's permutation of used feature f, used[b], sits at
    # offset[t * p + f] = (its block start) + b * m_t in one buffer of rows
    used = [np.flatnonzero(np.bincount(f[f >= 0]))
            for f in (forest.trees[t].feature for t in trees)]
    permuted = np.empty(sum(u.size * oob.size for u, oob in zip(used, oobs)), dtype=np.int32)
    offset, at = np.zeros(len(trees) * p, dtype=np.int64), 0
    for i, (t, oob, u) in enumerate(zip(trees, oobs, used)):
        rng = np.random.default_rng([forest.params.seed, t, _PERMUTATION_KEY])
        out = permuted[at:at + u.size * oob.size].reshape(u.size, oob.size)
        np.take(oob, _oob_permutations(rng, u.size, oob.size), out=out, mode="clip")
        offset[i * p + u] = at + oob.size * np.arange(u.size)
        at += out.size
    cell = tree[e] * p + g
    j = e - (np.cumsum(m) - m)[tree[e]]  # the element's place among its tree's OOB rows
    swapped = permuted[offset[cell] + j]
    del permuted, j
    own, was = row[e], correct[e]
    del e
    moved = descend(stack, left, x, start,
                    lambda i, f: np.where(f == g[i], swapped[i], own[i]))
    change = ((stack.value[moved] >= 0.5) == positive[own]).astype(np.int64) - was
    # exact counts, so c / m has the bits of the mean of a boolean vector
    c0 = np.bincount(tree, weights=correct, minlength=len(trees))[:, None]
    dc = np.bincount(cell, weights=change, minlength=len(trees) * p).reshape(-1, p)
    return c0 / m[:, None] - (c0 + dc) / m[:, None]


def oob_permutation_importance(forest: Forest, table: FeatureTable) -> ImportanceReport:
    """Per-tree OOB accuracy drop after permuting each feature column.

    For tree t the unweighted accuracy on its out-of-bag rows is compared
    against the accuracy after shuffling feature f within those rows (one
    generator per tree, see the module docstring); the differences are
    averaged over the trees that have out-of-bag rows and normalized by their
    standard error (sd with ddof=1 over those contributing trees, divided by
    the square root of their number). An unused feature's difference is an
    exact 0.
    The trees are scored in blocks of about CELLS // n_train trees (see
    _accuracy_drops). The out-of-bag rows are derived from the (seed, t)
    stream, so the table must be the training table.
    """
    x = _check_features(forest, table)
    if table.n_samples != forest.n_train:
        raise PredictError(f"importance needs the {forest.n_train}-row training table, "
                           f"got {table.n_samples} rows")
    positive = table.labels == 1
    n_feat = table.n_features
    oobs = [_tree_stream(forest.params.seed, t, forest.n_train)[2]
            for t in range(len(forest.trees))]
    kept = [t for t, oob in enumerate(oobs) if oob.size]
    if len(kept) < len(oobs):
        warnings.warn(f"{len(oobs) - len(kept)} tree(s) had no out-of-bag rows and were skipped")
    if not kept:
        raise ModelError("no tree had out-of-bag rows; cannot compute importance")
    block = max(1, CELLS // forest.n_train)
    d = np.vstack([_accuracy_drops(forest, x, positive, kept[i:i + block],
                                   [oobs[t] for t in kept[i:i + block]])
                   for i in range(0, len(kept), block)])
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
        "version": 4,
        "feature_names": list(forest.feature_names),
        "params": {"mtry": forest.params.mtry, "ntree": forest.params.ntree,
                   "seed": forest.params.seed},
        "n_train": forest.n_train,
        "trees": [{"feature": t.feature.tolist(), "value": t.value.tolist()}
                  for t in forest.trees],
    }


def _tree_from_doc(t: dict, p: int) -> Tree:
    """A tree document's node arrays, if `descend` ends on them: equal-length
    non-empty 1-d arrays, each feature an integer, -1 (leaf) or in 0..p-1,
    2s + 1 nodes for s splits, and the k-th split before node 2k + 1, so
    that its derived children come after it and are nodes of the tree.
    Split thresholds are finite and leaf values in 0..1, as to_doc writes
    them."""
    tree = Tree(feature=np.asarray(t["feature"], dtype=np.int64),
                value=np.asarray(t["value"], dtype=float))
    n = tree.feature.size
    if n == 0 or tree.feature.ndim != 1 or tree.value.shape != (n,):
        raise ModelError("forest tree node arrays must be non-empty and of equal length")
    if not np.array_equal(tree.feature, t["feature"]):
        raise ModelError("forest tree feature index is not an integer")
    if np.any((tree.feature < -1) | (tree.feature >= p)):
        raise ModelError(f"forest tree feature index outside -1..{p - 1}")
    split = np.flatnonzero(tree.feature >= 0)
    if n != 2 * split.size + 1 or np.any(split > 2 * np.arange(split.size)):
        raise ModelError("forest tree child index not after its node or past the last node")
    if not np.isfinite(tree.value[split]).all():
        raise ModelError("forest tree split threshold is not a finite number")
    leaf = tree.value[tree.feature < 0]
    if not ((leaf >= 0) & (leaf <= 1)).all():  # NaN fails too
        raise ModelError("forest tree leaf value outside 0..1")
    return tree


def from_doc(doc: dict) -> Forest:
    """The forest of a version-4 document; any other version is refused."""
    if doc.get("format") != "latefuse-forest":
        raise ModelError("unrecognized forest document")
    if doc.get("version") != 4:
        raise ModelError(f"unrecognized forest document version {doc.get('version')!r}; "
                         "re-run train to write version 4")
    trees = doc["trees"]
    names = doc["feature_names"]
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)
            and len(set(names)) == len(names)):
        raise ModelError(f"feature_names {names!r} is not a list of distinct names")
    feature_names = tuple(names)
    p = {**doc["params"], "n_train": doc["n_train"]}
    for key in ("mtry", "ntree", "seed", "n_train"):
        if type(p[key]) is not int:  # a JSON integer, not true or 2.0
            raise ModelError(f"forest {key} {p[key]!r} is not an integer")
    if p["n_train"] < 1:
        raise ModelError(f"forest n_train {p['n_train']} is not a positive integer")
    if len(trees) != p["ntree"]:
        raise ModelError(f"forest document holds {len(trees)} trees, not ntree={p['ntree']}")
    return Forest(
        trees=tuple(_tree_from_doc(t, len(feature_names)) for t in trees),
        feature_names=feature_names,
        params=ForestParams(mtry=p["mtry"], ntree=p["ntree"], seed=p["seed"]),
        n_train=p["n_train"],
    )
