"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with its measured quantities (run with -s to
see them live). The published-table reconstructions, oracle comparisons,
and seed-loop rates below are the package's exit bar; tolerances are fixed
here and nowhere else.

Expected total runtime is dominated by the forest criterion (~2.5 min) and
the end-to-end reproducibility run (~5 min).
"""

import itertools
import math
import warnings
from pathlib import Path

import numpy as np

from latefuse import forest as rf
from latefuse import logreg as lr
from latefuse.cli import main
from latefuse.fuse import FusionRule, fuse_modalities
from latefuse.metrics import (Confusion, auc, best_threshold_bacc, confusion,
                              metrics_from_confusion)
from latefuse.mrcv import run_mrcv_lr
from latefuse.univariate import bh_fdr, mann_whitney

from conftest import complementary_pair, gaussian_table, make_table, split_rows

TOL = 0.005 + 1e-9  # two-decimal rounding tolerance for published values


def _passed(line: str) -> None:
    print(f"ACCEPTANCE {line}")


# ----------------------------------------------------------------- criterion 1

def _integer_reconstruction(n_pos, n_neg, sens, spec, ppv, npv, f1, bacc):
    """Exhaustive search over all (tp, tn) for a confusion matrix whose derived
    metrics match the published two-decimal values within the tolerance."""
    tp = np.arange(n_pos + 1, dtype=float)
    tn = np.arange(n_neg + 1, dtype=float)
    tp_ok = tp[np.abs(tp / n_pos - sens) <= TOL]
    tn_ok = tn[np.abs(tn / n_neg - spec) <= TOL]
    for t_pos in tp_ok:
        fn = n_pos - t_pos
        fp = n_neg - tn_ok
        with np.errstate(invalid="ignore", divide="ignore"):
            ppv_v = t_pos / (t_pos + fp)
            npv_v = tn_ok / (tn_ok + fn)
            f1_v = 2 * t_pos / (2 * t_pos + fp + fn)
            bacc_v = (t_pos / n_pos + tn_ok / n_neg) / 2
        hit = (np.abs(ppv_v - ppv) <= TOL) & (np.abs(npv_v - npv) <= TOL) \
            & (np.abs(f1_v - f1) <= TOL) & (np.abs(bacc_v - bacc) <= TOL)
        if hit.any():
            tn_hit = tn_ok[hit][0]
            return int(t_pos), int(fn), int(tn_hit), int(n_neg - tn_hit)
    return None


# published columns: (label, n_pos, n_neg, sens, spec, ppv, npv, f1, bacc)
PUBLISHED = [
    ("T3 radiomics LR", 20, 20, 0.60, 0.85, 0.80, 0.68, 0.69, 0.73),
    ("T3 radiomics RF", 20, 20, 0.70, 0.70, 0.70, 0.70, 0.70, 0.70),
    ("T3 metabolomics LR", 20, 20, 0.55, 0.55, 0.55, 0.55, 0.55, 0.55),
    ("T3 metabolomics RF", 20, 20, 0.70, 0.55, 0.61, 0.65, 0.65, 0.63),
    ("T3 statistical-integration LR", 20, 20, 0.70, 0.80, 0.78, 0.73, 0.74, 0.75),
    ("T3 statistical-integration RF", 20, 20, 0.75, 0.60, 0.65, 0.71, 0.70, 0.68),
    ("T3 product-integration LR", 20, 20, 0.78, 0.73, 0.70, 0.80, 0.74, 0.75),
    ("T3 product-integration RF", 20, 20, 0.63, 0.69, 0.75, 0.55, 0.68, 0.66),
    ("S2 radiomics train LR", 440, 4569, 0.78, 0.78, 0.25, 0.97, 0.38, 0.78),
    ("S2 radiomics train RF", 440, 4569, 0.67, 0.82, 0.27, 0.96, 0.38, 0.74),
    ("S2 radiomics test LR", 49, 122, 0.69, 0.74, 0.51, 0.86, 0.59, 0.72),
    ("S2 radiomics test RF", 49, 122, 0.69, 0.68, 0.47, 0.85, 0.56, 0.69),
    ("S2 metabolomics train LR", 103, 103, 0.76, 0.74, 0.74, 0.75, 0.75, 0.75),
    ("S2 metabolomics train RF", 103, 103, 0.61, 0.66, 0.64, 0.62, 0.62, 0.63),
    ("S2 metabolomics test LR", 20, 20, 0.55, 0.55, 0.55, 0.55, 0.55, 0.55),
    ("S2 metabolomics test RF", 20, 20, 0.70, 0.55, 0.61, 0.65, 0.65, 0.63),
]

# columns the exhaustive search proves inconsistent with any integer matrix at
# the stated class sizes (flagged, per the documented handling of such rows)
KNOWN_UNRECONSTRUCTIBLE = {
    "T3 product-integration LR",   # sens 0.78 unreachable with 20 positives
    "T3 product-integration RF",   # sens 0.63 / spec 0.69 unreachable at 20/20
    "S2 radiomics test LR",        # unique (tp,tn)=(34,90) puts PPV at 0.5152
    "S2 metabolomics train RF",    # NPV/F1 off by ~0.01 at the implied counts
}


def test_criterion_01_published_table_consistency():
    import time
    start = time.perf_counter()
    flagged = []
    for label, n_pos, n_neg, *metrics in PUBLISHED:
        found = _integer_reconstruction(n_pos, n_neg, *metrics)
        if found is None:
            flagged.append(label)
            continue
        tp, fn, tn, fp = found
        row = metrics_from_confusion(Confusion(tp=tp, fp=fp, tn=tn, fn=fn))
        derived = (row.sensitivity, row.specificity, row.ppv, row.npv, row.f1,
                   row.balanced_accuracy)
        assert all(abs(d - m) <= TOL for d, m in zip(derived, metrics)), label
    # the pinned example row reproduces through metrics_from_confusion
    example = metrics_from_confusion(Confusion(tp=12, fn=8, tn=17, fp=3))
    for value, target in zip(
            (example.sensitivity, example.specificity, example.ppv, example.npv,
             example.f1, example.balanced_accuracy),
            (0.60, 0.85, 0.80, 0.68, 0.69, 0.73)):
        assert abs(value - target) <= TOL
    assert set(flagged) == KNOWN_UNRECONSTRUCTIBLE
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(f"01 published-table consistency: PASS "
            f"({len(PUBLISHED) - len(flagged)}/{len(PUBLISHED)} columns reconstructed, "
            f"{len(flagged)} flagged inconsistent, {elapsed:.2f}s)")


# ----------------------------------------------------------------- criterion 2

def _enumerated_two_sided(n_a, n_b, u_obs):
    """Enumeration oracle over a-position combinations; u = sum(pos_i - i)."""
    mu = n_a * n_b / 2.0
    total = extreme = 0
    for a_pos in itertools.combinations(range(n_a + n_b), n_a):
        u = sum(p - i for i, p in enumerate(a_pos))
        total += 1
        extreme += abs(u - mu) >= abs(u_obs - mu) - 1e-12
    return extreme / total


def test_criterion_02_mann_whitney_oracles():
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        n_a = int(rng.integers(1, 10))
        n_b = int(rng.integers(1, 11 - n_a))
        vals = rng.permutation(np.arange(1.0, n_a + n_b + 1.0))
        a, b = vals[:n_a], vals[n_a:]
        u, p = mann_whitney(a, b)
        u_int = int(round(u))
        assert p == _enumerated_two_sided(n_a, n_b, u_int), (trial, n_a, n_b)
    worst = 0.0
    for trial in range(60):
        vals = rng.permutation(np.arange(1.0, 17.0))
        a, b = vals[:8], vals[8:]
        u, p = mann_whitney(a, b)
        worst = max(worst, abs(p - _enumerated_two_sided(8, 8, int(round(u)))))
    assert worst <= 0.005
    _passed(f"02 Mann-Whitney oracles: PASS (1000 exact matches, "
            f"8v8 approximation worst |dp|={worst:.2e})")


# ----------------------------------------------------------------- criterion 3

def test_criterion_03_auc_u_identity():
    rng = np.random.default_rng(3033)
    worst = 0.0
    for _ in range(200):
        n_pos = int(rng.integers(2, 40))
        n_neg = int(rng.integers(2, 40))
        if rng.random() < 0.5:
            pool = rng.choice(np.linspace(0, 1, 9), size=n_pos + n_neg)  # ties
        else:
            pool = rng.normal(size=n_pos + n_neg)
        u_pos, _ = mann_whitney(pool[:n_pos], pool[n_pos:])
        a = auc(pool, [1] * n_pos + [0] * n_neg)
        worst = max(worst, abs(a - u_pos / (n_pos * n_neg)))
    assert worst <= 1e-12
    _passed(f"03 AUC == U/(n_pos*n_neg): PASS (200 instances, worst |d|={worst:.2e})")


# ----------------------------------------------------------------- criterion 4

def _bh_reference(p):
    m = len(p)
    order = sorted(range(m), key=lambda i: p[i])
    out = [0.0] * m
    running = 1.0
    for rank in range(m, 0, -1):
        i = order[rank - 1]
        running = min(running, p[i] * m / rank)
        out[i] = running
    return out


def test_criterion_04_bh_fdr():
    rng = np.random.default_rng(4044)
    for _ in range(500):
        m = int(rng.integers(1, 60))
        p = rng.random(m).clip(1e-9, 1.0).tolist()
        got = bh_fdr(p)
        ref = _bh_reference(p)
        assert all(abs(g - r) <= 1e-15 for g, r in zip(got, ref))
        perm = rng.permutation(m)
        shuffled = bh_fdr([p[i] for i in perm])
        assert all(shuffled[k] == got[perm[k]] for k in range(m))
    _passed("04 BH-FDR: PASS (500 reference matches, permutation invariant)")


# ----------------------------------------------------------------- criterion 5

def test_criterion_05_threshold_optimizer():
    rng = np.random.default_rng(5055)
    for _ in range(500):
        n = int(rng.integers(4, 60))
        scores = np.round(rng.random(n), 2)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        threshold, bacc = best_threshold_bacc(scores, labels)
        values = np.unique(scores)
        cands = np.concatenate([[values[0] - 1], (values[:-1] + values[1:]) / 2,
                                [values[-1] + 1]])
        pos = labels.sum()
        neg = n - pos
        oracle = max(
            (np.sum((scores >= t) & (labels == 1)) / pos
             + np.sum((scores < t) & (labels == 0)) / neg) / 2
            for t in cands)
        assert abs(bacc - oracle) <= 1e-12
        assert bacc >= 0.5
        realized = metrics_from_confusion(
            confusion(scores, labels, threshold)).balanced_accuracy
        assert abs(realized - bacc) <= 1e-12
    _passed("05 threshold optimizer: PASS (500 exhaustive-sweep matches, bacc >= 0.5)")


# ----------------------------------------------------------------- criterion 6

def test_criterion_06_logistic_regression():
    t = gaussian_table(50, 50, 1, seed=66)
    m = lr.fit(t, [])
    closed_form = math.log(100) - 2 * 100 * math.log(0.5)
    assert abs(m.bic - closed_form) <= 1e-9

    t2 = gaussian_table(60, 60, 3, shifts={0: 1.5}, seed=67)
    m2 = lr.fit(t2, list(t2.feature_names))
    x = np.column_stack([np.ones(t2.n_samples), t2.values])
    y = t2.labels.astype(float)
    beta = np.concatenate([[m2.intercept], list(m2.coefficients.values())])
    h = 1e-6

    def loglik(b):  # the exact log-likelihood y' eta - sum log(1 + e^eta)
        return y @ (x @ b) - np.logaddexp(0.0, x @ b).sum()

    fd = np.array([(loglik(beta + h * e) - loglik(beta - h * e)) / (2 * h)
                   for e in np.eye(beta.size)])
    analytic = x.T @ (y - 1 / (1 + np.exp(-(x @ beta))))
    scale = max(1.0, float(np.max(np.abs(fd))), abs(m2.log_likelihood))
    assert np.max(np.abs(fd - analytic)) <= 1e-5 * scale

    rng = np.random.default_rng(68)
    n = 5000
    xv = rng.normal(size=(n, 2))
    eta = 0.2 + 1.5 * xv[:, 0] - 2.0 * xv[:, 1]
    yv = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(np.int8)
    planted = lr.fit(make_table(xv, yv), ["f000", "f001"])
    err0 = abs(planted.coefficients["f000"] - 1.5)
    err1 = abs(planted.coefficients["f001"] + 2.0)
    assert err0 <= 0.1 and err1 <= 0.1
    _passed(f"06 logistic regression: PASS (BIC closed form, FD gradient, "
            f"recovery errors {err0:.3f}/{err1:.3f})")


# ----------------------------------------------------------------- criterion 7

def test_criterion_07_forward_selection_rates():
    import time
    start = time.perf_counter()
    names = [f"f{j:03d}" for j in range(20)]
    first = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for seed in range(100):
            t = gaussian_table(100, 100, 20, shifts={0: 3.0}, seed=seed)
            m = lr.forward_select(t, names)
            first += bool(m.selected_order) and m.selected_order[0] == "f000"
        # BIC-based null rejection needs the consistency regime; at n=200 the
        # ln(n)+2 hurdle admits ~13% false adds across 20 candidates
        empty = 0
        for seed in range(100):
            t = gaussian_table(1000, 1000, 20, seed=seed)
            empty += not lr.forward_select(t, names).selected_order
    elapsed = time.perf_counter() - start
    assert first >= 95
    assert empty >= 95
    assert elapsed < 60.0
    _passed(f"07 forward selection: PASS (planted first {first}/100, "
            f"noise empty {empty}/100, {elapsed:.1f}s)")


# ----------------------------------------------------------------- criterion 8

def test_criterion_08_random_forest():
    import time
    start = time.perf_counter()
    t = gaussian_table(30, 30, 6, shifts={0: 1.5}, seed=88)
    params = rf.ForestParams(mtry=3, ntree=50, seed=880)
    f1 = rf.fit_forest(t, params)
    f2 = rf.fit_forest(t, params)
    for a, b in zip(f1.trees, f2.trees):
        assert np.array_equal(a.feature, b.feature) and np.array_equal(a.value, b.value)
    assert np.array_equal(rf.oob_permutation_importance(f1, t).normalized,
                          rf.oob_permutation_importance(f2, t).normalized)

    draw = rf._oob_permutations
    try:
        rf._oob_permutations = lambda rng, k, m: np.tile(np.arange(m), (k, 1))
        rep = rf.oob_permutation_importance(f1, t)
        assert np.array_equal(rep.mean_decrease, np.zeros(t.n_features))
        assert np.array_equal(rep.normalized, np.zeros(t.n_features))
    finally:
        rf._oob_permutations = draw

    tops = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for seed in range(100):
            planted = gaussian_table(40, 40, 21, shifts={0: 1.5}, seed=seed)
            forest = rf.fit_forest(planted, rf.ForestParams(mtry=5, ntree=500, seed=seed))
            report = rf.oob_permutation_importance(forest, planted)
            tops += int(np.argmax(report.normalized)) == 0
    elapsed = time.perf_counter() - start
    assert tops >= 95
    assert elapsed < 300.0
    _passed(f"08 random forest: PASS (bit-identical same-seed refits, identity "
            f"permutation zero, planted tops {tops}/100 at ntree=500, {elapsed:.0f}s)")


# ----------------------------------------------------------------- criterion 9

def test_criterion_09_mrcv_harness():
    planted = gaussian_table(100, 100, 10, shifts={0: 2.5, 1: 2.0}, seed=99)
    outs = run_mrcv_lr(planted, repeats=100, base_seed=909)
    assert all(o.error is None for o in outs)
    mean_planted = float(np.mean([o.bacc_validation for o in outs]))
    assert mean_planted > 0.8

    null = gaussian_table(100, 100, 10, seed=100)
    null_outs = run_mrcv_lr(null, repeats=100, base_seed=909)
    mean_null = float(np.mean([o.bacc_validation for o in null_outs]))
    assert 0.4 <= mean_null <= 0.6

    again = run_mrcv_lr(planted, repeats=100, base_seed=909)
    assert again == outs
    _passed(f"09 MRCV harness: PASS (planted mean BAcc {mean_planted:.3f}, "
            f"null {mean_null:.3f}, deterministic)")


# ---------------------------------------------------------------- criterion 10

def test_criterion_10_fusion():
    grid = np.linspace(0.0, 1.0, 101)
    for rule in FusionRule:
        for p1 in grid:
            row = np.array([fuse_modalities(p1, p2, rule) for p2 in grid])
            sym = np.array([fuse_modalities(p2, p1, rule) for p2 in grid])
            assert np.array_equal(row, sym)
            assert (np.diff(row) >= 0).all()
    for p1 in grid:
        prod = np.array([fuse_modalities(p1, p2, FusionRule.PRODUCT) for p2 in grid])
        mean = np.array([fuse_modalities(p1, p2, FusionRule.MEAN) for p2 in grid])
        mx = np.array([fuse_modalities(p1, p2, FusionRule.MAX) for p2 in grid])
        mn = np.minimum(p1, grid)
        assert (prod <= mn).all() and (mn <= mean).all() and (mean <= mx).all()

    stouffer_95 = fuse_modalities(0.95, 0.95, FusionRule.STOUFFER)
    assert abs(stouffer_95 - 0.9900) <= 1e-4

    wins = 0
    for seed in range(100):
        ta, tb = complementary_pair(seed)
        rng = np.random.default_rng([seed, 999])
        train_rows, test_rows = split_rows(ta.labels, 0.5, rng)
        baccs, scores, thresholds = [], [], []
        for t in (ta, tb):
            train, test = t.select_rows(train_rows), t.select_rows(test_rows)
            model = lr.fit(train, list(t.feature_names))
            thr, _ = best_threshold_bacc(lr.predict_proba(model, train), train.labels)
            p_test = lr.predict_proba(model, test)
            baccs.append(metrics_from_confusion(
                confusion(p_test, test.labels, thr)).balanced_accuracy)
            scores.append(p_test)
            thresholds.append(thr)
        fused = fuse_modalities(scores[0], scores[1], FusionRule.STOUFFER)
        fused_threshold = fuse_modalities(thresholds[0], thresholds[1], FusionRule.STOUFFER)
        fused_bacc = metrics_from_confusion(
            confusion(fused, ta.labels[test_rows], fused_threshold)).balanced_accuracy
        wins += fused_bacc > max(baccs)
    assert wins >= 80
    _passed(f"10 fusion: PASS (grid properties exact, Stouffer(.95,.95)="
            f"{stouffer_95:.5f}, complementary wins {wins}/100)")


# ---------------------------------------------------------------- criterion 11

DESK_CONFIG = """\
[inputs]
modality_a = {root}/data/modality_a.csv
modality_b = {root}/data/modality_b.csv

[output]
directory = {root}/{outdir}

[split]
test_benign = 40
test_malignant = 40

[mrcv]
base_seed = 20240811
repeats = 100
rf_mtry = 5
rf_ntree = 25

[synth]
seed = 777
n_benign = 250
n_malignant = 250
n_features_a = 100
n_features_b = 100
planted_a = 0:1.6,1:1.1,2:0.8
planted_b = 0:1.3,3:0.9
blocks_a = 5:0.9
common_fraction = 1.0
"""


def test_criterion_11_end_to_end_reproducibility(tmp_path):
    import time
    start = time.perf_counter()

    def full_run(outdir):
        config = tmp_path / f"{outdir}.ini"
        config.write_text(DESK_CONFIG.format(root=tmp_path, outdir=outdir),
                          encoding="utf-8")
        commands = [["synth"], ["univariate", "--modality", "a"],
                    ["univariate", "--modality", "b"]]
        for modality in ("a", "b"):
            for model in ("lr", "rf"):
                commands.append(["train", "--modality", modality, "--model", model])
                commands.append(["evaluate", "--modality", modality, "--model", model])
        commands += [["fuse", "--model", "lr"], ["fuse", "--model", "rf"], ["report"]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            for cmd in commands:
                assert main(["--config", str(config), *cmd]) == 0, cmd
        out = tmp_path / outdir
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = full_run("out1")
    second = full_run("out2")
    elapsed = time.perf_counter() - start
    assert first.keys() == second.keys()
    differing = [name for name in first if first[name] != second[name]]
    assert differing == []
    assert elapsed < 600.0
    kinds = {Path(n).suffix for n in first}
    assert kinds == {".csv", ".svg", ".json"}
    _passed(f"11 end-to-end reproducibility: PASS ({len(first)} artifacts "
            f"byte-identical across runs, {elapsed:.0f}s total)")
