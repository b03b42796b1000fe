import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from latefuse.errors import StatsError
from latefuse.univariate import (_midranks, _sw_weights, bh_fdr, mann_whitney,
                                 rank_biserial, shapiro_wilk, univariate_screen)

from conftest import gaussian_table


# ---------------------------------------------------------------- Shapiro-Wilk

def test_sw_n3_closed_form():
    w, p = shapiro_wilk([-1.0, 0.0, 1.0])
    assert abs(w - 1.0) <= 1e-12
    assert p == 1.0


def test_sw_constant_sample_rejected():
    with pytest.raises(StatsError):
        shapiro_wilk([5.0, 5.0, 5.0, 5.0])


def test_sw_sample_size_limits():
    with pytest.raises(StatsError):
        shapiro_wilk([1.0, 2.0])
    with pytest.raises(StatsError):
        shapiro_wilk(np.arange(5001, dtype=float))


def test_sw_affine_invariance():
    rng = np.random.default_rng(7)
    x = rng.normal(size=48)
    w0, _ = shapiro_wilk(x)
    for c, d in ((2.5, -3.0), (0.1, 50.0), (1000.0, 0.0)):
        w1, _ = shapiro_wilk(c * x + d)
        assert abs(w0 - w1) <= 1e-10


@pytest.mark.parametrize("n", [4, 5, 7, 11, 12, 25, 100, 500, 2000])
def test_sw_matches_reference_implementation(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=n)
    w, p = shapiro_wilk(x)
    ref = sps.shapiro(x)
    assert abs(w - ref.statistic) <= 1e-6
    assert abs(p - ref.pvalue) <= 1e-5


def test_sw_exponential_sample_rejects_normality():
    rng = np.random.default_rng(42)
    x = rng.exponential(size=100)
    _, p = shapiro_wilk(x)
    assert p < 0.001
    assert abs(p - sps.shapiro(x).pvalue) <= 1e-9


@pytest.mark.parametrize("n", [3, 300])
def test_sw_weights_are_computed_once_per_n_and_read_only(n):
    x = np.random.default_rng(n).normal(size=n)
    _sw_weights.cache_clear()
    first = shapiro_wilk(x)
    assert shapiro_wilk(x) == first
    assert shapiro_wilk(x[::-1].copy()) == first
    assert _sw_weights.cache_info().misses == 1
    weights = _sw_weights(n)
    assert weights is _sw_weights(n)
    with pytest.raises(ValueError, match="read-only"):
        weights[0] = 0.0


# ---------------------------------------------------------------- Mann-Whitney

@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([-0.0, 0.0, -1.5, 1.0, 2.0, 1e300]), max_size=60))
def test_midranks_match_reference_ranks_under_heavy_ties(values):
    x = np.array(values, dtype=float)
    assert np.array_equal(_midranks(x), sps.rankdata(x))


def _enumeration_p(a, b):
    """Two-sided exact p by literal enumeration over rank assignments."""
    n_a, n_b = len(a), len(b)
    u_obs = sum(1 for x in a for y in b if x > y) \
        + 0.5 * sum(1 for x in a for y in b if x == y)
    mu = n_a * n_b / 2.0
    total = extreme = 0
    for a_pos in itertools.combinations(range(n_a + n_b), n_a):
        in_a = set(a_pos)
        u = sum(sum(1 for j in range(n_a + n_b) if j not in in_a and j < i)
                for i in a_pos)
        total += 1
        extreme += abs(u - mu) >= abs(u_obs - mu) - 1e-12
    return extreme / total


def test_mw_spec_example_exact():
    u, p = mann_whitney([1, 2, 3], [4, 5, 6])
    assert u == 0.0
    assert p == pytest.approx(0.1, abs=1e-12)  # 2 of C(6,3)=20 arrangements


def test_mw_identical_multisets():
    u, p = mann_whitney([1.0, 2.0], [1.0, 2.0])
    assert u == 2.0 * 2.0 / 2.0
    assert p == 1.0


def test_mw_empty_group_rejected():
    with pytest.raises(StatsError):
        mann_whitney([], [1.0])


def test_mw_exact_equals_enumeration_oracle():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n_a = int(rng.integers(1, 6))
        n_b = int(rng.integers(1, 11 - n_a))
        vals = rng.permutation(np.arange(1.0, n_a + n_b + 1.0))
        a, b = vals[:n_a].tolist(), vals[n_a:].tolist()
        _, p = mann_whitney(a, b)
        assert p == pytest.approx(_enumeration_p(a, b), abs=1e-12)


def test_mw_u_complement_identity():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n_a = int(rng.integers(1, 15))
        n_b = int(rng.integers(1, 15))
        a = rng.choice(np.arange(10.0), size=n_a)  # ties likely
        b = rng.choice(np.arange(10.0), size=n_b)
        u_a, _ = mann_whitney(a, b)
        u_b, _ = mann_whitney(b, a)
        assert u_a + u_b == pytest.approx(n_a * n_b, abs=1e-9)


def test_mw_approximation_close_to_exact_8v8():
    # combined n=16 exceeds the exact cutoff, so these take the normal
    # approximation; the enumeration oracle provides the exact answer
    rng = np.random.default_rng(23)
    deltas = []
    for _ in range(40):
        vals = rng.permutation(np.arange(1.0, 17.0))
        a, b = vals[:8].tolist(), vals[8:].tolist()
        _, p_approx = mann_whitney(a, b)
        deltas.append(abs(p_approx - _enumeration_p(a, b)))
    assert max(deltas) <= 0.005


def test_mw_tie_corrected_near_reference():
    # the reference uses the plain normal approximation; ours adds the
    # fourth-moment refinement, so agreement is close but not exact
    rng = np.random.default_rng(29)
    for _ in range(50):
        a = rng.choice(np.arange(6.0), size=30)
        b = rng.choice(np.arange(6.0), size=25) + rng.choice([0.0, 0.5])
        _, p = mann_whitney(a, b)
        ref = sps.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
        assert p == pytest.approx(ref.pvalue, abs=0.004)


def _permutation_p(a, b, draws, seed):
    """Monte-Carlo conditional two-sided p for the observed multiset."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([a, b])
    n_a = len(a)
    ranks = sps.rankdata(pool)
    u_obs = ranks[:n_a].sum() - n_a * (n_a + 1) / 2.0
    mu = n_a * len(b) / 2.0
    hits = 0
    for _ in range(draws):
        perm = rng.permutation(ranks.size)
        u = ranks[perm[:n_a]].sum() - n_a * (n_a + 1) / 2.0
        hits += abs(u - mu) >= abs(u_obs - mu) - 1e-12
    return hits / draws


def test_mw_tie_path_against_permutation_oracle():
    rng = np.random.default_rng(37)
    for trial in range(6):
        a = rng.choice(np.arange(8.0), size=20)
        b = rng.choice(np.arange(8.0), size=20)
        _, p = mann_whitney(a, b)
        p_mc = _permutation_p(a, b, draws=40_000, seed=trial)
        assert p == pytest.approx(p_mc, abs=0.015)


# --------------------------------------------------------------- rank-biserial

def test_rb_complete_separation():
    assert rank_biserial([4, 5, 6], [1, 2, 3]) == 1.0
    assert rank_biserial([1, 2, 3], [4, 5, 6]) == -1.0


def test_rb_identical_groups_zero():
    assert rank_biserial([1, 2, 3], [1, 2, 3]) == 0.0


def test_rb_antisymmetry_exact():
    rng = np.random.default_rng(41)
    for _ in range(50):
        a = rng.choice(np.arange(8.0), size=int(rng.integers(1, 12)))
        b = rng.choice(np.arange(8.0), size=int(rng.integers(1, 12)))
        assert rank_biserial(a, b) == -rank_biserial(b, a)


def test_rb_is_2auc_minus_1():
    from latefuse.metrics import auc
    rng = np.random.default_rng(43)
    for _ in range(100):
        n_m = int(rng.integers(2, 20))
        n_b = int(rng.integers(2, 20))
        pool = rng.choice(np.linspace(0, 1, 7), size=n_m + n_b)
        mal, ben = pool[:n_m], pool[n_m:]
        a = auc(pool, [1] * n_m + [0] * n_b)
        assert rank_biserial(mal, ben) == pytest.approx(2 * a - 1, abs=1e-12)


# --------------------------------------------------------------------- BH-FDR

def test_bh_equal_pvalues_rank_cancellation():
    assert bh_fdr([0.03] * 10) == pytest.approx([0.03] * 10, abs=1e-15)


def test_bh_hand_computed_step_up():
    assert bh_fdr([0.01, 0.04, 0.03, 0.005]) == pytest.approx(
        [0.02, 0.04, 0.04, 0.02], abs=1e-15)


def test_bh_single_p_identity():
    assert bh_fdr([0.2]) == [0.2]


def test_bh_rejects_out_of_range():
    with pytest.raises(StatsError):
        bh_fdr([0.1, 0.0])
    with pytest.raises(StatsError):
        bh_fdr([0.1, 1.5])


def _bh_reference(p):
    """Sorted step-up reference with an explicit running minimum loop."""
    m = len(p)
    order = sorted(range(m), key=lambda i: p[i])
    adjusted = [0.0] * m
    running = 1.0
    for rank in range(m, 0, -1):
        i = order[rank - 1]
        running = min(running, p[i] * m / rank)
        adjusted[i] = running
    return adjusted


def test_bh_matches_reference_on_random_vectors():
    rng = np.random.default_rng(47)
    for _ in range(500):
        m = int(rng.integers(1, 40))
        p = np.round(rng.random(m), 3).clip(1e-3, 1.0).tolist()
        assert bh_fdr(p) == pytest.approx(_bh_reference(p), abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=30),
       st.randoms(use_true_random=False))
def test_bh_permutation_invariance(p, rnd):
    base = bh_fdr(p)
    perm = list(range(len(p)))
    rnd.shuffle(perm)
    shuffled = bh_fdr([p[i] for i in perm])
    for out_pos, in_pos in enumerate(perm):
        assert shuffled[out_pos] == pytest.approx(base[in_pos], abs=1e-15)


# ----------------------------------------------------------------------- screen

def test_screen_detects_planted_features():
    shifts = {j: 2.0 for j in range(5)}
    table = gaussian_table(100, 100, 50, shifts=shifts, seed=13)
    screen = univariate_screen(table, alpha=0.05)
    by_fdr = sorted(screen.rows, key=lambda r: r.fdr)
    top5 = {r.feature for r in by_fdr[:5]}
    assert top5 == {f"f{j:03d}" for j in range(5)}
    planted = [r for r in screen.rows if r.feature in top5]
    assert all(r.fdr < 0.05 for r in planted)
    assert all(r.rg > 0 for r in planted)
    assert screen.n_significant >= 5


def test_screen_single_class_rejected():
    table = gaussian_table(10, 0, 3, seed=1)
    with pytest.raises(StatsError):
        univariate_screen(table)


def test_screen_null_table_controls_fdr():
    table = gaussian_table(60, 60, 100, shifts=None, seed=99)
    screen = univariate_screen(table, alpha=0.05)
    assert screen.n_significant <= 2
    assert screen.n_significant == screen.n_up + screen.n_down


def test_screen_refuses_missing_cell():
    table = gaussian_table(30, 30, 4, seed=3)
    missing = np.zeros(table.values.shape, dtype=bool)
    missing[table.labels == 1, 3] = True  # no malignant observations of f003
    with pytest.raises(StatsError, match="fully observed"):
        univariate_screen(table.with_matrix(table.values, missing))


def test_screen_flags_degenerate_feature_without_aborting():
    table = gaussian_table(30, 30, 4, seed=3)
    values = table.values.copy()
    values[:, 2] = 1.25  # constant in both classes: normality undefined, test trivial
    broken = table.with_matrix(values, np.isnan(values))
    screen = univariate_screen(broken)

    constant = next(r for r in screen.rows if r.feature == "f002")
    assert "normality" in constant.note
    assert constant.p_value == 1.0 and constant.rg == 0.0

    untouched = [r for r in screen.rows if r.feature in ("f000", "f001", "f003")]
    assert all(not math.isnan(r.p_value) for r in untouched)
    assert all(r.note == "" for r in untouched)
