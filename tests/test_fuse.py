import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from latefuse.errors import FusionError
from latefuse.fuse import FusionRule, fuse_modalities

RULES = list(FusionRule)
probs = st.floats(min_value=0.0, max_value=1.0)


def test_arithmetic_rules():
    assert fuse_modalities(0.8, 0.5, FusionRule.PRODUCT) == pytest.approx(0.40, abs=1e-15)
    assert fuse_modalities(0.6, 0.8, FusionRule.MEAN) == pytest.approx(0.70, abs=1e-15)
    assert fuse_modalities(0.6, 0.8, FusionRule.MAX) == 0.80


def test_stouffer_fixed_point_and_table_value():
    assert fuse_modalities(0.5, 0.5, FusionRule.STOUFFER) == pytest.approx(0.5, abs=1e-12)
    # Phi(2 * 1.6449 / sqrt(2)) = Phi(2.3262) from normal tables
    assert fuse_modalities(0.95, 0.95, FusionRule.STOUFFER) == pytest.approx(0.9900, abs=1e-4)


def test_stouffer_extremes_clipped_not_nan():
    for p in (0.0, 1.0):
        out = fuse_modalities(p, 0.5, FusionRule.STOUFFER)
        assert 0.0 < out < 1.0


def test_out_of_range_rejected():
    for rule in RULES:
        for p1, p2 in ((-0.1, 0.5), (0.5, 1.1), (np.nan, 0.5), (0.5, np.nan)):
            with pytest.raises(FusionError):
                fuse_modalities(p1, p2, rule)


@settings(max_examples=300, deadline=None)
@given(probs, probs, st.sampled_from(RULES))
def test_symmetry_exact(p1, p2, rule):
    assert fuse_modalities(p1, p2, rule) == fuse_modalities(p2, p1, rule)


def test_monotone_and_chain_on_grid():
    grid = np.linspace(0.0, 1.0, 101)
    for rule in RULES:
        prev_row = None
        for p1 in grid:
            row = np.array([fuse_modalities(p1, p2, rule) for p2 in grid])
            assert (np.diff(row) >= 0).all()  # monotone in second argument
            if prev_row is not None:
                assert (row >= prev_row).all()  # monotone in first argument
            prev_row = row
    for p1 in grid[::10]:
        for p2 in grid[::10]:
            prod = fuse_modalities(p1, p2, FusionRule.PRODUCT)
            mean = fuse_modalities(p1, p2, FusionRule.MEAN)
            mx = fuse_modalities(p1, p2, FusionRule.MAX)
            assert prod <= min(p1, p2) <= mean <= mx


def test_idempotence_and_stouffer_sharpening():
    for p in np.linspace(0.01, 0.99, 25):
        assert fuse_modalities(p, p, FusionRule.MEAN) == p
        assert fuse_modalities(p, p, FusionRule.MAX) == p
        s = fuse_modalities(p, p, FusionRule.STOUFFER)
        if p > 0.5:
            assert s >= p
        elif p < 0.5:
            assert s <= p


def test_stouffer_matches_probit_formula():
    rng = np.random.default_rng(60)
    for _ in range(50):
        p1, p2 = rng.uniform(0.01, 0.99, 2)
        expected = ndtr((ndtri(p1) + ndtri(p2)) / np.sqrt(2.0))
        assert fuse_modalities(p1, p2, FusionRule.STOUFFER) == pytest.approx(expected, abs=1e-15)


def test_fuse_modalities_thresholds_and_predictions():
    fused = fuse_modalities([0.9, 0.3, 0.5], [0.7, 0.2, 0.6], FusionRule.MEAN)
    threshold = fuse_modalities(0.4, 0.6, FusionRule.MEAN)
    assert threshold == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(fused, [0.8, 0.25, 0.55])
    assert (fused >= threshold).tolist() == [True, False, True]  # >= boundary


def test_fuse_modalities_arrays_match_scalar_calls():
    p1 = np.array([0.9, 0.3, 0.5, 0.0, 1.0, 1e-13])
    p2 = np.array([0.7, 0.2, 0.6, 1.0, 0.0, 0.5])
    for rule in RULES:
        fused = fuse_modalities(p1, p2, rule)
        assert fused.shape == p1.shape
        assert fused.tolist() == [float(fuse_modalities(a, b, rule)) for a, b in zip(p1, p2)]


def test_fuse_modalities_length_mismatch():
    with pytest.raises(FusionError, match="shape"):
        fuse_modalities([0.1], [0.1, 0.2], FusionRule.MEAN)
    with pytest.raises(FusionError, match="shape"):
        fuse_modalities(0.5, [0.5], FusionRule.MEAN)


def test_fused_probability_ranges():
    for rule in (FusionRule.MEAN, FusionRule.MAX, FusionRule.PRODUCT):
        out = fuse_modalities([0.0], [1.0], rule)
        assert 0.0 <= out[0] <= 1.0
    out = fuse_modalities([0.0], [1.0], FusionRule.STOUFFER)
    assert 0.0 < out[0] < 1.0
