"""The normal CDF and quantile of latefuse._normal against scipy.special,
bit for bit: every finite or infinite result has the oracle's exact bits,
and NaN falls exactly where the oracle's does."""

import math

import numpy as np
import pytest
from scipy import special

from latefuse._normal import _EXP_M2, _MAXLOG, ndtr, ndtri
from latefuse.fuse import PROBIT_EPS, FusionRule, fuse_modalities


def with_neighbours(points) -> np.ndarray:
    """The points and the doubles one ulp either side of each."""
    x = np.asarray(points, dtype=float)
    return np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    differ = got[~nan].view(np.uint64) != want[~nan].view(np.uint64)
    assert not differ.any(), (got[~nan][differ][:5], want[~nan][differ][:5])


NDTR_POINTS = with_neighbours([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
    1 / math.sqrt(2), -1 / math.sqrt(2), 1.0, -1.0, math.sqrt(2), -math.sqrt(2),
    8.0, -8.0, 8 * math.sqrt(2), -8 * math.sqrt(2),  # erfc's P/Q to R/S switch
    math.sqrt(2 * _MAXLOG), -math.sqrt(2 * _MAXLOG), 38.0, -38.0,  # erfc underflow
    1e300, -1e300, np.inf, -np.inf])

NDTRI_POINTS = with_neighbours([
    0.0, -0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300,
    math.exp(-2), 1 - math.exp(-2), _EXP_M2, 1.0 - _EXP_M2,  # central to tail switch
    math.exp(-32), 1 - math.exp(-32),  # P1/Q1 to P2/Q2 switch
    PROBIT_EPS, 1.0 - PROBIT_EPS, 0.5, 0.25, 0.75])


def test_ndtr_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(20)
    x = np.concatenate([np.linspace(-40.0, 40.0, 200_001), 6.0 * rng.normal(size=50_000),
                        NDTR_POINTS, [np.nan]])
    assert_same_bits(ndtr(x), special.ndtr(x))


def test_ndtri_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(21)
    p = np.concatenate([np.linspace(0.0, 1.0, 200_001),
                        10.0 ** rng.uniform(-323.0, 0.0, 50_000),
                        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 50_000),
                        NDTRI_POINTS, [-0.0, -0.1, 1.1, -np.inf, np.inf, np.nan]])
    assert_same_bits(ndtri(p), special.ndtri(p))


@pytest.mark.parametrize("f, oracle", [(ndtr, special.ndtr), (ndtri, special.ndtri)])
def test_scalars_and_shapes_follow_scipy(f, oracle):
    out = f(0.3)
    assert type(out) is type(oracle(0.3)) and out == oracle(0.3)
    grid = np.linspace(0.05, 0.95, 12).reshape(3, 4)
    assert_same_bits(f(grid), oracle(grid))
    assert f(np.zeros((2, 0))).shape == (2, 0)


def test_stouffer_matches_scipy_bit_for_bit():
    p = np.concatenate([np.linspace(0.0, 1.0, 401),
                        [PROBIT_EPS / 2, PROBIT_EPS, 1.0 - PROBIT_EPS, 1.0 - PROBIT_EPS / 2]])
    p1, p2 = (a.ravel() for a in np.meshgrid(p, p))
    clip = lambda q: np.clip(q, PROBIT_EPS, 1.0 - PROBIT_EPS)  # noqa: E731
    want = special.ndtr((special.ndtri(clip(p1)) + special.ndtri(clip(p2))) / math.sqrt(2.0))
    assert_same_bits(fuse_modalities(p1, p2, FusionRule.STOUFFER), want)
