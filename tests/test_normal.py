"""The normal CDF and quantile of latefuse._normal against scipy.special.

Both come from the standard library, not from scipy's Cephes code, so they
are held to accuracy bounds instead of bit equality: `ndtri` within a few
ulp, `ndtr` within the relative error that rounding x/sqrt(2) alone causes
in erfc. Each bound fails for outputs scaled by (1 + 1e-14).
"""

import math

import numpy as np
import pytest
from scipy import special

from latefuse._normal import ndtr, ndtri
from latefuse.fuse import PROBIT_EPS, FusionRule, fuse_modalities

TINY = 1e-300  # below this, ndtr is compared in absolute terms


def with_neighbours(points) -> np.ndarray:
    """The points and the doubles one ulp either side of each."""
    x = np.asarray(points, dtype=float)
    return np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])


def ulps(got, want) -> np.ndarray:
    """|got - want| in units of the spacing of doubles at want."""
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_ndtr_within_erfc_conditioning_of_scipy():
    """Relative error at most (x^2 + 16) 2^-52 where Phi(x) > 1e-300: erfc
    near x/sqrt(2) magnifies the rounding of its argument by about x^2."""
    rng = np.random.default_rng(20)
    x = np.concatenate([np.linspace(-40.0, 40.0, 200_001), 6.0 * rng.normal(size=50_000),
                        with_neighbours([0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0,
                                         8.0, -8.0, 37.5, -37.5, 38.0, -38.0, 1e300, -1e300]),
                        [np.inf, -np.inf, np.nan]])
    got, want = ndtr(x), special.ndtr(x)
    nan = np.isnan(x)
    assert (np.isnan(got) == nan).all() and (np.isnan(want) == nan).all()
    x, got, want = x[~nan], got[~nan], want[~nan]
    normal = want > TINY
    rel = np.abs(got[normal] - want[normal]) / want[normal]
    # Phi is 0 or 1 beyond |x| = 40, so clipping only keeps x^2 finite
    over = rel > (np.clip(x[normal], -40.0, 40.0) ** 2 + 16.0) * 2.0 ** -52
    assert not over.any(), (x[normal][over][:5], rel[over][:5])
    far = np.abs(got[~normal] - want[~normal]) > TINY  # scipy gives 0 below x = -37.5
    assert not far.any(), (x[~normal][far][:5], got[~normal][far][:5])


def test_ndtri_within_8_ulp_of_scipy():
    rng = np.random.default_rng(21)
    p = np.concatenate([np.linspace(0.0, 1.0, 200_001)[1:-1],
                        10.0 ** rng.uniform(-300.0, 0.0, 50_000),
                        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 50_000),
                        with_neighbours([1e-300, math.exp(-2), 1 - math.exp(-2),
                                         math.exp(-32), 1 - math.exp(-32), PROBIT_EPS,
                                         1.0 - PROBIT_EPS, 0.5, 0.25, 0.75])])
    p = p[(p > 0.0) & (p < 1.0)]
    error = ulps(ndtri(p), special.ndtri(p))
    assert error.max() <= 8, (p[error > 8][:5], error[error > 8][:5])


@pytest.mark.parametrize("f, oracle", [(ndtr, special.ndtr), (ndtri, special.ndtri)])
def test_scalars_and_shapes_follow_scipy(f, oracle):
    out = f(0.3)
    assert type(out) is type(oracle(0.3)) and ulps(out, oracle(0.3)) <= 8
    grid = np.linspace(0.05, 0.95, 12).reshape(3, 4)
    out = f(grid)
    assert out.shape == grid.shape and (ulps(out, oracle(grid)) <= 8).all()
    assert f(np.zeros((2, 0))).shape == (2, 0)


def test_stouffer_within_1e_15_of_scipy():
    p = np.concatenate([np.linspace(0.0, 1.0, 401),
                        [PROBIT_EPS / 2, PROBIT_EPS, 1.0 - PROBIT_EPS, 1.0 - PROBIT_EPS / 2]])
    p1, p2 = (a.ravel() for a in np.meshgrid(p, p))
    clip = lambda q: np.clip(q, PROBIT_EPS, 1.0 - PROBIT_EPS)  # noqa: E731
    want = special.ndtr((special.ndtri(clip(p1)) + special.ndtri(clip(p2))) / math.sqrt(2.0))
    error = np.abs(fuse_modalities(p1, p2, FusionRule.STOUFFER) - want)
    assert error.max() <= 1e-15, error.max()
