"""The standard normal CDF and its inverse, from the standard library.

`ndtr` is 0.5 erfc(-x / sqrt(2)) with libm's `math.erfc`. erfc magnifies the
rounding of x / sqrt(2) about x^2-fold: against a 200-bit reference the
error is within about 25 ulp for x > -5 and under 2,000 ulp below, where
the result turns subnormal near x = -37.5. `ndtri` is
`statistics.NormalDist().inv_cdf`, Wichura's algorithm AS 241 (Applied
Statistics 37:477, 1988), within about 5 ulp.
"""

import math
from statistics import NormalDist

import numpy as np

_SQRT1_2 = math.sqrt(0.5)


def _ndtr(x: float) -> float:
    return 0.5 * math.erfc(-x * _SQRT1_2)


def _elementwise(f, x):
    x = np.asarray(x, dtype=float)
    out = np.fromiter(map(f, x.ravel().tolist()), dtype=float, count=x.size)
    return out.reshape(x.shape)[()]  # a 0-d input gives a numpy scalar, as scipy does


def ndtr(a):
    """Phi(a), the standard normal CDF, of a scalar or element by element."""
    return _elementwise(_ndtr, a)


def ndtri(p):
    """Phi^-1(p), the standard normal quantile, of a scalar or element by
    element, for p in the open interval (0, 1)."""
    return _elementwise(NormalDist().inv_cdf, p)
