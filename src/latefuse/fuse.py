"""Late fusion of two modality classifiers.

Both the per-sample probabilities and the two classification thresholds are
combined with the same rule by the same function; a fused prediction is
positive iff the fused probability is >= the fused threshold (the same
inclusive boundary used by the metrics module).
"""

from __future__ import annotations

import enum
import math

import numpy as np

from ._normal import ndtr, ndtri
from .errors import FusionError

PROBIT_EPS = 1e-12  # Stouffer inputs are clipped into [eps, 1-eps]


class FusionRule(enum.Enum):
    STOUFFER = "stouffer"
    MEAN = "mean"
    MAX = "max"
    PRODUCT = "product"


def fuse_modalities(p1, p2, rule: FusionRule) -> np.ndarray:
    """Combine two probability arrays of the same shape element by element
    under the given rule; two scalars (say, two thresholds) give a scalar.

    Stouffer uses the equal-weight inverse-normal form
    Phi((Phi^-1(p1) + Phi^-1(p2)) / sqrt(2)).
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    if p1.shape != p2.shape:
        raise FusionError(f"probability arrays differ in shape: {p1.shape} and {p2.shape}")
    if not np.all((p1 >= 0) & (p1 <= 1) & (p2 >= 0) & (p2 <= 1)):  # NaN fails too
        raise FusionError("probabilities must lie in [0, 1]")
    if rule is FusionRule.MEAN:
        return (p1 + p2) / 2.0
    if rule is FusionRule.MAX:
        return np.maximum(p1, p2)
    if rule is FusionRule.PRODUCT:
        return p1 * p2
    z1 = ndtri(np.clip(p1, PROBIT_EPS, 1.0 - PROBIT_EPS))
    z2 = ndtri(np.clip(p2, PROBIT_EPS, 1.0 - PROBIT_EPS))
    return ndtr((z1 + z2) / math.sqrt(2.0))
