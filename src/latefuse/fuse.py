"""Late fusion of two modality classifiers.

Both the per-sample probabilities and the two classification thresholds are
combined with the same rule; a fused prediction is positive iff the fused
probability is >= the fused threshold (the same inclusive boundary used by
the metrics module).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import FusionError

PROBIT_EPS = 1e-12  # Stouffer inputs are clipped into [eps, 1-eps]


class FusionRule(enum.Enum):
    STOUFFER = "stouffer"
    MEAN = "mean"
    MAX = "max"
    PRODUCT = "product"


@dataclass(frozen=True)
class FusedScores:
    sample_ids: tuple[str, ...]
    fused_probability: np.ndarray
    fused_threshold: float
    rule: FusionRule

    def predictions(self) -> np.ndarray:
        return self.fused_probability >= self.fused_threshold


def _fuse_arrays(p1: np.ndarray, p2: np.ndarray, rule: FusionRule) -> np.ndarray:
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


def fuse_pair(p1: float, p2: float, rule: FusionRule) -> float:
    """Combine two probabilities under the given rule.

    Stouffer uses the equal-weight inverse-normal form
    Phi((Phi^-1(p1) + Phi^-1(p2)) / sqrt(2)).
    """
    out = _fuse_arrays(np.asarray([p1], dtype=float), np.asarray([p2], dtype=float), rule)
    return float(out[0])


def fuse_modalities(sample_ids_a, scores_a, threshold_a: float,
                    sample_ids_b, scores_b, threshold_b: float,
                    rule: FusionRule) -> FusedScores:
    """Fuse two aligned per-sample score vectors and their thresholds."""
    ids_a = tuple(sample_ids_a)
    ids_b = tuple(sample_ids_b)
    if ids_a != ids_b:
        raise FusionError("sample ids are not aligned; align common samples first")
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size != len(ids_a):
        raise FusionError("score vectors must be 1-D and match the sample ids")
    fused = _fuse_arrays(a, b, rule)
    fused_threshold = fuse_pair(threshold_a, threshold_b, rule)
    return FusedScores(
        sample_ids=ids_a,
        fused_probability=fused,
        fused_threshold=fused_threshold,
        rule=rule,
    )
