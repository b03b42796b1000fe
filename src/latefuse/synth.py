"""Deterministic synthetic two-modality dataset generation.

Ground-truth generator behind the oracle tests: Gaussian noise features,
class-shifted planted features, and equicorrelated blocks built from shared
latent factors. Same spec and seed always produce bit-identical tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .tables import FeatureTable, _frozen


@dataclass(frozen=True)
class SynthSpec:
    n_benign: int
    n_malignant: int
    n_features: int
    planted: tuple[tuple[int, float], ...] = ()  # (feature index, shift in SD units)
    correlation_blocks: tuple[tuple[int, float], ...] = ()  # (size, rho), leading columns
    common_fraction: float = 1.0  # share of samples present in both modalities
    seed: int = 0
    cohort: str = "SYNTH"

    def __post_init__(self) -> None:
        if self.n_benign < 0 or self.n_malignant < 0 or self.n_features < 1:
            raise DataError("sample counts must be >= 0 and n_features >= 1")
        if any(not 0 <= idx < self.n_features for idx, _ in self.planted):
            raise DataError("planted feature index out of range")
        if sum(size for size, _ in self.correlation_blocks) > self.n_features:
            raise DataError("correlation blocks exceed the feature count")
        if any(not 0.0 <= rho <= 1.0 for _, rho in self.correlation_blocks):
            raise DataError("block correlation must lie in [0, 1]")
        if not 0.0 <= self.common_fraction <= 1.0:
            raise DataError("common_fraction must lie in [0, 1]")
        object.__setattr__(self, "planted", tuple((int(i), float(s)) for i, s in self.planted))
        object.__setattr__(self, "correlation_blocks",
                           tuple((int(s), float(r)) for s, r in self.correlation_blocks))


def _table(spec: SynthSpec, sample_ids: list[str], labels: list[int], seed) -> FeatureTable:
    """A modality of `spec` over the given samples, its values drawn from the
    stream `seed`: Gaussian noise, then the correlation blocks, then the
    planted shifts of the class-1 rows."""
    labels = np.array(labels, dtype=np.int8)
    n = labels.size
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, spec.n_features))
    col = 0
    for size, rho in spec.correlation_blocks:
        latent = rng.normal(size=n)
        values[:, col:col + size] = (math.sqrt(rho) * latent[:, None]
                                     + math.sqrt(1.0 - rho) * values[:, col:col + size])
        col += size
    for idx, shift in spec.planted:
        values[labels == 1, idx] += shift
    return FeatureTable(
        sample_ids=tuple(sample_ids),
        cohort=tuple([spec.cohort] * n),
        labels=labels,
        feature_names=tuple(f"f{j:03d}" for j in range(spec.n_features)),
        values=_frozen(values),
    )


def generate(spec: SynthSpec) -> FeatureTable:
    """One modality: benign rows first, then malignant."""
    n = spec.n_benign + spec.n_malignant
    return _table(spec, [f"S{i:04d}" for i in range(n)],
                  [0] * spec.n_benign + [1] * spec.n_malignant, spec.seed)


def generate_pair(spec_a: SynthSpec, spec_b: SynthSpec) -> tuple[FeatureTable, FeatureTable]:
    """Two modalities over one patient pool.

    spec_a.common_fraction controls how many samples (per class, rounded)
    appear in both tables; shared samples keep the same id and label, while
    their measured values are independent between modalities. Modality m
    draws from the stream (spec_a.seed, m).
    """

    def shared_count(n_a: int, n_b: int) -> int:
        return int(math.floor(spec_a.common_fraction * min(n_a, n_b) + 0.5))

    cb = shared_count(spec_a.n_benign, spec_b.n_benign)
    cm = shared_count(spec_a.n_malignant, spec_b.n_malignant)

    def table(m: int, spec: SynthSpec, prefix: str) -> FeatureTable:
        benign = [f"P{i:04d}" for i in range(cb)] \
            + [f"{prefix}{i:04d}" for i in range(spec.n_benign - cb)]
        malignant = [f"P{cb + i:04d}" for i in range(cm)] \
            + [f"{prefix}{spec.n_benign - cb + i:04d}" for i in range(spec.n_malignant - cm)]
        return _table(spec, benign + malignant, [0] * len(benign) + [1] * len(malignant),
                      [spec_a.seed, m])

    return table(0, spec_a, "A"), table(1, spec_b, "B")
