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


def _matrix(rng: np.random.Generator, labels: np.ndarray, spec: SynthSpec) -> np.ndarray:
    n = labels.size
    values = rng.normal(size=(n, spec.n_features))
    col = 0
    for size, rho in spec.correlation_blocks:
        latent = rng.normal(size=n)
        values[:, col:col + size] = (math.sqrt(rho) * latent[:, None]
                                     + math.sqrt(1.0 - rho) * values[:, col:col + size])
        col += size
    for idx, shift in spec.planted:
        values[labels == 1, idx] += shift
    return values


def _feature_names(n: int) -> tuple[str, ...]:
    return tuple(f"f{j:03d}" for j in range(n))


def generate(spec: SynthSpec, id_prefix: str = "S") -> FeatureTable:
    """One modality: benign rows first, then malignant."""
    labels = np.array([0] * spec.n_benign + [1] * spec.n_malignant, dtype=np.int8)
    rng = np.random.default_rng(spec.seed)
    values = _matrix(rng, labels, spec)
    n = labels.size
    return FeatureTable(
        sample_ids=tuple(f"{id_prefix}{i:04d}" for i in range(n)),
        cohort=tuple([spec.cohort] * n),
        labels=labels,
        feature_names=_feature_names(spec.n_features),
        values=_frozen(values),
    )


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

    def ids_labels(spec: SynthSpec, prefix: str) -> tuple[tuple[str, ...], np.ndarray]:
        benign = [f"P{i:04d}" for i in range(cb)] \
            + [f"{prefix}{i:04d}" for i in range(spec.n_benign - cb)]
        malignant = [f"P{cb + i:04d}" for i in range(cm)] \
            + [f"{prefix}{spec.n_benign - cb + i:04d}" for i in range(spec.n_malignant - cm)]
        labels = np.array([0] * len(benign) + [1] * len(malignant), dtype=np.int8)
        return tuple(benign + malignant), labels

    tables = []
    for m, (spec, prefix) in enumerate(((spec_a, "A"), (spec_b, "B"))):
        ids, labels = ids_labels(spec, prefix)
        rng = np.random.default_rng([spec_a.seed, m])
        values = _matrix(rng, labels, spec)
        tables.append(FeatureTable(
            sample_ids=ids,
            cohort=tuple([spec.cohort] * labels.size),
            labels=labels,
            feature_names=_feature_names(spec.n_features),
            values=_frozen(values),
        ))
    return tables[0], tables[1]
