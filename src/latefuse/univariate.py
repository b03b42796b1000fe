"""Univariate screening battery: normality, two-group rank test, effect size, FDR.

Produces one row per feature (normality p per class, rank-biserial effect
size, Mann-Whitney p, BH-adjusted p) plus significant/up/down counts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._normal import ndtr, ndtri
from .errors import StatsError
from .tables import ClassLabel, FeatureTable

# Royston's polynomial corrections for the two largest order-statistic weights
# (highest degree first) and the moments of the normalizing transforms.
_C1 = (-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, 0.0)
_C2 = (-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, 0.0)
_C3 = (-0.0006714, 0.025054, -0.39978, 0.5440)
_C4 = (-0.0020322, 0.062767, -0.77857, 1.3822)
_C5 = (0.0038915, -0.083751, -0.31082, -1.5861)
_C6 = (0.0030302, -0.082676, -0.4803)


@functools.lru_cache(maxsize=64)
def _sw_weights(n: int) -> np.ndarray:
    """Approximate optimal weights for the W statistic (polynomial method).
    They depend on n alone, so each n is computed once; the cached array is
    read-only."""
    if n == 3:
        a = np.array([-math.sqrt(0.5), 0.0, math.sqrt(0.5)])
        a.flags.writeable = False
        return a
    m = ndtri((np.arange(1, n + 1) - 0.375) / (n + 0.25))
    mm = float(m @ m)
    rsn = 1.0 / math.sqrt(n)
    a_top = m[-1] / math.sqrt(mm) + np.polyval(_C1, rsn)
    if n > 5:
        a_next = m[-2] / math.sqrt(mm) + np.polyval(_C2, rsn)
        fac = math.sqrt((mm - 2 * m[-1] ** 2 - 2 * m[-2] ** 2)
                        / (1 - 2 * a_top ** 2 - 2 * a_next ** 2))
        a = m / fac
        a[-2], a[1] = a_next, -a_next
    else:
        fac = math.sqrt((mm - 2 * m[-1] ** 2) / (1 - 2 * a_top ** 2))
        a = m / fac
    a[-1], a[0] = a_top, -a_top
    a.flags.writeable = False
    return a


def shapiro_wilk(sample) -> tuple[float, float]:
    """Shapiro-Wilk W and its two-sided p-value.

    W uses the standard polynomial approximation to the optimal weights;
    the p-value comes from the exact n=3 formula, a log-gamma transform of
    1-W for n in 4..11, and the log-normal transform of 1-W for n >= 12.
    Valid for 3 <= n <= 5000; constant samples are rejected.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n < 3 or n > 5000:
        raise StatsError(f"Shapiro-Wilk requires 3 <= n <= 5000, got {n}")
    if x[-1] == x[0]:
        raise StatsError("Shapiro-Wilk is undefined for a constant sample (zero variance)")
    a = _sw_weights(n)
    ssq = float(np.sum((x - x.mean()) ** 2))
    w = min(float(a @ x) ** 2 / ssq, 1.0)

    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        return w, min(max(p, 0.0), 1.0)
    if 1.0 - w <= 1e-15:
        return w, 1.0
    if n <= 11:
        gamma = -2.273 + 0.459 * n
        arg = gamma - math.log(1.0 - w)
        if arg <= 0:
            return w, 0.0
        y = -math.log(arg)
        mu = np.polyval(_C3, n)
        sigma = math.exp(np.polyval(_C4, n))
    else:
        ln_n = math.log(n)
        y = math.log(1.0 - w)
        mu = np.polyval(_C5, ln_n)
        sigma = math.exp(np.polyval(_C6, ln_n))
    z = (y - mu) / sigma
    return w, float(ndtr(-z))


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values sharing the mean of their rank range: a tie
    run (equal neighbours in the stably sorted values) starting at 0-based
    position i with m members gets rank i + (m + 1) / 2."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.concatenate([[True], sorted_vals[1:] != sorted_vals[:-1]]))
    sizes = np.diff(np.append(starts, values.size))
    ranks = np.empty(values.size, dtype=float)
    ranks[order] = np.repeat(starts + (sizes + 1) / 2.0, sizes)
    return ranks


def _u_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """U for group a (ties count half)."""
    ranks = _midranks(np.concatenate([a, b]))
    return float(ranks[: a.size].sum()) - a.size * (a.size + 1) / 2.0


def _exact_u_counts(n_a: int, n_b: int) -> np.ndarray:
    """Null distribution of U as arrangement counts.

    Uses the recurrence N(m,n,u) = N(m-1,n,u-n) + N(m,n-1,u): the largest
    of the m+n values is either from group a (beating all n b's) or from b.
    """
    width = n_a * n_b + 1
    counts = np.zeros((n_a + 1, width))
    counts[:, 0] = 1.0  # n = 0: U is always 0
    for n in range(1, n_b + 1):
        nxt = np.zeros_like(counts)
        nxt[0, 0] = 1.0
        for m in range(1, n_a + 1):
            nxt[m, n:] = nxt[m - 1, : width - n]
            nxt[m, :] += counts[m, :]
        counts = nxt
    return counts[n_a]


def mann_whitney(a, b) -> tuple[float, float]:
    """Mann-Whitney U (for the first group) with a two-sided p-value.

    Exact p by enumeration of the null distribution when the combined size
    is <= 12 and there are no ties. Otherwise a normal approximation with
    tie-corrected variance, a 0.5 continuity correction, and a fourth-moment
    Edgeworth refinement (the null U distribution is platykurtic; the plain
    normal misses small-sample mid-range p by ~0.01, the refined form stays
    within 6e-4 of exact at 8v8). The kurtosis term uses the tie-free closed
    form.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise StatsError("Mann-Whitney requires two non-empty groups")
    u_a = _u_statistic(a, b)
    n_a, n_b, n = a.size, b.size, a.size + b.size
    _, tie_counts = np.unique(np.concatenate([a, b]), return_counts=True)
    has_ties = bool((tie_counts > 1).any())

    if n <= 12 and not has_ties:
        counts = _exact_u_counts(n_a, n_b)
        u = int(round(u_a))
        mu = n_a * n_b / 2.0
        extreme = np.abs(np.arange(counts.size) - mu) >= abs(u - mu)
        p = float(counts[extreme].sum() / counts.sum())
        return u_a, p

    mu = n_a * n_b / 2.0
    tie_term = float(np.sum(tie_counts ** 3 - tie_counts))
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return u_a, 1.0
    z = (abs(u_a - mu) - 0.5) / math.sqrt(var)
    excess_kurtosis = -1.2 * (n_a * n_a + n_b * n_b + n_a * n_b + n) \
        / (n_a * n_b * (n + 1))
    density = math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)
    p = 2.0 * (float(ndtr(-z)) + density * (z ** 3 - 3.0 * z) * excess_kurtosis / 24.0)
    return u_a, min(1.0, max(p, 5e-324))


def rank_biserial(a, b) -> float:
    """Rank-biserial effect size, oriented so rg > 0 means higher values in `a`.

    Callers pass a = malignant group, b = benign group; rg = 2*U_a/(n_a*n_b) - 1
    where U_a counts (a > b) pairs with ties as one half.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise StatsError("rank-biserial requires two non-empty groups")
    return _rank_biserial_from_u(_u_statistic(a, b), a.size, b.size)


def _rank_biserial_from_u(u_a: float, n_a: int, n_b: int) -> float:
    # single-division form keeps rank_biserial(a,b) == -rank_biserial(b,a) exact
    return (2.0 * u_a - n_a * n_b) / (n_a * n_b)


def bh_fdr(p) -> list[float]:
    """Benjamini-Hochberg step-up adjusted p-values, returned in input order."""
    p = np.asarray(p, dtype=float)
    if p.size == 0:
        return []
    if np.any(~((p > 0) & (p <= 1))):
        raise StatsError("p-values must lie in (0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    adjusted = p[order] * m / np.arange(1, m + 1)
    adjusted = np.minimum.accumulate(adjusted[::-1])[::-1]
    adjusted = np.minimum(adjusted, 1.0)
    out = np.empty(m, dtype=float)
    out[order] = adjusted
    return out.tolist()


@dataclass(frozen=True)
class UnivariateResult:
    feature: str
    normality_p_benign: float
    normality_p_malignant: float
    rg: float
    p_value: float
    fdr: float
    note: str = ""


@dataclass(frozen=True)
class ScreenResult:
    rows: tuple[UnivariateResult, ...]
    n_significant: int
    n_up: int
    n_down: int


def univariate_screen(table: FeatureTable, alpha: float = 0.05) -> ScreenResult:
    """Run the full battery per feature and adjust across features with BH.

    The table must be fully observed (filter_missingness imputes it); a NaN
    cell raises StatsError. A normality test that does not apply (constant
    class, too few rows) becomes a note on the feature's row with a NaN p
    instead of aborting the screen. A feature is significant when
    fdr < alpha; up/down follows the sign of the effect size (positive =
    elevated in the malignant class).
    """
    benign_rows = table.labels == int(ClassLabel.BENIGN)
    malignant_rows = table.labels == int(ClassLabel.MALIGNANT)
    if not benign_rows.any() or not malignant_rows.any():
        raise StatsError("screen requires samples of both classes")
    if np.isnan(table.values).any():
        raise StatsError("screen requires a fully observed table")

    partial: list[dict] = []
    for j, name in enumerate(table.feature_names):
        ben = table.values[benign_rows, j]
        mal = table.values[malignant_rows, j]
        row = {"feature": name, "nb": math.nan, "nm": math.nan, "notes": []}
        for key, grp, tag in (("nb", ben, "benign"), ("nm", mal, "malignant")):
            try:
                row[key] = shapiro_wilk(grp)[1]
            except StatsError as exc:
                row["notes"].append(f"normality[{tag}]: {exc}")
        u_mal, row["p"] = mann_whitney(mal, ben)
        row["rg"] = _rank_biserial_from_u(u_mal, mal.size, ben.size)
        partial.append(row)

    rows = []
    n_sig = n_up = n_down = 0
    for row, fdr in zip(partial, bh_fdr([row["p"] for row in partial])):
        if fdr < alpha:
            n_sig += 1
            if row["rg"] > 0:
                n_up += 1
            elif row["rg"] < 0:
                n_down += 1
        rows.append(UnivariateResult(
            feature=row["feature"],
            normality_p_benign=row["nb"],
            normality_p_malignant=row["nm"],
            rg=row["rg"],
            p_value=row["p"],
            fdr=fdr,
            note="; ".join(row["notes"]),
        ))
    return ScreenResult(rows=tuple(rows), n_significant=n_sig, n_up=n_up, n_down=n_down)
