"""Binary logistic regression by damped Newton/IRLS, BIC, and forward selection."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, PredictError, SeparationWarning
from .tables import FeatureTable

COEF_CAP = 30.0  # |beta| bound applied when separation is detected (standardized inputs)
GRAD_TOL = 1e-8
MAX_ITER = 100
_P_EPS = 1e-15
# forward_select fits its candidates in blocks of about CELLS (candidate x row)
# cells, so that the per-block temporaries stay in cache
CELLS = 2 ** 14
# a batched candidate whose smallest Hessian eigenvalue falls to this fraction
# of its largest diagonal entry is nearly collinear; the scalar fit decides
# whether it is singular
_PIVOT_TOL = 1e-10
# a batched BIC exceeds the scalar fit's by rounding only (~1e-12, ~1e-8 seen
# on a column with rows 40-60 SD out); candidates within this margin of the
# best refitted BIC, or of the ceiling, are refitted by `fit`, whose BICs decide
_BIC_MARGIN = 1e-6


@dataclass(frozen=True)
class FittedLogReg:
    intercept: float
    coefficients: dict[str, float]  # in selection order
    log_likelihood: float
    n_train: int
    converged: bool = True
    separated: bool = False

    @property
    def selected_order(self) -> tuple[str, ...]:
        return tuple(self.coefficients)

    @property
    def bic(self) -> float:
        return (1 + len(self.coefficients)) * math.log(self.n_train) - 2.0 * self.log_likelihood


def _design(table: FeatureTable, features: list[str], *, for_fit: bool) -> np.ndarray:
    cols = [table.feature_index(f) for f in features]
    if cols and np.isnan(table.values[:, cols]).any():
        exc = ModelError if for_fit else PredictError
        raise exc("missing cells in model feature columns")
    x = np.ones((table.n_samples, len(cols) + 1))
    if cols:
        x[:, 1:] = table.values[:, cols]
    return x


def _log_likelihood(x: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    p = _sigmoid(x @ beta)
    p = np.clip(p, _P_EPS, 1.0 - _P_EPS)
    return float(y @ np.log(p) + (1 - y) @ np.log1p(-p))


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(eta))  # never overflows
    return np.where(eta >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _classifies_every_row(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Whether each row of the fitted probabilities `p` ((n,) or (C, n))
    classifies every row of `y` at 0.5. Such a predictor separates the
    classes, so the likelihood has no maximum, only a supremum that a fit
    stops short of wherever its gradient falls below GRAD_TOL."""
    return ((p > 0.5) == (y > 0.5)).all(axis=-1)


def fit(table: FeatureTable, features: list[str] | tuple[str, ...] = ()) -> FittedLogReg:
    """Maximum-likelihood fit with a logit link.

    Damped Newton steps guarantee a non-decreasing log-likelihood; the fit
    converges when the largest score-gradient component falls below 1e-8.
    Perfect separation is reported through SeparationWarning: coefficients
    that pass |beta| = 30 are capped there, and a converged fit whose
    predictor classifies every row keeps its coefficients. A singular design
    raises.
    """
    features = list(features)
    y = table.labels.astype(float)
    if y.min() == y.max():
        raise ModelError("training data must contain both classes")
    x = _design(table, features, for_fit=True)
    beta = np.zeros(x.shape[1])
    ll = _log_likelihood(x, y, beta)
    converged = separated = False
    for _ in range(MAX_ITER):
        p = np.clip(_sigmoid(x @ beta), _P_EPS, 1.0 - _P_EPS)
        grad = x.T @ (y - p)
        if np.max(np.abs(grad)) < GRAD_TOL:
            converged = True
            break
        w = p * (1.0 - p)
        with np.errstate(over="ignore"):
            hess = x.T @ (x * w[:, None])
        if not np.isfinite(hess).all():  # a column too large to square
            raise ModelError("singular design: the Hessian is not finite")
        try:
            low = np.linalg.cholesky(hess)
        except np.linalg.LinAlgError as exc:  # a pivot is not positive
            raise ModelError(f"singular design: {exc}") from None
        step = np.linalg.solve(low.T, np.linalg.solve(low, grad))
        lam = 1.0
        while lam > 1e-8:
            cand = beta + lam * step
            ll_cand = _log_likelihood(x, y, cand)
            if ll_cand >= ll - 1e-10:
                beta, ll = cand, ll_cand
                break
            lam /= 2.0
        if np.max(np.abs(beta)) > COEF_CAP:
            separated = True
            beta = np.clip(beta, -COEF_CAP, COEF_CAP)
            ll = _log_likelihood(x, y, beta)
            warnings.warn("perfect separation detected; coefficients capped",
                          SeparationWarning)
            break
    if converged and _classifies_every_row(p, y):
        separated = True
        warnings.warn("perfect separation detected; the fit converged below the "
                      "coefficient cap", SeparationWarning)
    return FittedLogReg(
        intercept=float(beta[0]),
        coefficients={f: float(b) for f, b in zip(features, beta[1:])},
        log_likelihood=ll,
        n_train=table.n_samples,
        converged=converged,
        separated=separated,
    )


def _beta(model: FittedLogReg) -> np.ndarray:
    """[intercept, *coefficients], the coefficient vector of `_design`'s columns."""
    return np.array([model.intercept, *model.coefficients.values()])


def predict_proba(model: FittedLogReg, table: FeatureTable) -> np.ndarray:
    """Per-row sigmoid(intercept + beta . x), clipped into the open interval (0,1)."""
    x = _design(table, list(model.selected_order), for_fit=False)
    return np.clip(_sigmoid(x @ _beta(model)), _P_EPS, 1.0 - _P_EPS)


def _loglik_rows(eta: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-likelihood of each row of a (C, n) linear predictor, and its clipped p."""
    p = np.clip(_sigmoid(eta), _P_EPS, 1.0 - _P_EPS)
    return np.log(p) @ y + np.log1p(-p) @ (1.0 - y), p


def _newton_steps(h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve each h[c] s[c] = g[c]; ok[c] is False (and s[c] is 0) when
    h[c] is not finite or its smallest eigenvalue is not above _PIVOT_TOL
    times its largest diagonal entry."""
    ok = np.isfinite(h).all(axis=(1, 2))
    ok[ok] = (np.linalg.eigvalsh(h[ok])[:, 0]
              > _PIVOT_TOL * h[ok].diagonal(axis1=1, axis2=2).max(axis=1))
    s = np.zeros_like(g)
    s[ok] = np.linalg.solve(h[ok], g[ok, :, None])[:, :, 0]
    return s, ok


def _dual_bounds(x0: np.ndarray, z: np.ndarray, y: np.ndarray, p: np.ndarray,
                 w: np.ndarray, step: np.ndarray) -> np.ndarray:
    """An upper bound on the log-likelihood of every beta with |beta| <= COEF_CAP
    on the design [x0 | z[c]], for each candidate c at clipped probabilities
    p[c] (weights w[c]) with Newton step step[c]; NaN where no bound is taken.

    For any alpha in (0, 1)^n, log(1 + e^eta) >= alpha eta + H(alpha) (H the
    binary entropy), so LL(beta) <= -sum H(alpha) + (y - alpha)' X beta
    <= -sum H(alpha) + COEF_CAP |X'(y - alpha)|_1 (weak duality for the
    logistic dual, Jaakkola & Haussler 1999). alpha = p + w (X step), the
    linearized probabilities after the step, makes X'(y - alpha) = g - H step,
    zero but for rounding, and the bound tight as the step shrinks. The bound
    is on the unclipped log-likelihood; `fit`'s clipped one differs only on
    rows whose probability passes _P_EPS, so a candidate with a row of p at
    the clip gets NaN.
    """
    k0 = x0.shape[1]
    # an alpha outside (0, 1) makes its entropy term, so the bound, NaN
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = p + w * (step[:, :k0] @ x0.T + step[:, k0, None] * z)
        log_b = np.log1p(-a)
        entropy = -np.einsum("cn,cn->c", a, np.log(a) - log_b) - log_b.sum(axis=1)
        r = y - a
        gap = np.abs(r @ x0).sum(axis=1) + np.abs(np.einsum("cn,cn->c", r, z))
        bound = COEF_CAP * gap - entropy
    bound[(p.min(axis=1) <= _P_EPS) | (p.max(axis=1) >= 1.0 - _P_EPS)] = np.nan
    return bound


def _candidate_bics(x0: np.ndarray, zt: np.ndarray, y: np.ndarray,
                    start: np.ndarray, ceiling: float = math.inf) -> np.ndarray:
    """BIC of the maximum-likelihood fit of the design [x0 | z] for every row z
    of zt, by damped Newton steps run on all candidates at once. Every
    candidate starts at (start, 0): `start` is the fitted model of x0, so the
    first step begins at that model's log-likelihood. Steps are accepted by
    `fit`'s rule and a candidate converges when its largest score-gradient
    component falls below GRAD_TOL.

    NaN marks a candidate left to `fit`: its Hessian was not finite or
    (nearly) singular, a coefficient passed COEF_CAP, no step length was
    accepted, MAX_ITER iterations ended without convergence, or it converged
    to a predictor that separates the classes. Every other BIC is the MLE's, so it is at
    most `fit`'s BIC (from beta = 0, maybe capped) plus rounding.

    A finite `ceiling` also rules candidates out. A candidate stops iterating
    once `_dual_bounds` puts a lower bound on the BIC of every coefficient
    vector within COEF_CAP (a box `fit` never leaves) above `ceiling` plus
    _BIC_MARGIN, and that bound is its value. So every value is NaN, the MLE's
    BIC, or a lower bound on `fit`'s BIC above the ceiling; the default
    ceiling returns no bounds.

    Candidate c's coefficients are (b0[c], b1[c]); its Hessian is assembled from
    the shared block x0' W x0, the column x0' W z and the corner z' W z, so no
    per-candidate design is ever formed.
    """
    c, n = zt.shape
    k0 = x0.shape[1]
    penalty = (k0 + 1) * math.log(n)
    outer0 = (x0[:, :, None] * x0[:, None, :]).reshape(n, k0 * k0)
    b0, b1 = np.tile(start, (c, 1)), np.zeros(c)
    ll0, p0 = _loglik_rows((x0 @ start)[None, :], y)
    ll, p = np.repeat(ll0, c), np.repeat(p0, c, axis=0)
    failed = np.zeros(c, dtype=bool)
    live = np.arange(c)

    def eta(rows, beta0, beta1):
        return beta0 @ x0.T + beta1[:, None] * zt[rows]

    for it in range(MAX_ITER):
        r = y - p[live]
        z = zt[live]
        grad = np.column_stack([r @ x0, np.einsum("cn,cn->c", r, z)])
        converged = np.abs(grad).max(axis=1) < GRAD_TOL
        done = live[converged]
        failed[done[_classifies_every_row(p[done], y)]] = True
        # every Hessian is checked at the start, where a column collinear with
        # x0 (a copy of a selected one, a constant) is already stationary
        moving = ~converged | (it == 0)
        live, grad, z = live[moving], grad[moving], z[moving]
        if live.size == 0:
            break
        pl = p[live]
        w = pl * (1.0 - pl)
        wz = w * z
        hess = np.empty((live.size, k0 + 1, k0 + 1))
        with np.errstate(over="ignore"):  # _newton_steps refuses a non-finite Hessian
            hess[:, :k0, :k0] = (w @ outer0).reshape(-1, k0, k0)
            hess[:, k0, :k0] = hess[:, :k0, k0] = wz @ x0
            hess[:, k0, k0] = np.einsum("cn,cn->c", wz, z)
        step, ok = _newton_steps(hess, grad)
        failed[live[~ok]] = True
        live, step = live[ok], step[ok]
        if ceiling < math.inf:
            bar = ceiling + _BIC_MARGIN
            ll_max = _dual_bounds(x0, z[ok], y, pl[ok], w[ok], step)
            out = np.flatnonzero(penalty - 2.0 * ll_max > bar)
            ll[live[out]] = ll_max[out]  # so its value is the bound's BIC
            live, step = np.delete(live, out), np.delete(step, out, axis=0)
        pending = np.arange(live.size)
        lam = 1.0
        while lam > 1e-8 and pending.size:
            rows = live[pending]
            cand0 = b0[rows] + lam * step[pending, :k0]
            cand1 = b1[rows] + lam * step[pending, k0]
            ll_cand, p_cand = _loglik_rows(eta(rows, cand0, cand1), y)
            accept = ll_cand >= ll[rows] - 1e-10
            took = rows[accept]
            b0[took], b1[took] = cand0[accept], cand1[accept]
            ll[took], p[took] = ll_cand[accept], p_cand[accept]
            pending = pending[~accept]
            lam /= 2.0
        stop = np.maximum(np.abs(b0[live]).max(axis=1), np.abs(b1[live])) > COEF_CAP
        stop[pending] = True
        failed[live[stop]] = True
        live = live[~stop]
    failed[live] = True  # MAX_ITER iterations without convergence
    bic = penalty - 2.0 * ll
    bic[failed] = np.nan
    return bic


def forward_select(table: FeatureTable, candidates: list[str] | tuple[str, ...],
                   delta_bic_stop: float = 2.0) -> FittedLogReg:
    """Greedy forward selection under a BIC-improvement stop rule.

    Starting from the intercept-only model, each step fits every one-feature
    extension and adds the lowest-BIC candidate (exact ties broken by name);
    selection halts when the best improvement over the current model's BIC
    is <= delta_bic_stop or candidates are exhausted. Candidates whose fit
    fails are skipped with a warning. A NaN cell in a candidate column
    raises ModelError (filter_missingness imputes every cell).

    The extensions of a step are fitted together in blocks (`_candidate_bics`),
    each starting from the current model's coefficients, under a ceiling: the
    current BIC minus delta_bic_stop, lowered to the lowest BIC an earlier
    block of the step reached. A batched value is NaN for a candidate that
    `fit` alone decides, the candidate's MLE BIC, or, for a candidate ruled
    out above the ceiling, a proven lower bound on the BIC of every
    coefficient vector within COEF_CAP, the box `fit` never leaves. So no value
    is above the candidate's `fit` BIC by more than rounding. Candidates are
    refitted by `fit` in batched order until the next value exceeds the best
    refitted BIC, or the stop rule's ceiling, plus _BIC_MARGIN, so the chosen
    model and its BIC are exactly `fit`'s.
    """
    remaining = list(dict.fromkeys(candidates))
    if not remaining:
        raise ModelError("forward selection needs at least one candidate")
    if np.isnan(table.values[:, [table.feature_index(f) for f in remaining]]).any():
        raise ModelError("missing cells in candidate feature columns")
    current = fit(table, [])
    y = table.labels.astype(float)
    block = max(1, CELLS // table.n_samples)
    while remaining:
        selected = list(current.selected_order)
        cols = [table.feature_index(f) for f in remaining]
        zt = np.ascontiguousarray(table.values[:, cols].T)
        x0 = _design(table, selected, for_fit=True)
        beta = _beta(current)
        # a candidate whose BIC is not below the ceiling cannot pass the stop
        # rule, nor can one above the lowest BIC an earlier block reached win
        ceiling = current.bic - delta_bic_stop
        bic = np.empty(len(remaining))
        lowest = ceiling
        for i in range(0, len(remaining), block):
            bic[i:i + block] = _candidate_bics(x0, zt[i:i + block], y, beta, lowest)
            lowest = float(np.fmin(lowest, bic[i:i + block]).min())
        refits: dict[str, FittedLogReg | None] = {}

        def refit(name: str) -> FittedLogReg | None:
            if name not in refits:
                try:
                    refits[name] = fit(table, selected + [name])
                except ModelError as exc:
                    warnings.warn(f"skipping candidate {name!r}: {exc}")
                    refits[name] = None
            return refits[name]

        for i in np.flatnonzero(np.isnan(bic)):
            model = refit(remaining[i])
            if model is not None:
                bic[i] = model.bic
        scored: list[tuple[float, str, FittedLogReg]] = []
        for i in np.argsort(bic, kind="stable"):
            best = scored[0][0] if scored else math.inf
            if np.isnan(bic[i]) or bic[i] > min(best, ceiling) + _BIC_MARGIN:
                break
            model = refit(remaining[i])
            if model is not None:
                scored.append((model.bic, remaining[i], model))
                scored.sort(key=lambda t: (t[0], t[1]))
        if not scored:
            break
        best_bic, best_name, best_model = scored[0]
        if current.bic - best_bic <= delta_bic_stop:
            break
        current = best_model
        remaining.remove(best_name)
    return current


def to_doc(model: FittedLogReg) -> dict:
    """Serializable document for a fitted model (versioned). selected_order
    and bic are derived, so not stored."""
    return {
        "format": "latefuse-logreg",
        "version": 2,
        "intercept": model.intercept,
        "coefficients": dict(model.coefficients),
        "log_likelihood": model.log_likelihood,
        "n_train": model.n_train,
        "converged": model.converged,
        "separated": model.separated,
    }


def from_doc(doc: dict) -> FittedLogReg:
    """The model of a version-2 document; any other version is refused.
    The intercept, coefficients and log-likelihood are finite and n_train is
    a positive integer, as to_doc writes them."""
    if doc.get("format") != "latefuse-logreg":
        raise ModelError("unrecognized logistic model document")
    if doc.get("version") != 2:
        raise ModelError(f"unrecognized logistic model document version "
                         f"{doc.get('version')!r}; re-run train to write version 2")
    coefficients = {k: float(v) for k, v in doc["coefficients"].items()}
    intercept, log_likelihood = float(doc["intercept"]), float(doc["log_likelihood"])
    if not all(map(math.isfinite, (intercept, log_likelihood, *coefficients.values()))):
        raise ModelError("logistic model intercept, coefficients and log_likelihood "
                         "must be finite")
    n_train = doc["n_train"]
    if not isinstance(n_train, int) or n_train < 1:
        raise ModelError(f"logistic model n_train {n_train!r} is not a positive integer")
    return FittedLogReg(
        intercept=intercept,
        coefficients=coefficients,
        log_likelihood=log_likelihood,
        n_train=n_train,
        converged=bool(doc["converged"]),
        separated=bool(doc["separated"]),
    )
