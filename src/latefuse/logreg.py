"""Binary logistic regression by damped Newton/IRLS, BIC, and forward selection."""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ModelError, PredictError, SeparationWarning
from .tables import FeatureTable

COEF_CAP = 30.0  # |beta| bound applied when separation is detected (standardized inputs)
GRAD_TOL = 1e-8
MAX_ITER = 100
_P_EPS = 1e-15  # predict_proba's output clip: probit fusion needs scores inside (0, 1)
# forward_select fits its candidates in blocks of about CELLS (candidate x row)
# cells. On the perfbench workloads' selections (2-vCPU Xeon, one BLAS thread,
# best of 9-15 interleaved rounds) 2**15 was faster than 2**14: 127 against
# 144 ms on desk (294 rows), 49 against 54 ms on cohort (3,198 rows; 2**16
# took 54 ms). But at 2**15 the cohort bench (seed 7) read a peak RSS of
# 53.8 MB, against 52.0 MB at 2**14 and 52.5 MB before the shared start. The
# traced peak of a cohort-shaped selection is 2.2 MB at 2**14, 2.7 MB at 2**15
# and 3.8 MB at 2**16 (test_forward_select_working_memory)
CELLS = 2 ** 14
# a Hessian whose smallest eigenvalue falls to this fraction of its largest
# diagonal entry is singular: its design's columns are (nearly) collinear
_PIVOT_TOL = 1e-10


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


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(eta))  # never overflows
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


def _loglik_rows(eta: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-likelihood y' eta - sum log(1 + e^eta) of each row of a (C, n)
    linear predictor (or of one (n,) predictor), and sigma(eta), both from
    e = exp(-|eta|). Row i's term is -(max(s eta_i, 0) + log(1 + e_i)) with
    s = 1 - 2 y_i, never positive, so the sum does not cancel."""
    e = np.exp(-np.abs(eta))  # never overflows
    p = np.where(eta >= 0, 1.0, e)
    p /= 1.0 + e
    t = (1.0 - 2.0 * y) * eta
    np.maximum(t, 0.0, out=t)
    t += np.log1p(e, out=e)
    return -t.sum(axis=-1), p


def _classifies_every_row(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Whether each row of the fitted probabilities `p` ((n,) or (C, n))
    classifies every row of `y` at 0.5. Such a predictor separates the
    classes, so the likelihood has no maximum, only a supremum that a fit
    stops short of wherever its gradient falls below GRAD_TOL."""
    return ((p > 0.5) == (y > 0.5)).all(axis=-1)


def fit(table: FeatureTable, features: list[str] | tuple[str, ...] = ()) -> FittedLogReg:
    """Maximum-likelihood fit with a logit link: `_newton` with one
    candidate, the last column of the design, from beta = 0.

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
    x0 = x[:, :-1]
    beta, ll, status = _newton(x0, x[:, -1:].T, y, _shared_start(x0, y, np.zeros(len(features))))
    if status[0].startswith("singular"):
        raise ModelError(status[0])
    _warn_separation(status[0])
    return _model(features, beta[0], ll[0], status[0], table.n_samples)


def _warn_separation(status: str) -> None:
    if status == "capped":
        warnings.warn("perfect separation detected; coefficients capped", SeparationWarning)
    elif status == "separated":
        warnings.warn("perfect separation detected; the fit converged below the "
                      "coefficient cap", SeparationWarning)


def _model(features: list[str], beta: np.ndarray, ll: float, status: str,
           n_train: int) -> FittedLogReg:
    """The model of one `_newton` fit on the design [1 | features]."""
    return FittedLogReg(
        intercept=float(beta[0]),
        coefficients={f: float(b) for f, b in zip(features, beta[1:])},
        log_likelihood=float(ll),
        n_train=n_train,
        converged=status in ("converged", "separated"),
        separated=status in ("separated", "capped"),
    )


def _beta(model: FittedLogReg) -> np.ndarray:
    """[intercept, *coefficients], the coefficient vector of `_design`'s columns."""
    return np.array([model.intercept, *model.coefficients.values()])


def predict_proba(model: FittedLogReg, table: FeatureTable) -> np.ndarray:
    """Per-row sigmoid(intercept + beta . x), clipped into the open interval (0,1)."""
    x = _design(table, list(model.selected_order), for_fit=False)
    return np.clip(_sigmoid(x @ _beta(model)), _P_EPS, 1.0 - _P_EPS)


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
    on the design [x0 | z[c]], for each candidate c at probabilities p[c]
    (weights w[c]) with Newton step step[c]. p and w may also be one row that
    every candidate shares.

    For any alpha in [0, 1]^n, log(1 + e^eta) >= alpha eta + H(alpha) (H the
    binary entropy), so LL(beta) <= -sum H(alpha) + (y - alpha)' X beta
    <= -sum H(alpha) + COEF_CAP |X'(y - alpha)|_1 (weak duality for the
    logistic dual, Jaakkola & Haussler 1999). alpha = p + w (X step), the
    linearized probabilities after the step, makes X'(y - alpha) = g - H step,
    zero but for rounding, and the bound tight as the step shrinks. alpha is
    clipped into the open interval (0, 1), where the logarithms in H are
    finite, since the bound holds at every alpha in [0, 1].
    """
    k0 = x0.shape[1]
    # the (candidate x row) arrays are updated in place, so at most three are
    # alive at once; an alpha that overflows can be NaN, and so its bound,
    # which rules nothing out
    with np.errstate(over="ignore", invalid="ignore"):
        a = step[:, :k0] @ x0.T
        a += step[:, k0, None] * z
        a *= w
        a += p
        np.clip(a, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), out=a)
        log_b = np.negative(a)
        np.log1p(log_b, out=log_b)
        log_a = np.log(a)
        log_a -= log_b
        entropy = -np.einsum("cn,cn->c", a, log_a) - log_b.sum(axis=1)
        del log_a, log_b
        r = np.subtract(y, a, out=a)
        gap = np.abs(r @ x0).sum(axis=1) + np.abs(np.einsum("cn,cn->c", r, z))
        return COEF_CAP * gap - entropy


@dataclass(frozen=True)
class _Start:
    """The model every candidate of `_newton` starts from: its coefficients,
    log-likelihood and probabilities p on the design x0, the weights
    w = p (1 - p), the residual y - p, the x0 part of the gradient x0' (y - p),
    the rows of x0 times w, and x0' W x0."""
    beta: np.ndarray
    ll: float
    p: np.ndarray
    w: np.ndarray
    r: np.ndarray
    grad: np.ndarray
    wx0: np.ndarray
    hess: np.ndarray


def _shared_start(x0: np.ndarray, y: np.ndarray, beta: np.ndarray) -> _Start:
    """What all candidates of a `_newton` call share, computed once."""
    ll, p = _loglik_rows(x0 @ beta, y)
    w = p * (1.0 - p)
    r = y - p
    wx0 = x0 * w[:, None]
    return _Start(beta=beta, ll=float(ll), p=p, w=w, r=r, grad=r @ x0, wx0=wx0,
                  hess=x0.T @ wx0)


def _newton(x0: np.ndarray, zt: np.ndarray, y: np.ndarray, start: _Start,
            ceiling: float = math.inf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximum-likelihood fits of the design [x0 | z] for every row z of zt,
    by damped Newton steps run on all candidates at once, each from
    (start.beta, 0), where `start` (`_shared_start`) is the model of x0. A
    step is halved until it does not lower the log-likelihood by more than
    1e-10, and a candidate converges when its largest score-gradient
    component falls below GRAD_TOL.

    Returns each candidate's coefficients (C, k0 + 1), log-likelihood and
    status, one of
    - "converged": the maximum-likelihood fit;
    - "separated": converged to a predictor that classifies every row;
    - "capped": a coefficient passed COEF_CAP; the coefficients are clipped
      to the cap and the log-likelihood is theirs;
    - "unconverged": MAX_ITER iterations ended, or no step length was taken;
    - "singular design", or "singular design: the Hessian is not finite",
      the refusal of `_newton_steps`; the coefficients are where it stopped;
    - "ruled out": under a finite `ceiling`, `_dual_bounds` put the BIC of
      every coefficient vector within COEF_CAP (a box no fit leaves) above
      the ceiling, so the candidate stopped iterating, and its
      log-likelihood is that bound. The default ceiling rules nothing out.

    Candidate c's Hessian is assembled from the block x0' W x0, the column
    x0' W z and the corner z' W z, so no per-candidate design is ever formed.
    At the first iteration every candidate shares the start's probabilities,
    so only z' r, z' W x0 and z' W z are its own; a candidate gets its own
    row of probabilities when it takes a step.
    """
    c, n = zt.shape
    k0 = x0.shape[1]
    penalty = (k0 + 1) * math.log(n)
    beta = np.zeros((c, k0 + 1))
    beta[:, :k0] = start.beta
    ll, p = np.full(c, start.ll), np.empty((c, n))
    status = np.full(c, "unconverged", dtype=object)
    live = np.arange(c)

    def loglik(rows, b):
        return _loglik_rows(b[:, :k0] @ x0.T + b[:, k0, None] * zt[rows], y)

    for it in range(MAX_ITER):
        if it == 0:
            # every candidate takes a step here, even one already stationary
            # (a column collinear with x0: a copy of a selected one, a
            # constant), so that every Hessian is checked
            z, pl, w = zt, start.p, start.w
            grad = np.column_stack([np.broadcast_to(start.grad, (c, k0)), z @ start.r])
            hess = np.empty((c, k0 + 1, k0 + 1))
            with np.errstate(over="ignore"):  # _newton_steps refuses a non-finite Hessian
                hess[:, :k0, :k0] = start.hess
                hess[:, k0, :k0] = z @ start.wx0
                hess[:, k0, k0] = (z * z) @ w
        else:
            z, pl = zt[live], p[live]
            r = y - pl
            grad = np.column_stack([r @ x0, np.einsum("cn,cn->c", r, z)])
            converged = np.abs(grad).max(axis=1) < GRAD_TOL
            status[live[converged]] = np.where(_classifies_every_row(pl[converged], y),
                                               "separated", "converged")
            live, grad, z, pl = (a[~converged] for a in (live, grad, z, pl))
            if live.size == 0:
                break
            w = pl * (1.0 - pl)
            wz = w * z
            hess = np.empty((live.size, k0 + 1, k0 + 1))
            with np.errstate(over="ignore"):
                # (candidate x k0 x row) cells, not the (row x k0^2) outer
                # products of x0's rows, which a wide `fit` could not hold
                hess[:, :k0, :k0] = (x0.T * w[:, None, :]) @ x0
                hess[:, k0, :k0] = wz @ x0
                hess[:, k0, k0] = np.einsum("cn,cn->c", wz, z)
        hess[:, :k0, k0] = hess[:, k0, :k0]
        step, ok = _newton_steps(hess, grad)
        status[live[~ok]] = np.where(np.isfinite(hess[~ok]).all(axis=(1, 2)), "singular design",
                                     "singular design: the Hessian is not finite")
        if ceiling < math.inf:
            ll_max = _dual_bounds(x0, z, y, pl, w, step)
            out = ok & (penalty - 2.0 * ll_max > ceiling)
            ll[live[out]] = ll_max[out]
            status[live[out]] = "ruled out"
            ok &= ~out
        live, step = live[ok], step[ok]
        pending = np.arange(live.size)
        lam = 1.0
        while lam > 1e-8 and pending.size:
            rows = live[pending]
            cand = beta[rows] + lam * step[pending]
            ll_cand, p_cand = loglik(rows, cand)
            accept = ll_cand >= ll[rows] - 1e-10
            took = rows[accept]
            beta[took], ll[took], p[took] = cand[accept], ll_cand[accept], p_cand[accept]
            pending = pending[~accept]
            lam /= 2.0
        stop = np.abs(beta[live]).max(axis=1) > COEF_CAP
        capped = live[stop]
        beta[capped] = np.clip(beta[capped], -COEF_CAP, COEF_CAP)
        ll[capped] = loglik(capped, beta[capped])[0]
        status[capped] = "capped"
        stop[pending] = True  # a stalled line search stays "unconverged"
        live = live[~stop]
    return beta, ll, status


def _fit_candidates(x0: np.ndarray, zt: np.ndarray, y: np.ndarray, beta: np.ndarray,
                    ceiling: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_newton` on every row of zt, in blocks of about CELLS (candidate x row)
    cells, all from the model `beta` of x0 (one `_shared_start`), under
    `ceiling`. A candidate whose fit from there is neither its
    maximum-likelihood estimate nor ruled out (it was refused as singular,
    separated, was capped or did not converge) is fitted again alone from
    beta = 0, as `fit` fits it. From a separated model most weights vanish,
    so a Hessian can fail the eigenvalue test that the design passes from
    beta = 0; and a path to the cap is ill-conditioned, so fits that tie
    (duplicated or mirrored columns) would end apart by rounding that
    depends on their rows in the block."""
    block = max(1, CELLS // y.size)
    start = _shared_start(x0, y, beta)
    beta, ll, status = (np.concatenate(parts) for parts in zip(*(
        _newton(x0, zt[i:i + block], y, start, ceiling)
        for i in range(0, len(zt), block))))
    redo = np.flatnonzero(~np.isin(status, ["converged", "ruled out"]))
    if redo.size:
        cold = _shared_start(x0, y, np.zeros(x0.shape[1]))
        for i in redo:
            (beta[i],), (ll[i],), (status[i],) = _newton(x0, zt[i:i + 1], y, cold)
    return beta, ll, status


def forward_select(table: FeatureTable, candidates: list[str] | tuple[str, ...],
                   delta_bic_stop: float = 2.0) -> FittedLogReg:
    """Greedy forward selection under a BIC-improvement stop rule.

    Starting from the intercept-only model, each step fits every one-feature
    extension and adds the lowest-BIC candidate (ties, to rounding, broken by
    name); selection halts when the best improvement over the current model's
    BIC is <= delta_bic_stop or candidates are exhausted. Candidates with a
    singular design are skipped with a warning, and a candidate whose fit
    separates the classes warns as `fit` does. A NaN cell in a candidate
    column raises ModelError (filter_missingness imputes every cell).

    The extensions of a step are fitted together (`_fit_candidates`) from
    the current model, whose probabilities, weights and x0 parts of the
    gradient and Hessian are computed once for the step (`_shared_start`);
    the chosen extension's fit is the next model. They run under one
    ceiling, the current BIC minus delta_bic_stop: a candidate ruled out
    above it cannot pass the stop rule, and its bound, below the BIC of
    every coefficient vector within COEF_CAP, stands in for its BIC.
    """
    remaining = list(dict.fromkeys(candidates))
    if not remaining:
        raise ModelError("forward selection needs at least one candidate")
    if np.isnan(table.values[:, [table.feature_index(f) for f in remaining]]).any():
        raise ModelError("missing cells in candidate feature columns")
    current = fit(table, [])
    y = table.labels.astype(float)
    while remaining:
        selected = list(current.selected_order)
        cols = [table.feature_index(f) for f in remaining]
        zt = table.values.T[cols]  # one C-ordered copy, (candidate x row)
        x0 = _design(table, selected, for_fit=True)
        # a candidate whose BIC is not below the ceiling cannot pass the stop rule
        ceiling = current.bic - delta_bic_stop
        beta, ll, status = _fit_candidates(x0, zt, y, _beta(current), ceiling)
        del zt  # so the next step's is built without it
        fitted = []
        for i, (name, s) in enumerate(zip(remaining, status)):
            if s.startswith("singular"):
                warnings.warn(f"skipping candidate {name!r}: {s}")
            else:
                _warn_separation(s)
                fitted.append(i)
        if not fitted:
            break
        # a log-likelihood within rounding of the best ties it: a duplicated or
        # mirrored column gets other last bits in another row of a block
        top = ll[fitted].max()
        best = min((i for i in fitted if ll[i] >= top - 1e-12 * abs(top)),
                   key=remaining.__getitem__)
        model = _model(selected + [remaining[best]], beta[best], ll[best], status[best],
                       table.n_samples)
        if current.bic - model.bic <= delta_bic_stop:
            break
        current = model
        del remaining[best]
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
    The intercept, coefficients and log-likelihood are finite JSON numbers,
    n_train is a positive integer and the two flags are booleans, as to_doc
    writes them."""
    if doc.get("format") != "latefuse-logreg":
        raise ModelError("unrecognized logistic model document")
    if doc.get("version") != 2:
        raise ModelError(f"unrecognized logistic model document version "
                         f"{doc.get('version')!r}; re-run train to write version 2")
    numbers = (doc["intercept"], doc["log_likelihood"], *doc["coefficients"].values())
    # an int or a float, not "0.5" or true; an int past the float range or a
    # non-finite float fails the comparison
    if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in numbers):
        raise ModelError("logistic model intercept, coefficients and log_likelihood "
                         "must be finite numbers")
    coefficients = {k: float(v) for k, v in doc["coefficients"].items()}
    intercept, log_likelihood = float(doc["intercept"]), float(doc["log_likelihood"])
    n_train, flags = doc["n_train"], (doc["converged"], doc["separated"])
    if type(n_train) is not int or n_train < 1:  # a JSON integer, not true or 2.0
        raise ModelError(f"logistic model n_train {n_train!r} is not a positive integer")
    if not all(type(flag) is bool for flag in flags):
        raise ModelError(f"logistic model converged, separated {flags!r} are not booleans")
    return FittedLogReg(
        intercept=intercept,
        coefficients=coefficients,
        log_likelihood=log_likelihood,
        n_train=n_train,
        converged=flags[0],
        separated=flags[1],
    )
