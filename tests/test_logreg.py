import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit

from latefuse import logreg as lr
from latefuse.errors import ModelError, PredictError, SeparationWarning

from conftest import gaussian_table, make_table


def exact_loglik(x, y, beta):
    """The log-likelihood y' eta - sum log(1 + e^eta) of the design x at beta."""
    eta = x @ beta
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def test_intercept_only_closed_form():
    t = gaussian_table(50, 50, 1, seed=0)
    m = lr.fit(t, [])
    assert m.intercept == pytest.approx(0.0, abs=1e-10)
    assert m.log_likelihood == pytest.approx(100 * math.log(0.5), abs=1e-9)
    assert m.bic == pytest.approx(math.log(100) - 200 * math.log(0.5), abs=1e-9)
    assert m.converged


def test_intercept_only_unbalanced_matches_base_rate():
    t = gaussian_table(75, 25, 1, seed=1)
    m = lr.fit(t, [])
    # score equation: fitted probability equals the positive rate
    p = lr.predict_proba(m, t)
    assert np.allclose(p, 0.25, atol=1e-9)


def test_bic_identity_every_fit():
    rng = np.random.default_rng(2)
    for seed in range(10):
        t = gaussian_table(30, 30, 4, shifts={0: 1.0}, seed=seed)
        feats = list(t.feature_names[: rng.integers(0, 5)])
        m = lr.fit(t, feats)
        k = 1 + len(feats)
        assert m.bic == pytest.approx(k * math.log(t.n_samples) - 2 * m.log_likelihood,
                                      abs=1e-12)


def test_single_class_rejected():
    t = gaussian_table(10, 0, 2, seed=3)
    with pytest.raises(ModelError):
        lr.fit(t, ["f000"])


def test_separation_detected_and_capped():
    t = gaussian_table(20, 20, 1, seed=4)
    values = t.values.copy()
    values[:, 0] = t.labels  # feature equals the label
    sep = t.with_matrix(values, np.isnan(t.values))
    with pytest.warns(SeparationWarning):
        m = lr.fit(sep, ["f000"])
    assert m.separated
    assert max(abs(v) for v in m.coefficients.values()) <= 30.0 + 1e-9


def test_separation_detected_below_the_cap():
    # the gradient falls below GRAD_TOL at coefficient ~4.2, long before the
    # cap, with a predictor that classifies every row
    x = 10.0 * np.array([-3, -2, -1, -0.5, 0.5, 1, 2, 3])
    t = make_table(x[:, None], (x > 0).astype(int))
    with pytest.warns(SeparationWarning, match="below the coefficient cap"):
        m = lr.fit(t, ["f000"])
    assert m.converged and m.separated
    assert m.coefficients["f000"] == pytest.approx(4.1757, abs=1e-4)
    assert m.log_likelihood > -1e-8
    assert lr._classifies_every_row(lr.predict_proba(m, t), t.labels.astype(float))


def test_singular_design_rejected():
    t = gaussian_table(25, 25, 3, seed=5)
    values = t.values.copy()
    values[:, 1] = values[:, 0]  # exact duplicate column
    dup = t.with_matrix(values, np.isnan(t.values))
    with pytest.raises(ModelError, match="singular"):
        lr.fit(dup, ["f000", "f001"])


def test_missing_cells_rejected():
    missing = np.zeros((10, 1), dtype=bool)
    missing[3, 0] = True
    t = make_table(np.ones((10, 1)), [0] * 5 + [1] * 5, missing=missing)
    with pytest.raises(ModelError):
        lr.fit(t, ["f000"])


def test_recovers_planted_coefficients():
    rng = np.random.default_rng(6)
    n = 5000
    x = rng.normal(size=(n, 2))
    eta = 0.3 + 1.5 * x[:, 0] - 2.0 * x[:, 1]
    y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(np.int8)
    t = make_table(x, y)
    m = lr.fit(t, ["f000", "f001"])
    assert m.coefficients["f000"] == pytest.approx(1.5, abs=0.1)
    assert m.coefficients["f001"] == pytest.approx(-2.0, abs=0.1)
    assert m.converged


def test_train_probabilities_average_to_base_rate():
    t = gaussian_table(60, 40, 3, shifts={0: 1.0}, seed=7)
    m = lr.fit(t, list(t.feature_names))
    p = lr.predict_proba(m, t)
    assert p.mean() == pytest.approx(0.4, abs=1e-6)


def test_nested_fit_loglik_monotone():
    t = gaussian_table(40, 40, 4, shifts={0: 1.0, 1: 0.5}, seed=8)
    lls = [lr.fit(t, list(t.feature_names[:k])).log_likelihood for k in range(5)]
    for smaller, larger in zip(lls, lls[1:]):
        assert larger >= smaller - 1e-8


def test_gradient_matches_finite_differences():
    t = gaussian_table(50, 50, 2, shifts={0: 1.0}, seed=9)
    m = lr.fit(t, list(t.feature_names))
    x = np.column_stack([np.ones(t.n_samples), t.values])
    y = t.labels.astype(float)
    beta = np.concatenate([[m.intercept], list(m.coefficients.values())])

    def loglik(b):
        return exact_loglik(x, y, b)

    h = 1e-6
    fd = np.array([(loglik(beta + h * e) - loglik(beta - h * e)) / (2 * h)
                   for e in np.eye(beta.size)])
    p = 1 / (1 + np.exp(-(x @ beta)))
    analytic = x.T @ (y - p)
    scale = max(1.0, abs(loglik(beta)))
    assert np.max(np.abs(fd - analytic)) <= 1e-5 * scale
    assert np.max(np.abs(analytic)) < 1e-8  # converged stationary point

    # also check the gradient formula away from the optimum, relatively
    beta2 = beta + 0.37
    fd2 = np.array([(loglik(beta2 + h * e) - loglik(beta2 - h * e)) / (2 * h)
                    for e in np.eye(beta.size)])
    p2 = 1 / (1 + np.exp(-(x @ beta2)))
    analytic2 = x.T @ (y - p2)
    assert np.allclose(fd2, analytic2, rtol=1e-5)


def test_predict_proba_examples():
    t = gaussian_table(4, 4, 1, seed=10)
    flat = lr.FittedLogReg(intercept=0.0, coefficients={"f000": 0.0},
                           log_likelihood=-1.0, n_train=8)
    assert np.allclose(lr.predict_proba(flat, t), 0.5)
    prior = lr.FittedLogReg(intercept=math.log(3), coefficients={},
                            log_likelihood=-1.0, n_train=8)
    assert np.allclose(lr.predict_proba(prior, t), 0.75)


def test_predict_monotone_in_positive_coefficient():
    base = make_table([[0.0], [1.0], [2.0]], [0, 1, 1])
    m = lr.FittedLogReg(intercept=-0.5, coefficients={"f000": 2.0},
                        log_likelihood=-1.0, n_train=3)
    p = lr.predict_proba(m, base)
    assert p[0] < p[1] < p[2]


def test_predict_missing_cell_rejected():
    missing = np.zeros((2, 1), dtype=bool)
    missing[1, 0] = True
    t = make_table([[0.5], [0.5]], [0, 1], missing=missing)
    m = lr.FittedLogReg(intercept=0.0, coefficients={"f000": 1.0},
                        log_likelihood=-1.0, n_train=2)
    with pytest.raises(PredictError):
        lr.predict_proba(m, t)


def test_forward_select_infinite_stop_returns_intercept_only():
    t = gaussian_table(30, 30, 5, shifts={0: 3.0}, seed=11)
    m = lr.forward_select(t, list(t.feature_names), delta_bic_stop=math.inf)
    assert m.selected_order == ()


def test_forward_select_adds_planted_feature_first():
    t = gaussian_table(100, 100, 10, shifts={3: 3.0}, seed=12)
    m = lr.forward_select(t, list(t.feature_names))
    assert m.selected_order and m.selected_order[0] == "f003"


def test_forward_select_skips_failing_candidates():
    t = gaussian_table(25, 25, 3, shifts={0: 2.0}, seed=13)
    values = t.values.copy()
    values[:, 1] = 7.7  # constant column makes the design singular
    broken = t.with_matrix(values, np.isnan(t.values))
    with pytest.warns(UserWarning, match="skipping candidate 'f001': singular design"):
        m = lr.forward_select(broken, list(broken.feature_names))
    assert "f001" not in m.selected_order
    assert "f000" in m.selected_order


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_non_finite_hessian_rejected(scale):
    # the column is finite, but its square overflows in the Hessian; it is
    # refused without a numpy RuntimeWarning
    t = gaussian_table(25, 25, 3, shifts={0: 2.0}, seed=13)
    values = t.values.copy()
    values[:, 1] *= scale
    huge = t.with_matrix(values, np.isnan(t.values))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ModelError, match="singular design: the Hessian is not finite"):
            lr.fit(huge, ["f001"])
        with pytest.warns(UserWarning, match="skipping candidate 'f001': singular design"):
            m = lr.forward_select(huge, list(huge.feature_names))
    assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "f001" not in m.selected_order
    assert "f000" in m.selected_order


def test_forward_select_refuses_candidate_with_missing_cell():
    t = gaussian_table(25, 25, 3, shifts={0: 2.0, 2: 2.0}, seed=13)
    missing = np.isnan(t.values)
    missing[4, 2] = True
    holed = t.with_matrix(t.values, missing)
    with pytest.raises(ModelError, match="missing cells"):
        lr.forward_select(holed, list(holed.feature_names))
    # a NaN cell outside the candidate columns is never read
    assert lr.forward_select(holed, ["f000", "f001"]).selected_order == ("f000",)


def test_forward_select_bic_tie_breaks_lexicographically():
    t = gaussian_table(20, 20, 2, seed=14)
    values = t.values.copy()
    values[:, 1] = values[:, 0] * -1  # identical |association|, mirrored
    twin = t.with_matrix(values, np.isnan(t.values))
    m1 = lr.forward_select(twin, ["f001", "f000"], delta_bic_stop=-math.inf)
    m2 = lr.forward_select(twin, ["f000", "f001"], delta_bic_stop=-math.inf)
    assert m1.selected_order[0] == m2.selected_order[0] == "f000"


def test_serialization_round_trip():
    t = gaussian_table(40, 40, 3, shifts={0: 2.0}, seed=15)
    m = lr.forward_select(t, list(t.feature_names))
    doc = json.loads(json.dumps(lr.to_doc(m)))
    back = lr.from_doc(doc)
    assert back == m
    assert lr.to_doc(back) == doc
    # selected_order and bic are derived, not stored
    assert "selected_order" not in doc and "bic" not in doc
    assert back.selected_order == tuple(doc["coefficients"]) and back.bic == m.bic


def reference_newton(x, y, beta):
    """A scalar damped Newton loop on the exact log-likelihood, one design at
    a time, the reference for `lr._newton`: the fit of the design x from the
    coefficients beta, as (beta, log-likelihood, converged, separated). Its
    rules are `fit`'s: the first iteration always takes a step, so its Hessian is
    checked; a Hessian that is not finite, or whose smallest eigenvalue is not
    above _PIVOT_TOL times its largest diagonal entry, raises; a coefficient
    past COEF_CAP caps the fit, unconverged; a converged predictor that
    classifies every row separates."""
    ll = exact_loglik(x, y, beta)
    converged = False
    for it in range(lr.MAX_ITER):
        p = expit(x @ beta)
        grad = x.T @ (y - p)
        if it > 0 and np.max(np.abs(grad)) < lr.GRAD_TOL:
            converged = True
            break
        with np.errstate(over="ignore"):
            hess = x.T @ (x * (p * (1.0 - p))[:, None])
        if not np.isfinite(hess).all():
            raise ModelError("singular design: the Hessian is not finite")
        if np.linalg.eigvalsh(hess)[0] <= lr._PIVOT_TOL * hess.diagonal().max():
            raise ModelError("singular design")
        low = np.linalg.cholesky(hess)
        step = np.linalg.solve(low.T, np.linalg.solve(low, grad))
        lam = 1.0
        while lam > 1e-8:
            cand = beta + lam * step
            ll_cand = exact_loglik(x, y, cand)
            if ll_cand >= ll - 1e-10:
                beta, ll = cand, ll_cand
                break
            lam /= 2.0
        if np.max(np.abs(beta)) > lr.COEF_CAP:
            beta = np.clip(beta, -lr.COEF_CAP, lr.COEF_CAP)
            return beta, exact_loglik(x, y, beta), False, True
    return beta, ll, converged, converged and bool(((p > 0.5) == (y > 0.5)).all())


def reference_fit(table, features, start=None):
    """`reference_newton` on the design [1 | features], from beta = 0 or from `start`."""
    features = list(features)
    x = np.column_stack([np.ones(table.n_samples)]
                        + [table.values[:, table.feature_index(f)] for f in features])
    beta = np.zeros(x.shape[1]) if start is None else np.asarray(start, dtype=float)
    beta, ll, converged, separated = reference_newton(x, table.labels.astype(float), beta)
    return lr.FittedLogReg(intercept=float(beta[0]),
                           coefficients={f: float(b) for f, b in zip(features, beta[1:])},
                           log_likelihood=ll, n_train=table.n_samples,
                           converged=converged, separated=separated)


def reference_status(converged, separated):
    """The `lr._newton` status of a fit with these flags."""
    if separated:
        return "separated" if converged else "capped"
    return "converged" if converged else "unconverged"


def reference_candidate(table, selected, name, start):
    """forward_select's fit of `name` added to `selected`: reference_fit from
    `start`, the current model's coefficients and 0, and again from beta = 0
    where that fit is refused or does not converge without separating."""
    features = [*selected, name]
    try:
        trial = reference_fit(table, features, start)
        if reference_status(trial.converged, trial.separated) == "converged":
            return trial
    except ModelError:
        pass
    return reference_fit(table, features)


def reference_forward_select(table, candidates, delta_bic_stop=2.0):
    """Forward selection with one `reference_candidate` per candidate per
    step; the models it passes through, intercept-only first."""
    remaining = list(dict.fromkeys(candidates))
    if not remaining:
        raise ModelError("forward selection needs at least one candidate")
    path = [reference_fit(table, [])]
    while remaining:
        current = path[-1]
        scored = []
        for name in remaining:
            try:
                trial = reference_candidate(table, current.selected_order, name,
                                            [*lr._beta(current), 0.0])
            except ModelError as exc:
                warnings.warn(f"skipping candidate {name!r}: {exc}")
                continue
            scored.append((trial.bic, name, trial))
        if not scored:
            break
        scored.sort(key=lambda t: (t[0], t[1]))
        best_bic, best_name, best_model = scored[0]
        if current.bic - best_bic <= delta_bic_stop:
            break
        path.append(best_model)
        remaining.remove(best_name)
    return path


def selection_table(n, seed, positives, shift, sep_noise, constant, order):
    """Labels plus noise, shifted, duplicated, mirrored, constant and
    near-separating columns, and a shifted column with three rows at +-40-60 on
    the side of their class (fitted probabilities there can round to 0 or 1),
    in the given order."""
    rng = np.random.default_rng(seed)
    y = np.zeros(n, dtype=np.int8)
    y[rng.choice(n, positives, replace=False)] = 1
    sign = 2.0 * y - 1.0
    shifted = rng.normal(size=n) + shift * y
    near_sep = sign * np.abs(rng.normal(size=n)) + sep_noise * rng.normal(size=n)
    columns = [rng.normal(size=n), shifted, shifted.copy(), -shifted, near_sep, -near_sep,
               np.full(n, constant), rng.normal(size=n) + 0.5 * y,
               rng.normal(size=n), rng.normal(size=n) + y]
    outlier = rng.normal(size=n) + shift * y
    far = rng.choice(n, 3, replace=False)
    outlier[far] = sign[far] * rng.uniform(40.0, 60.0, 3)
    columns.append(outlier)
    return make_table(np.column_stack([columns[i] for i in order]), y)


@st.composite
def selection_tables(draw):
    """selection_table with drawn parameters and candidate order, from 24 to
    2500 rows."""
    n = draw(st.sampled_from([24, 90, 2500]))
    table = selection_table(
        n, draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(3, n - 3)),
        draw(st.floats(0.3, 2.0)), draw(st.sampled_from([0.0, 0.05, 0.5])),
        draw(st.floats(-3.0, 3.0)), draw(st.permutations(range(11))))
    return table, draw(st.permutations(table.feature_names))


# _newton against the scalar reference, on fits that converged without
# separating. Over 300 drawn selection tables the BICs differed by at most
# 3.2e-11 from a cold reference_fit and 2.6e-11 from one started where
# _newton starts, and the coefficients by 1.5e-13 from the latter. The final
# models of 300 drawn selections (150 tables, both stop rules) differed from
# reference_forward_select's by at most 3.8e-11 in BIC and 4.2e-12 in
# coefficients, 220 of them capped and 13 separated below the cap. From a cold
# start a fit stops elsewhere within GRAD_TOL (coefficients up to 1.4e-6
# apart), so coefficients are compared from the same start only.
BIC_TOL = 1e-9
COEF_TOL = 1e-10


def assert_matches_reference(table, candidates, delta_bic_stop):
    """forward_select gives the scalar reference's selection order, skip
    warnings and convergence flags, its BIC within BIC_TOL and coefficients
    within COEF_TOL; returns the reference's models, intercept-only first."""
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        batched = lr.forward_select(table, candidates, delta_bic_stop)
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        path = reference_forward_select(table, candidates, delta_bic_stop)
    scalar = path[-1]
    assert batched.selected_order == scalar.selected_order
    assert (batched.converged, batched.separated) == (scalar.converged, scalar.separated)
    assert abs(batched.bic - scalar.bic) <= BIC_TOL
    assert np.abs(lr._beta(batched) - lr._beta(scalar)).max() <= COEF_TOL
    skipped = [str(w.message) for w in want if str(w.message).startswith("skipping")]
    assert [str(w.message) for w in got if str(w.message).startswith("skipping")] == skipped
    return path


def candidate_fits(table, selected, names, offset=math.inf):
    """_fit_candidates' BICs and statuses of each of `names` added to the
    fitted model of `selected`, under the ceiling that model's BIC + `offset`."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SeparationWarning)
        current = lr.fit(table, selected)
    zt = table.values[:, [table.feature_index(f) for f in names]].T
    x0, y = lr._design(table, list(selected), for_fit=True), table.labels.astype(float)
    _, ll, status = lr._fit_candidates(x0, np.ascontiguousarray(zt), y, lr._beta(current),
                                       current.bic + offset)
    return (len(selected) + 2) * math.log(table.n_samples) - 2.0 * ll, list(status)


def candidate_bics(table, selected, names, offset=math.inf):
    """candidate_fits' BICs, NaN where a candidate has neither a
    maximum-likelihood fit nor a bound: its design is singular, or its fit
    separated, was capped or did not converge."""
    bic, status = candidate_fits(table, selected, names, offset)
    return np.where(np.isin(status, ["converged", "ruled out"]), bic, np.nan)


@settings(max_examples=40, deadline=None)
@given(selection_tables(), st.sampled_from([2.0, -math.inf]), st.floats(-10.0, 10.0))
def test_forward_select_matches_scalar_reference(case, delta_bic_stop, offset):
    table, candidates = case
    path = assert_matches_reference(table, candidates, delta_bic_stop)

    # every candidate of every step against its cold reference_fit: both
    # refuse a singular design; where the reference converged without
    # separating, _fit_candidates converged to its BIC; a maximum-likelihood
    # BIC is never above the reference's; a fit that did not converge without
    # separating was refitted from beta = 0 and has the reference's status.
    # Under a finite ceiling a value may also be a bound, never above the
    # reference's BIC, and only above the ceiling.
    for current in path:
        selected = list(current.selected_order)
        names = [f for f in candidates if f not in selected]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SeparationWarning)
            ceiling = lr.fit(table, selected).bic + offset
        fits = zip(names, *candidate_fits(table, selected, names),
                   *candidate_fits(table, selected, names, offset))
        for name, bic, status, value, bounded in fits:
            try:
                exact = reference_fit(table, selected + [name])
            except ModelError as exc:
                assert status == bounded == str(exc)
                continue
            assert not status.startswith("singular") and not bounded.startswith("singular")
            if exact.converged and not exact.separated:
                assert status == "converged" and abs(bic - exact.bic) <= BIC_TOL
                assert bounded in ("converged", "ruled out")
            if status == "converged":
                assert bic <= exact.bic + BIC_TOL
            else:
                assert status == reference_status(exact.converged, exact.separated)
            if bounded in ("converged", "ruled out"):
                assert value <= exact.bic + BIC_TOL
            assert (bounded == "ruled out") <= (value > ceiling)


@settings(max_examples=30, deadline=None)
@given(selection_tables(), st.sampled_from([2.0, -math.inf]), st.floats(-10.0, 10.0),
       st.integers(1, 4))
def test_candidate_bics_match_the_per_block_reference(case, delta_bic_stop, offset, per_block):
    """Every block forward_select fits, of 1-4 candidates, gives for each
    candidate the fit of the scalar reference from the same start: its
    status, BIC within BIC_TOL and coefficients within COEF_TOL. A candidate
    ruled out above the ceiling gets a bound at most the reference's BIC."""
    table, candidates = case
    fitted = lr._newton
    blocks = []

    def spy(x0, zt, y, start, ceiling=math.inf):
        fits = fitted(x0, zt, y, start, ceiling)
        blocks.append((x0, zt, y, start.beta, ceiling, fits))
        return fits

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lr, "CELLS", per_block * table.n_samples)
        mp.setattr(lr, "_newton", spy)
        assert_matches_reference(table, candidates, delta_bic_stop)
    assert len(blocks) >= 1 + -(-len(candidates) // per_block)
    # one block of every candidate, under a drawn finite ceiling
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SeparationWarning)
        current = lr.fit(table, [])
    x0, y = np.ones((table.n_samples, 1)), table.labels.astype(float)
    zt = np.ascontiguousarray(table.values[:, [table.feature_index(f) for f in candidates]].T)
    ceiling = current.bic + offset
    blocks.append((x0, zt, y, lr._beta(current), ceiling,
                   lr._newton(x0, zt, y, lr._shared_start(x0, y, lr._beta(current)), ceiling)))
    for x0, zt, y, beta, ceiling, (coefs, ll, status) in blocks:
        penalty = (x0.shape[1] + 1) * math.log(y.size)
        for z, coef, value, got in zip(zt, coefs, penalty - 2.0 * ll, status):
            try:
                want, ref_ll, converged, separated = reference_newton(
                    np.column_stack([x0, z]), y, np.append(beta, 0.0))
            except ModelError as exc:
                assert got == str(exc)
                continue
            if got == "ruled out":
                assert ceiling < value <= penalty - 2.0 * ref_ll + BIC_TOL
                continue
            assert got == reference_status(converged, separated)
            if got == "converged":
                assert abs(value - (penalty - 2.0 * ref_ll)) <= BIC_TOL
                assert np.abs(coef - want).max() <= COEF_TOL


def test_forward_select_builds_one_shared_start_per_step(monkeypatch):
    """A work count: the start every candidate of a step shares is built once
    for the step, whatever the number of blocks its candidates are fitted in."""
    table = selection_table(2500, 0, 700, 0.5, 0.5, 1.5, range(10))
    shared, fitted = lr._shared_start, lr._newton
    starts, blocks = [], []

    def counted_start(x0, y, beta):
        starts.append((x0.shape[1], beta.any()))
        return shared(x0, y, beta)

    def counted_block(x0, zt, y, start, ceiling=math.inf):
        blocks.append(zt.shape[0])
        return fitted(x0, zt, y, start, ceiling)

    monkeypatch.setattr(lr, "_shared_start", counted_start)
    monkeypatch.setattr(lr, "_newton", counted_block)
    for per_block in (10, 3, 1):
        starts.clear()
        blocks.clear()
        monkeypatch.setattr(lr, "CELLS", per_block * table.n_samples)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            model = lr.forward_select(table, list(table.feature_names))
        assert model.selected_order == ("f004", "f009", "f007", "f001")
        # the intercept-only fit from beta = 0 (x0 has no column, one block
        # of one candidate), then four steps that add a feature and one that
        # stops: x0 has 1..5 columns. Each step's singular candidates are
        # refused again from beta = 0, one block each, from one start: the
        # constant f006, from step 2 f005 (f004 mirrored), and at step 5 f002
        # and f003 (copies of f001)
        assert starts == [(0, False), *((k, s) for k in range(1, 6) for s in (True, False))]
        assert len(blocks) == 1 + sum(-(-c // per_block) + r
                                      for c, r in zip((10, 9, 8, 7, 6), (1, 2, 2, 2, 4)))


def test_forward_select_working_memory():
    """A CI guard on the selection's working memory, since blocks of CELLS
    cells set it: the tracemalloc peak of one forward_select on a split of
    the cohort bench workload's shape, 3,198 rows (281 malignant) and 41
    candidates, 3 of them planted."""
    table = gaussian_table(2917, 281, 41, shifts={10: 1.6, 11: 1.2, 12: 1.0}, seed=3)
    names = list(table.feature_names)
    lr.forward_select(table, names)  # numpy's and the interpreter's first-call allocations
    tracemalloc.start()
    try:
        model = lr.forward_select(table, names)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {"f010", "f011", "f012"} <= set(model.selected_order)
    # 2,186,208 bytes (blocks of 5 candidates); 3,209,529 at the same CELLS
    # when every block rebuilt the start and the candidate matrix was copied
    # twice. CELLS = 2**15 reads 2,726,097
    assert peak <= 2_450_000


def test_fit_working_memory():
    """A CI guard on `fit`'s working memory on a wide design: the tracemalloc
    peak of a fit of 50 features on 2,917 rows. The x0 block of its Hessian
    comes from a weighted copy of x0, n k0 cells, not from the outer
    products of x0's rows, n k0^2 cells."""
    table = gaussian_table(2917, 281, 50, shifts={10: 1.6, 11: 1.2, 12: 1.0}, seed=3)
    names = list(table.feature_names)
    lr.fit(table, names)  # numpy's and the interpreter's first-call allocations
    tracemalloc.start()
    try:
        model = lr.fit(table, names)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.converged and not model.separated
    # 4,325,890 bytes; the outer products alone would take 2,917 * 49^2 * 8 B = 56 MB
    assert peak <= 5_000_000


def test_capped_candidates_are_nan():
    # f004 and f005 separate the classes; f006 is constant
    table = selection_table(500, 3, 150, 1.0, 0.0, 1.0, range(10))
    names = list(table.feature_names)
    status = candidate_fits(table, [], names)[1]
    assert status[4] == status[5] == "capped" and status[6] == "singular design"
    bics = candidate_bics(table, [], names)
    assert np.isnan(bics[[4, 5, 6]]).all() and not np.isnan(bics[[0, 1, 7, 8, 9]]).any()
    with pytest.warns(SeparationWarning, match="coefficients capped"):
        assert lr.fit(table, ["f004"]).separated
    for stop in (2.0, -math.inf):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lr.forward_select(table, names, stop)
        assert any(w.category is SeparationWarning and "capped" in str(w.message) for w in caught)
        assert assert_matches_reference(table, names, stop)[1].selected_order == ("f004",)


def test_stalled_candidates_are_nan(monkeypatch):
    table = selection_table(90, 5, 40, 1.0, 0.5, 1.0, range(10))
    names = list(table.feature_names)
    solve = lr._newton_steps

    def uphill(h, g):  # every step lowers the log-likelihood, so no step length is taken
        step, ok = solve(h, g)
        return -step, ok

    monkeypatch.setattr(lr, "_newton_steps", uphill)
    for status in (candidate_fits(table, [], names)[1],
                   candidate_fits(table, ["f001"], names[2:])[1]):
        assert set(status) == {"unconverged", "singular design"}  # f006 is constant
    assert np.isnan(candidate_bics(table, [], names)).all()
    # every fit stays at its start: the intercept-only model at beta = 0
    m = lr.fit(table, ["f001"])
    assert not m.converged and m.intercept == m.coefficients["f001"] == 0.0
    with pytest.warns(UserWarning, match="skipping candidate 'f006': singular design"):
        m = lr.forward_select(table, names)
    assert m.selected_order == () and not m.converged
    assert m.log_likelihood == pytest.approx(90 * math.log(0.5), rel=1e-12)


def test_max_iter_candidates_are_nan(monkeypatch):
    # near-separating f004/f005 take many Newton steps, shifted f001 a few
    table = selection_table(90, 6, 40, 1.0, 0.05, 1.0, range(10))
    names = list(table.feature_names)
    assert not np.isnan(candidate_bics(table, [], names)[1])
    monkeypatch.setattr(lr, "MAX_ITER", 2)
    status = candidate_fits(table, [], names)[1]
    assert status[1] == status[4] == status[5] == "unconverged"
    assert np.isnan(candidate_bics(table, [], names)[[1, 4, 5]]).all()
    for stop in (2.0, -math.inf):
        assert_matches_reference(table, names, stop)


def test_rows_past_the_clip_get_a_bound():
    # f000's fit puts a negative row at eta > 37, where sigma(eta) rounds to 1;
    # a probability clipped at 1 - 1e-15 there scored ~20 log-likelihood units
    # above the exact one, which the bound is on
    rng = np.random.default_rng(0)
    y = (rng.random(400) < 0.5).astype(np.int8)
    z = rng.normal(size=400) + 2.0 * y
    far = np.flatnonzero(y == 0)[0]
    z[far] = 60.0
    table = make_table(np.column_stack([z, rng.normal(size=400)]), y)
    fits = [lr.fit(table, [name]) for name in table.feature_names]
    assert fits[0].intercept + 60.0 * fits[0].coefficients["f000"] > 37.0
    x = np.column_stack([np.ones(400), z])
    assert fits[0].log_likelihood == pytest.approx(
        exact_loglik(x, y.astype(float), lr._beta(fits[0])), abs=1e-9)
    mle = candidate_bics(table, [], ["f000", "f001"])
    assert mle == pytest.approx([m.bic for m in fits], abs=1e-9)
    # a ceiling far below every candidate rules each out after its first step
    ruled, status = candidate_fits(table, [], ["f000", "f001"], -1000.0)
    assert status == ["ruled out", "ruled out"]
    assert np.isfinite(ruled).all() and (ruled <= mle + 1e-9).all()


@pytest.mark.parametrize("seed", range(4))
def test_fit_matches_scipy_on_the_exact_likelihood(seed):
    """fit against scipy.optimize.minimize (Newton-CG, xtol 1e-12) on the
    exact log-likelihood, on 300 rows with three features, the first with a
    negative row at 50 that the fit puts at eta 47.8-50.2, where sigma(eta)
    rounds to 1. Coefficients agree within 1e-8 and log-likelihoods within
    1e-10 (measured: 8.4e-11 and 5.7e-14 at most)."""
    rng = np.random.default_rng(seed)
    y = (rng.random(300) < 0.4).astype(np.int8)
    values = rng.normal(size=(300, 3)) + np.outer(y, [3.0, 0.5, 0.0])
    values[np.flatnonzero(y == 0)[0], 0] = 50.0
    table = make_table(values, y)
    x, yf = np.column_stack([np.ones(300), values]), y.astype(float)

    def loss(beta):
        return -exact_loglik(x, yf, beta)

    def grad(beta):
        return x.T @ (expit(x @ beta) - yf)

    def hess(beta):
        p = expit(x @ beta)
        return x.T @ (x * (p * (1.0 - p))[:, None])

    want = minimize(loss, np.zeros(4), jac=grad, hess=hess, method="Newton-CG",
                    options={"xtol": 1e-12})
    assert want.success
    m = lr.fit(table, list(table.feature_names))
    assert m.converged and not m.separated
    assert (x @ lr._beta(m))[y == 0].max() > 37.0
    assert np.abs(lr._beta(m) - want.x).max() <= 1e-8
    assert abs(m.log_likelihood + want.fun) <= 1e-10


def test_forward_select_newton_iteration_count(monkeypatch):
    """A work count, not a time: each _newton_steps call is one Newton
    iteration of one block of candidates (here 6 and 4 of 10 at step 1)."""
    table = selection_table(2500, 0, 700, 0.5, 0.5, 1.5, range(10))
    solve, calls = lr._newton_steps, []

    def counted(h, g):
        calls.append(g.shape[0])
        return solve(h, g)

    monkeypatch.setattr(lr, "_newton_steps", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        model = lr.forward_select(table, list(table.feature_names))
    assert model.selected_order == ("f004", "f009", "f007", "f001")
    # 72 calls when every candidate started from beta = 0; 36 when it starts
    # from the current model, plus 4 for the intercept-only fit, which runs
    # through the same solver, and 11 one-candidate calls that refuse again
    # from beta = 0 the candidates refused as singular (the constant f006 and
    # the columns collinear with a selected one). The ceiling is 60% of 72,
    # plus those 11.
    assert len(calls) <= 43 + 11


def test_forward_select_rules_out_candidates_on_a_noisy_table(monkeypatch):
    """A desk-shaped table, 300 rows and 60 features of which 3 are weakly
    planted: most candidates of each step are ruled out by the duality-gap
    bound after one Newton solve. Candidate rows are counted over the
    _newton_steps calls, a work count, not a time."""
    table = gaussian_table(150, 150, 60, shifts={7: 0.9, 23: 0.7, 41: 0.5}, seed=0)
    names = list(table.feature_names)
    for stop in (2.0, -math.inf):
        assert_matches_reference(table, names, stop)
    solve, rows = lr._newton_steps, []

    def counted(h, g):
        rows.append(g.shape[0])
        return solve(h, g)

    monkeypatch.setattr(lr, "_newton_steps", counted)
    assert lr.forward_select(table, names).selected_order == ("f007", "f023", "f041")
    # 715 candidate rows when every candidate ran to its MLE; 253 with the
    # bound, plus 1 for the intercept-only fit
    assert sum(rows) <= 0.45 * 715
