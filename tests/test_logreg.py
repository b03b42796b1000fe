import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latefuse import logreg as lr
from latefuse.errors import ModelError, PredictError, SeparationWarning

from conftest import gaussian_table, make_table


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
        return lr._log_likelihood(x, y, b)

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


def reference_forward_select(table, candidates, delta_bic_stop=2.0):
    """Forward selection with one scalar `fit` per candidate per step."""
    remaining = list(dict.fromkeys(candidates))
    if not remaining:
        raise ModelError("forward selection needs at least one candidate")
    current = lr.fit(table, [])
    while remaining:
        scored = []
        for name in remaining:
            try:
                trial = lr.fit(table, list(current.selected_order) + [name])
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
        current = best_model
        remaining.remove(best_name)
    return current


def selection_table(n, seed, positives, shift, sep_noise, constant, order):
    """Labels plus noise, shifted, duplicated, mirrored, constant and
    near-separating columns, and a shifted column with three rows at +-40-60 on
    the side of their class (fitted probabilities there can reach the _P_EPS
    clip), in the given order."""
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
    """selection_table with drawn parameters and candidate order; n=2500 puts
    the candidates of each step in more than one block."""
    n = draw(st.sampled_from([24, 90, 2500]))
    table = selection_table(
        n, draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(3, n - 3)),
        draw(st.floats(0.3, 2.0)), draw(st.sampled_from([0.0, 0.05, 0.5])),
        draw(st.floats(-3.0, 3.0)), draw(st.permutations(range(11))))
    return table, draw(st.permutations(table.feature_names))


def assert_matches_reference(table, candidates, delta_bic_stop):
    """forward_select gives the scalar reference's model, document and skip
    warnings; returns the reference model."""
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        batched = lr.forward_select(table, candidates, delta_bic_stop)
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        scalar = reference_forward_select(table, candidates, delta_bic_stop)
    assert batched.selected_order == scalar.selected_order
    assert json.dumps(lr.to_doc(batched)) == json.dumps(lr.to_doc(scalar))
    skipped = [str(w.message) for w in want if str(w.message).startswith("skipping")]
    assert [str(w.message) for w in got if str(w.message).startswith("skipping")] == skipped
    return scalar


def candidate_bics(table, selected, names, offset=math.inf):
    """_candidate_bics of each of `names` added to the fitted model of
    `selected`, under the ceiling that model's BIC + `offset`."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SeparationWarning)
        current = lr.fit(table, selected)
    zt = table.values[:, [table.feature_index(f) for f in names]].T
    return lr._candidate_bics(lr._design(table, list(selected), for_fit=True),
                              np.ascontiguousarray(zt), table.labels.astype(float),
                              lr._beta(current), current.bic + offset)


@settings(max_examples=40, deadline=None)
@given(selection_tables(), st.sampled_from([2.0, -math.inf]), st.floats(-10.0, 10.0))
def test_forward_select_matches_scalar_reference(case, delta_bic_stop, offset):
    table, candidates = case
    scalar = assert_matches_reference(table, candidates, delta_bic_stop)

    # the property the refit rule rests on: a batched BIC is NaN (left to
    # `fit`) or the candidate's MLE, so never above `fit`'s, and equal to it
    # wherever `fit` converged without separation. Under a finite ceiling a
    # value may also be a lower bound on `fit`'s BIC, but only above the ceiling.
    for k in range(len(scalar.selected_order) + 1):
        selected = list(scalar.selected_order[:k])
        names = [f for f in candidates if f not in selected]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SeparationWarning)
            ceiling = lr.fit(table, selected).bic + offset
        bounded = candidate_bics(table, selected, names, offset)
        for name, bic, value in zip(names, candidate_bics(table, selected, names), bounded):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", SeparationWarning)
                    exact = lr.fit(table, selected + [name])
            except ModelError:
                assert np.isnan(bic)  # batched failures go to `fit`, which warns
                assert np.isnan(value)
                continue
            assert not value > exact.bic + 1e-9
            if value <= ceiling and exact.converged and not exact.separated:
                assert abs(value - exact.bic) <= 1e-9
            if np.isnan(bic):
                continue
            assert bic <= exact.bic + 1e-9
            if exact.converged and not exact.separated:
                assert abs(bic - exact.bic) <= 1e-9


def test_capped_candidates_are_nan():
    # f004 and f005 separate the classes; f006 is constant
    table = selection_table(500, 3, 150, 1.0, 0.0, 1.0, range(10))
    names = list(table.feature_names)
    bics = candidate_bics(table, [], names)
    assert np.isnan(bics[[4, 5, 6]]).all() and not np.isnan(bics[[0, 1, 7, 8, 9]]).any()
    with pytest.warns(SeparationWarning):
        assert lr.fit(table, ["f004"]).separated
    for stop in (2.0, -math.inf):
        assert assert_matches_reference(table, names, stop).selected_order[0] == "f004"


def test_stalled_candidates_are_nan(monkeypatch):
    table = selection_table(90, 5, 40, 1.0, 0.5, 1.0, range(10))
    names = list(table.feature_names)
    solve = lr._newton_steps

    def uphill(h, g):  # every step lowers the log-likelihood, so no step length is taken
        step, ok = solve(h, g)
        return -step, ok

    monkeypatch.setattr(lr, "_newton_steps", uphill)
    assert np.isnan(candidate_bics(table, [], names)).all()
    assert np.isnan(candidate_bics(table, ["f001"], names[2:])).all()
    for stop in (2.0, -math.inf):
        assert_matches_reference(table, names, stop)


def test_max_iter_candidates_are_nan(monkeypatch):
    # near-separating f004/f005 take many Newton steps, shifted f001 a few
    table = selection_table(90, 6, 40, 1.0, 0.05, 1.0, range(10))
    names = list(table.feature_names)
    assert not np.isnan(candidate_bics(table, [], names)[1])
    monkeypatch.setattr(lr, "MAX_ITER", 2)
    assert np.isnan(candidate_bics(table, [], names)[[1, 4, 5]]).all()
    for stop in (2.0, -math.inf):
        assert_matches_reference(table, names, stop)


def test_rows_at_the_clip_get_no_bound():
    # f000's fit puts a negative row at eta ~ 55, where the clipped probability
    # scores ~20 log-likelihood units above the unclipped one the bound is on
    rng = np.random.default_rng(0)
    y = (rng.random(400) < 0.5).astype(np.int8)
    z = rng.normal(size=400) + 2.0 * y
    z[np.flatnonzero(y == 0)[0]] = 60.0
    table = make_table(np.column_stack([z, rng.normal(size=400)]), y)
    fits = [lr.fit(table, [name]) for name in table.feature_names]
    assert lr.predict_proba(fits[0], table).max() == 1.0 - lr._P_EPS
    mle = candidate_bics(table, [], ["f000", "f001"])
    # a ceiling far below every candidate asks for a bound wherever one is taken
    ruled = candidate_bics(table, [], ["f000", "f001"], -1000.0)
    assert mle[0] == pytest.approx(fits[0].bic, abs=1e-9)
    assert ruled[0] == pytest.approx(fits[0].bic, abs=1e-9)
    assert ruled[1] < mle[1] and ruled[1] <= fits[1].bic + 1e-9


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
    # 72 calls when every candidate started from beta = 0; 40 when it starts
    # from the current model. The ceiling is 60% of 72.
    assert len(calls) <= 43


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
    # 715 candidate rows when every candidate ran to its MLE; 253 with the bound
    assert sum(rows) <= 0.45 * 715
