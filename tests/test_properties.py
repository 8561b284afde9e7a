"""Invariants of the fallback, the gate and gate persistence, checked as
properties over many generated cases rather than on fixed examples.

Hypothesis draws the shapes, seeds and configurations; the arrays are
then drawn from numpy generators seeded by it, so every case is a
well-posed fit.  The settings are derandomised and keep no example
database, so every run checks the same cases.
"""

import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from outreg import (NoPredictionError, OrConfig, classify,  # noqa: E402
                    fit_gate, load_gate, nlror_predict,
                    nlror_predict_detailed, save_gate)

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None,
                         max_examples=150)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=6)
percentiles = st.floats(min_value=50.0, max_value=99.9)


@st.composite
def or_configs(draw):
    """Any OrConfig with at least one candidate configured."""
    delta1 = draw(st.lists(st.floats(min_value=0.05, max_value=2.0), max_size=3))
    delta2 = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), max_size=3))
    include_raw = draw(st.booleans()) if delta1 or delta2 else True
    return OrConfig(delta1_values=tuple(delta1), delta2_values=tuple(delta2),
                    include_raw_nlr=include_raw)


def _training_rows(seed, d, n):
    rng = np.random.default_rng(seed)
    offset = rng.uniform(-5.0, 5.0, size=d)
    scales = rng.uniform(0.2, 3.0, size=d)
    return rng, offset + scales * rng.standard_normal((n, d))


@DETERMINISTIC
@given(seed=seeds, d=dims, config=or_configs(),
       reach=st.floats(min_value=4.0, max_value=30.0))
def test_fallback_reproduces_any_affine_surface(seed, d, config, reach):
    """Every candidate is a secant of the surface through the outlier, so
    on an affine surface their median is the surface value itself."""
    rng, X = _training_rows(seed, d, 40)
    coef = rng.standard_normal(d)
    intercept = float(rng.standard_normal())

    def f(Z):
        return np.asarray(Z) @ coef + intercept

    gate = fit_gate(X, 99.0)
    u = rng.standard_normal(d)
    x_o = gate.center + reach * X.std(axis=0) * u / np.linalg.norm(u)
    expected = float(f(x_o[None, :])[0])
    scale = 1.0 + abs(intercept) + float(np.abs(coef) @ np.abs(x_o))
    assert abs(nlror_predict(f, gate, x_o, config) - expected) <= 1e-9 * scale


@DETERMINISTIC
@given(seed=seeds, d=dims, config=or_configs(),
       reach=st.floats(min_value=2.0, max_value=30.0))
def test_fallback_is_training_row_permutation_equivariant(seed, d, config, reach):
    """Reordering the training rows moves no candidate by a bit: the
    neighbour is the same row under its new index, and the centre is a
    columnwise median, which no order changes.  A point with no candidate
    left has none in either order."""
    rng, X = _training_rows(seed, d, 30)
    coef = rng.standard_normal(d)

    def f(Z):
        Z = np.asarray(Z)
        return np.tanh(Z @ coef) + 0.1 * np.sum(Z * Z, axis=1)

    gate = fit_gate(X, 99.0)
    u = rng.standard_normal(d)
    x_o = gate.center + reach * X.std(axis=0) * u / np.linalg.norm(u)
    order = rng.permutation(len(X))

    try:
        before = nlror_predict_detailed(f, gate, x_o, config)
    except NoPredictionError:
        with pytest.raises(NoPredictionError):
            nlror_predict_detailed(f, fit_gate(X[order], 99.0), x_o, config)
        return
    after = nlror_predict_detailed(f, fit_gate(X[order], 99.0), x_o, config)
    assert np.float64(after.value).tobytes() == np.float64(before.value).tobytes()
    assert after.candidates == before.candidates
    assert after.dropped == before.dropped
    assert order[after.nn_index] == before.nn_index


@DETERMINISTIC
@given(seed=seeds, d=dims, q=percentiles,
       log_condition=st.floats(min_value=0.0, max_value=2.0),
       log_scale=st.floats(min_value=-2.0, max_value=2.0))
def test_mahalanobis_distance_is_affine_invariant(seed, d, q, log_condition,
                                                  log_scale):
    """x -> A x + b with A invertible, of condition number at most 100,
    leaves every test distance and the threshold unchanged."""
    rng, X = _training_rows(seed, d, 40)
    tests = X.mean(axis=0) + rng.uniform(0.5, 4.0, size=(20, 1)) \
        * rng.standard_normal((20, d)) * X.std(axis=0)
    left, _ = np.linalg.qr(rng.standard_normal((d, d)))
    right, _ = np.linalg.qr(rng.standard_normal((d, d)))
    singular = 10.0 ** (log_scale + log_condition * np.linspace(0.0, 1.0, d))
    A = left @ np.diag(singular) @ right
    b = rng.uniform(-10.0, 10.0, size=d)

    gate = fit_gate(X, q)
    moved = fit_gate(X @ A.T + b, q)
    np.testing.assert_allclose(classify(moved, tests @ A.T + b).distances,
                               classify(gate, tests).distances,
                               rtol=1e-8, atol=1e-10)
    assert moved.threshold_distance == pytest.approx(gate.threshold_distance,
                                                     rel=1e-8)


@DETERMINISTIC
@given(seed=seeds, d=dims, q=percentiles,
       n_test=st.integers(min_value=1, max_value=40))
def test_classify_is_row_permutation_equivariant(seed, d, q, n_test):
    """Permuting the test rows permutes the distances and the labels the
    same way; copies of training rows keep every tie in play."""
    rng, X = _training_rows(seed, d, 30)
    gate = fit_gate(X, q)
    spread = rng.uniform(0.5, 4.0, size=(n_test, 1))
    tests = gate.mean + spread * rng.standard_normal((n_test, d)) * X.std(axis=0)
    tests[::3] = X[rng.integers(0, len(X), size=tests[::3].shape[0])]
    order = rng.permutation(n_test)

    original = classify(gate, tests)
    permuted = classify(gate, tests[order])
    flagged = np.zeros(n_test, dtype=bool)
    flagged[original.outlier_indices] = True
    flagged_after = np.zeros(n_test, dtype=bool)
    flagged_after[permuted.outlier_indices] = True
    np.testing.assert_array_equal(flagged_after, flagged[order])
    np.testing.assert_allclose(permuted.distances, original.distances[order],
                               rtol=1e-12, atol=0.0)


@DETERMINISTIC
@given(seed=seeds, d=dims, q=percentiles, n=st.integers(min_value=2, max_value=50))
def test_gate_save_load_round_trip_is_bitwise(seed, d, q, n):
    _, X = _training_rows(seed, d, n)
    if n <= d:
        X = np.hstack([X[:, :1]] * d) + np.arange(d)   # rank-deficient: ridge path
    gate = fit_gate(X, q)
    buffer = io.BytesIO()
    save_gate(buffer, gate)
    buffer.seek(0)
    loaded = load_gate(buffer)

    for field in ("mean", "covariance", "covariance_inverse_factor", "center",
                  "training_inputs"):
        before, after = getattr(gate, field), getattr(loaded, field)
        assert after.dtype == before.dtype and after.shape == before.shape
        assert after.tobytes() == before.tobytes()
    for field in ("threshold_distance", "percentile_q"):
        before, after = getattr(gate, field), getattr(loaded, field)
        assert type(after) is float
        assert np.float64(after).tobytes() == np.float64(before).tobytes()
