"""Invariants of the least-squares solve, the sigmoid, the stacked
ensemble pass, the fallback, the gate and its percentiles, model and gate
persistence, average ranks and the row-wise boxplot summary, checked as
properties over many generated cases rather than on fixed examples.

Hypothesis draws the shapes, seeds and configurations; the arrays are
then drawn from numpy generators seeded by it, so every case is a
well-posed fit.  The settings are derandomised and keep no example
database, so every run checks the same cases.
"""

import bisect
import dataclasses
import io
import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from outreg import (Activation, DegenerateGeometryError, Gate,  # noqa: E402
                    NoPredictionError, OneHotGroup, OrConfig, TrimPolicy, at_percentile,
                    average_ranks, center_linear_extrapolate, classify, elm_predict,
                    ensemble_predict, ensemble_train, fit_gate, load_ensemble, load_gate,
                    nearest_training_neighbor, nlror_predict,
                    nlror_predict_detailed, nn_linear_extrapolate, pinv_solve,
                    save_ensemble, save_gate)
from outreg import regress  # noqa: E402
from outreg.evalharness.metrics import boxplot_rows  # noqa: E402
from test_metrics import as_json, boxplot_oracle  # noqa: E402
from test_regress import sign_split_sigmoid  # noqa: E402

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None,
                         max_examples=150)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=6)
percentiles = st.floats(min_value=50.0, max_value=99.9)


@st.composite
def or_configs(draw):
    """Any OrConfig with at least one candidate configured."""
    # values that print alike at 6 digits would label two candidates alike
    delta1 = draw(st.lists(st.floats(min_value=0.05, max_value=2.0), max_size=3,
                           unique_by="{:g}".format))
    delta2 = draw(st.lists(st.floats(min_value=0.05, max_value=1.0), max_size=3,
                           unique_by="{:g}".format))
    include_raw = draw(st.booleans()) if delta1 or delta2 else True
    return OrConfig(delta1_values=tuple(delta1), delta2_values=tuple(delta2),
                    include_raw_nlr=include_raw)


@DETERMINISTIC
@given(seed=seeds, n=st.integers(min_value=1, max_value=12),
       rank=st.integers(min_value=1, max_value=8),
       copies=st.integers(min_value=0, max_value=3),
       tilt=st.sampled_from([0.0, 1e-13, 1e-3]),
       zero=st.integers(min_value=0, max_value=2),
       m=st.integers(min_value=1, max_value=3),
       rel_tol=st.sampled_from([1e-10, 1e-8]),
       log_scale=st.floats(min_value=-3.0, max_value=3.0))
def test_solve_matches_svd_pseudoinverse_on_rank_deficient_designs(
        seed, n, rank, copies, tilt, zero, m, rel_tol, log_scale):
    """Against ``np.linalg.pinv`` (an SVD with the same relative cutoff):
    the fitted values agree, and so does the minimum-norm solution.  The
    designs have copies of columns, tilted by 1e-13 (a direction far
    below the cutoff) or 1e-3 (far above it), all-zero columns, and up to
    13 columns over as few as one row, at scales 1e-3 to 1e3."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, rank))
    copied = base[:, rng.integers(0, rank, size=copies)]
    columns = [base, copied + tilt * rng.standard_normal(copied.shape),
               np.zeros((n, zero))]
    H = 10.0 ** log_scale * np.hstack(columns)[:, rng.permutation(
        rank + copies + zero)]
    Y = rng.standard_normal((n, m))

    B = pinv_solve(H, Y, rel_tol=rel_tol)
    oracle = np.linalg.pinv(H, rcond=rel_tol) @ Y
    np.testing.assert_allclose(H @ B, H @ oracle, rtol=0, atol=1e-8)
    np.testing.assert_allclose(B, oracle, rtol=0,
                               atol=1e-8 * np.abs(oracle).max())


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


def _row_sines(P):
    """sin summed over each row, one row at a time, so that a row's value
    does not depend on the rows evaluated with it."""
    return np.array([np.sin(row).sum() for row in np.asarray(P)])


def _bits(pairs):
    return [(label, np.float64(value).tobytes()) for label, value in pairs]


@DETERMINISTIC
@given(seed=seeds, d=dims, config=or_configs(),
       place=st.sampled_from(["far", "near", "training-row", "centre"]),
       reach=st.floats(min_value=0.1, max_value=30.0))
def test_fallback_candidates_are_the_per_route_secants(seed, d, config, place, reach):
    """Bitwise, each candidate is the value of ``nn_linear_extrapolate``
    or ``center_linear_extrapolate`` on the same neighbour and centre,
    each dropped candidate carries the reason its route raises, and the
    surface is called once for the point."""
    rng, X = _training_rows(seed, d, 30)
    gate = fit_gate(X, 99.0)
    u = rng.standard_normal(d)
    x_o = {"far": gate.center + reach * X.std(axis=0) * u / np.linalg.norm(u),
           "near": X[0] + 0.1 * reach * X.std(axis=0) * u / np.linalg.norm(u),
           "training-row": X[rng.integers(len(X))],
           "centre": gate.center}[place]
    nn_index, _ = nearest_training_neighbor(gate, x_o)
    x_nn = X[nn_index]

    candidates, dropped = [], []
    for template, deltas, route in (
            ("nn-extrapolation(delta1={:g})", config.delta1_values,
             lambda d1: nn_linear_extrapolate(_row_sines, x_o, x_nn, d1)),
            ("center-extrapolation(delta2={:g})", config.delta2_values,
             lambda d2: center_linear_extrapolate(_row_sines, x_o, x_nn,
                                                  gate.center, d2))):
        for delta in deltas:
            try:
                candidates.append((template.format(delta), route(delta)))
            except DegenerateGeometryError as exc:
                dropped.append((template.format(delta), str(exc)))
    if config.include_raw_nlr:
        candidates.append(("raw-surface", _row_sines(x_o[None, :])[0]))

    calls = []

    def f(P):
        calls.append(len(P))
        return _row_sines(P)

    if not candidates:
        with pytest.raises(NoPredictionError):
            nlror_predict_detailed(f, gate, x_o, config)
        assert calls == []
        return
    record = nlror_predict_detailed(f, gate, x_o, config)
    assert _bits(record.candidates) == _bits(candidates)
    assert record.dropped == tuple(dropped)
    assert record.nn_index == nn_index
    assert calls == [2 * len(candidates)]


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
@given(seed=seeds, d=dims, q1=percentiles, q2=percentiles,
       n_test=st.integers(min_value=1, max_value=40))
def test_one_fit_serves_every_percentile(seed, d, q1, q2, n_test):
    """Moving a fitted gate to another percentile is bitwise fitting it
    there; the higher percentile's outliers are the lower one's above its
    threshold; and each outlier's nearest row is the one the search gives."""
    rng, X = _training_rows(seed, d, 30)
    direct = fit_gate(X, q2)
    moved = at_percentile(fit_gate(X, q1), q2)
    for field in dataclasses.fields(Gate):
        before, after = getattr(direct, field.name), getattr(moved, field.name)
        assert np.asarray(after).tobytes() == np.asarray(before).tobytes()
    spread = rng.uniform(0.5, 4.0, size=(n_test, 1))
    tests = direct.mean + spread * rng.standard_normal((n_test, d)) * X.std(axis=0)
    tests[::3] = X[rng.integers(0, len(X), size=tests[::3].shape[0])]
    low = classify(fit_gate(X, min(q1, q2)), tests)
    high = at_percentile(direct, max(q1, q2))
    np.testing.assert_array_equal(
        classify(high, tests).outlier_indices,
        low.outlier_indices[low.distances[low.outlier_indices] > high.threshold_distance])
    assert low.nearest_indices.tolist() == [nearest_training_neighbor(direct, tests[i])[0]
                                            for i in low.outlier_indices]


def _partition_bits(partition):
    return [np.asarray(getattr(partition, f.name)).tobytes()
            for f in dataclasses.fields(partition)]


@DETERMINISTIC
@given(seed=seeds, d=dims, q1=percentiles, q2=percentiles,
       n_test=st.integers(min_value=1, max_value=40))
def test_classify_gives_a_fresh_gates_partition_on_every_gate_and_call(
        seed, d, q1, q2, n_test):
    """A gate caches its training rows' centre norms at the first
    ``classify``; later calls, a saved and reloaded gate and a percentile
    move all give bitwise the partition of a gate fitted afresh."""
    rng, X = _training_rows(seed, d, 30)
    gate = fit_gate(X, q2)
    spread = rng.uniform(0.5, 4.0, size=(n_test, 1))
    tests = gate.mean + spread * rng.standard_normal((n_test, d)) * X.std(axis=0)
    tests[::3] = X[rng.integers(0, len(X), size=tests[::3].shape[0])]
    buffer = io.BytesIO()
    save_gate(buffer, gate)
    buffer.seek(0)
    expected = _partition_bits(classify(fit_gate(X, q2), tests))
    for candidate in (gate, gate, load_gate(buffer), at_percentile(fit_gate(X, q1), q2)):
        assert _partition_bits(classify(candidate, tests)) == expected


@st.composite
def onehot_groups(draw, d):
    """0 to 2 one-hot groups on distinct columns among ``d``, with any
    labels free of NUL (which numpy's string arrays strip at the end) and
    any finite levels, signed zeros and subnormals included."""
    columns = draw(st.permutations(range(d)))
    groups = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if not columns:
            break
        k = draw(st.integers(min_value=1, max_value=min(3, len(columns))))
        cols, columns = columns[:k], columns[k:]
        labels = st.text(st.characters(min_codepoint=1, blacklist_categories=("Cs",)),
                         max_size=4)
        levels = st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2)
        groups.append(OneHotGroup(
            column_indices=tuple(cols),
            category_labels=tuple(draw(st.lists(labels, min_size=k, max_size=k))),
            levels=tuple(draw(st.lists(levels, min_size=k, max_size=k)))))
    return tuple(groups)


@DETERMINISTIC
@given(seed=seeds, d=dims, q=percentiles, n=st.integers(min_value=2, max_value=50),
       data=st.data())
def test_gate_save_load_round_trip_is_bitwise(seed, d, q, n, data):
    _, X = _training_rows(seed, d, n)
    if n <= d:
        X = np.hstack([X[:, :1]] * d) + np.arange(d)   # rank-deficient: ridge path
    gate = fit_gate(X, q, data.draw(onehot_groups(d)))
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
    assert loaded.onehot_groups == gate.onehot_groups
    for before, after in zip(gate.onehot_groups, loaded.onehot_groups):
        assert {type(c) for c in after.column_indices} == {int}
        assert {type(c) for c in after.category_labels} == {str}
        assert {type(v) for level in after.levels for v in level} == {float}
        assert np.array(after.levels).tobytes() == np.array(before.levels).tobytes()


@DETERMINISTIC
@given(z=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                  min_size=1, max_size=20))
def test_sigmoid_is_the_logistic_to_one_part_in_2_to_52(z):
    """Over every finite exponent, subnormals and the largest float
    included, and without a warning: the sigmoid lies in [0, 1], and both
    s(z) + s(-z) - 1 and its distance from the sign-split logistic are at
    most 2^-52."""
    z = np.array(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = regress._activate(Activation.SIGMOID, z.copy())
        mirrored = regress._activate(Activation.SIGMOID, -z)
    assert ((s >= 0.0) & (s <= 1.0)).all()
    assert np.abs(s + mirrored - 1.0).max() <= 2.0 ** -52
    assert np.abs(s - sign_split_sigmoid(z)).max() <= 2.0 ** -52


@DETERMINISTIC
@given(seed=seeds, activation=st.sampled_from(list(Activation)), d=dims,
       m=st.integers(min_value=1, max_value=3),
       node_count=st.integers(min_value=1, max_value=8),
       member_count=st.integers(min_value=3, max_value=6),
       rows=st.integers(min_value=1, max_value=20))
def test_ensemble_save_load_round_trip_predicts_bitwise(
        seed, activation, d, m, node_count, member_count, rows):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(25, d))
    Y = rng.standard_normal((25, m))
    ensemble = ensemble_train(X, Y, node_count, activation,
                              member_count=member_count, seed=seed)
    buffer = io.BytesIO()
    save_ensemble(buffer, ensemble)
    buffer.seek(0)
    loaded = load_ensemble(buffer)

    assert (loaded.activation, loaded.trim_policy, loaded.seed) == (
        ensemble.activation, ensemble.trim_policy, ensemble.seed)
    assert ([member.seed for member in loaded.members]
            == [member.seed for member in ensemble.members])
    grid = rng.uniform(-3.0, 3.0, size=(rows, d))
    before, after = ensemble_predict(ensemble, grid), ensemble_predict(loaded, grid)
    assert after.shape == before.shape == (rows, m)
    assert after.tobytes() == before.tobytes()


@DETERMINISTIC
@given(seed=seeds, activation=st.sampled_from(list(Activation)),
       d=st.integers(min_value=1, max_value=8),
       m=st.integers(min_value=1, max_value=2),
       node_count=st.integers(min_value=1, max_value=60),
       member_count=st.integers(min_value=1, max_value=12),
       rows=st.integers(min_value=1, max_value=300),
       zero_share=st.sampled_from([0.0, 0.3]),
       chunk_elements=st.sampled_from([regress._CHUNK_ELEMENTS, 40]))
def test_ensemble_predict_is_the_member_loop_bitwise(
        seed, activation, d, m, node_count, member_count, rows, zero_share,
        chunk_elements):
    """The stacked pass, with the sigmoid's halvings folded into the
    stacked weights and every kernel in place, gives bitwise the mean (or
    the drop-min-max trim) of ``elm_predict`` over the members, on inputs
    with signed zeros and magnitudes from 1e-3 to 1e3, under the default
    chunk budget and one that splits the members."""
    if activation is Activation.RADIAL_BASIS:
        member_count = max(member_count, 3)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(20, d))
    Y = rng.standard_normal((20, m))
    ensemble = ensemble_train(X, Y, node_count, activation,
                              member_count=member_count, seed=seed)
    grid = (rng.uniform(-1.0, 1.0, size=(rows, d))
            * 10.0 ** rng.uniform(-3.0, 3.0, size=(rows, d)))
    grid[rng.uniform(size=(rows, d)) < zero_share] = 0.0
    grid[rng.uniform(size=(rows, d)) < zero_share / 2] = -0.0

    stacked = np.stack([elm_predict(member, grid) for member in ensemble.members])
    if ensemble.trim_policy is TrimPolicy.NONE:
        expected = stacked.mean(axis=0)
    else:
        expected = (stacked.sum(axis=0) - stacked.max(axis=0)
                    - stacked.min(axis=0)) / (member_count - 2)
    with mock.patch.object(regress, "_CHUNK_ELEMENTS", chunk_elements):
        got = ensemble_predict(ensemble, grid)
    assert got.shape == (rows, m)
    assert got.tobytes() == expected.tobytes()


@DETERMINISTIC
@given(values=st.lists(st.one_of(st.integers(min_value=-3, max_value=3),
                                 st.sampled_from([-0.0, 0.0, 0.5, 1e-300]),
                                 st.floats(allow_nan=False,
                                           allow_infinity=False)),
                       min_size=1, max_size=40))
def test_average_ranks_match_a_sort_based_oracle(values):
    """A value's rank is the mean of the 1-based positions its ties take
    in the sorted list; small integers, -0.0 and 0.0 force the ties."""
    values = [float(v) for v in values]
    ordered = sorted(values)
    expected = [(bisect.bisect_left(ordered, v) + 1
                 + bisect.bisect_right(ordered, v)) / 2 for v in values]
    np.testing.assert_array_equal(average_ranks(values), expected)


@settings(DETERMINISTIC, max_examples=300)
@given(seed=seeds, rows=st.integers(min_value=1, max_value=6),
       n=st.integers(min_value=1, max_value=300), integer_levels=st.booleans(),
       zero_share=st.sampled_from([0.0, 0.3, 0.7]),
       far_share=st.sampled_from([0.0, 0.02, 0.2]),
       log_scale=st.floats(min_value=-3.0, max_value=3.0))
def test_boxplot_rows_match_the_one_row_summary(seed, rows, n, integer_levels, zero_share,
                                                far_share, log_scale):
    """Every row's cell renders as the same JSON as summarising it alone.
    Integer levels tie; 0.0 and -0.0 tie on quartiles, medians, whiskers
    and outside points; far values make outside points."""
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(rows, n))
    if integer_levels:
        V = np.round(2.0 * V)
    V[rng.random((rows, n)) < zero_share] = 0.0
    V *= rng.choice([-1.0, 1.0], size=(rows, n)) * 10.0 ** log_scale
    far = rng.random((rows, n)) < far_share
    V[far] += rng.choice([-1e3, 1e3], size=far.sum()) * 10.0 ** log_scale
    assert as_json(boxplot_rows(V)) == as_json([boxplot_oracle(row) for row in V])
