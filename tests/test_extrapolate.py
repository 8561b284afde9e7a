"""Directional extrapolation routes, the median combiner, boundary helper.

The pinned hand cases all use f(x) = x-squared so the secants are easy to
work by hand: the neighbour route at delta1=0.5 from x_nn=1 to x_o=2
gives 2.5, the centre route with centre 0, x_nn=1, x_o=3, delta2=0.5
gives 4.0, and the 1-D boundary continuation of x-squared past [-2, 2]
evaluated at 3 gives 7.99.  Affine surfaces must be reproduced exactly
by every route.
"""

import dataclasses

import numpy as np
import pytest

from outreg import (DegenerateGeometryError, NoPredictionError, OneHotGroup,
                    OrConfig, apply_minmax, boundary_extrapolate_1d,
                    categorical_center, center_linear_extrapolate,
                    extrapolation_plan, fit_gate,
                    fit_minmax, minmax_onehot_group, nn_linear_extrapolate,
                    nlror_predict, nlror_predict_detailed)


def square(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.sum(pts ** 2, axis=1)


def square_1d(xs):
    return np.asarray(xs, dtype=float) ** 2


def make_affine(rng, dim):
    a = rng.normal(size=dim)
    b = float(rng.normal())

    def affine(points):
        return np.atleast_2d(np.asarray(points, dtype=float)) @ a + b

    return affine


def recording(f):
    """Wrap a surface so every evaluated point is captured."""
    seen = []

    def wrapped(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        seen.extend(pts.copy())
        return f(pts)

    return wrapped, seen


class TestNnRoute:
    def test_square_hand_value(self):
        """f=x^2, x_nn=1, x_o=2, delta1=0.5: sample at 0.5, secant gives 2.5."""
        value = nn_linear_extrapolate(square, [2.0], [1.0], 0.5)
        np.testing.assert_allclose(value, 2.5, rtol=0, atol=1e-12)

    def test_square_smaller_step_tracks_tangent(self):
        """As delta1 shrinks the secant approaches the tangent value 3."""
        coarse = nn_linear_extrapolate(square, [2.0], [1.0], 0.5)
        fine = nn_linear_extrapolate(square, [2.0], [1.0], 0.01)
        assert abs(fine - 3.0) < abs(coarse - 3.0)
        np.testing.assert_allclose(fine, 2.99, rtol=0, atol=1e-9)

    def test_affine_exactness(self):
        rng = np.random.default_rng(1)
        for dim in (1, 2, 5):
            affine = make_affine(rng, dim)
            x_nn = rng.normal(size=dim)
            x_o = x_nn + rng.normal(size=dim)
            for d1 in (0.1, 0.25, 0.5, 1.0, 3.0):
                value = nn_linear_extrapolate(affine, x_o, x_nn, d1)
                np.testing.assert_allclose(value, affine(x_o[None, :])[0],
                                           rtol=1e-10, atol=1e-10)

    def test_sample_points_are_neighbour_and_step_behind(self):
        f, seen = recording(square)
        nn_linear_extrapolate(f, [2.0], [1.0], 0.5)
        np.testing.assert_array_equal(seen[0], [1.0])
        np.testing.assert_array_equal(seen[1], [0.5])

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="coincides"):
            nn_linear_extrapolate(square, [1.0, 2.0], [1.0, 2.0], 0.5)

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError, match="delta1"):
            nn_linear_extrapolate(square, [2.0], [1.0], 0.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="coordinates"):
            nn_linear_extrapolate(square, [2.0, 1.0], [1.0], 0.5)


class TestCenterRoute:
    def test_square_hand_value(self):
        """centre 0, x_nn=1, x_o=3, delta2=0.5: p=1, x_*=0.5, result 4."""
        value = center_linear_extrapolate(square, [3.0], [1.0], [0.0], 0.5)
        np.testing.assert_allclose(value, 4.0, rtol=0, atol=1e-12)

    def test_projection_geometry_in_two_dims(self):
        """x_nn=(1,2) projects to (1,0) on the line to x_o=(4,0)."""
        f, seen = recording(square)
        value = center_linear_extrapolate(f, [4.0, 0.0], [1.0, 2.0],
                                          [0.0, 0.0], 1.0)
        np.testing.assert_allclose(seen[0], [1.0, 0.0], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(seen[1], [0.0, 0.0])
        np.testing.assert_allclose(value, 4.0, rtol=0, atol=1e-12)

    def test_full_step_samples_centre_bitwise(self):
        """delta2=1 evaluates the centre itself, not an approximation."""
        f, seen = recording(square)
        center = np.array([0.3, -0.7])
        center_linear_extrapolate(f, [3.0, 1.0], [1.0, 0.0], center, 1.0)
        np.testing.assert_array_equal(seen[1], center)

    def test_affine_exactness(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2, 4):
            affine = make_affine(rng, dim)
            center = rng.normal(size=dim)
            direction = rng.normal(size=dim)
            direction /= np.linalg.norm(direction)
            x_o = center + 5.0 * direction
            x_nn = center + 2.0 * direction + 0.3 * rng.normal(size=dim)
            for d2 in (0.3, 0.5, 1.0):
                try:
                    value = center_linear_extrapolate(affine, x_o, x_nn,
                                                      center, d2)
                except DegenerateGeometryError:
                    continue
                np.testing.assert_allclose(value, affine(x_o[None, :])[0],
                                           rtol=1e-10, atol=1e-10)

    def test_neighbour_behind_centre_rejected(self):
        with pytest.raises(DegenerateGeometryError, match="behind"):
            center_linear_extrapolate(square, [2.0, 0.0], [-1.0, 0.0],
                                      [0.0, 0.0], 0.5)

    def test_perpendicular_neighbour_rejected(self):
        with pytest.raises(DegenerateGeometryError, match="behind"):
            center_linear_extrapolate(square, [2.0, 0.0], [0.0, 1.0],
                                      [0.0, 0.0], 0.5)

    def test_neighbour_beyond_outlier_rejected(self):
        with pytest.raises(DegenerateGeometryError, match="beyond"):
            center_linear_extrapolate(square, [2.0, 0.0], [3.0, 0.0],
                                      [0.0, 0.0], 0.5)

    def test_outlier_at_centre_rejected(self):
        with pytest.raises(DegenerateGeometryError, match="coincides"):
            center_linear_extrapolate(square, [1.0, 1.0], [0.5, 0.5],
                                      [1.0, 1.0], 0.5)

    def test_bad_delta_rejected(self):
        for d2 in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="delta2"):
                center_linear_extrapolate(square, [3.0], [1.0], [0.0], d2)


class TestOrConfig:
    def test_defaults(self):
        config = OrConfig()
        assert config.delta1_values == (0.25, 0.5)
        assert config.delta2_values == (0.5, 1.0)
        assert config.include_raw_nlr is True

    def test_empty_lists_allowed_with_raw_value(self):
        config = OrConfig(delta1_values=(), delta2_values=())
        assert config.include_raw_nlr is True

    def test_no_candidates_at_all_rejected(self):
        with pytest.raises(ValueError, match="^include_raw_nlr must be true"):
            OrConfig(delta1_values=(), delta2_values=(), include_raw_nlr=False)

    def test_delta_validation(self):
        with pytest.raises(ValueError, match="delta1"):
            OrConfig(delta1_values=(0.5, -0.1))
        with pytest.raises(ValueError, match="delta2"):
            OrConfig(delta2_values=(0.5, 2.0))

    @pytest.mark.parametrize("key, deltas", [
        ("delta1_values", (0.5, 0.5)),
        ("delta1_values", (0.25, 0.2500001)),
        ("delta2_values", (1.0, 0.5, 1)),
    ], ids=["repeated-delta1", "delta1-alike-at-6-digits", "repeated-delta2"])
    def test_deltas_that_label_alike_rejected(self, key, deltas):
        """Two candidates with one label would be told apart by position
        only, and a repeated step would count twice in the median."""
        with pytest.raises(ValueError, match=f"{key} must not repeat"):
            OrConfig(**{key: deltas})

    def test_deltas_that_label_apart_accepted(self):
        config = OrConfig(delta1_values=(0.25, 0.250001))
        assert config.delta1_values == (0.25, 0.250001)


def line_gate():
    """Training rows spread on the x-axis of a 2-D plane."""
    rng = np.random.default_rng(7)
    X = np.column_stack([np.linspace(-1.0, 1.0, 21),
                         0.05 * rng.normal(size=21)])
    return fit_gate(X, percentile_q=90.0)


class TestMedianCombiner:
    def test_median_of_hand_candidates(self):
        """Median of {10, 0, 1, 2, 3} is 2."""
        assert float(np.median([10.0, 0.0, 1.0, 2.0, 3.0])) == 2.0

    def test_constant_surface_returns_constant(self):
        gate = line_gate()
        value = nlror_predict(lambda pts: np.full(len(np.atleast_2d(pts)), 5.5),
                              gate, [4.0, 0.0])
        assert value == 5.5

    def test_affine_surface_reproduced(self):
        rng = np.random.default_rng(9)
        gate = line_gate()
        affine = make_affine(rng, 2)
        x_o = np.array([4.0, 0.2])
        value = nlror_predict(affine, gate, x_o)
        np.testing.assert_allclose(value, affine(x_o[None, :])[0],
                                   rtol=1e-10, atol=1e-10)

    def test_rogue_raw_value_is_damped(self):
        """A surface that explodes only at the outlier itself is outvoted
        by the four directional candidates."""
        gate = line_gate()
        x_o = np.array([4.0, 0.0])

        def spiky(points):
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            out = np.zeros(len(pts))
            out[np.all(pts == x_o, axis=1)] = 1e6
            return out

        record = nlror_predict_detailed(spiky, gate, x_o)
        assert len(record.candidates) == 5
        assert record.value == 0.0

    def test_value_within_candidate_range(self):
        rng = np.random.default_rng(11)
        gate = line_gate()

        def wiggly(points):
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            return np.sin(3 * pts[:, 0]) + pts[:, 1] ** 2

        for _ in range(20):
            x_o = np.array([rng.uniform(2, 6), rng.uniform(-1, 1)])
            record = nlror_predict_detailed(wiggly, gate, x_o)
            values = [v for _, v in record.candidates]
            assert min(values) <= record.value <= max(values)

    def test_continuity_in_delta1(self):
        """Small delta1 changes move the smooth-surface result only a little."""
        gate = line_gate()
        x_o = [3.0, 0.0]

        def smooth(points):
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            return np.cos(pts[:, 0]) + 0.5 * pts[:, 1]

        base = OrConfig(delta1_values=(0.5,), delta2_values=(),
                        include_raw_nlr=False)
        nudged = OrConfig(delta1_values=(0.5 + 1e-6,), delta2_values=(),
                          include_raw_nlr=False)
        a = nlror_predict(smooth, gate, x_o, base)
        b = nlror_predict(smooth, gate, x_o, nudged)
        assert abs(a - b) < 1e-4

    def test_empty_deltas_reduce_to_raw_surface(self):
        gate = line_gate()
        config = OrConfig(delta1_values=(), delta2_values=())
        x_o = np.array([4.0, 0.3])
        value = nlror_predict(square, gate, x_o, config)
        assert value == float(square(x_o[None, :])[0])

    def test_record_labels_and_neighbour(self):
        gate = line_gate()
        record = nlror_predict_detailed(square, gate, [4.0, 0.0])
        labels = [label for label, _ in record.candidates]
        assert labels == ["nn-extrapolation(delta1=0.25)",
                          "nn-extrapolation(delta1=0.5)",
                          "center-extrapolation(delta2=0.5)",
                          "center-extrapolation(delta2=1)",
                          "raw-surface"]
        diff = gate.training_inputs - np.array([4.0, 0.0])
        assert record.nn_index == int(np.argmin(np.einsum("ij,ij->i",
                                                          diff, diff)))

    def test_point_on_training_row_drops_directional_routes(self):
        """x_o exactly on a training row: both route families drop and the
        raw surface value carries the median."""
        gate = line_gate()
        x_o = gate.training_inputs[0]
        record = nlror_predict_detailed(square, gate, x_o)
        assert [label for label, _ in record.candidates] == ["raw-surface"]
        assert len(record.dropped) == 4
        np.testing.assert_allclose(record.value,
                                   float(square(x_o[None, :])[0]),
                                   rtol=0, atol=0)

    def test_all_dropped_without_raw_value_raises(self):
        gate = line_gate()
        config = OrConfig(include_raw_nlr=False)
        with pytest.raises(NoPredictionError, match="dropped"):
            nlror_predict(square, gate, gate.training_inputs[0], config)

    @pytest.mark.parametrize("nn_index", [-1, 21, 100])
    def test_neighbour_index_outside_the_training_rows_rejected(self, nn_index):
        """-1 would anchor the plan on the last training row, silently."""
        gate = line_gate()
        with pytest.raises(ValueError, match=rf"nn_index {nn_index} is not a "
                                             r"training row index in \[0, 21\)"):
            extrapolation_plan(gate, [4.0, 0.0], nn_index=nn_index)

    def test_dimension_mismatch_rejected(self):
        gate = line_gate()
        with pytest.raises(ValueError, match="coordinates"):
            nlror_predict(square, gate, [1.0, 2.0, 3.0])


def two_category_gate():
    """Category A lives on x in [-10, -5], category B on [5, 10].

    Columns: continuous x, then a two-column indicator block (A, B).
    """
    xs_a = np.linspace(-10.0, -5.0, 11)
    xs_b = np.linspace(5.0, 10.0, 11)
    rows = np.vstack([
        np.column_stack([xs_a, np.ones(11), np.zeros(11)]),
        np.column_stack([xs_b, np.zeros(11), np.ones(11)]),
    ])
    group = OneHotGroup(column_indices=(1, 2), category_labels=("A", "B"))
    return fit_gate(rows, percentile_q=90.0, onehot_groups=(group,)), group


class TestCategoricalCenter:
    def test_center_uses_only_matching_rows(self):
        gate, group = two_category_gate()
        center_b = categorical_center(gate, [20.0, 0.0, 1.0])
        np.testing.assert_array_equal(center_b, [7.5, 0.0, 1.0])
        center_a = categorical_center(gate, [-20.0, 1.0, 0.0])
        np.testing.assert_array_equal(center_a, [-7.5, 1.0, 0.0])

    def test_single_category_equals_global_center(self):
        rows = np.column_stack([np.linspace(0, 4, 9), np.ones(9)])
        group = OneHotGroup(column_indices=(1,), category_labels=("z",))
        gate = fit_gate(rows, percentile_q=90.0, onehot_groups=(group,))
        np.testing.assert_array_equal(
            categorical_center(gate, [9.0, 1.0]), gate.center)

    def test_unmatched_category_falls_back_with_warning(self):
        """No training row carries category B here."""
        rows = np.column_stack([np.linspace(0, 4, 9), np.ones(9), np.zeros(9)])
        group = OneHotGroup(column_indices=(1, 2), category_labels=("A", "B"))
        gate = fit_gate(rows, percentile_q=90.0, onehot_groups=(group,))
        with pytest.warns(UserWarning, match="global training centre"):
            center = categorical_center(gate, [9.0, 0.0, 1.0])
        np.testing.assert_array_equal(center, gate.center)

    def test_invalid_indicator_block_rejected(self):
        gate, group = two_category_gate()
        with pytest.raises(ValueError, match="indicator"):
            categorical_center(gate, [20.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="indicator"):
            categorical_center(gate, [20.0, 0.5, 0.5])

    def test_block_read_in_the_groups_levels(self):
        """Min-max scaled indicators read -1/1; raw 0/1 blocks are then invalid."""
        gate, group = two_category_gate()
        scaler = fit_minmax(gate.training_inputs)
        scaled = minmax_onehot_group(scaler, group)
        scaled_gate = fit_gate(apply_minmax(scaler, gate.training_inputs),
                               percentile_q=90.0, onehot_groups=(scaled,))
        center = categorical_center(scaled_gate, [3.0, -1.0, 1.0])
        np.testing.assert_array_equal(center[1:], [-1.0, 1.0])
        with pytest.raises(ValueError, match="indicator"):
            categorical_center(scaled_gate, [3.0, 0.0, 1.0])

    def test_no_groups_rejected(self):
        gate, _ = two_category_gate()
        with pytest.raises(ValueError, match="one-hot group"):
            categorical_center(dataclasses.replace(gate, onehot_groups=()),
                               [20.0, 0.0, 1.0])


class TestCategoricalPinning:
    def test_every_surface_call_carries_the_point_category(self):
        gate, _ = two_category_gate()
        config = OrConfig()
        f, seen = recording(square)
        nlror_predict(f, gate, [20.0, 0.0, 1.0], config)
        assert len(seen) > 0
        for point in seen:
            np.testing.assert_array_equal(point[1:], [0.0, 1.0])

    def test_geometry_reduces_to_continuous_coordinates(self):
        """With the indicator block pinned, an affine surface is still
        reproduced exactly."""
        rng = np.random.default_rng(13)
        gate, _ = two_category_gate()
        config = OrConfig()
        affine = make_affine(rng, 3)
        x_o = np.array([20.0, 0.0, 1.0])
        value = nlror_predict(affine, gate, x_o, config)
        np.testing.assert_allclose(value, affine(x_o[None, :])[0],
                                   rtol=1e-10, atol=1e-10)

    def test_center_route_anchors_in_matching_category(self):
        gate, _ = two_category_gate()
        config = OrConfig(delta1_values=(), delta2_values=(1.0,),
                          include_raw_nlr=False)
        f, seen = recording(square)
        nlror_predict(f, gate, [20.0, 0.0, 1.0], config)
        np.testing.assert_array_equal(seen[1], [7.5, 0.0, 1.0])


class TestBoundary1d:
    def test_square_hand_value_above(self):
        value = boundary_extrapolate_1d(square_1d, -2.0, 2.0, 0.01, 3.0)
        np.testing.assert_allclose(value, 7.99, rtol=0, atol=1e-9)

    def test_square_hand_value_below(self):
        value = boundary_extrapolate_1d(square_1d, -2.0, 2.0, 0.01, -3.0)
        np.testing.assert_allclose(value, 7.99, rtol=0, atol=1e-9)

    def test_inside_passthrough_is_exact(self):
        grid = np.linspace(-2.0, 2.0, 17)
        out = boundary_extrapolate_1d(square_1d, -2.0, 2.0, 0.01, grid)
        np.testing.assert_array_equal(out, square_1d(grid))

    def test_affine_exact_continuation(self):
        def affine(xs):
            return 3.0 * np.asarray(xs) - 1.0

        grid = np.array([-5.0, -2.0, 0.0, 2.0, 5.0])
        out = boundary_extrapolate_1d(affine, -2.0, 2.0, 0.01, grid)
        np.testing.assert_allclose(out, affine(grid), rtol=1e-9, atol=1e-9)

    def test_scalar_in_float_out(self):
        value = boundary_extrapolate_1d(square_1d, -1.0, 1.0, 0.01, 0.5)
        assert isinstance(value, float)
        assert value == 0.25

    def test_mixed_grid_routes_each_point(self):
        grid = np.array([-3.0, 0.0, 3.0])
        out = boundary_extrapolate_1d(square_1d, -2.0, 2.0, 0.01, grid)
        np.testing.assert_allclose(out, [7.99, 0.0, 7.99], rtol=0, atol=1e-9)

    def test_linearity_beyond_boundary(self):
        """Outside points lie on one straight line per side."""
        xs = np.array([2.5, 3.0, 4.0])
        out = boundary_extrapolate_1d(square_1d, -2.0, 2.0, 0.01, xs)
        slopes = np.diff(out) / np.diff(xs)
        np.testing.assert_allclose(slopes[0], slopes[1], rtol=1e-12)

    def test_validations(self):
        with pytest.raises(ValueError, match="strictly below"):
            boundary_extrapolate_1d(square_1d, 2.0, 2.0, 0.01, 0.0)
        with pytest.raises(ValueError, match="fd_step"):
            boundary_extrapolate_1d(square_1d, -2.0, 2.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="1-D"):
            boundary_extrapolate_1d(square_1d, -2.0, 2.0, 0.01, [[1.0, 2.0]])
        with pytest.raises(ValueError, match="non-finite"):
            boundary_extrapolate_1d(square_1d, -2.0, 2.0, 0.01, [np.nan])


@pytest.mark.parametrize("x_o, x_nn, center", [
    ([2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0]),
    ([2.0, 0.0], [1.0, 0.0], [0.0]),
], ids=["neighbour", "centre"])
def test_center_route_refuses_points_of_other_dimensions(x_o, x_nn, center):
    with pytest.raises(ValueError) as info:
        center_linear_extrapolate(square, x_o, x_nn, center, 0.5)
    assert str(info.value) == (f"dimension mismatch: x_o {len(x_o)}, x_nn {len(x_nn)}, "
                               f"center {len(center)}")
