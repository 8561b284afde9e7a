"""Scaling, target transforms, encoding, and the severity index.

The two published severity values (7.73 for a 0/51.1/223 column, 6.22
for a 0/64/231 column) are checked both through the full scaling
pipeline and through the closed-form estimate; the pipeline and the
closed form must agree to 1e-10 on random triples.
"""

import numpy as np
import pytest

from outreg import (OneHotGroup, TargetTransform, apply_minmax,
                    clip_nonnegative, fit_minmax, inverse_transform_target,
                    invert_minmax, minmax_onehot_group, one_hot_encode, r_outl,
                    r_outl_estimate, transform_target)


class TestMinMax:
    def test_fit_records_extremes(self):
        scaler = fit_minmax([[2.0], [4.0], [6.0]])
        np.testing.assert_array_equal(scaler.x_min, [2.0])
        np.testing.assert_array_equal(scaler.x_max, [6.0])

    def test_fit_two_columns(self):
        scaler = fit_minmax([[0.0, -1.0], [10.0, 1.0]])
        np.testing.assert_array_equal(scaler.x_min, [0.0, -1.0])
        np.testing.assert_array_equal(scaler.x_max, [10.0, 1.0])

    def test_single_row_flags_constant(self):
        scaler = fit_minmax([[3.0, 5.0]])
        assert scaler.constant_columns.all()

    def test_endpoints_map_to_plus_minus_one(self):
        scaler = fit_minmax([[2.0], [6.0]])
        scaled = apply_minmax(scaler, [[2.0], [6.0], [4.0]])
        np.testing.assert_array_equal(scaled[:, 0], [-1.0, 1.0, 0.0])

    def test_no_clamping_beyond_training_range(self):
        """The published BEI precipitation column: 223 on a 0..51.1 range."""
        scaler = fit_minmax([[0.0], [51.1]])
        scaled = apply_minmax(scaler, [[223.0]])
        np.testing.assert_allclose(scaled[0, 0], 2 * 223 / 51.1 - 1,
                                   rtol=0, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        scaler = fit_minmax([[1.0, 5.0], [1.0, 9.0]])
        scaled = apply_minmax(scaler, [[1.0, 7.0], [42.0, 5.0]])
        np.testing.assert_array_equal(scaled[:, 0], [0.0, 0.0])

    def test_round_trip_non_constant(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 4)) * 10 + 3
        scaler = fit_minmax(X)
        back = invert_minmax(scaler, apply_minmax(scaler, X))
        np.testing.assert_allclose(back, X, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        scaler = fit_minmax([[0.0, 1.0]])
        with pytest.raises(ValueError, match="columns"):
            apply_minmax(scaler, [[1.0]])


class TestROutl:
    def test_bei_style_column(self):
        """Training 0..51.1, worst test 223: severity 7.73 within 0.01."""
        scaler = fit_minmax([[0.0], [51.1]])
        value = r_outl(apply_minmax(scaler, [[5.0], [223.0]]))
        assert abs(value - 7.73) < 0.01

    def test_sta_style_column(self):
        """Training 0..64, worst test 231: severity 6.22 within 0.01."""
        scaler = fit_minmax([[0.0], [64.0]])
        value = r_outl(apply_minmax(scaler, [[231.0], [10.0]]))
        assert abs(value - 6.22) < 0.01

    def test_contained_test_data_stays_at_most_one(self):
        rng = np.random.default_rng(4)
        train = rng.uniform(-3, 7, size=(50, 3))
        scaler = fit_minmax(train)
        inside = rng.uniform(train.min(axis=0), train.max(axis=0), size=(40, 3))
        assert r_outl(apply_minmax(scaler, inside)) <= 1.0

    def test_negative_extreme_counts(self):
        scaler = fit_minmax([[0.0], [10.0]])
        assert r_outl(apply_minmax(scaler, [[-10.0]])) == 3.0

    def test_excluded_columns_ignored(self):
        scaler = fit_minmax([[0.0, 0.0], [1.0, 1.0]])
        scaled = apply_minmax(scaler, [[0.5, 100.0]])
        assert r_outl(scaled, exclude_columns=(1,)) <= 1.0

    def test_all_columns_excluded_rejected(self):
        with pytest.raises(ValueError, match="retained column"):
            r_outl([[1.0]], exclude_columns=(0,))


class TestROutlEstimate:
    def test_published_bei_value(self):
        assert abs(r_outl_estimate(0.0, 51.1, 223.0) - 7.73) < 0.01

    def test_published_sta_value(self):
        assert abs(r_outl_estimate(0.0, 64.0, 231.0) - 6.22) < 0.01

    def test_boundary_test_value_gives_one(self):
        assert r_outl_estimate(0.0, 51.1, 51.1) == 1.0

    def test_pipeline_identity_on_random_triples(self):
        """Scaling pipeline equals the closed form to 1e-10, 1000 triples."""
        rng = np.random.default_rng(6)
        for _ in range(1000):
            a = rng.uniform(-50, 50)
            b = a + rng.uniform(0.1, 100)
            c = b + rng.uniform(0.01, 500)
            scaler = fit_minmax([[a], [b]])
            pipeline = r_outl(apply_minmax(scaler, [[c]]))
            assert abs(pipeline - r_outl_estimate(a, b, c)) < 1e-10

    def test_approximate_form_exact_at_zero_min(self):
        """With a=0 the two closed forms agree bitwise."""
        rng = np.random.default_rng(8)
        for _ in range(200):
            b = rng.uniform(0.1, 100)
            c = b + rng.uniform(0.0, 500)
            assert r_outl_estimate(0.0, b, c) == r_outl_estimate(
                0.0, b, c, approximate=True)

    def test_approximate_form_error_below_two_percent(self):
        """With a = 0.01 b the approximation errs by less than 2%."""
        rng = np.random.default_rng(10)
        for _ in range(200):
            b = rng.uniform(1.0, 100)
            a = 0.01 * b
            c = b + rng.uniform(0.5 * b, 10 * b)
            exact = r_outl_estimate(a, b, c)
            approx = r_outl_estimate(a, b, c, approximate=True)
            assert abs(approx - exact) / abs(exact) < 0.02

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError, match="strictly below"):
            r_outl_estimate(5.0, 5.0, 10.0)


class TestTargetTransforms:
    def test_natural_log_hand_values(self):
        out = transform_target([1.0, np.e], TargetTransform.NATURAL_LOG)
        np.testing.assert_allclose(out, [0.0, 1.0], rtol=0, atol=1e-15)

    def test_log10_hand_value(self):
        np.testing.assert_array_equal(
            transform_target([100.0], TargetTransform.LOG10), [2.0])

    def test_fourth_root_hand_value(self):
        np.testing.assert_array_equal(
            transform_target([16.0], TargetTransform.FOURTH_ROOT), [2.0])

    def test_inverse_hand_values(self):
        np.testing.assert_array_equal(
            inverse_transform_target([0.0], TargetTransform.NATURAL_LOG), [1.0])
        np.testing.assert_array_equal(
            inverse_transform_target([2.0], TargetTransform.FOURTH_ROOT), [16.0])

    def test_round_trip_all_kinds(self):
        rng = np.random.default_rng(12)
        v = rng.uniform(0.01, 50, size=100)
        for kind in TargetTransform:
            back = inverse_transform_target(transform_target(v, kind), kind)
            np.testing.assert_allclose(back, v, rtol=1e-12, atol=0)

    def test_log_domain_violation_names_index(self):
        with pytest.raises(ValueError, match="index 2"):
            transform_target([1.0, 2.0, 0.0], TargetTransform.NATURAL_LOG)

    def test_fourth_root_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            transform_target([-1.0], TargetTransform.FOURTH_ROOT)

    def test_none_passes_through(self):
        v = np.array([-3.0, 0.0, 7.5])
        np.testing.assert_array_equal(
            transform_target(v, TargetTransform.NONE), v)


class TestOneHot:
    def test_wind_direction_rows(self):
        """Four labels in order NW, NE, S, CV; NE encodes as [0 1 0 0]."""
        cats = ["NW", "NE", "S", "CV"]
        out = one_hot_encode(["NE", "S"], cats)
        np.testing.assert_array_equal(out[0], [0, 1, 0, 0])
        np.testing.assert_array_equal(out[1], [0, 0, 1, 0])

    def test_single_category(self):
        np.testing.assert_array_equal(one_hot_encode(["a", "a"], ["a"]),
                                      [[1.0], [1.0]])

    def test_row_sums_are_one(self):
        rng = np.random.default_rng(14)
        cats = ["p", "q", "r"]
        labels = [cats[i] for i in rng.integers(0, 3, size=60)]
        np.testing.assert_array_equal(one_hot_encode(labels, cats).sum(axis=1),
                                      np.ones(60))

    def test_unknown_label_named_in_error(self):
        with pytest.raises(ValueError, match="'W'"):
            one_hot_encode(["NW", "W"], ["NW", "NE"])

    def test_duplicate_categories_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            one_hot_encode(["a"], ["a", "a"])


class TestOneHotGroupLevels:
    def test_default_levels_are_zero_one(self):
        group = OneHotGroup(column_indices=(0, 1, 2), category_labels=("a", "b", "c"))
        assert group.levels == ((0.0, 1.0),) * 3
        np.testing.assert_array_equal(group.category_blocks(), np.eye(3))

    def test_levels_count_must_match_columns(self):
        with pytest.raises(ValueError, match="levels"):
            OneHotGroup(column_indices=(0, 1), category_labels=("a", "b"),
                        levels=((0.0, 1.0),))

    def test_minmax_levels_match_scaled_rows_bitwise(self):
        """Column c never occurs in training, so it is constant there."""
        cats = ["a", "b", "c"]
        rng = np.random.default_rng(3)
        train = np.hstack([rng.uniform(5.0, 9.0, size=(6, 1)),
                           one_hot_encode(list("ababab"), cats)])
        test = np.hstack([rng.uniform(5.0, 9.0, size=(3, 1)),
                          one_hot_encode(list("abc"), cats)])
        scaler = fit_minmax(train)
        group = minmax_onehot_group(
            scaler, OneHotGroup(column_indices=(1, 2, 3), category_labels=tuple(cats)))
        assert group.levels == ((-1.0, 1.0), (-1.0, 1.0), (0.0, 0.0))
        np.testing.assert_array_equal(apply_minmax(scaler, test)[:, 1:],
                                      group.category_blocks())


class TestClip:
    def test_mixed_values(self):
        np.testing.assert_array_equal(clip_nonnegative([-3.0, 0.0, 5.0]),
                                      [0.0, 0.0, 5.0])

    def test_idempotent(self):
        rng = np.random.default_rng(16)
        v = rng.normal(size=50)
        once = clip_nonnegative(v)
        np.testing.assert_array_equal(clip_nonnegative(once), once)

    def test_all_negative_become_zero(self):
        np.testing.assert_array_equal(clip_nonnegative([-1.0, -2.0]), [0.0, 0.0])


@pytest.mark.parametrize("call, message", [
    (lambda: fit_minmax(np.zeros((0, 2))), "fit_minmax requires at least one row"),
    (lambda: r_outl(np.zeros((0, 2))), "r_outl requires at least one row"),
    (lambda: r_outl(np.zeros((3, 2)), exclude_columns=[0, 2]),
     "exclude_columns entry 2 out of range for 2 columns"),
    (lambda: OneHotGroup((0, 1), ("a",)), "2 column indices for 1 category labels"),
    (lambda: OneHotGroup((), ()), "a one-hot group needs at least one category"),
    (lambda: OneHotGroup((1, 1), ("a", "b")), "one-hot column indices must be distinct"),
    (lambda: one_hot_encode(["a"], []), "one-hot encoding needs at least one category"),
], ids=["fit-minmax-empty", "r-outl-empty", "r-outl-exclude-out-of-range",
        "group-labels-mismatch", "group-empty", "group-repeated-column",
        "encode-without-categories"])
def test_malformed_input_is_refused_by_its_own_check(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
