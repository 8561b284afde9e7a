"""Normalised error, rank correlation, and boxplot summaries.

Hand-computed anchors: mad([1,2,3,4,5]) = 1; a tie case whose rank
correlation is 3/sqrt(10); a ten-point boxplot whose quartiles land on
interpolated values 3.25 and 7.75 so the fences are worked by hand.
``boxplot_oracle`` is the one-sequence summary as computed before the
row-wise kernel; the kernel is checked against it here, in
``test_properties`` and, through the experiment's aggregates, in
``test_experiment``.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from outreg.evalharness import boxplot_stats, mad, maen, spearman
from outreg.evalharness.metrics import boxplot_rows, maen_at_scale


def boxplot_oracle(values) -> dict:
    """One sequence's report cell, one numpy call per statistic."""
    v = np.asarray(values, dtype=float)
    q25 = float(np.percentile(v, 25.0))
    q75 = float(np.percentile(v, 75.0))
    iqr = q75 - q25
    fence_low = q25 - 1.5 * iqr
    fence_high = q75 + 1.5 * iqr
    within = v[(v >= fence_low) & (v <= fence_high)]
    outside = v[(v < fence_low) | (v > fence_high)]
    return {"median": float(np.median(v)), "q25": q25, "q75": q75,
            "whisker_low": float(within.min()), "whisker_high": float(within.max()),
            "outside_points": [float(x) for x in np.sort(outside)],
            "mean": float(np.mean(v)), "n": int(v.size)}


def as_json(cells) -> str:
    """JSON text, in which 0.0 and -0.0 differ."""
    return json.dumps(cells, sort_keys=True)


class TestMad:
    def test_hand_case_odd_length(self):
        assert mad([1.0, 2.0, 3.0, 4.0, 5.0]) == 1.0

    def test_hand_case_even_length(self):
        """median 3, |deviations| sorted [1,1,2,4], middle pair gives 1.5."""
        assert mad([1.0, 2.0, 4.0, 7.0]) == 1.5

    def test_constant_sample_has_zero_spread(self):
        assert mad([3.0, 3.0, 3.0]) == 0.0

    def test_single_value(self):
        assert mad([42.0]) == 0.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=101)
        np.testing.assert_allclose(mad(v + 1000.0), mad(v), rtol=1e-12,
                                   atol=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=100)
        np.testing.assert_allclose(mad(-2.5 * v), 2.5 * mad(v), rtol=1e-12,
                                   atol=0)

    def test_insensitive_to_one_wild_value(self):
        v = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert mad(v + [1e9]) <= 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mad([])


class TestMaen:
    def test_hand_case(self):
        """MAE 1.5 against a reference whose spread constant is 1."""
        value = maen([2.0, 4.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0, 5.0])
        assert value == 1.5

    def test_perfect_predictions_score_zero(self):
        obs = [3.0, 1.0, 4.0, 1.0, 5.0]
        assert maen(obs, obs, obs) == 0.0

    def test_reference_sets_the_scale(self):
        """Same errors, reference twice as spread, half the score."""
        preds, obs = [1.0, 3.0], [0.0, 2.0]
        ref = [1.0, 2.0, 3.0, 4.0, 5.0]
        wide = [2.0 * r for r in ref]
        np.testing.assert_allclose(maen(preds, obs, wide),
                                   maen(preds, obs, ref) / 2.0,
                                   rtol=1e-12, atol=0)

    def test_subset_scores_combine_to_full_score(self):
        """With a shared reference, the full-set score is the count-weighted
        mean of any partition's subset scores."""
        rng = np.random.default_rng(5)
        obs = rng.normal(size=40)
        preds = obs + rng.normal(size=40)
        full = maen(preds, obs, obs)
        left = maen(preds[:15], obs[:15], obs)
        right = maen(preds[15:], obs[15:], obs)
        np.testing.assert_allclose(full, (15 * left + 25 * right) / 40,
                                   rtol=1e-12, atol=1e-12)

    def test_constant_reference_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            maen([1.0], [2.0], [5.0, 5.0, 5.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="predictions"):
            maen([1.0, 2.0], [1.0], [1.0, 2.0, 3.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            maen([], [], [1.0, 2.0, 3.0])

    def test_given_scale_is_the_reference_mad(self):
        rng = np.random.default_rng(7)
        obs = rng.normal(size=30)
        preds = obs + rng.normal(size=30)
        scale = mad(obs)
        assert maen_at_scale(preds[:9], obs[:9], scale) == maen(preds[:9], obs[:9], obs)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            maen_at_scale([1.0], [2.0], 0.0)


class TestSpearman:
    def test_perfect_agreement_is_exactly_one(self):
        rng = np.random.default_rng(7)
        x = np.sort(rng.normal(size=25))
        assert spearman(x, np.arange(25.0)) == 1.0

    def test_perfect_reversal_is_exactly_minus_one(self):
        rng = np.random.default_rng(9)
        x = np.sort(rng.normal(size=24))
        assert spearman(x, -x) == -1.0

    def test_tie_hand_case(self):
        """x = [1,2,2,3] vs y = [10,20,30,40]: 3/sqrt(10)."""
        value = spearman([1.0, 2.0, 2.0, 3.0], [10.0, 20.0, 30.0, 40.0])
        np.testing.assert_allclose(value, 3.0 / math.sqrt(10.0),
                                   rtol=0, atol=1e-15)

    def test_monotone_transform_invariance_is_exact(self):
        """Ranks are untouched by a strictly increasing transform, so the
        coefficient is bitwise identical."""
        rng = np.random.default_rng(11)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        assert spearman(x, y) == spearman(x ** 3, y)
        assert spearman(x, y) == spearman(x, np.exp(y))

    def test_symmetry(self):
        rng = np.random.default_rng(13)
        x, y = rng.normal(size=(2, 30))
        assert spearman(x, y) == spearman(y, x)

    def test_independent_samples_score_near_zero(self):
        rng = np.random.default_rng(15)
        x, y = rng.normal(size=(2, 4000))
        assert abs(spearman(x, y)) < 0.05

    def test_bounded_by_one(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            x, y = rng.normal(size=(2, 15))
            assert -1.0 <= spearman(x, y) <= 1.0

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="constant"):
            spearman([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="two points"):
            spearman([1.0], [2.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])


class TestBoxplotStats:
    def test_hand_case_with_one_far_point(self):
        """1..9 plus 100: box [3.25, 7.75], fences [-3.5, 14.5]."""
        summary = boxplot_stats([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0,
                                 9.0, 100.0])
        assert summary.median == 5.5
        assert summary.q25 == 3.25
        assert summary.q75 == 7.75
        assert summary.whisker_low == 1.0
        assert summary.whisker_high == 9.0
        assert summary.outside_points == (100.0,)

    def test_compact_sample_has_no_outside_points(self):
        summary = boxplot_stats([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.outside_points == ()
        assert summary.whisker_low == 1.0
        assert summary.whisker_high == 5.0

    def test_quartiles_match_numpy(self):
        rng = np.random.default_rng(19)
        v = rng.normal(size=73)
        summary = boxplot_stats(v)
        assert summary.q25 == float(np.percentile(v, 25.0))
        assert summary.q75 == float(np.percentile(v, 75.0))
        assert summary.median == float(np.median(v))

    def test_whiskers_sit_on_data_points(self):
        rng = np.random.default_rng(21)
        v = np.concatenate([rng.normal(size=50), [8.0, -9.0]])
        summary = boxplot_stats(v)
        assert summary.whisker_low in v
        assert summary.whisker_high in v

    def test_outside_points_beyond_fences_only(self):
        rng = np.random.default_rng(23)
        v = np.concatenate([rng.normal(size=60), [25.0, -30.0, 40.0]])
        summary = boxplot_stats(v)
        iqr = summary.q75 - summary.q25
        for point in summary.outside_points:
            assert (point < summary.q25 - 1.5 * iqr
                    or point > summary.q75 + 1.5 * iqr)
        assert {-30.0, 25.0, 40.0} <= set(summary.outside_points)

    def test_order_insensitive(self):
        v = [5.0, 1.0, 9.0, 3.0, 7.0]
        assert boxplot_stats(v) == boxplot_stats(sorted(v))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            boxplot_stats([])


class TestBoxplotRows:
    @pytest.mark.parametrize("V", [
        [[0.0, -0.0, 1.0, -0.0, 0.0, 2.0, -0.0, 0.0],
         [-0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0, -0.0],
         [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 100.0],
         [5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0]],
        # a joint np.percentile(V, [25, 75], axis=1) returns the other zero
        [[-0.0, 1.0, 0.0, -0.0, 0.0, -0.0, -1.0]],
        # so does a whisker taken as np.where(inside, V, inf).min(axis=1)
        [[0.0, 2.0, 1.0, -0.0, 50.0, 1.0, 50.0, 2.0, 1.0]],
    ], ids=["ties-far-constant", "joint-quartiles", "padded-whisker"])
    def test_each_row_is_summarised_alone(self, V):
        V = np.array(V)
        assert as_json(boxplot_rows(V)) == as_json([boxplot_oracle(row) for row in V])

    def test_one_row_is_boxplot_stats(self):
        v = [3.0, -0.0, 0.0, 9.0, -40.0, 2.5]
        expected = boxplot_oracle(v)
        del expected["mean"], expected["n"]
        assert as_json(dataclasses.asdict(boxplot_stats(v))) == as_json(expected)

    def test_column_major_input_summarises_the_same(self):
        """The mean is a pairwise sum along each row whatever the layout."""
        V = np.random.default_rng(3).normal(size=(3, 200)) * 1e3
        assert as_json(boxplot_rows(np.asfortranarray(V))) == as_json(boxplot_rows(V))

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            boxplot_rows(np.zeros((2, 0)))
