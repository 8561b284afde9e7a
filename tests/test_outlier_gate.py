"""Distance gate: Mahalanobis geometry, thresholding, two-condition routing.

Oracles: a four-point cross whose sample covariance is diagonal by hand
(distances then reduce to per-axis ratios), and a symmetric ring where
every training row sits at one common distance so the threshold is known
in closed form.  The normal-theory quantile sqrt(-2 ln 0.01) pins the
large-sample behaviour in two dimensions.
"""

import math

import numpy as np
import pytest

from outreg import (beyond_nearest_neighbor, classify, fit_gate,
                    mahalanobis_distance, nearest_training_neighbor)
from outreg.outlier_gate import RIDGE_SCALE


def cross_gate(percentile_q=90.0):
    """Rows (+-1, 0), (0, +-2): mean (0,0), covariance diag(2/3, 8/3)."""
    rows = [[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]]
    return fit_gate(rows, percentile_q=percentile_q)


def ring_gate(percentile_q=95.0):
    """Eight points on a radius-5 circle with z alternating +-0.1.

    Mean and columnwise median are both the origin, the covariance is
    diagonal with variances (100/7, 100/7, 0.08/7), and every training
    row has squared Mahalanobis distance 25/(100/7) + 0.01/(0.08/7)
    = 2.625, so the threshold is sqrt(2.625) at any percentile.
    """
    angles = np.arange(8) * (np.pi / 4)
    rows = np.column_stack([
        5.0 * np.cos(angles),
        5.0 * np.sin(angles),
        np.where(np.arange(8) % 2 == 0, 0.1, -0.1),
    ])
    return fit_gate(rows, percentile_q=percentile_q)


class TestFitGate:
    def test_cross_moments(self):
        gate = cross_gate()
        np.testing.assert_array_equal(gate.mean, [0.0, 0.0])
        np.testing.assert_allclose(gate.covariance,
                                   [[2 / 3, 0.0], [0.0, 8 / 3]],
                                   rtol=0, atol=1e-15)
        np.testing.assert_array_equal(gate.center, [0.0, 0.0])

    def test_factor_reconstructs_covariance(self):
        rng = np.random.default_rng(3)
        gate = fit_gate(rng.normal(size=(60, 3)))
        L = np.linalg.inv(gate.covariance_inverse_factor)
        np.testing.assert_allclose(L @ L.T, gate.covariance,
                                   rtol=1e-10, atol=1e-12)

    def test_threshold_is_training_distance_percentile(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 2))
        gate = fit_gate(X, percentile_q=75.0)
        distances = np.array([mahalanobis_distance(gate, row) for row in X])
        np.testing.assert_allclose(gate.threshold_distance,
                                   np.percentile(distances, 75.0),
                                   rtol=1e-12, atol=0)

    def test_ring_threshold_closed_form(self):
        gate = ring_gate()
        np.testing.assert_allclose(gate.threshold_distance,
                                   math.sqrt(2.625), rtol=1e-12, atol=0)

    def test_large_sample_normal_quantile(self):
        """For 2-D standard normal data the 99% threshold approaches
        the chi-quantile sqrt(-2 ln 0.01)."""
        rng = np.random.default_rng(0)
        gate = fit_gate(rng.standard_normal((20000, 2)), percentile_q=99.0)
        assert abs(gate.threshold_distance - math.sqrt(-2 * math.log(0.01))) < 0.06

    def test_fraction_above_threshold_matches_percentile(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 3))
        gate = fit_gate(X, percentile_q=95.0)
        distances = np.array([mahalanobis_distance(gate, row) for row in X])
        above = int((distances > gate.threshold_distance).sum())
        assert 0 < above <= 10

    def test_lower_percentile_gives_lower_threshold(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(100, 2))
        assert (fit_gate(X, 95.0).threshold_distance
                < fit_gate(X, 99.0).threshold_distance)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="two rows"):
            fit_gate([[1.0, 2.0]])

    def test_percentile_bounds(self):
        X = [[0.0], [1.0], [2.0]]
        with pytest.raises(ValueError, match="percentile_q"):
            fit_gate(X, percentile_q=0.0)
        with pytest.raises(ValueError, match="percentile_q"):
            fit_gate(X, percentile_q=100.0)

    def test_identical_rows_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            fit_gate([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])


class TestRidge:
    def test_constant_column_triggers_ridge(self):
        rng = np.random.default_rng(11)
        X = np.column_stack([rng.normal(size=30), np.full(30, 2.0)])
        gate = fit_gate(X)
        assert math.isfinite(gate.threshold_distance)
        assert math.isfinite(mahalanobis_distance(gate, [0.0, 5.0]))

    def test_ridge_magnitude(self):
        """With a singular covariance the factor inverts C + s*(tr/d)*I."""
        rng = np.random.default_rng(13)
        col = rng.normal(size=40)
        X = np.column_stack([col, col])  # rank one
        gate = fit_gate(X)
        d = 2
        ridge = RIDGE_SCALE * np.trace(gate.covariance) / d
        L = np.linalg.inv(gate.covariance_inverse_factor)
        np.testing.assert_allclose(L @ L.T,
                                   gate.covariance + ridge * np.eye(d),
                                   rtol=1e-10, atol=1e-12)

    def test_well_conditioned_data_gets_no_ridge(self):
        rng = np.random.default_rng(15)
        gate = fit_gate(rng.normal(size=(50, 2)))
        L = np.linalg.inv(gate.covariance_inverse_factor)
        np.testing.assert_allclose(L @ L.T, gate.covariance,
                                   rtol=0, atol=1e-13)


class TestMahalanobisDistance:
    def test_cross_hand_values(self):
        gate = cross_gate()
        np.testing.assert_allclose(mahalanobis_distance(gate, [3.0, 0.0]),
                                   math.sqrt(13.5), rtol=1e-14, atol=0)
        np.testing.assert_allclose(mahalanobis_distance(gate, [0.0, 2.0]),
                                   math.sqrt(1.5), rtol=1e-14, atol=0)

    def test_matches_direct_quadratic_form(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(80, 4)) @ rng.normal(size=(4, 4)) + 3.0
        gate = fit_gate(X)
        for x in rng.normal(size=(10, 4)) * 3:
            v = x - gate.mean
            expected = math.sqrt(v @ np.linalg.solve(gate.covariance, v))
            np.testing.assert_allclose(mahalanobis_distance(gate, x),
                                       expected, rtol=1e-9, atol=1e-12)

    def test_mean_is_at_zero_distance(self):
        gate = cross_gate()
        assert mahalanobis_distance(gate, gate.mean) == 0.0

    def test_dimension_mismatch_rejected(self):
        gate = cross_gate()
        with pytest.raises(ValueError, match="coordinates"):
            mahalanobis_distance(gate, [1.0, 2.0, 3.0])


class TestNearestNeighbor:
    def test_hand_case(self):
        gate = fit_gate([[0.0], [1.0], [1.0], [3.0]])
        index, distance = nearest_training_neighbor(gate, [2.9])
        assert index == 3
        np.testing.assert_allclose(distance, 0.1, rtol=0, atol=1e-12)

    def test_exact_tie_takes_smallest_index(self):
        gate = fit_gate([[0.0], [1.0], [1.0], [3.0]])
        assert nearest_training_neighbor(gate, [1.0])[0] == 1
        assert nearest_training_neighbor(gate, [2.0])[0] == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(19)
        X = rng.normal(size=(50, 3))
        gate = fit_gate(X)
        for x in rng.normal(size=(10, 3)) * 2:
            index, distance = nearest_training_neighbor(gate, x)
            norms = np.linalg.norm(X - x, axis=1)
            assert index == int(np.argmin(norms))
            np.testing.assert_allclose(distance, norms.min(), rtol=1e-12,
                                       atol=1e-12)


class TestClassify:
    def test_ring_three_way_split(self):
        """Far point flagged; near thin-direction point vetoed by the
        neighbour condition; interior point below threshold."""
        gate = ring_gate()
        tests = [[0.0, 0.0, 0.25],   # beyond threshold, inside envelope
                 [8.0, 0.0, 0.0],    # beyond threshold and envelope
                 [1.0, 1.0, 0.0]]    # below threshold
        part = classify(gate, tests)
        np.testing.assert_array_equal(part.outlier_indices, [1])
        np.testing.assert_array_equal(part.non_outlier_indices, [0, 2])

    def test_distances_match_single_point_routine(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(40, 2))
        gate = fit_gate(X)
        tests = rng.normal(size=(15, 2)) * 2
        part = classify(gate, tests)
        expected = [mahalanobis_distance(gate, row) for row in tests]
        np.testing.assert_allclose(part.distances, expected, rtol=1e-12,
                                   atol=1e-12)
        # one formula: bitwise the distance of a one-row classify
        for row in tests:
            assert mahalanobis_distance(gate, row) == classify(gate, [row]).distances[0]

    def test_training_rows_are_never_outliers(self):
        """Each training row's neighbour is itself, so the strict farther
        condition can never hold."""
        rng = np.random.default_rng(23)
        for trial in range(5):
            X = rng.normal(size=(60, 3)) * rng.uniform(0.5, 3.0)
            gate = fit_gate(X, percentile_q=80.0)
            part = classify(gate, X)
            assert part.outlier_indices.size == 0

    def test_training_rows_are_never_beyond_their_neighbour(self):
        rng = np.random.default_rng(11)
        gate = fit_gate(rng.normal(size=(80, 4)), 95.0)
        beyond = beyond_nearest_neighbor(gate, gate.training_inputs)
        assert beyond.shape == (80,)
        assert not beyond.any()

    def test_partition_is_disjoint_and_complete(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(50, 2))
        gate = fit_gate(X)
        tests = rng.normal(size=(30, 2)) * 4
        part = classify(gate, tests)
        merged = np.concatenate([part.outlier_indices,
                                 part.non_outlier_indices])
        assert sorted(merged.tolist()) == list(range(30))
        assert part.distances.shape == (30,)

    def test_lower_percentile_flags_superset(self):
        rng = np.random.default_rng(27)
        X = rng.normal(size=(80, 2))
        tests = rng.normal(size=(60, 2)) * 3
        flagged99 = set(classify(fit_gate(X, 99.0), tests).outlier_indices)
        flagged95 = set(classify(fit_gate(X, 95.0), tests).outlier_indices)
        assert flagged99 <= flagged95

    def test_obvious_far_point_is_flagged(self):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(100, 2))
        gate = fit_gate(X)
        part = classify(gate, [[50.0, -50.0]])
        np.testing.assert_array_equal(part.outlier_indices, [0])

    def test_column_mismatch_rejected(self):
        gate = cross_gate()
        with pytest.raises(ValueError, match="columns"):
            classify(gate, [[1.0, 2.0, 3.0]])
