"""Mahalanobis-distance gate for flagging out-of-domain test inputs.

A test point is routed to the extrapolation fallback only when two
conditions hold simultaneously:

1. its Mahalanobis distance from the training mean exceeds a threshold
   set at a chosen percentile of the *training* distances, and
2. it is strictly farther from the training centre (columnwise median)
   than its nearest training neighbour is, in Euclidean norm.

The second condition filters out points that are merely in a thin
direction of the training cloud but still inside its envelope.  It lives
in ``beyond_nearest_neighbor``, which ``classify`` applies to the rows
that pass the first; ``classify`` also returns each outlier's nearest
training row, which the fallback's plan is built from.  All geometry here
lives in normalised input space (see preprocess).

Only the threshold depends on the percentile, and the second condition
does not depend on the threshold.  So one fit serves every percentile:
``at_percentile`` moves a fitted gate's threshold, and an outlier at a
higher percentile is an outlier at a lower one whose distance is also
above the higher threshold.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .numkernel import (as_matrix, as_vector, columnwise_median, percentile,
                        sample_covariance, sample_mean)
from .preprocess import OneHotGroup, indicator_columns

# A covariance eigenvalue below RIDGE_TRIGGER * trace/d marks the matrix as
# numerically singular; RIDGE_SCALE * trace/d is then added to the diagonal.
RIDGE_TRIGGER = 1e-10
RIDGE_SCALE = 1e-8


@dataclass(frozen=True)
class Gate:
    """Fitted gate state.

    ``covariance`` is the raw sample covariance;
    ``covariance_inverse_factor`` is a matrix F (inverse Cholesky factor of
    the possibly ridge-regularised covariance) such that the Mahalanobis
    distance of x is ||F (x - mean)||.  ``onehot_groups`` are the indicator
    blocks among the inputs, with the levels the inputs carry; the fallback
    pins them and anchors its centre line in the point's category.  The
    training rows' distances from ``center`` are computed at the first
    ``classify`` and kept, so the arrays must not be changed in place.
    """

    mean: np.ndarray
    covariance: np.ndarray
    covariance_inverse_factor: np.ndarray
    threshold_distance: float
    percentile_q: float
    center: np.ndarray
    training_inputs: np.ndarray
    onehot_groups: tuple[OneHotGroup, ...] = ()

    @functools.cached_property
    def _train_center_norms(self) -> np.ndarray:
        """Each training row's Euclidean distance from the centre."""
        return np.linalg.norm(self.training_inputs - self.center, axis=1)


@dataclass(frozen=True)
class OutlierPartition:
    outlier_indices: np.ndarray
    non_outlier_indices: np.ndarray
    distances: np.ndarray
    # each outlier's nearest training row, aligned with outlier_indices
    nearest_indices: np.ndarray
    # per test row: over the threshold, so the neighbour test ran on it.  A
    # searched row passed that test exactly when it is an outlier
    searched: np.ndarray


def _inverse_factor(covariance: np.ndarray) -> np.ndarray:
    d = covariance.shape[0]
    trace = float(np.trace(covariance))
    if trace <= 0.0:
        raise ValueError(
            "training covariance has zero trace; all training rows are identical"
        )
    eigenvalues = np.linalg.eigvalsh(covariance)
    C = covariance
    if eigenvalues[0] < RIDGE_TRIGGER * trace / d:
        C = covariance + (RIDGE_SCALE * trace / d) * np.eye(d)
    L = np.linalg.cholesky(C)
    return np.linalg.inv(L)


def fit_gate(train_inputs, percentile_q: float = 99.0,
             onehot_groups: tuple[OneHotGroup, ...] = ()) -> Gate:
    """Fit the gate on normalised training inputs.

    The threshold is the ``percentile_q``-th percentile of the training
    rows' own Mahalanobis distances, so by construction roughly
    (100 - percentile_q) percent of training rows sit above it.  The gate
    keeps ``onehot_groups``, whose columns must be distinct inputs.
    """
    X = as_matrix(train_inputs, "train_inputs")
    if X.shape[0] < 2:
        raise ValueError(f"fit_gate requires at least two rows, got {X.shape[0]}")
    indicator_columns(onehot_groups, X.shape[1])
    covariance = sample_covariance(X)
    gate = Gate(mean=sample_mean(X), covariance=covariance,
                covariance_inverse_factor=_inverse_factor(covariance),
                threshold_distance=np.nan, percentile_q=np.nan,
                center=columnwise_median(X), training_inputs=X.copy(),
                onehot_groups=tuple(onehot_groups))
    return at_percentile(gate, percentile_q)


def at_percentile(gate: Gate, percentile_q: float) -> Gate:
    """``gate`` with its threshold at the ``percentile_q``-th percentile of
    the training rows' distances: bitwise ``fit_gate`` at that percentile."""
    if not 0.0 < percentile_q < 100.0:
        raise ValueError(f"percentile_q must be in (0, 100), got {percentile_q}")
    return replace(gate, percentile_q=float(percentile_q), threshold_distance=percentile(
        _distances(gate, gate.training_inputs), percentile_q))


def gate_point(gate: Gate, x, name: str = "x") -> np.ndarray:
    """``x`` as one point of the gate's input space, else a ValueError."""
    v = as_vector(x, name)
    if v.size != gate.mean.size:
        raise ValueError(f"{name} has {v.size} coordinates, gate expects {gate.mean.size}")
    return v


def mahalanobis_distance(gate: Gate, x) -> float:
    """sqrt((x - mean)^T C^{-1} (x - mean)) for a single point."""
    return float(_distances(gate, gate_point(gate, x)[None, :])[0])


def _distances(gate: Gate, X: np.ndarray) -> np.ndarray:
    return np.linalg.norm((X - gate.mean) @ gate.covariance_inverse_factor.T, axis=1)


def nearest_training_neighbor(gate: Gate, x) -> tuple[int, float]:
    """Index and Euclidean distance of the closest training row.

    Exact distance ties resolve to the smallest row index, so repeated
    training rows cannot make the choice run-dependent.
    """
    diff = gate.training_inputs - gate_point(gate, x)
    squared = np.einsum("ij,ij->i", diff, diff)
    index = int(np.argmin(squared))
    return index, float(np.sqrt(squared[index]))


def _beyond(gate: Gate, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's nearest training row, and whether the row is strictly
    farther from the training centre than that row is."""
    nearest = np.array([nearest_training_neighbor(gate, row)[0] for row in X], dtype=np.intp)
    # Both center-norm arrays go through the same axis-1 reduction so that a
    # test row identical to a training row compares exactly equal (and the
    # strict inequality below then correctly rejects it).
    test_center_norms = np.linalg.norm(X - gate.center, axis=1)
    return nearest, test_center_norms > gate._train_center_norms[nearest]


def beyond_nearest_neighbor(gate: Gate, test_inputs) -> np.ndarray:
    """Per row: strictly farther from the training centre than its nearest
    training row is (the gate's second condition)."""
    return _beyond(gate, as_matrix(test_inputs, "test_inputs"))[1]


def classify(gate: Gate, test_inputs) -> OutlierPartition:
    """Partition test rows into outliers and non-outliers.

    Outlier means: Mahalanobis distance strictly above the threshold AND
    strictly farther from the training centre than the nearest training
    row is.  The neighbour search runs only for rows that pass the first
    condition, since it is the expensive half.
    """
    X = as_matrix(test_inputs, "test_inputs", gate.mean.size)
    distances = _distances(gate, X)
    searched = distances > gate.threshold_distance
    nearest, beyond = _beyond(gate, X[searched])
    outlier = searched.copy()
    outlier[searched] = beyond
    return OutlierPartition(outlier_indices=np.flatnonzero(outlier), distances=distances,
                            non_outlier_indices=np.flatnonzero(~outlier),
                            nearest_indices=nearest[beyond], searched=searched)
