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
that pass the first.  All geometry here lives in normalised input space
(see preprocess).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkernel import (as_matrix, as_vector, columnwise_median, percentile,
                        sample_covariance, sample_mean)

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
    distance of x is ||F (x - mean)||.
    """

    mean: np.ndarray
    covariance: np.ndarray
    covariance_inverse_factor: np.ndarray
    threshold_distance: float
    percentile_q: float
    center: np.ndarray
    training_inputs: np.ndarray


@dataclass(frozen=True)
class OutlierPartition:
    outlier_indices: np.ndarray
    non_outlier_indices: np.ndarray
    distances: np.ndarray


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


def fit_gate(train_inputs, percentile_q: float = 99.0) -> Gate:
    """Fit the gate on normalised training inputs.

    The threshold is the ``percentile_q``-th percentile of the training
    rows' own Mahalanobis distances, so by construction roughly
    (100 - percentile_q) percent of training rows sit above it.
    """
    X = as_matrix(train_inputs, "train_inputs")
    if X.shape[0] < 2:
        raise ValueError(f"fit_gate requires at least two rows, got {X.shape[0]}")
    if not 0.0 < percentile_q < 100.0:
        raise ValueError(f"percentile_q must be in (0, 100), got {percentile_q}")
    mean = sample_mean(X)
    covariance = sample_covariance(X)
    factor = _inverse_factor(covariance)
    train_distances = np.linalg.norm((X - mean) @ factor.T, axis=1)
    return Gate(
        mean=mean,
        covariance=covariance,
        covariance_inverse_factor=factor,
        threshold_distance=percentile(train_distances, percentile_q),
        percentile_q=float(percentile_q),
        center=columnwise_median(X),
        training_inputs=X.copy(),
    )


def gate_point(gate: Gate, x, name: str = "x") -> np.ndarray:
    """``x`` as one point of the gate's input space, else a ValueError."""
    v = as_vector(x, name)
    if v.size != gate.mean.size:
        raise ValueError(f"{name} has {v.size} coordinates, gate expects {gate.mean.size}")
    return v


def mahalanobis_distance(gate: Gate, x) -> float:
    """sqrt((x - mean)^T C^{-1} (x - mean)) for a single point."""
    return float(np.linalg.norm(gate.covariance_inverse_factor @ (gate_point(gate, x) - gate.mean)))


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


def beyond_nearest_neighbor(gate: Gate, test_inputs) -> np.ndarray:
    """Per row: strictly farther from the training centre than its nearest
    training row is (the gate's second condition)."""
    X = as_matrix(test_inputs, "test_inputs")
    nn_indices = [nearest_training_neighbor(gate, row)[0] for row in X]
    # Both center-norm arrays go through the same axis-1 reduction so that a
    # test row identical to a training row compares exactly equal (and the
    # strict inequality below then correctly rejects it).
    train_center_norms = np.linalg.norm(gate.training_inputs - gate.center, axis=1)
    test_center_norms = np.linalg.norm(X - gate.center, axis=1)
    return test_center_norms > train_center_norms[nn_indices]


def classify(gate: Gate, test_inputs) -> OutlierPartition:
    """Partition test rows into outliers and non-outliers.

    Outlier means: Mahalanobis distance strictly above the threshold AND
    strictly farther from the training centre than the nearest training
    row is.  The neighbour search runs only for rows that pass the first
    condition, since it is the expensive half.
    """
    X = as_matrix(test_inputs, "test_inputs")
    if X.shape[1] != gate.mean.size:
        raise ValueError(
            f"test inputs have {X.shape[1]} columns, gate expects {gate.mean.size}"
        )
    distances = _distances(gate, X)
    candidate = distances > gate.threshold_distance
    outlier = np.zeros(X.shape[0], dtype=bool)
    outlier[candidate] = beyond_nearest_neighbor(gate, X[candidate])
    return OutlierPartition(
        outlier_indices=np.flatnonzero(outlier),
        non_outlier_indices=np.flatnonzero(~outlier),
        distances=distances,
    )
