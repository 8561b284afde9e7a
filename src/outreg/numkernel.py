"""Shared numerical kernels: least squares, moments, order statistics.

Everything downstream (network training, the distance gate, the metric
layer) funnels through these few functions, so they validate aggressively:
inputs must be finite, shapes must match, and empty data is rejected
rather than propagated as NaN.

Conventions fixed here, once, for the whole package:

* ``pinv_solve`` returns the minimum-norm least-squares solution from
  LAPACK's xGELSD, with singular values ``s <= rel_tol * s[0]`` treated
  as zero.
* ``sample_covariance`` uses the unbiased 1/(N-1) normaliser.
* ``percentile`` interpolates linearly between order statistics (the
  position for probability q is q/100 * (N-1)).
* ``average_ranks`` assigns 1-based ranks with ties sharing the average
  of the positions they occupy.
"""

from __future__ import annotations

import numpy as np


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array or raise ValueError."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {array.shape}")
    if array.size and not np.isfinite(array).all():
        raise ValueError(f"{name} contains non-finite entries")
    return array


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array or raise ValueError."""
    array = np.asarray(values, dtype=float)
    if array.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {array.shape}")
    if array.size and not np.isfinite(array).all():
        raise ValueError(f"{name} contains non-finite entries")
    return array


def pinv_solve(design, targets, rel_tol: float = 1e-10) -> np.ndarray:
    """Minimum-norm least-squares solution of ``design @ B = targets``.

    Solves with LAPACK's xGELSD (``np.linalg.lstsq``), which never forms
    the left singular vectors.  Singular values ``s <= rel_tol * s[0]``
    are treated as exactly zero, which keeps the solve well behaved on
    rank-deficient design matrices (the rank-deficient directions simply
    receive zero coefficient, giving the minimum-norm solution).

    Parameters
    ----------
    design : (n, p) array
    targets : (n, m) array
    rel_tol : float
        Relative singular value cutoff, strictly between 0 and 1.

    Returns
    -------
    (p, m) array
    """
    H = as_matrix(design, "design")
    Y = as_matrix(targets, "targets")
    if H.shape[0] == 0:
        raise ValueError("design must have at least one row")
    if H.shape[1] == 0:
        raise ValueError("design must have at least one column")
    if Y.shape[0] != H.shape[0]:
        raise ValueError(
            f"design has {H.shape[0]} rows but targets has {Y.shape[0]}"
        )
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    return np.linalg.lstsq(H, Y, rcond=rel_tol)[0]


def sample_mean(data) -> np.ndarray:
    """Columnwise arithmetic mean of an (N, d) matrix, N >= 1."""
    X = as_matrix(data, "data")
    if X.shape[0] < 1:
        raise ValueError("sample_mean requires at least one row")
    return X.mean(axis=0)


def sample_covariance(data) -> np.ndarray:
    """Unbiased (1/(N-1)) sample covariance of an (N, d) matrix, N >= 2.

    The result is symmetrised explicitly so C == C.T holds bitwise.
    """
    X = as_matrix(data, "data")
    if X.shape[0] < 2:
        raise ValueError(
            f"sample_covariance requires at least two rows, got {X.shape[0]}"
        )
    centred = X - X.mean(axis=0)
    C = centred.T @ centred / (X.shape[0] - 1)
    return (C + C.T) / 2.0


def percentile(values, q: float) -> float:
    """q-th percentile with linear interpolation between order statistics."""
    v = as_vector(values, "values")
    if v.size == 0:
        raise ValueError("percentile of an empty sequence is undefined")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile rank must be in [0, 100], got {q}")
    return float(np.percentile(v, q))


def columnwise_median(data) -> np.ndarray:
    """Per-column median of an (N, d) matrix; even N uses the midpoint."""
    X = as_matrix(data, "data")
    if X.shape[0] < 1:
        raise ValueError("columnwise_median requires at least one row")
    return np.median(X, axis=0)


def average_ranks(values) -> np.ndarray:
    """1-based ranks; tied values share the average of their positions.

    Example: [10, 20, 20, 30] -> [1.0, 2.5, 2.5, 4.0].
    """
    v = as_vector(values, "values")
    n = v.size
    if n == 0:
        raise ValueError("average_ranks of an empty sequence is undefined")
    order = np.argsort(v, kind="stable")
    ranks = np.empty(n, dtype=float)
    sorted_values = v[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_values[j + 1] == sorted_values[i]:
            j += 1
        # positions i+1 .. j+1 (1-based) average to (i + j)/2 + 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks
