"""Shared numerical kernels: least squares, moments, order statistics.

Everything downstream (network training, the distance gate, the metric
layer) funnels through these few functions, so they validate aggressively:
inputs must be finite, shapes must match, and empty data is rejected
rather than propagated as NaN.

Conventions fixed here, once, for the whole package:

* ``pinv_solve`` returns the minimum-norm least-squares solution, with
  singular values ``s <= rel_tol * s[0]`` treated as zero.  A design
  that provably has no such value is solved through its QR factor;
  every other design goes to LAPACK's xGELSD.
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


# Designs with fewer columns than this go straight to xGELSD, whose time
# the QR path's fixed costs match near here: with one BLAS thread on an
# AVX-512 Xeon, best of 400, xGELSD against QR took 35 against 44 us at
# 150x10, 62 against 55 us at 150x16 and 110 against 83 us at 319x20
_QR_MIN_COLUMNS = 16
# triangles at most this wide are inverted by LU: of 16, 32 and 64, 32 was
# fastest at 150 and 300 columns, by 5-20 %
_INVERSE_LEAF = 32


def pinv_solve(design, targets, rel_tol: float = 1e-10) -> np.ndarray:
    """Minimum-norm least-squares solution of ``design @ B = targets``.

    Singular values ``s <= rel_tol * s[0]`` are treated as exactly zero,
    which keeps the solve well behaved on rank-deficient design matrices
    (the rank-deficient directions simply receive zero coefficient,
    giving the minimum-norm solution).

    A design with at least as many rows as columns, and at least
    ``_QR_MIN_COLUMNS`` columns, is first factored with each target
    column y as the R factor of [H | y] (Householder QR, which never
    forms Q): its leading block R_H has the singular values of H, and the
    first p entries c of its last column are Q^T y, so that H b = y in
    the least-squares sense is R_H b = c.  The solution is ``inv(R_H) @
    c`` when two bounds on the condition number k = s[0] / s[-1] show that
    no singular value falls at or below the cutoff:

    * max|r_ii| / min|r_ii| <= k, so the design is sent on when
      min|r_ii| <= rel_tol * max|r_ii|, before R_H is inverted;
    * k <= ||R_H||_F ||inv(R_H)||_F, which must be below 1 / rel_tol.

    The least-squares solution is then unique, so it is the minimum-norm
    one up to rounding (Golub & Van Loan, *Matrix Computations*, 4th ed.,
    sect. 5.3).  Otherwise, and for every other design, LAPACK's xGELSD
    (``np.linalg.lstsq``) solves with the cutoff: on (R_H, c), which has
    the same minimum-norm solution as (H, y) at less cost, or on the
    design itself.  Each target column is factored on its own, so a
    column's solution does not depend on the other columns.

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
    n, p = H.shape
    if not tries_qr(n, p, Y.shape[1]):
        return np.linalg.lstsq(H, Y, rcond=rel_tol)[0]
    B = np.empty((p, Y.shape[1]))
    for j in range(Y.shape[1]):
        B[:, j:j + 1] = _qr_solve(_joined(H, Y[:, j:j + 1]), rel_tol)
    return B


def tries_qr(n: int, p: int, m: int) -> bool:
    """Whether ``pinv_solve`` tries the QR path on an (n, p) design with
    m target columns."""
    return n >= p >= _QR_MIN_COLUMNS and m > 0


def _joined(H: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[H | y] as one (n, p+1) array.

    When H and y are already the two column blocks of one C-ordered array,
    as ``elm_train`` lays them out, that array is returned, so the solve
    adds no copy of the design.
    """
    base = H.base
    n, p = H.shape
    if (isinstance(base, np.ndarray) and y.base is base
            and base.shape == (n, p + 1)
            and base.flags.c_contiguous
            and H.strides == y.strides == base.strides):
        start = base.__array_interface__["data"][0]
        if (H.__array_interface__["data"][0] == start
                and y.__array_interface__["data"][0] == start + p * H.itemsize):
            return base
    return np.column_stack((H, y))


def _qr_solve(joined: np.ndarray, rel_tol: float) -> np.ndarray:
    """``pinv_solve`` for one target column, from [H | y] with n >= p."""
    p = joined.shape[1] - 1
    R = np.linalg.qr(joined, mode="r")
    R_H, c = R[:p, :p], R[:p, p:]
    diagonal = np.abs(np.diagonal(R_H))
    if diagonal.min() > rel_tol * diagonal.max():
        R_inv = _triangular_inverse(R_H)
        # an inverse that overflows gives an infinite or NaN bound, and
        # the design goes to xGELSD
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.linalg.norm(R_H) * np.linalg.norm(R_inv) * rel_tol
        if bound < 1.0:
            return R_inv @ c
    return np.linalg.lstsq(R_H, c, rcond=rel_tol)[0]


def _triangular_inverse(R: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular upper-triangular matrix, by halves.

    inv([[A, B], [0, C]]) = [[inv(A), -inv(A) B inv(C)], [0, inv(C)]]
    costs about 2p^3/3 flops in matrix products, where ``np.linalg.inv``
    runs an LU factorisation and p solves that cannot use the zeros
    (8p^3/3).  Blocks of at most ``_INVERSE_LEAF`` columns go to
    ``np.linalg.inv``, whose pivoting never swaps a row of a triangle.
    """
    p = R.shape[0]
    if p <= _INVERSE_LEAF:
        return np.linalg.inv(R)
    k = p // 2
    A = _triangular_inverse(R[:k, :k])
    C = _triangular_inverse(R[k:, k:])
    inverse = np.zeros_like(R)
    inverse[:k, :k] = A
    inverse[k:, k:] = C
    inverse[:k, k:] = -(A @ (R[:k, k:] @ C))
    return inverse


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
