"""Shared numerical kernels: least squares, moments, order statistics.

Everything downstream (network training, the distance gate, the metric
layer) funnels through these few functions, so they validate aggressively:
inputs must be finite, shapes must match, and empty data is rejected
rather than propagated as NaN.

Conventions fixed here, once, for the whole package:

* ``pinv_solve`` returns the minimum-norm least-squares solution, with
  singular values ``s <= rel_tol * s[0]`` treated as zero.  A design
  that provably has no such value is solved through the Cholesky factor
  of its Gram matrix when it is at least four times as tall as it is
  wide, and through its QR factor otherwise, however few its columns;
  every other design goes to LAPACK's xGELSD.  It also takes a stack of
  same-shape designs and solves each member bitwise as if it were alone,
  so that many small fits share each call's fixed costs, and it solves
  each target column by itself, so that no column's solution depends on
  the others.
* ``sample_covariance`` uses the unbiased 1/(N-1) normaliser.
* ``percentile`` interpolates linearly between order statistics (the
  position for probability q is q/100 * (N-1)).
* ``average_ranks`` assigns 1-based ranks with ties sharing the average
  of the positions they occupy.
"""

from __future__ import annotations

import math

import numpy as np


def as_matrix(values, name: str = "matrix", columns: int | None = None) -> np.ndarray:
    """Coerce to a finite 2-D float64 array, with ``columns`` columns where
    given, or raise ValueError."""
    array = _as_finite(values, name, 2)
    if columns is not None and array.shape[1] != columns:
        raise ValueError(f"{name} has {array.shape[1]} columns, expected {columns}")
    return array


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array or raise ValueError."""
    return _as_finite(values, name, 1)


def _as_finite(values, name: str, ndim: int) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {array.shape}")
    if array.size and not np.isfinite(array).all():
        raise ValueError(f"{name} contains non-finite entries")
    return array


# designs with at least this many rows per column try the Gram route first.
# Its guard quantity rho (``pinv_solve``), over 20 sigmoid layers on the
# 399 training rows of protocol-train's river record, was at most 0.071 at
# 100 columns (n/p = 3.99) but 0.96-5.0 at 150 (n/p = 2.66), where every
# layer fails the guard's 1/2: below this ratio an attempt mostly wastes a Gram
_GRAM_MIN_RATIO = 4
# corrected semi-normal steps are capped here; each costs O(np) per column
_GRAM_MAX_STEPS = 8
_UNIT_ROUNDOFF = 2.0 ** -53
# triangles at most this wide are inverted by LU: of 16, 32 and 64, 32 was
# fastest at 150 and 300 columns, by 5-20 %
_INVERSE_LEAF = 32


def pinv_solve(design, targets, rel_tol: float = 1e-10) -> np.ndarray:
    """Minimum-norm least-squares solution of ``design @ B = targets``.

    ``design`` is one (n, p) matrix with (n, m) targets, or a stack of k
    designs, (k, n, p), with targets (k, n, m).  Each member of a stack
    is solved bitwise as if it were alone.

    Singular values ``s <= rel_tol * s[0]`` are treated as exactly zero,
    which keeps the solve well behaved on rank-deficient design matrices
    (the rank-deficient directions simply receive zero coefficient,
    giving the minimum-norm solution).

    Three routes give that solution, whatever the number of columns.  The
    first two run only where they show that no singular value of the
    (n, p) design H falls at or below the cutoff: the least-squares
    solution is then unique, so it is the minimum-norm one up to rounding
    (Golub & Van Loan, *Matrix Computations*, 4th ed., sect. 5.3).  Both
    run on a whole stack at once, with each member's own guards, and only
    the members that fail a route go on to the next one.

    * The Gram route, for designs with at least ``_GRAM_MIN_RATIO`` rows
      per column.  It forms G = H^T H, R = chol(G)^T and X = inv(R),
      so that inv(G) = X X^T.  The computed R^T R is H^T H + E with
      ||E||_F <= e = gamma_n ||H||_F^2 + gamma_{p+1} ||R||_F^2, where
      gamma_k = k u / (1 - k u) and u = 2^-53 (Higham, *Accuracy and
      Stability of Numerical Algorithms*, 2nd ed., sect. 3.1 and
      Thm 10.3).  So s[-1]^2 >= 1 / ||X||_F^2 - e, taking the computed
      X's norm as exact, as the QR route takes inv(R_H)'s.  With
      rho = ||X||_F^2 e, the route runs when
      rho + rel_tol^2 ||H||_F^2 ||X||_F^2 < 1/2, which puts s[-1] above
      rel_tol * s[0].  Each target column y is solved as
      b = X X^T H^T y, the semi-normal equations, and then corrected
      k times, b += X X^T H^T (y - H b), where k is the smallest count
      with rho^k <= u, at most ``_GRAM_MAX_STEPS``: each step shrinks
      the error by a factor of at most rho, which brings the solution
      back to QR's accuracy (Bjorck, *Linear Algebra Appl.* 88/89,
      1987).  A design that fails the guard, or whose G is not positive
      definite, goes to the QR route; since ||X||_F^2 >= sum 1 / r_ii^2,
      one whose Cholesky diagonal alone fails it goes before R is
      inverted.
    * The QR route, for every other design with at least as many rows as
      columns.  It factors [H | y] for each target column y as its R
      factor (Householder QR, which never forms Q): the leading block R_H
      has the singular values of H, and the first p entries c of its last
      column are Q^T y, so that H b = y in the least-squares sense is
      R_H b = c.  The solution is ``inv(R_H) @ c`` when two bounds on the
      condition number k = s[0] / s[-1] clear the cutoff:

      - max|r_ii| / min|r_ii| <= k, so the design is sent on when
        min|r_ii| <= rel_tol * max|r_ii|, before R_H is inverted;
      - k <= ||R_H||_F ||inv(R_H)||_F, which must be below 1 / rel_tol.

      Otherwise xGELSD solves (R_H, c), which has the same minimum-norm
      solution as (H, y) at less cost.
    * LAPACK's xGELSD (``np.linalg.lstsq``) on the design itself, with
      the cutoff, for a design with more columns than rows, one member
      at a time.

    Each target column is solved on its own, by one pass through the
    routes, so a column's solution does not depend on the other columns;
    a target without columns gives a (p, 0) solution and runs no route.

    Parameters
    ----------
    design : (n, p) or (k, n, p) array
    targets : (n, m) or (k, n, m) array
    rel_tol : float
        Relative singular value cutoff, strictly between 0 and 1.

    Returns
    -------
    (p, m) or (k, p, m) array
    """
    ndim = 3 if np.ndim(design) == 3 else 2
    H = _as_finite(design, "design", ndim)
    Y = _as_finite(targets, "targets", ndim)
    if ndim == 2:
        H, Y = H[None], Y[None]
    if H.shape[1] == 0:
        raise ValueError("design must have at least one row")
    if H.shape[2] == 0:
        raise ValueError("design must have at least one column")
    if Y.shape[1] != H.shape[1]:
        raise ValueError(
            f"design has {H.shape[1]} rows but targets has {Y.shape[1]}"
        )
    if Y.shape[0] != H.shape[0]:
        raise ValueError(
            f"design stacks {H.shape[0]} members but targets {Y.shape[0]}"
        )
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")
    B = pinv_solve_stack(H, Y, H.shape[2], rel_tol)
    return B[0] if ndim == 2 else B


def pinv_solve_stack(A: np.ndarray, Y: np.ndarray, p: int,
                     rel_tol: float = 1e-10) -> np.ndarray:
    """``pinv_solve`` on a checked stack: the finite (k, n, p) designs H
    are the first p columns of A, with finite (k, n, m) targets Y, p >= 1
    and n >= 1; the result is (k, p, m).

    This is the one loop over the target columns: every route solves one
    (k, n, 1) column y at a time.  A is (k, n, p), or (k, n, p + 1) with a
    spare column after the designs.  The QR route factors [H | y].  Where
    the designs go straight to it (``factors_joined``) and A has the spare
    column, each y in turn is written there and A itself is factored, with
    no copy of the designs (``np.linalg.qr`` copies its input, so H stays
    intact); that is the only write to A.  Otherwise H and y are joined by
    a copy, so a caller's array without a spare column is never written to.
    """
    k, n, _ = A.shape
    H = A[:, :, :p]
    B = np.empty((k, p, Y.shape[2]))
    for j in range(Y.shape[2]):
        y = Y[:, :, j:j + 1]
        if n < p:
            for i in range(k):
                B[i, :, j] = np.linalg.lstsq(H[i], y[i], rcond=rel_tol)[0][:, 0]
        elif not factors_joined(n, p):
            cleared, solved = _gram_solve(H, y, rel_tol)
            B[cleared, :, j] = solved
            if not cleared.all():
                B[~cleared, :, j] = _qr_solve(
                    np.concatenate((H[~cleared], y[~cleared]), axis=2), p, rel_tol)
        elif A.shape[2] > p:
            A[:, :, p:] = y
            B[:, :, j] = _qr_solve(A, p, rel_tol)
        else:
            B[:, :, j] = _qr_solve(np.concatenate((H, y), axis=2), p, rel_tol)
    return B


def factors_joined(n: int, p: int) -> bool:
    """Whether ``pinv_solve_stack`` takes an (n, p) design straight to the
    QR route, which factors [H | y], so that a caller building the design
    can give it a spare column for each target column in turn and spare
    the solve a copy."""
    return p <= n < _GRAM_MIN_RATIO * p


def _take(stack: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The members of a stack a boolean mask selects, without a copy when
    it selects them all."""
    return stack if np.count_nonzero(members) == len(members) else stack[members]


def _squared_norms(stack: np.ndarray) -> np.ndarray:
    """Each member's sum of squares, summed as ``np.vdot`` sums one member
    (a BLAS dot over its C-ordered entries)."""
    flat = stack.reshape(stack.shape[0], 1, -1)
    return np.matmul(flat, flat.transpose(0, 2, 1))[:, 0, 0]


def _gram_solve(H: np.ndarray, y: np.ndarray,
                rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``pinv_solve``'s Gram route on a stack of (n, p) designs and one
    (k, n, 1) target column: which members clear its guard, and the
    (k_cleared, p) solutions of those that do."""
    k, n, p = H.shape
    gamma = sum(i * _UNIT_ROUNDOFF / (1.0 - i * _UNIT_ROUNDOFF) for i in (n, p + 1))
    # a Gram or an inverse that overflows gives an infinite or NaN rho,
    # which fails the guard
    with np.errstate(over="ignore", invalid="ignore"):
        G = np.matmul(H.transpose(0, 2, 1), H)
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            # a member whose G is not positive definite keeps a NaN
            # factor, which fails the guard below
            L = np.full_like(G, np.nan)
            for i in range(k):
                try:
                    L[i] = np.linalg.cholesky(G[i])
                except np.linalg.LinAlgError:
                    pass
        # ||H||_F^2 and ||R||_F^2 are trace(G) within a factor 1 + gamma_n,
        # which the margin of 1/2 absorbs.  ||X||_F^2 >= sum 1 / r_ii^2,
        # so a design that this lower bound on rho fails is sent on before
        # R is inverted
        trace = np.trace(G, axis1=1, axis2=2)
        floor = np.sum(np.diagonal(L, axis1=1, axis2=2) ** -2.0, axis=1)
        cleared = trace * gamma * floor < 0.5
        if not cleared.any():
            return cleared, np.empty((0, p))
        X = _triangular_inverse(_take(L, cleared).transpose(0, 2, 1))
        scale = trace[cleared] * _squared_norms(X)
        rho = scale * gamma
        passed = rho + rel_tol ** 2 * scale < 0.5
    cleared[cleared] = passed
    X, H = _take(X, passed), _take(H, cleared)
    y = np.ascontiguousarray(_take(y, cleared))
    counts = [min(_GRAM_MAX_STEPS, math.ceil(math.log(_UNIT_ROUNDOFF) / math.log(r)))
              for r in rho[passed].tolist()]
    steps = np.array(counts)
    Ht, Xt = H.transpose(0, 2, 1), X.transpose(0, 2, 1)
    b = X @ (Xt @ (Ht @ y))
    for step in range(max(counts, default=0)):
        correction = X @ (Xt @ (Ht @ (y - H @ b)))
        # a member stops after its own count of steps
        if step < min(counts):
            b += correction
        else:
            np.add(b, correction, out=b, where=(steps > step)[:, None, None])
    return cleared, b[:, :, 0]


def _qr_solve(joined: np.ndarray, p: int, rel_tol: float) -> np.ndarray:
    """``pinv_solve``'s QR route, and xGELSD on (R_H, c) where its bounds
    fail, on a stack of k [H | y] with n >= p: the (k, p) solutions."""
    R = np.linalg.qr(joined, mode="r")
    R_H, c = R[:, :p, :p], R[:, :p, p:]
    diagonal = np.abs(np.diagonal(R_H, axis1=1, axis2=2))
    cleared = diagonal.min(axis=1) > rel_tol * diagonal.max(axis=1)
    B = np.empty((len(joined), p))
    if cleared.any():
        R_kept = _take(R_H, cleared)
        R_inv = _triangular_inverse(R_kept)
        # an inverse that overflows gives an infinite or NaN bound, and
        # the design goes to xGELSD
        with np.errstate(over="ignore", invalid="ignore"):
            bound = (np.sqrt(_squared_norms(R_kept))
                     * np.sqrt(_squared_norms(R_inv)) * rel_tol)
        passed = bound < 1.0
        cleared[cleared] = passed
        B[cleared] = (_take(R_inv, passed) @ _take(c, cleared))[:, :, 0]
    for i in np.flatnonzero(~cleared):
        B[i] = np.linalg.lstsq(R_H[i], c[i], rcond=rel_tol)[0][:, 0]
    return B


def _triangular_inverse(R: np.ndarray) -> np.ndarray:
    """Inverse of each nonsingular upper-triangular matrix of a stack, by
    halves.

    inv([[A, B], [0, C]]) = [[inv(A), -inv(A) B inv(C)], [0, inv(C)]]
    costs about 2p^3/3 flops in matrix products, where ``np.linalg.inv``
    runs an LU factorisation and p solves that cannot use the zeros
    (8p^3/3).  Blocks of at most ``_INVERSE_LEAF`` columns go to
    ``np.linalg.inv``, whose pivoting never swaps a row of a triangle.
    """
    p = R.shape[-1]
    if p <= _INVERSE_LEAF:
        return np.linalg.inv(R)
    k = p // 2
    A = _triangular_inverse(R[..., :k, :k])
    C = _triangular_inverse(R[..., k:, k:])
    inverse = np.zeros_like(R)
    inverse[..., :k, :k] = A
    inverse[..., k:, k:] = C
    inverse[..., :k, k:] = -(A @ (R[..., :k, k:] @ C))
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
