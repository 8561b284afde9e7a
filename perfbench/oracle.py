"""Reference computations made apart from the program, with numpy alone.

Each function re-derives, from the documented formulas, a result the
program also produces, so the benchmark can check the program's outputs:

* the min-max map x' = 2 (x - min) / (max - min) - 1 (constant columns 0);
* the Mahalanobis gate: unbiased covariance, a ridge of 1e-8 trace/d
  when the smallest eigenvalue is below 1e-10 trace/d, distances through
  ``np.linalg.solve``, a linearly interpolated percentile threshold, and
  a brute-force nearest neighbour with ties to the lowest index;
* the directional secant candidates of the fallback, from the paper's
  formulas, on a surface evaluated here from the ensemble's weights;
* least squares with an intercept, MAEn and rank correlation.
"""

from __future__ import annotations

import numpy as np

RIDGE_TRIGGER = 1e-10
RIDGE_SCALE = 1e-8
REL = 1e-9


def close(a: float, b: float, tol: float) -> bool:
    """Agreement to ``tol`` relative to the larger value, absolute below 1."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def minmax(train: np.ndarray, X: np.ndarray) -> np.ndarray:
    lo = train.min(axis=0)
    hi = train.max(axis=0)
    constant = lo == hi
    Z = 2.0 * (X - lo) / np.where(constant, 1.0, hi - lo) - 1.0
    Z[:, constant] = 0.0
    return Z


class GateOracle:
    """The gate of ``outreg.outlier_gate`` recomputed from its documentation."""

    def __init__(self, train: np.ndarray, percentile_q: float):
        self.train = np.asarray(train, dtype=float)
        d = self.train.shape[1]
        self.mean = self.train.mean(axis=0)
        cov = np.atleast_2d(np.cov(self.train, rowvar=False))
        trace = float(np.trace(cov))
        if np.linalg.eigvalsh(cov)[0] < RIDGE_TRIGGER * trace / d:
            cov = cov + (RIDGE_SCALE * trace / d) * np.eye(d)
        self.cov = cov
        self.threshold = float(np.percentile(self.distances(self.train), percentile_q))
        self.center = np.median(self.train, axis=0)
        self.train_center_norms = np.linalg.norm(self.train - self.center, axis=1)

    def distances(self, X: np.ndarray) -> np.ndarray:
        V = np.asarray(X, dtype=float) - self.mean
        return np.sqrt(np.einsum("ij,ji->i", V, np.linalg.solve(self.cov, V.T)))

    def flags(self, X: np.ndarray):
        """(flagged, excused) boolean arrays over the rows of X.

        A row is excused when its distance is within REL of the threshold,
        when its nearest neighbour is tied within REL with another row, or
        when its centre distance is within REL of the neighbour's: there a
        rounding difference may legitimately flip the decision.
        """
        X = np.asarray(X, dtype=float)
        dist = self.distances(X)
        flagged = np.zeros(X.shape[0], dtype=bool)
        excused = np.abs(dist - self.threshold) <= REL * self.threshold
        for i in np.flatnonzero((dist > self.threshold) | excused):
            squared = ((self.train - X[i]) ** 2).sum(axis=1)
            nn = int(np.argmin(squared))
            two = np.partition(squared, 1)[:2] if squared.size > 1 else squared
            if squared.size > 1 and two[1] - two[0] <= REL * two[1]:
                excused[i] = True
            own = float(np.linalg.norm(X[i] - self.center))
            theirs = float(self.train_center_norms[nn])
            if abs(own - theirs) <= REL * max(own, theirs):
                excused[i] = True
            flagged[i] = dist[i] > self.threshold and own > theirs
        return flagged, excused


def compare_flags(flagged, excused, program_indices, what: str) -> list[str]:
    program = np.zeros(flagged.size, dtype=bool)
    program[np.asarray(program_indices, dtype=int)] = True
    wrong = np.flatnonzero((program != flagged) & ~excused)
    if wrong.size:
        return [f"{what}: gate flags differ from the oracle on rows {wrong.tolist()[:10]}"]
    return []


_ACTIVATIONS = {
    "sigmoid": lambda z: 0.5 + 0.5 * np.tanh(0.5 * z),
    "softplus": lambda z: np.logaddexp(0.0, z),
    "radial-basis": lambda z: np.exp(-z * z),
}


class Surface:
    """Ensemble prediction evaluated from the members' weights."""

    def __init__(self, ensemble):
        self.W = np.stack([m.hidden_weights for m in ensemble.members])      # (M, L, d)
        self.b = np.stack([m.hidden_biases for m in ensemble.members])       # (M, L)
        self.B = np.stack([m.output_weights[:, 0] for m in ensemble.members])  # (M, L)
        self.act = _ACTIVATIONS[ensemble.members[0].activation.value]
        self.trim = ensemble.trim_policy.value == "drop-min-max"

    def __call__(self, points: np.ndarray) -> np.ndarray:
        P = np.atleast_2d(np.asarray(points, dtype=float))
        H = self.act(np.einsum("pd,mld->mpl", P, self.W) + self.b[:, None, :])
        per_member = np.einsum("mpl,ml->mp", H, self.B)
        if self.trim:
            total = per_member.sum(axis=0) - per_member.max(axis=0) - per_member.min(axis=0)
            return total / (per_member.shape[0] - 2)
        return per_member.mean(axis=0)


def secant_candidates(f, x_o, train, center, delta1s, delta2s):
    """Fallback candidates for one outlier from the paper's formulas.

    Returns ({label: value}, [dropped labels], nearest index).  With x_nn
    the nearest training row:

    * neighbour line: x* = x_nn + d1 (x_nn - x_o),
      value f(x_nn) + (f(x_nn) - f(x*)) / d1;
    * centre line: p is x_nn projected on the line from the centre c to
      x_o at distance t_p from c, t_o = ||x_o - c||, x* = p + d2 (c - p),
      value f(p) + (t_o - t_p) / (d2 t_p) (f(p) - f(x*)), dropped unless
      0 < t_p < t_o;
    * the raw surface value f(x_o).
    """
    nn = int(np.argmin(((train - x_o) ** 2).sum(axis=1)))
    x_nn = train[nn]
    points = []
    plans = []
    dropped = []
    for d1 in delta1s:
        label = f"nn-extrapolation(delta1={d1:g})"
        if np.array_equal(x_nn, x_o):
            dropped.append(label)
            continue
        plans.append((label, len(points), lambda a, b, d1=d1: a + (a - b) / d1))
        points += [x_nn, x_nn + d1 * (x_nn - x_o)]
    t_o = float(np.linalg.norm(x_o - center))
    unit = (x_o - center) / t_o
    t_p = float((x_nn - center) @ unit)
    for d2 in delta2s:
        label = f"center-extrapolation(delta2={d2:g})"
        if not 0.0 < t_p < t_o:
            dropped.append(label)
            continue
        p = center + t_p * unit
        factor = (t_o - t_p) / (d2 * t_p)
        plans.append((label, len(points), lambda a, b, k=factor: a + k * (a - b)))
        points += [p, p + d2 * (center - p)]
    values = f(np.array(points)) if points else np.empty(0)
    candidates = {label: float(rule(values[j], values[j + 1])) for label, j, rule in plans}
    candidates["raw-surface"] = float(f(x_o[None, :])[0])
    return candidates, dropped, nn


def lstsq_predict(train: np.ndarray, y: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Least squares with an intercept, minimum norm, via numpy's lstsq."""
    design = np.hstack([train, np.ones((train.shape[0], 1))])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    return np.hstack([X, np.ones((X.shape[0], 1))]) @ coef


def mad(values: np.ndarray) -> float:
    return float(np.median(np.abs(values - np.median(values))))


def ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their positions."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]
    starts = np.flatnonzero(first)
    ends = np.r_[starts[1:], values.size]
    out = np.empty(values.size)
    out[order] = ((starts + ends - 1) / 2.0 + 1.0)[np.cumsum(first) - 1]
    return out


def spearman(a: np.ndarray, b: np.ndarray):
    if a.size < 2 or np.all(a == a[0]) or np.all(b == b[0]):
        return None
    return float(np.corrcoef(ranks(a), ranks(b))[0, 1])


def subset_scores(pred, obs, rows, scale, min_rows):
    if rows.size < min_rows:
        return {"maen": None, "spearman": None}
    return {"maen": float(np.mean(np.abs(pred[rows] - obs[rows])) / scale),
            "spearman": spearman(pred[rows], obs[rows])}
