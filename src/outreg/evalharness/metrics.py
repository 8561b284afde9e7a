"""Scale-free evaluation metrics and distribution summaries.

MAEn divides the mean absolute error by the median absolute deviation of
a reference sample (here always the full test target), which makes scores
comparable across targets with wildly different units and, crucially,
comparable between subsets of the same test set: the outlier subset and
the non-outlier subset are normalised by the same constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numkernel import as_matrix, as_vector, average_ranks


def mad(values) -> float:
    """Median absolute deviation: median(|v - median(v)|)."""
    v = as_vector(values, "values")
    if v.size == 0:
        raise ValueError("mad of an empty sequence is undefined")
    med = float(np.median(v))
    return float(np.median(np.abs(v - med)))


def maen(predictions, observations, mad_reference) -> float:
    """Mean absolute error normalised by the reference sample's MAD.

    ``mad_reference`` is the sample whose median absolute deviation sets
    the scale (pass the full test target even when scoring a subset).  A
    constant reference has zero MAD and no meaningful scale, which is an
    error rather than an infinity.
    """
    return maen_at_scale(predictions, observations, mad(mad_reference))


def maen_at_scale(predictions, observations, scale: float) -> float:
    """MAEn with the reference's MAD given as ``scale``, for callers that
    score many subsets against one reference."""
    p = as_vector(predictions, "predictions")
    o = as_vector(observations, "observations")
    if p.size != o.size:
        raise ValueError(f"{p.size} predictions for {o.size} observations")
    if p.size == 0:
        raise ValueError("maen of an empty sequence is undefined")
    if scale == 0.0:
        raise ValueError("reference sample is constant: MAD normaliser is zero")
    return float(np.mean(np.abs(p - o)) / scale)


def spearman(a, b) -> float:
    """Rank correlation: Pearson correlation of average ranks.

    Ties get average ranks, so the coefficient handles discrete or
    repeated values.  Constant input has no rank ordering and raises.
    """
    x = as_vector(a, "a")
    y = as_vector(b, "b")
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValueError("spearman needs at least two points")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise ValueError("spearman is undefined for constant input")
    rx = average_ranks(x)
    ry = average_ranks(y)
    cx = rx - rx.mean()
    cy = ry - ry.mean()
    return float((cx @ cy) / np.sqrt((cx @ cx) * (cy @ cy)))


@dataclass(frozen=True)
class BoxplotSummary:
    """Five-number summary with 1.5 IQR whiskers.

    Whiskers sit on the most extreme data points still within 1.5 IQR of
    the box; everything beyond them is listed in ``outside_points``.
    """

    median: float
    q25: float
    q75: float
    whisker_low: float
    whisker_high: float
    outside_points: tuple[float, ...]


def boxplot_stats(values) -> BoxplotSummary:
    """One sequence's summary: the one-row case of ``boxplot_rows``."""
    cell = boxplot_rows(as_vector(values, "values")[None, :])[0]
    return BoxplotSummary(cell["median"], cell["q25"], cell["q75"], cell["whisker_low"],
                          cell["whisker_high"], tuple(cell["outside_points"]))


def boxplot_rows(values) -> list[dict]:
    """The summary of each row of a (cells, values) matrix as a report
    cell: ``BoxplotSummary``'s fields, outside points as a list, plus the
    row's ``mean`` and ``n``.

    Each row's cell is bitwise what summarising the row alone gives, also
    in rows that hold both 0.0 and -0.0.  So each quartile takes its own
    ``np.percentile`` call (a joint call partitions differently), and each
    whisker reduces the row's own in-fence values rather than a row padded
    with infinities; either shortcut can return the other zero.
    """
    # row-major, so that each row's mean is the pairwise sum a 1-D mean takes
    V = np.ascontiguousarray(as_matrix(values, "values"))
    if V.shape[1] == 0:
        raise ValueError("boxplot of an empty sequence is undefined")
    q25 = np.percentile(V, 25.0, axis=1)
    q75 = np.percentile(V, 75.0, axis=1)
    iqr = q75 - q25
    inside = (V >= (q25 - 1.5 * iqr)[:, None]) & (V <= (q75 + 1.5 * iqr)[:, None])
    # the box holds a data point, so no row's run of in-fence values is empty
    counts = inside.sum(axis=1)
    starts = np.cumsum(counts) - counts
    within = V[inside]
    rows = zip(np.median(V, axis=1).tolist(), q25.tolist(), q75.tolist(),
               np.minimum.reduceat(within, starts).tolist(),
               np.maximum.reduceat(within, starts).tolist(),
               V.mean(axis=1).tolist(), (counts < V.shape[1]).tolist(), V, inside)
    return [{"median": median, "q25": low, "q75": high, "whisker_low": w_low,
             "whisker_high": w_high,
             "outside_points": np.sort(row[~keep]).tolist() if spills else [],
             "mean": mean, "n": V.shape[1]}
            for median, low, high, w_low, w_high, mean, spills, row, keep in rows]
