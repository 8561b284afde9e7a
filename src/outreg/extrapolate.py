"""Directional linear extrapolation for gated outlier points.

Nonlinear regressors are untrustworthy outside the training envelope, so
for a test point flagged by the gate the prediction is replaced by the
median of several one-dimensional linear extrapolations of the fitted
surface, each taken along a line anchored in the training data:

* the line through the nearest training neighbour and the outlier, with
  the surface sampled at the neighbour and at a step of delta1 behind it;
* the line from the training centre through the outlier, with the surface
  sampled at the projection of the neighbour onto that line and at a step
  of delta2 back towards the centre.

Both routes reproduce an affine surface exactly for any step size.  The
raw surface value at the outlier itself is included as one more median
candidate by default, so the fallback can never be worse than a vote
against the unextrapolated prediction.

Every candidate is one secant f(a) + s (f(a) - f(b)); the raw value is
the secant with a = b = x_o and s = 0.  The anchors a, b and the slopes s
depend only on the gate, the point, its nearest training row and the
OrConfig, so ``extrapolation_plan`` builds them once and
``ExtrapolationPlan.record`` turns the surface values at the anchors,
from one call of the surface, into the record.  The plan takes the
neighbour from its caller (``classify`` returns it for every outlier),
so it searches nothing.  A caller with many surfaces fitted on the same
training rows (one per trial) reuses the plan.

Geometrically degenerate routes (zero direction, projection falling
outside the centre-to-outlier segment) are dropped rather than fudged,
for all their step sizes at once, since neither test depends on the step.

``PredictFn`` is any callable mapping an (k, d) array of points to a
length-k array of surface values; for the 1-D boundary helper it maps a
length-k grid to length-k values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numkernel import as_vector, columnwise_median
from .outlier_gate import Gate, gate_point, nearest_training_neighbor
from .preprocess import OneHotGroup, indicator_columns

PredictFn = Callable[[np.ndarray], np.ndarray]


class DegenerateGeometryError(ValueError):
    """The requested extrapolation line cannot be constructed."""


class NoPredictionError(ValueError):
    """Every extrapolation candidate was dropped and no fallback remains."""


@dataclass(frozen=True)
class OrConfig:
    """Candidate set for the median-based outlier replacement.

    delta1 steps scale the distance behind the nearest neighbour; delta2
    steps scale the move from the projection point back towards the
    centre and must stay within (0, 1] so the second sample point remains
    between projection and centre.  With both delta lists empty and
    ``include_raw_nlr`` on, the scheme reduces to the raw surface value.
    """

    delta1_values: tuple[float, ...] = (0.25, 0.5)
    delta2_values: tuple[float, ...] = (0.5, 1.0)
    include_raw_nlr: bool = True
    categorical_groups: tuple[OneHotGroup, ...] = ()

    def __post_init__(self):
        if not self.delta1_values and not self.delta2_values \
                and not self.include_raw_nlr:
            raise ValueError(
                "no candidates configured: both delta lists are empty and "
                "the raw surface value is excluded"
            )
        if any(not d > 0.0 for d in self.delta1_values):
            raise ValueError(f"delta1 values must be positive, got {self.delta1_values}")
        if any(not 0.0 < d <= 1.0 for d in self.delta2_values):
            raise ValueError(f"delta2 values must lie in (0, 1], got {self.delta2_values}")


@dataclass(frozen=True)
class ExtrapolationRecord:
    """Per-point diagnostic trail for one replaced prediction."""

    value: float
    candidates: tuple[tuple[str, float], ...]
    dropped: tuple[tuple[str, str], ...]
    nn_index: int


def _secants(values, slopes: np.ndarray) -> np.ndarray:
    """f(a) + s (f(a) - f(b)) for each secant, from the surface values at
    its anchors laid out a0, b0, a1, b1, ..."""
    f_a, f_b = np.asarray(values, dtype=float).reshape(-1, 2).T
    return f_a + slopes * (f_a - f_b)


def _nn_route(xo: np.ndarray, xn: np.ndarray, deltas) -> list:
    """(a, b, s) per delta1: a = x_nn, b = x_nn + delta1 (x_nn - x_o), s = 1/delta1."""
    if np.array_equal(xo, xn):
        raise DegenerateGeometryError("nearest neighbour coincides with the point")
    return [(xn, xn + d * (xn - xo), 1.0 / d) for d in deltas]


def _center_route(xo: np.ndarray, xn: np.ndarray, c: np.ndarray, deltas) -> list:
    """(a, b, s) per delta2: a = p, the neighbour projected on the line
    from the centre to x_o at distance t_p from the centre, b = p +
    delta2 (center - p), s = (||x_o - c|| - t_p) / (delta2 t_p)."""
    if np.array_equal(xo, c):
        raise DegenerateGeometryError(
            "x_o coincides with the centre: extrapolation direction is undefined"
        )
    direction = xo - c
    t_outlier = float(np.linalg.norm(direction))
    unit = direction / t_outlier
    t_projection = float((xn - c) @ unit)
    if t_projection <= 0.0:
        raise DegenerateGeometryError(
            "neighbour projects at or behind the centre on the centre-outlier line"
        )
    if t_projection >= t_outlier:
        raise DegenerateGeometryError(
            "neighbour projects at or beyond the outlier on the centre-outlier line"
        )
    p = c + t_projection * unit
    return [(p, c if d == 1.0 else p + d * (c - p),
             (t_outlier - t_projection) / (d * t_projection)) for d in deltas]


def _evaluate(f: PredictFn, route: list) -> float:
    """The value of a route's single secant, from one call of ``f``."""
    (a, b, s), = route
    return float(_secants(f(np.stack([a, b])), np.array([s]))[0])


def nn_linear_extrapolate(f: PredictFn, x_o, x_nn, delta1: float) -> float:
    """Linear extrapolation along the neighbour-to-outlier line.

    The surface is sampled at x_nn and at x_* = x_nn + delta1 (x_nn - x_o),
    i.e. a fraction delta1 of the outlier gap *behind* the neighbour, and
    the secant through those samples is evaluated at the outlier:

        f(x_nn) + (f(x_nn) - f(x_*)) / delta1
    """
    xo = as_vector(x_o, "x_o")
    xn = as_vector(x_nn, "x_nn")
    if xo.size != xn.size:
        raise ValueError(f"x_o has {xo.size} coordinates, x_nn has {xn.size}")
    if not delta1 > 0.0:
        raise ValueError(f"delta1 must be positive, got {delta1}")
    return _evaluate(f, _nn_route(xo, xn, (delta1,)))


def center_linear_extrapolate(f: PredictFn, x_o, x_nn, center, delta2: float) -> float:
    """Linear extrapolation along the centre-to-outlier line.

    The neighbour is projected onto the line through centre and outlier;
    call the projection p and its distance from the centre d_c.  The
    surface is sampled at p and at x_* = p + delta2 (center - p), and the
    secant through those samples is evaluated at the outlier:

        f(p) + (||x_o - p|| / (delta2 d_c)) (f(p) - f(x_*))

    Raises DegenerateGeometryError when the projection falls at or behind
    the centre (d_c would be zero or the samples would straddle it) or at
    or beyond the outlier (nothing to extrapolate across).
    """
    xo = as_vector(x_o, "x_o")
    xn = as_vector(x_nn, "x_nn")
    c = as_vector(center, "center")
    if not (xo.size == xn.size == c.size):
        raise ValueError(
            f"dimension mismatch: x_o {xo.size}, x_nn {xn.size}, center {c.size}"
        )
    if not 0.0 < delta2 <= 1.0:
        raise ValueError(f"delta2 must lie in (0, 1], got {delta2}")
    return _evaluate(f, _center_route(xo, xn, c, (delta2,)))


def _check_indicator_block(x: np.ndarray, group: OneHotGroup) -> None:
    block = x[list(group.column_indices)]
    if not np.any(np.all(group.category_blocks() == block, axis=1)):
        raise ValueError(
            f"coordinates {group.column_indices} do not form a valid one-hot "
            f"indicator block: {block.tolist()}"
        )


def categorical_center(gate: Gate, x_o, groups: tuple[OneHotGroup, ...]) -> np.ndarray:
    """Columnwise median of the training rows sharing x_o's categories.

    Falls back to the gate's global centre when no training row matches
    (the secant anchors still need somewhere to stand).
    """
    xo = gate_point(gate, x_o, "x_o")
    if not groups:
        raise ValueError("categorical_center requires at least one one-hot group")
    cols = list(indicator_columns(groups))
    for g in groups:
        _check_indicator_block(xo, g)
    train = gate.training_inputs
    match = np.all(train[:, cols] == xo[cols], axis=1)
    if not match.any():
        warnings.warn(
            "no training row shares the point's category; "
            "falling back to the global training centre"
        )
        return gate.center.copy()
    return columnwise_median(train[match])


@dataclass(frozen=True)
class ExtrapolationPlan:
    """Where the fallback samples the surface for one gated point.

    Candidate j is the secant f(a_j) + slopes[j] (f(a_j) - f(b_j)) with
    a_j = anchors[2 j] and b_j = anchors[2 j + 1]; the raw surface value
    is the secant with a = b = x_o and slope 0.  None of it depends on
    the surface, so one plan serves every surface fitted on the gate's
    training rows.
    """

    labels: tuple[str, ...]
    anchors: np.ndarray
    slopes: np.ndarray
    dropped: tuple[tuple[str, str], ...]
    nn_index: int

    def record(self, values) -> ExtrapolationRecord:
        """The record for the surface ``values`` at ``anchors``, in order."""
        candidates = _secants(values, self.slopes)
        return ExtrapolationRecord(
            value=float(np.median(candidates)),
            candidates=tuple(zip(self.labels, candidates.tolist())),
            dropped=self.dropped,
            nn_index=self.nn_index,
        )


def extrapolation_plan(gate: Gate, x_o, config: OrConfig = OrConfig(), *,
                       nn_index: int) -> ExtrapolationPlan:
    """The candidates of ``nlror_predict_detailed`` for x_o, before any
    surface value: one neighbour-route secant per delta1, one centre-route
    secant per delta2 and, by default, the raw surface value.  A route
    whose geometry degenerates is dropped for all its deltas at once.
    ``nn_index`` is x_o's nearest training row, as ``classify``'s
    ``nearest_indices`` or ``nearest_training_neighbor`` gives it.

    When one-hot groups are configured, the neighbour and centre anchors
    have their indicator coordinates pinned to x_o's block before any
    geometry, so every anchor carries a valid indicator block and all
    line geometry happens in the continuous coordinates.
    """
    xo = gate_point(gate, x_o, "x_o")
    x_nn = gate.training_inputs[nn_index].copy()
    center = gate.center.copy()
    if config.categorical_groups:
        center = categorical_center(gate, xo, config.categorical_groups)
        pin = list(indicator_columns(config.categorical_groups))
        x_nn[pin] = xo[pin]
        center[pin] = xo[pin]

    labels: list[str] = []
    secants: list = []
    dropped: list[tuple[str, str]] = []
    for template, deltas, route, points in (
            ("nn-extrapolation(delta1={:g})", config.delta1_values, _nn_route, (xo, x_nn)),
            ("center-extrapolation(delta2={:g})", config.delta2_values, _center_route,
             (xo, x_nn, center))):
        names = [template.format(d) for d in deltas]
        try:
            secants += route(*points, deltas)
            labels += names
        except DegenerateGeometryError as exc:
            dropped += [(name, str(exc)) for name in names]
    if config.include_raw_nlr:
        labels.append("raw-surface")
        secants.append((xo, xo, 0.0))
    elif not secants:
        raise NoPredictionError(
            "all directional candidates were dropped "
            f"({'; '.join(reason for _, reason in dropped)}) "
            "and the raw surface value is excluded"
        )
    return ExtrapolationPlan(
        labels=tuple(labels),
        anchors=np.array([x for a, b, _ in secants for x in (a, b)]),
        slopes=np.array([s for _, _, s in secants]),
        dropped=tuple(dropped),
        nn_index=int(nn_index),
    )


def nlror_predict_detailed(f: PredictFn, gate: Gate, x_o,
                           config: OrConfig = OrConfig()) -> ExtrapolationRecord:
    """Median-of-extrapolations replacement for one gated outlier.

    Builds one nn-direction candidate per delta1, one centre-direction
    candidate per delta2, plus (by default) the raw surface value f(x_o),
    and returns the median with a record of what was dropped and why.
    ``f`` is called once, on every anchor of ``extrapolation_plan``.
    """
    plan = extrapolation_plan(gate, x_o, config,
                              nn_index=nearest_training_neighbor(gate, x_o)[0])
    return plan.record(f(plan.anchors))


def nlror_predict(f: PredictFn, gate: Gate, x_o,
                  config: OrConfig = OrConfig()) -> float:
    """Median-of-extrapolations value only; see nlror_predict_detailed."""
    return nlror_predict_detailed(f, gate, x_o, config).value


def boundary_extrapolate_1d(f: PredictFn, train_min: float, train_max: float,
                            fd_step: float, x):
    """Linearise a 1-D surface beyond the training interval.

    Inside [train_min, train_max] the surface itself is returned.  Beyond
    either end the surface continues along the one-sided finite-difference
    slope measured just inside that end, e.g. above train_max:

        f(train_max) + (x - train_max) * (f(train_max) - f(train_max - fd_step)) / fd_step

    A step of 1e-2 (normalised units) is the conventional choice.
    Accepts a scalar or a 1-D grid; a scalar in gives a float out.
    """
    lo = float(train_min)
    hi = float(train_max)
    if not lo < hi:
        raise ValueError(f"train_min must be strictly below train_max, got {lo} >= {hi}")
    if not fd_step > 0.0:
        raise ValueError(f"fd_step must be positive, got {fd_step}")
    scalar_in = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim != 1:
        raise ValueError(f"x must be a scalar or 1-D grid, got shape {xs.shape}")
    if xs.size and not np.isfinite(xs).all():
        raise ValueError("x contains non-finite entries")
    out = np.empty(xs.shape)
    inside = (xs >= lo) & (xs <= hi)
    if inside.any():
        out[inside] = np.asarray(f(xs[inside]), dtype=float)
    above = xs > hi
    if above.any():
        f_hi, f_hi_in = (float(v) for v in np.asarray(f(np.array([hi, hi - fd_step]))))
        out[above] = f_hi + (xs[above] - hi) * ((f_hi - f_hi_in) / fd_step)
    below = xs < lo
    if below.any():
        f_lo, f_lo_in = (float(v) for v in np.asarray(f(np.array([lo, lo + fd_step]))))
        out[below] = f_lo + (xs[below] - lo) * ((f_lo_in - f_lo) / fd_step)
    return float(out[0]) if scalar_in else out
