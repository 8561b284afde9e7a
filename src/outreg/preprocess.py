"""Input scaling, target transforms, categorical encoding.

The models in this package operate on inputs normalised to [-1, 1] via a
min-max map fitted on training data only.  Test inputs are deliberately
*not* clamped: values outside [-1, 1] are the whole point, since the
normalised magnitude of the worst test column (``r_outl``) is how far the
data asks the model to extrapolate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .numkernel import as_matrix, as_vector


@dataclass(frozen=True)
class MinMaxScaler:
    """Columnwise min-max state fitted on training inputs."""

    x_min: np.ndarray
    x_max: np.ndarray

    @property
    def constant_columns(self) -> np.ndarray:
        """Boolean mask of columns with zero training range."""
        return self.x_min == self.x_max


def fit_minmax(train_inputs) -> MinMaxScaler:
    """Record the per-column min and max of the training inputs."""
    X = as_matrix(train_inputs, "train_inputs")
    if X.shape[0] < 1:
        raise ValueError("fit_minmax requires at least one row")
    return MinMaxScaler(x_min=X.min(axis=0), x_max=X.max(axis=0))


def apply_minmax(scaler: MinMaxScaler, inputs) -> np.ndarray:
    """Map inputs to x' = 2 (x - min) / (max - min) - 1, without clamping.

    Columns that were constant in training have no usable range; they map
    to 0 regardless of the incoming value.
    """
    X = as_matrix(inputs, "inputs", scaler.x_min.size)
    span = scaler.x_max - scaler.x_min
    constant = scaler.constant_columns
    safe_span = np.where(constant, 1.0, span)
    scaled = 2.0 * (X - scaler.x_min) / safe_span - 1.0
    scaled[:, constant] = 0.0
    return scaled


def invert_minmax(scaler: MinMaxScaler, scaled) -> np.ndarray:
    """Inverse of apply_minmax; constant columns recover their fitted value."""
    Z = as_matrix(scaled, "scaled", scaler.x_min.size)
    span = scaler.x_max - scaler.x_min
    X = scaler.x_min + (Z + 1.0) * span / 2.0
    constant = scaler.constant_columns
    X[:, constant] = scaler.x_min[constant]
    return X


def r_outl(scaled_test_inputs, exclude_columns=()) -> float:
    """Worst normalised test magnitude over the retained columns.

    For each retained column take max(|column max|, |column min|) of the
    normalised test inputs, then take the max over columns.  A value of 1
    means the test data stays inside the training envelope; anything above
    1 measures how far outside it reaches.

    ``exclude_columns`` removes columns whose normalised magnitude is not
    meaningful, e.g. one-hot indicators and training-constant columns.
    """
    Z = as_matrix(scaled_test_inputs, "scaled_test_inputs")
    if Z.shape[0] < 1:
        raise ValueError("r_outl requires at least one row")
    excluded = set(int(c) for c in exclude_columns)
    for c in excluded:
        if not 0 <= c < Z.shape[1]:
            raise ValueError(f"exclude_columns entry {c} out of range for {Z.shape[1]} columns")
    keep = [c for c in range(Z.shape[1]) if c not in excluded]
    if not keep:
        raise ValueError("r_outl requires at least one retained column")
    return float(np.abs(Z[:, keep]).max())


def r_outl_estimate(train_min: float, train_max: float, test_extreme: float,
                    approximate: bool = False) -> float:
    """Closed-form r_outl for one column from three summary values.

    With a = train_min, b = train_max and c the extreme test value, the
    exact single-column value is (2c - a - b) / (b - a).  The approximate
    form (valid when a is negligible next to b) is 2c/b - 1; it is
    computed as (2c - b) / b so that at a = 0 the two forms agree bitwise.
    """
    a = float(train_min)
    b = float(train_max)
    c = float(test_extreme)
    if a >= b:
        raise ValueError(f"train_min must be strictly below train_max, got {a} >= {b}")
    if approximate:
        return (2.0 * c - b) / b
    return (2.0 * c - a - b) / (b - a)


class TargetTransform(enum.Enum):
    """Target-side variance-stabilising transforms."""

    NONE = "none"
    NATURAL_LOG = "natural-log"
    LOG10 = "log10"
    FOURTH_ROOT = "fourth-root"


def transform_target(values, transform: TargetTransform) -> np.ndarray:
    """Apply the transform elementwise, rejecting out-of-domain values."""
    v = as_vector(values, "values")
    if transform is TargetTransform.NONE:
        return v.copy()
    if transform in (TargetTransform.NATURAL_LOG, TargetTransform.LOG10):
        bad = np.flatnonzero(v <= 0.0)
        if bad.size:
            raise ValueError(
                f"{transform.value} transform requires positive values; "
                f"got {v[bad[0]]} at index {bad[0]}"
            )
        return np.log(v) if transform is TargetTransform.NATURAL_LOG else np.log10(v)
    bad = np.flatnonzero(v < 0.0)
    if bad.size:
        raise ValueError(
            f"fourth-root transform requires non-negative values; "
            f"got {v[bad[0]]} at index {bad[0]}"
        )
    return v ** 0.25


def inverse_transform_target(values, transform: TargetTransform) -> np.ndarray:
    """Map transformed-space values back to original units."""
    v = as_vector(values, "values")
    if transform is TargetTransform.NONE:
        return v.copy()
    if transform is TargetTransform.NATURAL_LOG:
        return np.exp(v)
    if transform is TargetTransform.LOG10:
        return 10.0 ** v
    return v ** 4


def clip_nonnegative(values) -> np.ndarray:
    """Floor predictions at zero for physically non-negative targets."""
    v = as_vector(values, "values")
    return np.maximum(v, 0.0)


@dataclass(frozen=True)
class OneHotGroup:
    """Columns of an encoded matrix that together form one indicator block.

    ``levels`` holds each column's (absent, present) value in that matrix:
    (0, 1) as ``one_hot_encode`` writes them, which is the default, or the
    images of 0 and 1 once the columns are rescaled (``minmax_onehot_group``).
    """

    column_indices: tuple[int, ...]
    category_labels: tuple[str, ...]
    levels: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if len(self.column_indices) != len(self.category_labels):
            raise ValueError(
                f"{len(self.column_indices)} column indices for "
                f"{len(self.category_labels)} category labels"
            )
        if not self.column_indices:
            raise ValueError("a one-hot group needs at least one category")
        if len(set(self.column_indices)) != len(self.column_indices):
            raise ValueError("one-hot column indices must be distinct")
        if not self.levels:
            object.__setattr__(self, "levels",
                               ((0.0, 1.0),) * len(self.column_indices))
        elif len(self.levels) != len(self.column_indices):
            raise ValueError(
                f"{len(self.levels)} levels for {len(self.column_indices)} columns"
            )

    def category_blocks(self) -> np.ndarray:
        """(K, K) array whose row j is the block of category j."""
        absent, present = np.array(self.levels, dtype=float).T
        return np.where(np.eye(absent.size, dtype=bool), present, absent)


def indicator_columns(groups, input_count: int | None = None) -> tuple[int, ...]:
    """The columns of all the one-hot groups, sorted; no two may share one,
    and with ``input_count`` each must be one of that many inputs."""
    cols = sorted(c for g in groups for c in g.column_indices)
    if len(set(cols)) != len(cols):
        raise ValueError("one-hot groups must not share columns")
    if input_count is not None and cols and not 0 <= cols[0] <= cols[-1] < input_count:
        raise ValueError(f"one-hot columns {cols} fall outside the {input_count} inputs")
    return tuple(cols)


def minmax_onehot_group(scaler: MinMaxScaler, group: OneHotGroup) -> OneHotGroup:
    """The group with its levels mapped as ``apply_minmax(scaler, .)`` maps them.

    The levels go through the same arithmetic as the data, so scaled rows
    match them bitwise.  A column constant in training maps both levels
    to 0, so a category absent from training is still a valid block.
    """
    cols = list(group.column_indices)
    rows = np.tile(scaler.x_min, (2, 1))
    rows[:, cols] = np.array(group.levels, dtype=float).T
    absent, present = apply_minmax(scaler, rows)[:, cols]
    return replace(group, levels=tuple(zip(absent.tolist(), present.tolist())))


def one_hot_encode(labels, category_labels) -> np.ndarray:
    """Encode string labels as 0/1 indicator columns.

    Column order follows ``category_labels``.  An input label outside that
    list is an error: silently widening the category set would make train
    and test encodings incompatible.
    """
    categories = [str(c) for c in category_labels]
    if len(set(categories)) != len(categories):
        raise ValueError("category labels must be distinct")
    if not categories:
        raise ValueError("one-hot encoding needs at least one category")
    index = {label: j for j, label in enumerate(categories)}
    rows = list(labels)
    encoded = np.zeros((len(rows), len(categories)))
    for i, label in enumerate(rows):
        j = index.get(str(label))
        if j is None:
            raise ValueError(
                f"unknown category {label!r} at row {i}; expected one of {categories}"
            )
        encoded[i, j] = 1.0
    return encoded
