"""Dataset manifests and CSV ingestion.

A manifest is a JSON file that pins down everything needed to reproduce a
dataset split: which CSV to read, which columns are features, which
column is the target, how categoricals are encoded, which target
transform applies, and where the train/test boundary sits.  Ingestion is
strict about anything that could silently change results (unknown
manifest keys, unparseable cells, unknown category labels) and lenient
only about rows with missing values, which are dropped and counted.

Row order is preserved: the datasets this harness targets are time
series, and the split plus the contiguous cross-validation folds both
rely on row order being meaningful.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..numkernel import as_matrix, as_vector
from ..preprocess import (OneHotGroup, TargetTransform, indicator_columns, one_hot_encode,
                          transform_target)
from ..seeding import shown


class ManifestError(ValueError):
    """The manifest file, or another JSON input read with the same checks,
    is malformed or self-contradictory."""


class IngestionError(ValueError):
    """The CSV contents cannot be interpreted under the manifest."""


@dataclass(frozen=True)
class CategoricalColumn:
    column: str
    categories: tuple[str, ...]


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    csv_path: Path
    feature_columns: tuple[str, ...]
    target_column: str
    categorical_groups: tuple[CategoricalColumn, ...]
    target_transform: TargetTransform
    clip_negative_predictions: bool
    train_fraction: float | None
    train_range: tuple[int, int] | None
    test_range: tuple[int, int] | None
    reverse_order: bool
    delimiter: str


@dataclass(frozen=True)
class Dataset:
    """Ingested, encoded, transformed and split data.

    Built only with finite 2-D inputs of one column count, at least one
    row in each part, and finite targets, transformed and raw, of one
    value per row of their part; anything else is a ValueError naming the
    field."""

    name: str
    train_inputs: np.ndarray
    test_inputs: np.ndarray
    train_target: np.ndarray        # transformed space
    test_target: np.ndarray         # transformed space
    train_target_raw: np.ndarray    # original units
    test_target_raw: np.ndarray     # original units
    feature_names: tuple[str, ...]
    onehot_groups: tuple[OneHotGroup, ...]
    target_transform: TargetTransform
    clip_negative_predictions: bool
    dropped_rows: int

    def __post_init__(self):
        columns = None
        for part in ("train", "test"):
            rows, columns = as_matrix(getattr(self, f"{part}_inputs"), f"{part}_inputs",
                                      columns).shape
            for name in (f"{part}_target", f"{part}_target_raw"):
                if (size := as_vector(getattr(self, name), name).size) != rows:
                    raise ValueError(f"{name} has {size} values for {rows} {part} rows")
            if rows == 0:
                raise ValueError(f"{part}_inputs has no rows")
        indicator_columns(self.onehot_groups, columns)

    @property
    def indicator_columns(self) -> tuple[int, ...]:
        return indicator_columns(self.onehot_groups)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ManifestError(message)


def _check_keys(mapping: dict, allowed: set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    _require(not unknown, f"{context}: unknown keys {sorted(unknown)}")


_JSON_KINDS = {"a boolean": (bool,), "an integer": (int,), "a number": (int, float),
               "a string": (str,), "a list": (list,), "an object": (dict,)}


def _typed(value, kind: str, name: str):
    """``value`` if it is JSON of ``kind``, else a ManifestError naming ``name``."""
    types = _JSON_KINDS[kind]
    # bool is an int subclass, but true is not a JSON number
    _require(isinstance(value, types) and (bool in types or not isinstance(value, bool)),
             f"{name} must be {kind}, got {shown(value)}")
    return value


def _section(raw, keys: dict, name: str, required: tuple[str, ...] = ()) -> dict:
    """The entries of JSON object ``raw``, lists as tuples, each checked
    against its kind in ``keys``; [kind] is a list of values of that kind."""
    _check_keys(_typed(raw, "an object", name), set(keys), name)
    for key in required:
        _require(key in raw, f"{name}: missing required key {key!r}")
    section = {}
    for key, value in raw.items():
        if isinstance(keys[key], list):
            section[key] = tuple(
                _typed(item, keys[key][0], f"{name}.{key}[{i}]")
                for i, item in enumerate(_typed(value, "a list", f"{name}.{key}")))
        else:
            section[key] = _typed(value, keys[key], f"{name}.{key}")
    return section


# the manifest's keys, its split's and a categorical group's, and the JSON
# kind of their values, as read by _section
_MANIFEST_KEYS = {"name": "a string", "csv_path": "a string",
                  "feature_columns": ["a string"], "target_column": "a string",
                  "categorical_groups": ["an object"], "target_transform": "a string",
                  "clip_negative_predictions": "a boolean", "split": "an object",
                  "reverse_order": "a boolean", "delimiter": "a string"}
_SPLIT_KEYS = {"train_fraction": "a number", "train_range": ["an integer"],
               "test_range": ["an integer"]}
_GROUP_KEYS = {"column": "a string", "categories": ["a string"]}


def _read_json(path) -> object:
    """The JSON document in file ``path``; a ManifestError naming the file
    if the file is not JSON."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: not valid JSON ({exc})") from exc


def load_manifest(path) -> DatasetManifest:
    """Parse and validate a manifest file."""
    manifest_path = Path(path)
    raw = _read_json(manifest_path)
    top = _section(raw, _MANIFEST_KEYS, str(manifest_path),
                   required=("csv_path", "feature_columns", "target_column", "split"))

    csv_path = (manifest_path.parent / top["csv_path"]).resolve()
    features = top["feature_columns"]
    _require(features, "feature_columns must be a non-empty list of column names")
    _require(len(set(features)) == len(features),
             f"feature_columns contains duplicates: {list(features)}")
    target = top["target_column"]
    _require(target, "target_column must be a column name")
    _require(target not in features,
             f"target column {target!r} must not appear in feature_columns")

    categoricals: list[CategoricalColumn] = []
    for i, entry in enumerate(top.get("categorical_groups", ())):
        group = _section(entry, _GROUP_KEYS, f"categorical_groups[{i}]",
                         required=("column", "categories"))
        column, cats = group["column"], group["categories"]
        _require(column in features,
                 f"categorical column {column!r} is not in feature_columns")
        _require(cats, f"categorical column {column!r} needs a list of string categories")
        _require(len(set(cats)) == len(cats),
                 f"categorical column {column!r} has duplicate categories")
        categoricals.append(CategoricalColumn(column=column, categories=cats))
    seen = [c.column for c in categoricals]
    _require(len(set(seen)) == len(seen),
             f"categorical_groups lists a column twice: {seen}")

    transform_name = top.get("target_transform", "none")
    try:
        transform = TargetTransform(transform_name)
    except ValueError:
        raise ManifestError(
            f"unknown target_transform {transform_name!r}; expected one of "
            f"{[t.value for t in TargetTransform]}"
        ) from None

    reverse = top.get("reverse_order", False)
    delimiter = top.get("delimiter", ",")
    _require(len(delimiter) == 1, "delimiter must be a single character")

    split = _section(top["split"], _SPLIT_KEYS, "split")
    _require(set(split) in ({"train_fraction"}, {"train_range", "test_range"}),
             "split needs either train_fraction or both train_range and test_range")
    train_fraction = split.get("train_fraction")
    if train_fraction is not None:
        _require(0.0 < train_fraction < 1.0,
                 f"train_fraction must be in (0, 1), got {train_fraction}")
    else:
        _require(not reverse, "reverse_order cannot be combined with explicit ranges")
    for key in ("train_range", "test_range"):
        if key in split:
            _require(len(split[key]) == 2, f"{key} must be [start, stop]")
            start, stop = split[key]
            _require(0 <= start < stop, f"{key} must satisfy 0 <= start < stop")

    return DatasetManifest(
        name=top.get("name", csv_path.stem),
        csv_path=csv_path,
        feature_columns=features,
        target_column=target,
        categorical_groups=tuple(categoricals),
        target_transform=transform,
        clip_negative_predictions=top.get("clip_negative_predictions", False),
        train_fraction=train_fraction,
        train_range=split.get("train_range"),
        test_range=split.get("test_range"),
        reverse_order=reverse,
        delimiter=delimiter,
    )


def _split_indices(manifest: DatasetManifest, n: int):
    if manifest.train_fraction is not None:
        n_train = int(round(manifest.train_fraction * n))
        n_train = min(max(n_train, 1), n - 1)
        return np.arange(n_train), np.arange(n_train, n)
    a, b = manifest.train_range
    c, d = manifest.test_range
    for key, stop in (("train_range", b), ("test_range", d)):
        if stop > n:
            raise ManifestError(f"{key} extends to {stop} but only {n} usable rows exist")
    first, second = sorted([(a, b), (c, d)])
    if first[0] != 0 or first[1] != second[0] or second[1] != n:
        raise ManifestError(
            f"train_range {[a, b]} and test_range {[c, d]} must partition "
            f"all {n} usable rows into two contiguous blocks"
        )
    return np.arange(a, b), np.arange(c, d)


def load_dataset(manifest: DatasetManifest) -> Dataset:
    """Read the CSV and produce the encoded, transformed, split dataset.

    Rows with an empty cell in any used column are dropped (and counted in
    ``dropped_rows``); any other irregularity is an error.  Splitting runs
    on the retained rows, after the optional whole-table order reversal.
    """
    if not manifest.csv_path.exists():
        raise IngestionError(f"CSV file not found: {manifest.csv_path}")
    categorical_names = {c.column: c for c in manifest.categorical_groups}
    used_columns = list(manifest.feature_columns) + [manifest.target_column]

    with open(manifest.csv_path, newline="") as handle:
        reader = csv.reader(handle, delimiter=manifest.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{manifest.csv_path}: file is empty") from None
        header = [h.strip() for h in header]
        positions = []
        for column in used_columns:
            matches = [i for i, h in enumerate(header) if h == column]
            if not matches:
                raise IngestionError(
                    f"{manifest.csv_path}: column {column!r} not found in header {header}"
                )
            if len(matches) > 1:
                raise IngestionError(
                    f"{manifest.csv_path}: column {column!r} appears "
                    f"{len(matches)} times in the header"
                )
            positions.append(matches[0])

        # one record per kept row, in used_columns order (features, then the
        # target), so a row's first bad cell is the one reported; categorical
        # labels stay text
        parsers = [str if column in categorical_names else float
                   for column in used_columns]
        records: list[list] = []
        dropped = 0
        for line_number, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            cells = [row[pos].strip() if pos < len(row) else "" for pos in positions]
            if "" in cells:
                dropped += 1
                continue
            try:
                records.append([parse(cell) for parse, cell in zip(parsers, cells)])
            except ValueError as exc:
                raise IngestionError(
                    f"{manifest.csv_path}, line {line_number}: {exc}"
                ) from None

    n = len(records)
    if n < 2:
        raise IngestionError(
            f"{manifest.csv_path}: only {n} usable rows after dropping {dropped}"
        )
    columns = dict(zip(used_columns, zip(*records)))

    # assemble the encoded feature matrix in feature_columns order
    blocks: list[np.ndarray] = []
    names: list[str] = []
    groups: list[OneHotGroup] = []
    for column in manifest.feature_columns:
        if column in categorical_names:
            group_spec = categorical_names[column]
            try:
                encoded = one_hot_encode(columns[column], group_spec.categories)
            except ValueError as exc:
                raise IngestionError(f"{manifest.csv_path}: column {column!r}: {exc}") \
                    from None
            start = sum(b.shape[1] for b in blocks)
            groups.append(OneHotGroup(
                column_indices=tuple(range(start, start + encoded.shape[1])),
                category_labels=group_spec.categories,
            ))
            blocks.append(encoded)
            names.extend(f"{column}={c}" for c in group_spec.categories)
        else:
            blocks.append(np.asarray(columns[column], dtype=float)[:, None])
            names.append(column)
    X = np.hstack(blocks)
    y_raw = np.asarray(columns[manifest.target_column], dtype=float)
    if not np.isfinite(X).all() or not np.isfinite(y_raw).all():
        raise IngestionError(f"{manifest.csv_path}: non-finite values in used columns")

    if manifest.reverse_order:
        X = X[::-1].copy()
        y_raw = y_raw[::-1].copy()

    try:
        y = transform_target(y_raw, manifest.target_transform)
    except ValueError as exc:
        raise IngestionError(f"{manifest.csv_path}: target column: {exc}") from None

    train_idx, test_idx = _split_indices(manifest, n)
    return Dataset(
        name=manifest.name,
        train_inputs=X[train_idx],
        test_inputs=X[test_idx],
        train_target=y[train_idx],
        test_target=y[test_idx],
        train_target_raw=y_raw[train_idx],
        test_target_raw=y_raw[test_idx],
        feature_names=tuple(names),
        onehot_groups=tuple(groups),
        target_transform=manifest.target_transform,
        clip_negative_predictions=manifest.clip_negative_predictions,
        dropped_rows=dropped,
    )


def dataset_from_arrays(train_inputs, test_inputs, train_target, test_target,
                        name: str = "in-memory",
                        onehot_groups: tuple[OneHotGroup, ...] = (),
                        target_transform: TargetTransform = TargetTransform.NONE,
                        clip_negative_predictions: bool = False) -> Dataset:
    """Wrap already-loaded arrays in a Dataset (targets given in raw units)."""
    train_inputs, test_inputs = (np.asarray(a, dtype=float) for a in (train_inputs, test_inputs))
    train_raw, test_raw = (as_vector(train_target, "train_target"),
                           as_vector(test_target, "test_target"))
    return Dataset(
        name=name,
        train_inputs=train_inputs,
        test_inputs=test_inputs,
        train_target=transform_target(train_raw, target_transform),
        test_target=transform_target(test_raw, target_transform),
        train_target_raw=train_raw,
        test_target_raw=test_raw,
        feature_names=tuple(f"x{i}" for i in range(train_inputs.shape[1])),
        onehot_groups=onehot_groups,
        target_transform=target_transform,
        clip_negative_predictions=clip_negative_predictions,
        dropped_rows=0,
    )
