"""Save/load for trained ensembles and fitted gates.

Uses numpy's npz container with a small versioned header so old files
fail loudly instead of deserialising into garbage.  All arrays round-trip
at full float64 precision, so reloaded models predict bit-identically.

Each format version has one field table.  A row gives a field's dtype
kind, its shape in symbolic dimensions (``L`` nodes, ``d`` inputs, ``m``
outputs, ``n`` training rows, ``k`` indicator columns, ``g`` groups) and
at most one value rule.  ``_read_fields`` reads each field once and
checks it against its row: a dimension is bound by the first field that
has it, and a scalar integer field binds a dimension of its own name.  A
file that is not an NPZ archive, lacks a field or breaks a row raises a
ValueError naming the file and the field, so the loaders only build
objects.

An ensemble file of version 3 holds the ensemble as it is held in
memory: the header fields, then the three stacks (M, L, d), (M, L) and
(M, L, m), so a load reads the same nine fields whatever the member
count.  Older files still load, into the same stacks: version 2 is
version 3 with each member's seed beside the header, and version 1
holds those seeds and then each member's three arrays under names
suffixed with its index.  Their member seeds are checked against their
row and then dropped, since the ensemble's seed and a member's index
say which draws it holds.

A gate file of version 2 also holds the gate's one-hot groups as four
flat arrays, with no pickled object: each group's column count
(``onehot_sizes``), then all groups' columns, category labels and
(absent, present) levels one after another.  A version-1 file loads as
a gate with no groups.
"""

from __future__ import annotations

import re
import zipfile
from contextlib import contextmanager, nullcontext

import numpy as np

from .outlier_gate import Gate
from .preprocess import OneHotGroup
from .regress import Activation, EnsembleModel, TrimPolicy

ENSEMBLE_FORMAT = "outreg-ensemble"
GATE_FORMAT = "outreg-gate"
ENSEMBLE_FORMAT_VERSION = 3
GATE_FORMAT_VERSION = 2


def _seed_text(seed) -> str:
    return "none" if seed is None else str(int(seed))


def _seed_value(text) -> int | None:
    value = str(text)
    return None if value == "none" else int(value)


def _one_of(kind):
    values = [k.value for k in kind]
    return lambda v, dims: str(v) in values, "one of " + ", ".join(map(repr, values))


# value rules: (test of the array and the bound dimensions, what it expects)
_FINITE = (lambda v, dims: np.isfinite(v).all(), "finite values")
_SEEDS = (lambda v, dims: all(re.fullmatch("none|-?[0-9]+", s) for s in v.ravel().tolist()),
          "decimal seeds or 'none'")
_KINDS = {"f": "floats", "iu": "integers", "fiu": "numbers", "U": "strings"}
_LEAST = {"n": 2, "k": 0, "g": 0}   # every other dimension is at least 1

# rows: (name, dtype kinds, shape, value rule or None)
_ENSEMBLE_FIELDS = (
    ("activation", "U", (), _one_of(Activation)),
    ("trim_policy", "U", (), _one_of(TrimPolicy)),
    ("member_count", "iu", (), (lambda v, dims: v >= 1, "a count of at least 1")),
    ("seed", "U", (), _SEEDS),
)
# versions 1 and 2: each member's seed, checked and then dropped
_MEMBER_SEEDS = ("member_seeds", "U", ("member_count",), _SEEDS)
# versions 2 and 3: three stacks, one slice per member
_STACK_FIELDS = (
    ("hidden_weights", "f", ("member_count", "L", "d"), _FINITE),
    ("hidden_biases", "f", ("member_count", "L"), _FINITE),
    ("output_weights", "f", ("member_count", "L", "m"), _FINITE),
)
# version 1: the seeds, then each member's slice of the stacks as three
# arrays suffixed with its index
_MEMBER_FIELDS = tuple((name + "_{}", kinds, shape[1:], rule)
                       for name, kinds, shape, rule in _STACK_FIELDS)
_GATE_FIELDS = (
    ("mean", "f", ("d",), _FINITE),
    ("covariance", "f", ("d", "d"), _FINITE),
    ("covariance_inverse_factor", "f", ("d", "d"), _FINITE),
    ("threshold_distance", "fiu", (), (lambda v, dims: 0 <= v < np.inf, "a finite value >= 0")),
    ("percentile_q", "fiu", (), (lambda v, dims: 0 < v < 100, "a value in (0, 100)")),
    ("center", "f", ("d",), _FINITE),
    ("training_inputs", "f", ("n", "d"), _FINITE),
)
_ONEHOT_FIELDS = (
    ("onehot_columns", "iu", ("k",), (
        lambda v, dims: ((0 <= v) & (v < dims["d"])).all() and np.unique(v).size == v.size,
        "distinct columns in [0, {d})")),
    ("onehot_sizes", "iu", ("g",), (lambda v, dims: (v >= 1).all() and v.sum() == dims["k"],
                                    "positive sizes that sum to {k}")),
    ("onehot_labels", "U", ("k",), None),
    ("onehot_levels", "f", ("k", 2), _FINITE),
)
_TABLES = {ENSEMBLE_FORMAT: {1: _ENSEMBLE_FIELDS,
                             2: _ENSEMBLE_FIELDS + (_MEMBER_SEEDS,) + _STACK_FIELDS,
                             3: _ENSEMBLE_FIELDS + _STACK_FIELDS},
           GATE_FORMAT: {1: _GATE_FIELDS, 2: _GATE_FIELDS + _ONEHOT_FIELDS}}


def _read(data, path, what, name) -> np.ndarray:
    """Field ``name`` of ``data``, else a ValueError naming ``path`` and the field."""
    if name not in data:
        raise ValueError(f"{path}: {what} field {name!r} is missing")
    try:
        return data[name]
    except (ValueError, zipfile.BadZipFile) as error:
        raise ValueError(f"{path}: {what} field {name!r} cannot be read ({error})") from None


@contextmanager
def _archive(path, expected_format):
    """The open archive in ``path`` and its version's field table, else a
    ValueError naming ``path``, a file name or an open binary file.  A named
    file is opened here, so that it is closed on every way out, also where
    ``np.load`` fails part way."""
    with nullcontext(path) if hasattr(path, "read") else open(path, "rb") as handle:
        try:
            data = np.load(handle, allow_pickle=False)
        except (EOFError, ValueError, zipfile.BadZipFile):
            data = None
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError(f"{path}: not a recognised model file (not an NPZ archive)")
        with data:
            for key in ("format", "version"):
                if key not in data:
                    raise ValueError(f"{path}: not a recognised model file (missing {key!r})")
            found, version = (_read(data, path, "header", key) for key in ("format", "version"))
            if str(found) != expected_format:
                raise ValueError(f"{path}: expected format {expected_format!r}, "
                                 f"found {str(found)!r}")
            if version.shape != () or version.dtype.kind not in "iu":
                raise ValueError(f"{path}: format version {version.tolist()!r} is not an integer")
            tables = _TABLES[expected_format]
            if int(version) not in tables:
                raise ValueError(f"{path}: unsupported format version {int(version)} "
                                 f"(supported: {', '.join(map(str, tables))})")
            yield data, tables[int(version)]


def _read_fields(data, path, what, table, dims) -> dict[str, np.ndarray]:
    """Each field of ``table`` read once from ``data`` and checked for its
    kind, its shape against ``dims`` (binding each dimension it is first
    to have) and its value rule; else a ValueError naming ``path`` and the
    first field that fails."""
    fields = {}
    for name, kinds, shape, rule in table:
        value = fields[name] = _read(data, path, what, name)

        def fail(found, expected):
            raise ValueError(f"{path}: {what} field {name!r} {found}, expected {expected}")
        if value.dtype.kind not in kinds:
            fail(f"has dtype {value.dtype}", _KINDS[kinds])
        expected = ", ".join(str(dims.get(dim, dim if isinstance(dim, int) else
                                          f"{dim} >= {_LEAST.get(dim, 1)}")) for dim in shape)
        if value.ndim != len(shape) or not all(
                size == (dim if isinstance(dim, int) else dims.setdefault(dim, size))
                and size >= _LEAST.get(dim, 1) for size, dim in zip(value.shape, shape)):
            fail(f"has shape {value.shape}", f"({expected})")
        if shape == () and kinds == "iu":   # a count binds a dimension of its own name
            dims[name] = int(value)
        if rule is not None and not rule[0](value, dims):
            fail(f"holds {np.array2string(value.ravel() if value.ndim else value, threshold=6)}",
                 rule[1].format(**dims))
    return fields


def save_ensemble(path, ensemble: EnsembleModel) -> None:
    # a seed is an arbitrary-precision int of either sign (derived seeds
    # use the full 64-bit range), so it travels as a decimal string, with
    # a leading "-" when negative; "none" marks an absent seed
    np.savez(
        path,
        format=ENSEMBLE_FORMAT,
        version=ENSEMBLE_FORMAT_VERSION,
        activation=ensemble.activation.value,
        trim_policy=ensemble.trim_policy.value,
        member_count=ensemble.member_count,
        seed=_seed_text(ensemble.seed),
        hidden_weights=ensemble.hidden_weights,
        hidden_biases=ensemble.hidden_biases,
        output_weights=ensemble.output_weights,
    )


def load_ensemble(path) -> EnsembleModel:
    """The ensemble in ``path``, at version 3, 2 or 1; a ValueError naming the
    file and the field if a field is missing, disagrees with the others in
    shape or breaks its value rule, if a version-1 file holds more member
    arrays than its member count, or if its trim policy needs more members
    than it holds."""
    dims = {}
    with _archive(path, ENSEMBLE_FORMAT) as (data, table):
        fields = _read_fields(data, path, "ensemble", table, dims)
        count = dims["member_count"]
        if "hidden_weights" not in fields:   # version 1: three arrays per member
            held = sum(k.startswith(("hidden_", "output_")) for k in data.files)
            if held > 3 * count:
                raise ValueError(f"{path}: ensemble field 'member_count' is {count}, but "
                                 f"the file holds {held} member arrays")
            _, *arrays = _read_fields(data, path, "ensemble", [
                _MEMBER_SEEDS,
                *((name.format(i), *row) for i in range(count) for name, *row in _MEMBER_FIELDS),
            ], dims).values()
            fields.update(hidden_weights=np.stack(arrays[0::3]),
                          hidden_biases=np.stack(arrays[1::3]),
                          output_weights=np.stack(arrays[2::3]))
    trim_policy = TrimPolicy(str(fields["trim_policy"]))
    if count < (least := trim_policy.least_members):
        raise ValueError(f"{path}: ensemble field 'trim_policy' is '{trim_policy.value}', "
                         f"which needs at least {least} members, but 'member_count' is {count}")
    return EnsembleModel(
        fields["hidden_weights"], fields["hidden_biases"], fields["output_weights"],
        Activation(str(fields["activation"])), trim_policy, _seed_value(fields["seed"]))


def save_gate(path, gate: Gate) -> None:
    groups = gate.onehot_groups
    np.savez(
        path,
        format=GATE_FORMAT,
        version=GATE_FORMAT_VERSION,
        mean=gate.mean,
        covariance=gate.covariance,
        covariance_inverse_factor=gate.covariance_inverse_factor,
        threshold_distance=gate.threshold_distance,
        percentile_q=gate.percentile_q,
        center=gate.center,
        training_inputs=gate.training_inputs,
        onehot_sizes=np.array([len(g.column_indices) for g in groups], dtype=np.int64),
        onehot_columns=np.array([c for g in groups for c in g.column_indices],
                                dtype=np.int64),
        onehot_labels=np.array([c for g in groups for c in g.category_labels], dtype=str),
        onehot_levels=np.array([v for g in groups for v in g.levels],
                               dtype=float).reshape(-1, 2),
    )


def load_gate(path) -> Gate:
    """The gate in ``path``, with no one-hot groups if the file is at
    version 1; a ValueError naming the file and the field if a field is
    missing, disagrees with the others in shape, or breaks its value rule."""
    with _archive(path, GATE_FORMAT) as (data, table):
        fields = _read_fields(data, path, "gate", table, {})
    ends = np.cumsum(fields.pop("onehot_sizes", ())).tolist()
    cols, labels, levels = (fields.pop(f"onehot_{n}", None)
                            for n in ("columns", "labels", "levels"))
    groups = tuple(OneHotGroup(tuple(cols[a:b].tolist()), tuple(labels[a:b].tolist()),
                               tuple(map(tuple, levels[a:b].tolist())))
                   for a, b in zip([0] + ends, ends))
    fields.update((n, float(fields[n])) for n in ("threshold_distance", "percentile_q"))
    return Gate(**fields, onehot_groups=groups)
