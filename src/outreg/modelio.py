"""Save/load for trained ensembles and fitted gates.

Uses numpy's npz container with a small versioned header so old files
fail loudly instead of deserialising into garbage.  All arrays round-trip
at full float64 precision, so reloaded models predict bit-identically.

A gate file of version 2 also holds the gate's one-hot groups as four
flat arrays, with no pickled object: each group's column count
(``onehot_sizes``), then all groups' columns, category labels and
(absent, present) levels one after another.  A version-1 file loads as
a gate with no groups.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .outlier_gate import Gate
from .preprocess import OneHotGroup
from .regress import Activation, ElmModel, EnsembleModel, TrimPolicy

ENSEMBLE_FORMAT = "outreg-ensemble"
GATE_FORMAT = "outreg-gate"
ENSEMBLE_FORMAT_VERSION = 1
GATE_FORMAT_VERSION = 2


def _seed_text(seed) -> str:
    return "none" if seed is None else str(int(seed))


def _seed_value(text) -> int | None:
    value = str(text)
    return None if value == "none" else int(value)


def _check_header(data, path, expected_format, supported=(ENSEMBLE_FORMAT_VERSION,)) -> int:
    for key in ("format", "version"):
        if key not in data:
            raise ValueError(f"{path}: not a recognised model file (missing {key!r})")
    found = str(data["format"])
    if found != expected_format:
        raise ValueError(f"{path}: expected format {expected_format!r}, found {found!r}")
    try:
        version = int(data["version"])
    except (TypeError, ValueError):
        raise ValueError(f"{path}: format version {data['version'].tolist()!r} "
                         "is not an integer") from None
    if version not in supported:
        raise ValueError(f"{path}: unsupported format version {version} "
                         f"(supported: {', '.join(map(str, supported))})")
    return version


def save_ensemble(path, ensemble: EnsembleModel) -> None:
    # seeds are arbitrary-precision non-negative ints (derived seeds use the
    # full 64-bit range), so they travel as decimal strings; "none" marks an
    # absent seed
    payload = {
        "format": ENSEMBLE_FORMAT,
        "version": ENSEMBLE_FORMAT_VERSION,
        "activation": ensemble.activation.value,
        "trim_policy": ensemble.trim_policy.value,
        "member_count": len(ensemble.members),
        "seed": _seed_text(ensemble.seed),
        "member_seeds": np.asarray(
            [_seed_text(m.seed) for m in ensemble.members]
        ),
    }
    for i, m in enumerate(ensemble.members):
        payload[f"hidden_weights_{i}"] = m.hidden_weights
        payload[f"hidden_biases_{i}"] = m.hidden_biases
        payload[f"output_weights_{i}"] = m.output_weights
    np.savez(path, **payload)


def _ensemble_field(data, path, name):
    if name not in data:
        raise ValueError(f"{path}: ensemble field {name!r} is missing")
    return data[name]


def _member_seed(text, path, name) -> int | None:
    """A seed written by ``_seed_text``, else a ValueError naming the field."""
    try:
        return _seed_value(text)
    except ValueError:
        raise ValueError(f"{path}: ensemble field {name!r} holds {text!r}, "
                         "expected a decimal seed or 'none'") from None


def _member_shape(data, path) -> tuple[int, ...]:
    """(L, d, m) as member 0's weights give them: hidden (L, d), output (., m)."""
    shape = ()
    for name, axes in (("hidden_weights_0", slice(0, 2)), ("output_weights_0", slice(1, 2))):
        value = _ensemble_field(data, path, name)
        if value.ndim != 2 or 0 in value.shape:
            raise ValueError(f"{path}: ensemble field {name!r} has shape {value.shape}, "
                             "expected a 2-D array with no empty axis")
        shape += value.shape[axes]
    return shape


def _member_arrays(data, path, i: int, shape) -> list[np.ndarray]:
    """Member i's (W, b, B) if they have the (L, d), (L,) and (L, m) of
    ``shape`` and hold finite floats, else a ValueError naming the field."""
    L, d, m = shape
    arrays = []
    for stem, expected in (("hidden_weights", (L, d)), ("hidden_biases", (L,)),
                           ("output_weights", (L, m))):
        name = f"{stem}_{i}"
        value = _ensemble_field(data, path, name)
        if value.shape != expected:
            raise ValueError(f"{path}: ensemble field {name!r} has shape {value.shape}, "
                             f"expected {expected}")
        if value.dtype.kind != "f" or not np.isfinite(value).all():
            raise ValueError(f"{path}: ensemble field {name!r} holds values that are "
                             f"not finite floats (dtype {value.dtype})")
        arrays.append(value)
    return arrays


def load_ensemble(path) -> EnsembleModel:
    """The ensemble in ``path``; a ValueError naming the file and the field
    if a field is missing or disagrees with the others in shape, or an
    array holds anything but finite floats."""
    with np.load(path, allow_pickle=False) as data:
        _check_header(data, path, ENSEMBLE_FORMAT)
        kinds = {}
        for name, kind in (("activation", Activation), ("trim_policy", TrimPolicy)):
            text = str(_ensemble_field(data, path, name))
            try:
                kinds[name] = kind(text)
            except ValueError:
                raise ValueError(
                    f"{path}: ensemble field {name!r} is {text!r}, expected one of "
                    f"{', '.join(repr(k.value) for k in kind)}") from None
        count = _ensemble_field(data, path, "member_count")
        if count.shape != () or count.dtype.kind not in "iu" or count < 1:
            raise ValueError(f"{path}: ensemble field 'member_count' is {count.tolist()!r}, "
                             "expected a positive integer")
        count = int(count)
        stems = ("hidden_weights", "hidden_biases", "output_weights")
        expected = {f"{stem}_{i}" for stem in stems for i in range(count)}
        extra = sorted(k for k in data.files if k.startswith(stems) and k not in expected)
        if extra:
            raise ValueError(f"{path}: ensemble field 'member_count' is {count}, but the "
                             f"file also holds {extra[0]!r}")
        if kinds["trim_policy"] is TrimPolicy.DROP_MIN_MAX and count < 3:
            raise ValueError(f"{path}: ensemble field 'trim_policy' is 'drop-min-max', "
                             f"which needs at least 3 members, but 'member_count' is {count}")
        seeds = _ensemble_field(data, path, "member_seeds")
        if seeds.shape != (count,) or seeds.dtype.kind != "U":
            raise ValueError(f"{path}: ensemble field 'member_seeds' has shape {seeds.shape} "
                             f"and dtype {seeds.dtype}, expected {count} strings")
        top_seed = _member_seed(str(_ensemble_field(data, path, "seed")), path, "seed")
        shape = _member_shape(data, path)
        members = []
        for i in range(count):
            W, b, B = _member_arrays(data, path, i, shape)
            members.append(ElmModel(
                hidden_weights=W, hidden_biases=b, output_weights=B,
                activation=kinds["activation"],
                seed=_member_seed(str(seeds[i]), path, "member_seeds")))
    return EnsembleModel(members=tuple(members), trim_policy=kinds["trim_policy"],
                         seed=top_seed)


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


def _check_gate(gate: Gate, path) -> Gate:
    """``gate`` if its fields agree in shape and hold finite values, else a
    ValueError naming ``path`` and the first field that does not."""
    d = gate.mean.shape[0] if gate.mean.ndim == 1 and gate.mean.size else 1
    n = max(2, gate.training_inputs.shape[0] if gate.training_inputs.ndim == 2 else 0)
    for name, shape, expected in (
            ("mean", (d,), "(d,) with d >= 1"), ("covariance", (d, d), f"({d}, {d})"),
            ("covariance_inverse_factor", (d, d), f"({d}, {d})"), ("center", (d,), f"({d},)"),
            ("training_inputs", (n, d), f"(n >= 2, {d})")):
        value = getattr(gate, name)
        if value.shape != shape:
            raise ValueError(f"{path}: gate field {name!r} has shape {value.shape}, "
                             f"expected {expected}")
        if value.dtype.kind != "f" or not np.isfinite(value).all():
            raise ValueError(f"{path}: gate field {name!r} holds values that are not "
                             f"finite floats (dtype {value.dtype})")
    if not np.isfinite(gate.threshold_distance):
        raise ValueError(f"{path}: gate field 'threshold_distance' is "
                         f"{gate.threshold_distance}, expected a finite value")
    if not 0.0 < gate.percentile_q < 100.0:
        raise ValueError(f"{path}: gate field 'percentile_q' is {gate.percentile_q}, "
                         "expected a value in (0, 100)")
    return gate


def _onehot_groups(data, path, d: int) -> tuple[OneHotGroup, ...]:
    """A version-2 file's one-hot groups, else a ValueError naming ``path``
    and the first array that does not fit the gate's ``d`` inputs."""
    cols, sizes, labels, levels = (data.get(f"onehot_{name}") for name in
                                   ("columns", "sizes", "labels", "levels"))
    k = cols.size if cols is not None else 0
    for name, value, fits, expected in (
            ("columns", cols, lambda v: v.ndim == 1 and v.dtype.kind in "iu"
             and ((0 <= v) & (v < d)).all() and np.unique(v).size == v.size,
             f"distinct integers in [0, {d})"),
            ("sizes", sizes, lambda v: v.ndim == 1 and v.dtype.kind in "iu"
             and (v >= 1).all() and v.sum() == k, f"positive integers summing to {k}"),
            ("labels", labels, lambda v: v.shape == (k,) and v.dtype.kind == "U",
             f"{k} strings"),
            ("levels", levels, lambda v: v.shape == (k, 2) and v.dtype.kind == "f"
             and np.isfinite(v).all(), f"finite floats of shape ({k}, 2)")):
        if value is None or not fits(value):
            raise ValueError(f"{path}: gate field 'onehot_{name}' is "
                             f"{'missing' if value is None else value.tolist()}, "
                             f"expected {expected}")
    ends = np.cumsum(sizes).tolist()
    return tuple(OneHotGroup(column_indices=tuple(cols[a:b].tolist()),
                             category_labels=tuple(labels[a:b].tolist()),
                             levels=tuple(map(tuple, levels[a:b].tolist())))
                 for a, b in zip([0] + ends, ends))


def load_gate(path) -> Gate:
    with np.load(path, allow_pickle=False) as data:
        version = _check_header(data, path, GATE_FORMAT, (1, GATE_FORMAT_VERSION))
        for name in ("mean", "covariance", "covariance_inverse_factor", "threshold_distance",
                     "percentile_q", "center", "training_inputs"):
            if name not in data:
                raise ValueError(f"{path}: gate field {name!r} is missing")
        for name in ("threshold_distance", "percentile_q"):
            if data[name].shape != () or data[name].dtype.kind not in "fiu":
                raise ValueError(f"{path}: gate field {name!r} is {data[name].tolist()!r}, "
                                 "expected a number")
        gate = _check_gate(Gate(
            mean=data["mean"],
            covariance=data["covariance"],
            covariance_inverse_factor=data["covariance_inverse_factor"],
            threshold_distance=float(data["threshold_distance"]),
            percentile_q=float(data["percentile_q"]),
            center=data["center"],
            training_inputs=data["training_inputs"],
        ), path)
        if version == 1:
            return gate
        return replace(gate, onehot_groups=_onehot_groups(data, path, gate.mean.size))
