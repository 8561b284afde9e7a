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
    version = int(data["version"])
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


def load_ensemble(path) -> EnsembleModel:
    with np.load(path, allow_pickle=False) as data:
        _check_header(data, path, ENSEMBLE_FORMAT)
        activation = Activation(str(data["activation"]))
        trim = TrimPolicy(str(data["trim_policy"]))
        count = int(data["member_count"])
        seeds = data["member_seeds"]
        members = tuple(
            ElmModel(
                hidden_weights=data[f"hidden_weights_{i}"],
                hidden_biases=data[f"hidden_biases_{i}"],
                output_weights=data[f"output_weights_{i}"],
                activation=activation,
                seed=_seed_value(seeds[i]),
            )
            for i in range(count)
        )
        top_seed = _seed_value(data["seed"])
    return EnsembleModel(members=members, trim_policy=trim, seed=top_seed)


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
