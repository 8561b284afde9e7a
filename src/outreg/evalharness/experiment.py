"""Multi-trial evaluation protocol comparing three prediction schemes.

For one dataset the harness fits, per activation kind:

* ``lr``      a linear baseline (fit once; it is deterministic),
* ``nlr``     a fresh randomised-network ensemble per trial,
* ``nlr_or``  the same ensemble with gated outlier predictions replaced
              by the median-of-extrapolations fallback.

Each of the ``trials`` repetitions redraws only the ensemble's random
hidden layers; the data split, the normalisation, the gate and the
hidden-node count (chosen once by cross-validation) stay fixed.  Scores
are MAEn and rank correlation, computed in transformed-target space, on
three row subsets: all test rows, gated outliers, and the rest.  Subsets
smaller than ``min_subset_rows`` are reported as absent rather than
scored on noise.

Everything is derived deterministically from ``master_seed``; two runs
with the same config and dataset produce identical reports.  Trial and
CV seeds are keyed by the activation itself, so an activation's trials
and aggregates are the same whatever other activations share the run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..extrapolate import OrConfig, extrapolation_plan
from ..outlier_gate import at_percentile, classify, fit_gate
from ..preprocess import (TargetTransform, apply_minmax, clip_nonnegative,
                          fit_minmax, inverse_transform_target,
                          minmax_onehot_group, r_outl)
from ..regress import (Activation, CvConfig, default_node_grid, ensemble_predict,
                       ensemble_train, lr_fit, lr_predict, select_node_count)
from ..seeding import (STREAM_CV, STREAM_TRIAL, checked_bool, checked_enum, checked_float,
                       checked_int, checked_items, derive_seed)
from .dataset import Dataset
from .metrics import boxplot_rows, mad, maen_at_scale, spearman

MODELS = ("lr", "nlr", "nlr_or")
SUBSETS = ("all", "outliers", "non_outliers")
METRICS = ("maen", "spearman")
MODEL_PAIRS = (("nlr", "lr"), ("nlr_or", "nlr"), ("nlr_or", "lr"))


@dataclass(frozen=True)
class ExperimentConfig:
    activations: tuple[Activation, ...] = (Activation.SIGMOID,
                                           Activation.RADIAL_BASIS,
                                           Activation.SOFTPLUS)
    trials: int = 200
    members_per_trial: int = 100
    gate_percentiles: tuple[float, ...] = (99.0, 95.0)
    cv: CvConfig | None = None
    or_config: OrConfig = field(default_factory=OrConfig)
    master_seed: int = 0
    min_subset_rows: int = 5
    store_predictions: bool = False
    collect_extrapolation_records: bool = False

    def __post_init__(self):
        object.__setattr__(self, "activations", checked_items(
            self.activations, "activations",
            lambda a, name: checked_enum(a, name, Activation)))
        if not self.activations:
            raise ValueError("at least one activation is required")
        # numpy scalars are held as Python values, so the report echoes them as JSON
        object.__setattr__(self, "trials", checked_int(self.trials, "trials", 1))
        object.__setattr__(self, "members_per_trial",
                           checked_int(self.members_per_trial, "members_per_trial", 1))
        if len(set(self.activations)) < len(self.activations):
            raise ValueError(f"activations must not repeat, got "
                             f"{[a.value for a in self.activations]}")
        object.__setattr__(self, "gate_percentiles", checked_items(
            self.gate_percentiles, "gate_percentiles", checked_float))
        if not self.gate_percentiles:
            raise ValueError("at least one gate percentile is required")
        if len(set(self.gate_percentiles)) < len(self.gate_percentiles):
            raise ValueError(f"gate percentiles must not repeat, got "
                             f"{list(self.gate_percentiles)}")
        for q in self.gate_percentiles:
            if not 0.0 < q < 100.0:
                raise ValueError(f"gate percentiles must be in (0, 100), got {q}")
        object.__setattr__(self, "master_seed", checked_int(self.master_seed, "master_seed"))
        object.__setattr__(self, "min_subset_rows",
                           checked_int(self.min_subset_rows, "min_subset_rows", 2))
        for key in ("store_predictions", "collect_extrapolation_records"):
            object.__setattr__(self, key, checked_bool(getattr(self, key), key))
        if not isinstance(self.cv, (CvConfig, type(None))):
            raise ValueError(f"cv must be a CvConfig or None, got {self.cv!r}")
        if not isinstance(self.or_config, OrConfig):
            raise ValueError(f"or_config must be an OrConfig, got {self.or_config!r}")


@dataclass(frozen=True)
class TrialReport:
    activation: str
    trial_index: int
    trial_seed: int
    node_count: int
    # percentile key -> count of gated outlier rows
    outlier_counts: dict
    # percentile key -> model -> subset -> metric -> float | None
    scores: dict
    predictions: dict | None = None


@dataclass(frozen=True)
class ExperimentResult:
    dataset_summary: dict
    config_summary: dict
    node_counts: dict
    cv_scores: dict
    trials: tuple[TrialReport, ...]
    aggregates: dict
    difference_aggregates: dict
    extrapolation_records: tuple[dict, ...] = ()


def _subset_metrics(prepared, pred, rows):
    if rows.size < prepared.config.min_subset_rows:
        return {"maen": None, "spearman": None}
    p = pred[rows]
    o = prepared.dataset.test_target[rows]
    # every subset is scored against the full test target's MAD
    scale = prepared.dataset_summary["mad_reference"]
    maen_value = None if scale == 0.0 else maen_at_scale(p, o, scale)
    try:
        spearman_value = spearman(p, o)
    except ValueError:
        spearman_value = None
    return {"maen": maen_value, "spearman": spearman_value}


def _aggregate_cells(trials, percentile_keys):
    """Boxplot summary across one activation's trials for every score cell.

    Each cell is a row of one (cells, trials) matrix, NaN where a score is
    null, and the cells that keep the same trials share a ``boxplot_rows``
    call."""
    keys = list(itertools.product(percentile_keys, SUBSETS, METRICS))
    # a null score converts to NaN
    scores = {model: np.array([[t.scores[qk][model][subset][metric] for t in trials]
                               for qk, subset, metric in keys], dtype=float)
              for model in MODELS}
    # a difference pairs the two models' scores of the same trial
    for hi, lo in MODEL_PAIRS:
        scores[f"{hi}_minus_{lo}"] = scores[hi] - scores[lo]
    V = np.stack(list(scores.values()), axis=1).reshape(-1, len(trials))
    masks, group = np.unique(~np.isnan(V), axis=0, return_inverse=True)
    cells = [None] * len(V)
    for g, mask in enumerate(masks):
        rows = np.flatnonzero(group.ravel() == g)
        if mask.any():
            for r, cell in zip(rows, boxplot_rows(V[rows][:, mask])):
                cells[r] = cell
    aggregates: dict = {}
    differences: dict = {}
    for ((qk, subset, metric), name), cell in zip(itertools.product(keys, scores), cells):
        ((aggregates if name in MODELS else differences)
         .setdefault(qk, {}).setdefault(name, {}).setdefault(subset, {}))[metric] = cell
    return aggregates, differences


@dataclass(frozen=True)
class _Prepared:
    """What stays fixed across a run's trials.  Each (activation, trial)
    unit reads only this, and it pickles, so a unit can run elsewhere."""

    config: ExperimentConfig
    dataset: Dataset
    Ztr: np.ndarray
    Zte: np.ndarray
    # percentile key -> subset -> test row indices
    subsets: dict
    # gated test row -> its fallback's anchors and secants, which depend
    # on the gate and the row alone
    plans: dict
    lr_pred: np.ndarray
    dataset_summary: dict


def _prepare(dataset: Dataset, config: ExperimentConfig) -> _Prepared:
    scaler = fit_minmax(dataset.train_inputs)
    Ztr = apply_minmax(scaler, dataset.train_inputs)
    Zte = apply_minmax(scaler, dataset.test_inputs)

    constant_cols = tuple(int(c) for c in np.flatnonzero(scaler.constant_columns))
    excluded = tuple(sorted(set(dataset.indicator_columns) | set(constant_cols)))

    # one fit and one partition at the lowest percentile serve them all: a
    # higher percentile's outliers are those above its threshold, since the
    # neighbour test does not depend on the threshold.  The gate sees scaled
    # rows, so the one-hot groups' levels go through the scaler too
    gate = fit_gate(Ztr, min(config.gate_percentiles),
                    tuple(minmax_onehot_group(scaler, g) for g in dataset.onehot_groups))
    part = classify(gate, Zte)
    far = part.distances[part.outlier_indices]
    all_rows = np.arange(Zte.shape[0])
    subsets = {}
    for q in config.gate_percentiles:
        outliers = part.outlier_indices[far > at_percentile(gate, q).threshold_distance]
        subsets[repr(float(q))] = {"all": all_rows, "outliers": outliers,
                                   "non_outliers": np.setdiff1d(all_rows, outliers)}

    # one plan per gated row serves the row at every percentile
    plans = {i: extrapolation_plan(gate, Zte[i], config.or_config, nn_index=nn)
             for i, nn in zip(part.outlier_indices, part.nearest_indices)}
    lr_pred = lr_predict(lr_fit(Ztr, dataset.train_target), Zte)
    dataset_summary = {
        "name": dataset.name,
        "n_train": int(Ztr.shape[0]),
        "n_test": int(Zte.shape[0]),
        "n_features": int(Ztr.shape[1]),
        "dropped_rows": int(dataset.dropped_rows),
        "target_transform": dataset.target_transform.value,
        "clip_negative_predictions": bool(dataset.clip_negative_predictions),
        "r_outl": r_outl(Zte, exclude_columns=excluded),
        "r_outl_excluded_columns": list(excluded),
        "outlier_counts": {qk: int(rows["outliers"].size)
                           for qk, rows in subsets.items()},
        "mad_reference": mad(dataset.test_target),
    }
    return _Prepared(config, dataset, Ztr, Zte, subsets, plans, lr_pred, dataset_summary)


def _seed_key(activation: Activation) -> int:
    """The path element that keys an activation's seeds: its position in
    ``Activation``, so its numbers do not depend on the other activations
    of a run or on their order."""
    return list(Activation).index(activation)


def _run_unit(prepared: _Prepared, activation: Activation, node_count: int, t: int):
    """Trial ``t`` of ``activation``: its TrialReport and its fallback
    records, a pure function of the arguments."""
    config = prepared.config
    dataset = prepared.dataset
    trial_seed = derive_seed(config.master_seed, STREAM_TRIAL, _seed_key(activation), t)
    ensemble = ensemble_train(prepared.Ztr, dataset.train_target[:, None], node_count,
                              activation, member_count=config.members_per_trial,
                              seed=trial_seed)
    nlr_pred = ensemble_predict(ensemble, prepared.Zte)[:, 0]
    fallback = {i: plan.record(ensemble_predict(ensemble, plan.anchors)[:, 0])
                for i, plan in prepared.plans.items()}
    # each prediction is floored at zero once, in transformed space, and is
    # scored and stored as floored; exp, 10**v and v**4 are never negative
    clip = (dataset.clip_negative_predictions
            and dataset.target_transform is TargetTransform.NONE)
    floor = clip_nonnegative if clip else (lambda pred: pred)
    preds = {"lr": floor(prepared.lr_pred), "nlr": floor(nlr_pred)}
    trial_scores = {}
    records = []
    for qk, rows_by_subset in prepared.subsets.items():
        nlror_pred = nlr_pred.copy()
        for i in rows_by_subset["outliers"]:
            record = fallback[i]
            nlror_pred[i] = record.value
            if config.collect_extrapolation_records:
                records.append({
                    "activation": activation.value,
                    "trial": t,
                    "percentile": qk,
                    "row": int(i),
                    "value": record.value,
                    "candidates": [list(c) for c in record.candidates],
                    "dropped": [list(d) for d in record.dropped],
                    "nn_index": record.nn_index,
                })
        preds[f"nlr_or@{qk}"] = nlror_pred = floor(nlror_pred)
        by_model = {"lr": preds["lr"], "nlr": preds["nlr"], "nlr_or": nlror_pred}
        trial_scores[qk] = {model: {subset: _subset_metrics(prepared, pred, rows)
                                    for subset, rows in rows_by_subset.items()}
                            for model, pred in by_model.items()}
    predictions = None
    if config.store_predictions:
        # stored for inspection in original target units
        predictions = {}
        for key, values in preds.items():
            original = inverse_transform_target(values, dataset.target_transform)
            predictions[key] = [float(v) for v in original]
    return TrialReport(
        activation=activation.value,
        trial_index=t,
        trial_seed=trial_seed,
        node_count=int(node_count),
        outlier_counts=dict(prepared.dataset_summary["outlier_counts"]),
        scores=trial_scores,
        predictions=predictions,
    ), records


def _cv_config(config: ExperimentConfig, n_train: int, activation: Activation) -> CvConfig:
    """``activation``'s CV.  Every activation shares its folds and
    candidates; only the default seed differs."""
    return config.cv or CvConfig(
        candidate_node_counts=default_node_grid(n_train),
        seed=derive_seed(config.master_seed, STREAM_CV, _seed_key(activation)))


def run_experiment(dataset: Dataset, config: ExperimentConfig) -> ExperimentResult:
    """Run the full protocol on one dataset.  See the module docstring."""
    prepared = _prepare(dataset, config)
    node_counts = {}
    cv_scores = {}
    trials: list[TrialReport] = []
    records: list[dict] = []
    cells = {}
    for activation in config.activations:
        node_count, scores_by_l = select_node_count(
            prepared.Ztr, dataset.train_target[:, None], activation,
            _cv_config(config, len(prepared.Ztr), activation))
        node_counts[activation.value] = int(node_count)
        cv_scores[activation.value] = {str(k): v for k, v in sorted(scores_by_l.items())}
        reports, unit_records = zip(*(_run_unit(prepared, activation, node_count, t)
                                      for t in range(config.trials)))
        cells[activation.value] = _aggregate_cells(reports, prepared.subsets)
        trials.extend(reports)
        records.extend(r for rs in unit_records for r in rs)

    cv = _cv_config(config, len(prepared.Ztr), config.activations[0])
    config_summary = {
        "activations": [a.value for a in config.activations],
        "trials": config.trials,
        "members_per_trial": config.members_per_trial,
        "gate_percentiles": [float(q) for q in config.gate_percentiles],
        "master_seed": config.master_seed,
        "min_subset_rows": config.min_subset_rows,
        "delta1_values": [float(d) for d in config.or_config.delta1_values],
        "delta2_values": [float(d) for d in config.or_config.delta2_values],
        "include_raw_nlr": config.or_config.include_raw_nlr,
        "cv_folds": cv.folds,
        "cv_candidates": list(cv.candidate_node_counts),
    }
    return ExperimentResult(
        dataset_summary=prepared.dataset_summary,
        config_summary=config_summary,
        node_counts=node_counts,
        cv_scores=cv_scores,
        trials=tuple(trials),
        aggregates={a: agg for a, (agg, _) in cells.items()},
        difference_aggregates={a: diff for a, (_, diff) in cells.items()},
        extrapolation_records=tuple(records),
    )
