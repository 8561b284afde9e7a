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
with the same config and dataset produce identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..extrapolate import OrConfig, nlror_predict_detailed
from ..outlier_gate import classify, fit_gate
from ..preprocess import (TargetTransform, apply_minmax, clip_nonnegative,
                          fit_minmax, inverse_transform_target,
                          minmax_onehot_group, r_outl)
from ..regress import (Activation, CvConfig, default_node_grid, ensemble_predict,
                       ensemble_train, lr_fit, lr_predict, select_node_count)
from ..seeding import STREAM_CV, STREAM_TRIAL, derive_seed
from .dataset import Dataset
from .metrics import boxplot_stats, mad, maen, spearman

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
        if not self.activations:
            raise ValueError("at least one activation is required")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.members_per_trial < 1:
            raise ValueError(
                f"members_per_trial must be at least 1, got {self.members_per_trial}"
            )
        if not self.gate_percentiles:
            raise ValueError("at least one gate percentile is required")
        for q in self.gate_percentiles:
            if not 0.0 < q < 100.0:
                raise ValueError(f"gate percentiles must be in (0, 100), got {q}")
        if self.min_subset_rows < 2:
            raise ValueError(
                f"min_subset_rows must be at least 2, got {self.min_subset_rows}"
            )


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


def _qkey(q: float) -> str:
    return repr(float(q))


def _subset_metrics(pred, obs, rows, mad_scale, min_rows):
    if rows.size < min_rows:
        return {"maen": None, "spearman": None}
    p = pred[rows]
    o = obs[rows]
    # obs is the full test target, the MAD reference of every subset
    maen_value = None if mad_scale == 0.0 else maen(p, o, obs)
    try:
        spearman_value = spearman(p, o)
    except ValueError:
        spearman_value = None
    return {"maen": maen_value, "spearman": spearman_value}


def _score_models(preds: dict, obs, subset_rows: dict, mad_scale, min_rows):
    return {
        model: {
            subset: _subset_metrics(pred, obs, rows, mad_scale, min_rows)
            for subset, rows in subset_rows.items()
        }
        for model, pred in preds.items()
    }


def _boxplot_dict(values: np.ndarray) -> dict:
    stats = boxplot_stats(values)
    return {
        "median": stats.median,
        "q25": stats.q25,
        "q75": stats.q75,
        "whisker_low": stats.whisker_low,
        "whisker_high": stats.whisker_high,
        "outside_points": list(stats.outside_points),
        "mean": float(np.mean(values)),
        "n": int(values.size),
    }


def _aggregate_cells(trials, percentile_keys):
    """Boxplot summary across trials for every score cell, per activation."""
    aggregates: dict = {}
    differences: dict = {}
    activations = sorted({t.activation for t in trials})
    for activation in activations:
        rows = [t for t in trials if t.activation == activation]
        agg_a: dict = {}
        diff_a: dict = {}
        for qk in percentile_keys:
            agg_q: dict = {}
            diff_q: dict = {}
            for subset in SUBSETS:
                for metric in METRICS:
                    per_model = {}
                    for model in MODELS:
                        values = [t.scores[qk][model][subset][metric] for t in rows]
                        kept = np.asarray([v for v in values if v is not None])
                        per_model[model] = kept
                        cell = (agg_q.setdefault(model, {})
                                .setdefault(subset, {}))
                        cell[metric] = (_boxplot_dict(kept) if kept.size
                                        else None)
                    for hi, lo in MODEL_PAIRS:
                        a, b = per_model[hi], per_model[lo]
                        name = f"{hi}_minus_{lo}"
                        cell = (diff_q.setdefault(name, {})
                                .setdefault(subset, {}))
                        cell[metric] = (_boxplot_dict(a - b)
                                        if a.size and a.size == b.size else None)
            agg_a[qk] = agg_q
            diff_a[qk] = diff_q
        aggregates[activation] = agg_a
        differences[activation] = diff_a
    return aggregates, differences


def run_experiment(dataset: Dataset, config: ExperimentConfig) -> ExperimentResult:
    """Run the full protocol on one dataset.  See the module docstring."""
    scaler = fit_minmax(dataset.train_inputs)
    Ztr = apply_minmax(scaler, dataset.train_inputs)
    Zte = apply_minmax(scaler, dataset.test_inputs)
    ytr = dataset.train_target
    yte = dataset.test_target

    constant_cols = tuple(int(c) for c in np.flatnonzero(scaler.constant_columns))
    excluded = tuple(sorted(set(dataset.indicator_columns) | set(constant_cols)))
    severity = r_outl(Zte, exclude_columns=excluded)

    partitions = {}
    outlier_counts = {}
    for q in config.gate_percentiles:
        gate = fit_gate(Ztr, q)
        part = classify(gate, Zte)
        partitions[_qkey(q)] = part
        outlier_counts[_qkey(q)] = int(part.outlier_indices.size)
    percentile_keys = [_qkey(q) for q in config.gate_percentiles]
    # the fallback reads only the training rows and centre, which every
    # percentile's gate shares, so the last gate serves them all and each
    # gated row is replaced once per trial
    gated_rows = np.unique(np.concatenate(
        [part.outlier_indices for part in partitions.values()]))

    # the fallback needs indicator-aware geometry whenever the dataset has
    # one-hot blocks; wire them in unless the caller configured their own.
    # It sees scaled rows, so the groups' levels go through the scaler too
    groups = config.or_config.categorical_groups or dataset.onehot_groups
    or_config = replace(config.or_config, categorical_groups=tuple(
        minmax_onehot_group(scaler, g) for g in groups))

    mad_scale = mad(yte)
    clip_in_scoring_space = (dataset.clip_negative_predictions
                             and dataset.target_transform is TargetTransform.NONE)

    linear = lr_fit(Ztr, ytr)
    lr_pred = lr_predict(linear, Zte)
    if clip_in_scoring_space:
        lr_pred = clip_nonnegative(lr_pred)

    node_counts = {}
    cv_scores = {}
    trials: list[TrialReport] = []
    records: list[dict] = []
    for ai, activation in enumerate(config.activations):
        cv = config.cv or CvConfig(
            candidate_node_counts=default_node_grid(Ztr.shape[0]),
            seed=derive_seed(config.master_seed, STREAM_CV, ai))
        node_count, scores_by_l = select_node_count(Ztr, ytr[:, None], activation, cv)
        node_counts[activation.value] = int(node_count)
        cv_scores[activation.value] = {str(k): v for k, v in sorted(scores_by_l.items())}

        for t in range(config.trials):
            trial_seed = derive_seed(config.master_seed, STREAM_TRIAL, ai, t)
            ensemble = ensemble_train(Ztr, ytr[:, None], node_count, activation,
                                      member_count=config.members_per_trial,
                                      seed=trial_seed)
            nlr_pred = ensemble_predict(ensemble, Zte)[:, 0]
            if clip_in_scoring_space:
                nlr_pred = clip_nonnegative(nlr_pred)

            def surface(points: np.ndarray) -> np.ndarray:
                return ensemble_predict(ensemble, points)[:, 0]

            fallback = {i: nlror_predict_detailed(surface, gate, Zte[i], or_config)
                        for i in gated_rows}
            trial_scores = {}
            trial_preds = {"lr": lr_pred, "nlr": nlr_pred} \
                if config.store_predictions else None
            for qk in percentile_keys:
                part = partitions[qk]
                nlror_pred = nlr_pred.copy()
                for i in part.outlier_indices:
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
                if clip_in_scoring_space:
                    nlror_pred = clip_nonnegative(nlror_pred)
                subset_rows = {
                    "all": np.arange(Zte.shape[0]),
                    "outliers": part.outlier_indices,
                    "non_outliers": part.non_outlier_indices,
                }
                trial_scores[qk] = _score_models(
                    {"lr": lr_pred, "nlr": nlr_pred, "nlr_or": nlror_pred},
                    yte, subset_rows, mad_scale, config.min_subset_rows,
                )
                if trial_preds is not None:
                    trial_preds[f"nlr_or@{qk}"] = nlror_pred
            predictions = None
            if trial_preds is not None:
                # stored for inspection in original target units
                predictions = {}
                for key, values in trial_preds.items():
                    original = inverse_transform_target(values, dataset.target_transform)
                    if dataset.clip_negative_predictions:
                        original = clip_nonnegative(original)
                    predictions[key] = [float(v) for v in original]
            trials.append(TrialReport(
                activation=activation.value,
                trial_index=t,
                trial_seed=trial_seed,
                node_count=int(node_count),
                outlier_counts=dict(outlier_counts),
                scores=trial_scores,
                predictions=predictions,
            ))

    aggregates, differences = _aggregate_cells(trials, percentile_keys)
    dataset_summary = {
        "name": dataset.name,
        "n_train": int(Ztr.shape[0]),
        "n_test": int(Zte.shape[0]),
        "n_features": int(Ztr.shape[1]),
        "dropped_rows": int(dataset.dropped_rows),
        "target_transform": dataset.target_transform.value,
        "clip_negative_predictions": bool(dataset.clip_negative_predictions),
        "r_outl": severity,
        "r_outl_excluded_columns": list(excluded),
        "outlier_counts": outlier_counts,
        "mad_reference": mad_scale,
    }
    config_summary = {
        "activations": [a.value for a in config.activations],
        "trials": config.trials,
        "members_per_trial": config.members_per_trial,
        "gate_percentiles": [float(q) for q in config.gate_percentiles],
        "master_seed": config.master_seed,
        "min_subset_rows": config.min_subset_rows,
        "delta1_values": [float(d) for d in or_config.delta1_values],
        "delta2_values": [float(d) for d in or_config.delta2_values],
        "include_raw_nlr": or_config.include_raw_nlr,
        # every activation's CV shares its folds and candidates; only the
        # default seed differs
        "cv_folds": cv.folds,
        "cv_candidates": list(cv.candidate_node_counts),
    }
    return ExperimentResult(
        dataset_summary=dataset_summary,
        config_summary=config_summary,
        node_counts=node_counts,
        cv_scores=cv_scores,
        trials=tuple(trials),
        aggregates=aggregates,
        difference_aggregates=differences,
        extrapolation_records=tuple(records),
    )
