"""Deterministic report emission.

Reports deliberately carry no timestamps, hostnames or other run-local
noise: two runs with the same dataset, config and master seed must emit
byte-identical files.  JSON is the primary format (sorted keys, fixed
indentation, float repr round-trips exactly); the CSV form is a long
table with one row per (trial, activation, percentile, model, subset,
metric) for spreadsheet work.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import statistics
from pathlib import Path

from .dataset import _read_json, _typed
from .experiment import METRICS, MODELS, SUBSETS, ExperimentResult

SCHEMA_VERSION = 1
REPORT_KIND = "outreg-report"
SUMMARY_KIND = "outreg-summary"


def result_to_dict(result: ExperimentResult) -> dict:
    doc = {
        "kind": REPORT_KIND,
        "schema_version": SCHEMA_VERSION,
        "dataset": result.dataset_summary,
        "config": result.config_summary,
        "node_counts": result.node_counts,
        "cv_scores": result.cv_scores,
        "trials": [
            {key: value for key, value in dataclasses.asdict(t).items()
             if key != "predictions" or value}
            for t in result.trials
        ],
        "aggregates": result.aggregates,
        "difference_aggregates": result.difference_aggregates,
    }
    if result.extrapolation_records:
        doc["extrapolation_records"] = list(result.extrapolation_records)
    return doc


def render_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def render_trials_csv(result: ExperimentResult) -> str:
    lines = ["trial,activation,percentile,model,subset,metric,value"]
    for t in result.trials:
        for qk in sorted(t.scores):
            for model in MODELS:
                for subset in SUBSETS:
                    for metric in METRICS:
                        value = t.scores[qk][model][subset][metric]
                        text = "" if value is None else repr(float(value))
                        lines.append(
                            f"{t.trial_index},{t.activation},{qk},"
                            f"{model},{subset},{metric},{text}"
                        )
    return "\n".join(lines) + "\n"


def emit_report(result: ExperimentResult, out_dir, fmt: str = "json") -> list[Path]:
    """Write the report files and return their paths.

    ``fmt`` is "json", "csv" or "both".
    """
    if fmt not in ("json", "csv", "both"):
        raise ValueError(f"format must be json, csv or both, got {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if fmt in ("json", "both"):
        path = out / "report.json"
        path.write_text(render_json(result_to_dict(result)))
        written.append(path)
    if fmt in ("csv", "both"):
        path = out / "trials.csv"
        path.write_text(render_trials_csv(result))
        written.append(path)
    return written


def load_report(path) -> dict:
    doc = _read_json(path)
    if not isinstance(doc, dict) or doc.get("kind") != REPORT_KIND:
        raise ValueError(f"{path}: not a report file")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported schema_version {doc.get('schema_version')}"
        )
    dataset = _typed(doc.get("dataset"), "an object", f"{path}: dataset")
    _typed(dataset.get("name"), "a string", f"{path}: dataset.name")
    _score_medians(doc, path)  # checks every score cell
    return doc


def _score_medians(doc: dict, source) -> dict:
    """(activation, percentile, model, subset, metric) -> median of each
    non-null aggregate cell of report ``doc``, every level checked to be
    JSON of its kind; errors name ``source`` and the key path."""
    medians = {}
    aggregates = _typed(doc.get("aggregates"), "an object", f"{source}: aggregates")
    for activation, by_q in aggregates.items():
        where = f"{source}: aggregates.{activation}"
        for qk, by_model in _typed(by_q, "an object", where).items():
            for key in itertools.product(MODELS, SUBSETS, METRICS):
                cell, name = by_model, f"{where}.{qk}"
                for part in key:
                    cell = _typed(cell, "an object", name).get(part)
                    name = f"{name}.{part}"
                if cell is not None:
                    medians[(activation, qk, *key)] = _typed(
                        _typed(cell, "an object", name).get("median"), "a number",
                        f"{name}.median")
    return medians


def summarize_reports(docs: list[dict]) -> dict:
    """Cross-dataset summary of per-report aggregate medians.

    For every score cell present in at least one report, collect that
    report's across-trials median and reduce with mean and median over
    datasets.  Useful for the "does the fallback help overall" question
    once several datasets have been run.
    """
    if not docs:
        raise ValueError("summarize_reports needs at least one report")
    names = []
    for doc in docs:
        name = doc["dataset"]["name"]
        if name in names:
            raise ValueError(f"duplicate dataset name {name!r} in summary inputs")
        names.append(name)
    cells: dict = {}
    for doc, name in zip(docs, names):
        for key, median in _score_medians(doc, name).items():
            cells.setdefault(key, {})[name] = median
    out_cells = {}
    for key in sorted(cells):
        per_dataset = cells[key]
        values = sorted(per_dataset.values())
        out_cells["/".join(key)] = {
            "per_dataset": per_dataset,
            "mean_of_medians": sum(values) / len(values),
            "median_of_medians": statistics.median(values),
        }
    return {
        "kind": SUMMARY_KIND,
        "schema_version": SCHEMA_VERSION,
        "datasets": names,
        "cells": out_cells,
    }


def write_gate_csv(path, distances, threshold, beyond_neighbor,
                   outlier_indices) -> None:
    """Per-row gate diagnostics: distance, threshold, both conditions, label."""
    flagged = set(int(i) for i in outlier_indices)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["row", "mahalanobis_distance", "threshold",
                         "exceeds_threshold", "beyond_nearest_neighbor",
                         "outlier"])
        for i, dist in enumerate(distances):
            writer.writerow([
                i,
                repr(float(dist)),
                repr(float(threshold)),
                int(float(dist) > float(threshold)),
                int(bool(beyond_neighbor[i])),
                int(i in flagged),
            ])
