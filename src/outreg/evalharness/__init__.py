"""Evaluation harness: metrics, toy problem, datasets, experiment protocol."""

from .dataset import (CategoricalColumn, Dataset, DatasetManifest,
                      IngestionError, ManifestError, dataset_from_arrays,
                      load_dataset, load_manifest)
from .experiment import (METRICS, MODELS, SUBSETS, ExperimentConfig, ExperimentResult,
                         FittedPipeline, TrialReport, fit_pipeline, run_experiment)
from .metrics import BoxplotSummary, boxplot_stats, mad, maen, spearman
from .report import (emit_report, load_report, render_json, render_trials_csv,
                     result_to_dict, summarize_reports)
from .toy import toy_demo, toy_generate, true_signal

__all__ = [
    "BoxplotSummary", "CategoricalColumn", "Dataset", "DatasetManifest",
    "ExperimentConfig", "ExperimentResult", "FittedPipeline", "IngestionError", "METRICS",
    "MODELS", "ManifestError", "SUBSETS", "TrialReport",
    "boxplot_stats", "dataset_from_arrays", "emit_report", "fit_pipeline", "load_dataset",
    "load_manifest", "load_report", "mad", "maen", "render_json",
    "render_trials_csv", "result_to_dict", "run_experiment",
    "spearman", "summarize_reports", "toy_demo", "toy_generate",
    "true_signal",
]
