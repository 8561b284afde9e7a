"""Command line front end.

Four subcommands:

* ``toy``     fit the 1-D toy problem and tabulate all curves to CSV
* ``gate``    fit the outlier gate for a dataset and dump per-row diagnostics
* ``run``     run the full multi-trial evaluation and emit a report
* ``report``  combine several run reports into a cross-dataset summary

All outputs are deterministic given the inputs and seeds.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from ..extrapolate import OrConfig
from ..outlier_gate import beyond_nearest_neighbor, classify, fit_gate
from ..preprocess import apply_minmax, fit_minmax
from ..regress import Activation, CvConfig
from .dataset import _section, load_dataset, load_manifest
from .experiment import ExperimentConfig, run_experiment
from .report import (emit_report, load_report, render_json, summarize_reports,
                     write_gate_csv)
from .toy import toy_demo


def _activation(text: str) -> Activation:
    try:
        return Activation(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown activation {text!r}; expected one of "
            f"{[a.value for a in Activation]}"
        ) from None


# each config section's keys and the JSON kind of their values, read by _section
_CONFIG_KEYS = {"activations": ["a string"], "trials": "an integer",
                "members_per_trial": "an integer", "gate_percentiles": ["a number"],
                "master_seed": "an integer", "min_subset_rows": "an integer",
                "cv": "an object", "or": "an object", "store_predictions": "a boolean",
                "collect_extrapolation_records": "a boolean"}
_CV_KEYS = {"folds": "an integer", "candidate_node_counts": ["an integer"],
            "seed": "an integer"}
_OR_KEYS = {"delta1_values": ["a number"], "delta2_values": ["a number"],
            "include_raw_nlr": "a boolean"}


def _config_from_json(raw) -> ExperimentConfig:
    kwargs = _section(raw, _CONFIG_KEYS, "config")
    if "activations" in kwargs:
        kwargs["activations"] = tuple(Activation(a) for a in kwargs["activations"])
    if "gate_percentiles" in kwargs:
        kwargs["gate_percentiles"] = tuple(float(q) for q in kwargs["gate_percentiles"])
    if "cv" in kwargs:
        kwargs["cv"] = CvConfig(**_section(kwargs["cv"], _CV_KEYS, "config.cv"))
    if "or" in kwargs:
        or_kwargs = _section(kwargs.pop("or"), _OR_KEYS, "config.or")
        for key in ("delta1_values", "delta2_values"):
            if key in or_kwargs:
                or_kwargs[key] = tuple(float(d) for d in or_kwargs[key])
        kwargs["or_config"] = OrConfig(**or_kwargs)
    return ExperimentConfig(**kwargs)


def _cmd_toy(args) -> int:
    curves = toy_demo(seed=args.seed, activation=args.activation,
                      n_train=args.n_train, member_count=args.members,
                      node_count=args.node_count,
                      grid_start=args.grid_start, grid_stop=args.grid_stop,
                      grid_step=args.grid_step, fd_step=args.fd_step)
    members = curves["members"]
    header = (["x", "true_signal", "linear", "ensemble_mean",
               "bounded_ensemble_mean"]
              + [f"member_{i:03d}" for i in range(members.shape[1])])
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i in range(curves["x"].size):
            writer.writerow(
                [repr(float(curves[k][i])) for k in header[:5]]
                + [repr(float(v)) for v in members[i]]
            )
    if args.train_out:
        with open(args.train_out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x", "y"])
            for xi, yi in zip(curves["train_x"], curves["train_y"]):
                writer.writerow([repr(float(xi)), repr(float(yi))])
    print(f"toy curves written to {args.out} "
          f"(node_count={curves['node_count']}, members={members.shape[1]})")
    return 0


def _cmd_gate(args) -> int:
    dataset = load_dataset(load_manifest(args.manifest))
    scaler = fit_minmax(dataset.train_inputs)
    gate = fit_gate(apply_minmax(scaler, dataset.train_inputs),
                    percentile_q=args.percentile)
    test_scaled = apply_minmax(scaler, dataset.test_inputs)
    partition = classify(gate, test_scaled)
    write_gate_csv(args.out, partition.distances, gate.threshold_distance,
                   beyond_nearest_neighbor(gate, test_scaled),
                   partition.outlier_indices)
    print(f"{dataset.name}: {partition.outlier_indices.size} of "
          f"{partition.distances.size} test rows gated as outliers at the "
          f"{args.percentile:g}th percentile (threshold "
          f"{gate.threshold_distance:.6g}); details in {args.out}")
    return 0


def _cmd_run(args) -> int:
    dataset = load_dataset(load_manifest(args.manifest))
    if args.config:
        config = _config_from_json(json.loads(Path(args.config).read_text()))
    else:
        config = ExperimentConfig()
    overrides = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.members is not None:
        overrides["members_per_trial"] = args.members
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    config = dataclasses.replace(config, **overrides)
    result = run_experiment(dataset, config)
    written = emit_report(result, args.out, fmt=args.format)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_report(args) -> int:
    docs = [load_report(path) for path in args.reports]
    Path(args.out).write_text(render_json(summarize_reports(docs)))
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outreg",
        description="outlier-aware nonlinear regression toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    toy = sub.add_parser("toy", help="tabulate toy-problem fits on a grid")
    toy.add_argument("--seed", type=int, default=0)
    toy.add_argument("--activation", type=_activation, default=Activation.SIGMOID)
    toy.add_argument("--n-train", type=int, default=100)
    toy.add_argument("--members", type=int, default=100)
    toy.add_argument("--node-count", type=int, default=None,
                     help="hidden nodes; default picks by cross-validation")
    toy.add_argument("--grid-start", type=float, default=-6.0)
    toy.add_argument("--grid-stop", type=float, default=6.0)
    toy.add_argument("--grid-step", type=float, default=0.05)
    toy.add_argument("--fd-step", type=float, default=1e-2)
    toy.add_argument("--train-out", default=None,
                     help="also write the training sample to this CSV")
    toy.add_argument("--out", required=True)
    toy.set_defaults(func=_cmd_toy)

    gate = sub.add_parser("gate", help="classify test rows of a dataset")
    gate.add_argument("--manifest", required=True)
    gate.add_argument("--percentile", type=float, default=99.0)
    gate.add_argument("--out", required=True)
    gate.set_defaults(func=_cmd_gate)

    run = sub.add_parser("run", help="run the multi-trial evaluation")
    run.add_argument("--manifest", required=True)
    run.add_argument("--config", default=None, help="experiment config JSON")
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--members", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--format", choices=("json", "csv", "both"), default="json")
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=_cmd_run)

    rep = sub.add_parser("report", help="summarise several run reports")
    rep.add_argument("reports", nargs="+")
    rep.add_argument("--out", required=True)
    rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
