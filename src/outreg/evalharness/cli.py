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
import os
import sys
from pathlib import Path

import numpy as np

from ..extrapolate import OrConfig
from ..outlier_gate import beyond_nearest_neighbor, classify
from ..preprocess import apply_minmax
from ..regress import Activation, CvConfig
from ..seeding import checked_items, shown
from .dataset import _check_keys, _read_json, _typed, load_dataset, load_manifest
from .experiment import ExperimentConfig, fit_pipeline, run_experiment
from .report import (emit_report, load_report, render_json, summarize_reports,
                     write_gate_csv)
from .toy import toy_demo


_ACTIVATION_NAMES = [a.value for a in Activation]


def _activation(value, name: str) -> Activation:
    """The activation named ``value``; a ValueError naming ``name`` if no
    activation is, which lists the names there are."""
    if value not in _ACTIVATION_NAMES:
        raise ValueError(f"{name} must be one of {_ACTIVATION_NAMES}, got {shown(value)}")
    return Activation(value)


# a config field whose JSON key is not its name
_JSON_KEYS = {"or_config": "or"}


def _built(kind, raw, path: str, **convert):
    """Config dataclass ``kind`` built from JSON object ``raw``, whose keys
    must name its fields.  ``convert`` maps a field to what turns its JSON
    value into the field's type, naming the field by its whole path.  The
    dataclass types every value, and a ValueError it raises gets ``path``
    in front of the field it names."""
    fields = {_JSON_KEYS.get(f.name, f.name): f.name for f in dataclasses.fields(kind)}
    _check_keys(_typed(raw, "an object", path), set(fields), path)
    kwargs = {fields[key]: value for key, value in raw.items()}
    kwargs.update((key, convert[key](kwargs[key])) for key in convert if key in kwargs)
    try:
        return kind(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}.{exc}") from None


def _config_from_json(raw) -> ExperimentConfig:
    return _built(
        ExperimentConfig, raw, "config",
        activations=lambda names: checked_items(names, "config.activations", _activation),
        cv=lambda raw_cv: _built(CvConfig, raw_cv, "config.cv"),
        or_config=lambda raw_or: _built(OrConfig, raw_or, "config.or"))


def _cmd_toy(args) -> int:
    curves = toy_demo(seed=args.seed, activation=_activation(args.activation, "--activation"),
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
    pipeline = fit_pipeline(dataset, args.percentile)
    gate = pipeline.gate
    test_scaled = apply_minmax(pipeline.scaler, dataset.test_inputs)
    partition = classify(gate, test_scaled)
    # classify ran the neighbour test on the rows over the threshold, and its
    # outliers are those that passed; only the other rows still need a search
    rest = ~partition.searched
    beyond = np.isin(np.arange(rest.size), partition.outlier_indices)
    beyond[rest] = beyond_nearest_neighbor(gate, test_scaled[rest])
    write_gate_csv(args.out, partition.distances, gate.threshold_distance, beyond,
                   partition.outlier_indices)
    print(f"{dataset.name}: {partition.outlier_indices.size} of "
          f"{partition.distances.size} test rows gated as outliers at the "
          f"{args.percentile:g}th percentile (threshold "
          f"{gate.threshold_distance:.6g}); details in {args.out}")
    return 0


def _cmd_run(args) -> int:
    config = _config_from_json(_read_json(args.config) if args.config else {})
    flags = {"trials": args.trials, "members_per_trial": args.members, "master_seed": args.seed}
    config = dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})
    result = run_experiment(load_dataset(load_manifest(args.manifest)), config)
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
    toy.add_argument("--activation", choices=_ACTIVATION_NAMES, default="sigmoid")
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


# Freed heap kept for the next fit: below 32 MiB an array comes from the heap
# rather than its own mmap, and up to 64 MiB of free top stays mapped.  Both
# are set, since setting either turns off glibc's adjustment of both and so
# pins the other at its 128 KiB default.  32 MiB is the ceiling to which
# glibc's own adjustment can raise the mmap threshold on 64-bit, so no array
# that glibc could have kept on the heap is mmapped; 64 MiB is the trim
# threshold that glibc pairs with it.
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _keep_freed_heap() -> None:
    """Have glibc keep freed heap for the next fit, unless the user has set
    a heap policy of their own.  Each QR-route member copies its [H | y]
    design twice, and glibc hands that memory back after every fit, so the
    next fit faults it in again.  No result depends on this."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return
    if not glibc or "GLIBC_TUNABLES" in os.environ or any(
            name.startswith("MALLOC_") for name in os.environ):
        return
    import ctypes
    libc = ctypes.CDLL(None)
    libc.mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
    libc.mallopt(-1, _TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_heap()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
