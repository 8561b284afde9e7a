"""Print a SHA-256 digest of every report file of a fixed set of runs.

Writes two seeded records to a temporary directory, a numeric one with a
log-transformed target and a categorical one with a one-hot block and
clipped predictions, each with test rows far outside the training range,
and runs ``outreg run --format both`` on each through ``cli.main``: at two
master seeds, with sigmoid and softplus members, and with the default and
a fixed cross-validation, all gating at percentiles 99 and 75.  Two more
cases follow, one per record at master seed 0 with the default
cross-validation, that list the percentiles lowest first (75, 99).  One
line per case:

    case sha256(report.json) sha256(trials.csv)

Run it against two source trees and compare, e.g.

    PYTHONPATH=src python tools/report_digests.py > change.txt
    PYTHONPATH=../parent/src python tools/report_digests.py > parent.txt
    diff parent.txt change.txt

No output line differs when a change keeps every report byte.  With a
directory argument, each case's run is kept as ``DIR/<case>/report.json``
and ``DIR/<case>/trials.csv``, so that a change which moves bytes on
purpose can be measured with ``tools/report_diff.py``:

    PYTHONPATH=src python tools/report_digests.py ../change > change.txt
    python tools/report_diff.py ../parent/numeric-seed0-default-cv/report.json \
        ../change/numeric-seed0-default-cv/report.json
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from outreg.evalharness.cli import main

SEEDS = (0, 1)
CV = {"default": None, "fixed": {"folds": 4, "candidate_node_counts": [6, 12], "seed": 3}}
PERCENTILES = [99.0, 75.0]


def _numeric_rows(rng):
    """60 train rows and 16 test rows in 3-D: 8 inside, 3 just past the
    training range, which only the looser gate flags, and 5 far out.  The
    target is positive, so it can be log-transformed."""
    train = rng.uniform(0.0, 1.0, size=(60, 3))
    interior = rng.uniform(0.1, 0.9, size=(8, 3))
    edge = rng.uniform(1.0, 1.3, size=(3, 3))
    far = rng.uniform(2.0, 4.0, size=(5, 3)) * rng.choice([-1.0, 1.0], size=(5, 3))
    X = np.vstack([train, interior, edge, far])
    y = np.exp(0.5 * X[:, 0] - 0.3 * X[:, 1] + 0.2 * np.sin(3.0 * X[:, 2]))
    return [[repr(float(v)) for v in (*row, target)] for row, target in zip(X, y)]


def _categorical_rows(rng):
    """The numeric layout in 2-D plus a three-level category; the target
    can be negative, so clipping matters."""
    rows = []
    for row in _numeric_rows(rng):
        level = ("dry", "wet", "mixed")[int(rng.integers(0, 3))]
        rows.append([row[0], row[1], level, repr(float(row[3]) - 1.5)])
    return rows


RECORDS = {
    "numeric": (["x0", "x1", "x2", "y"], _numeric_rows,
                {"target_transform": "natural-log"}),
    "categorical": (["x0", "x1", "season", "y"], _categorical_rows,
                    {"categorical_groups": [{"column": "season",
                                             "categories": ["dry", "wet", "mixed"]}],
                     "clip_negative_predictions": True}),
}


def _write_record(directory: Path, name: str, seed: int) -> Path:
    header, rows, extra = RECORDS[name]
    csv_path = directory / f"{name}.csv"
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows(np.random.default_rng(seed)))
    manifest = directory / f"{name}.json"
    manifest.write_text(json.dumps({
        "name": name, "csv_path": csv_path.name, "feature_columns": header[:-1],
        "target_column": header[-1],
        "split": {"train_range": [0, 60], "test_range": [60, 76]}, **extra}))
    return manifest


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_case(root: Path, runs: Path, record: str, case: str, seed: int, cv,
              percentiles: list[float]) -> int:
    """Run one case and print its line; the exit code of ``outreg run``."""
    config = {"activations": ["sigmoid", "softplus"], "trials": 2,
              "members_per_trial": 4, "gate_percentiles": percentiles,
              "master_seed": seed, "store_predictions": True,
              "collect_extrapolation_records": True}
    if cv is not None:
        config["cv"] = cv
    config_path = root / f"{case}.json"
    config_path.write_text(json.dumps(config))
    out = runs / case
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--manifest", str(root / f"{record}.json"),
                     "--config", str(config_path),
                     "--format", "both", "--out", str(out)])
    if code != 0:
        print(f"{case}: outreg run exited {code}", file=sys.stderr)
    else:
        print(case, _digest(out / "report.json"), _digest(out / "trials.csv"))
    return code


def main_digests(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: report_digests.py [DIR]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        runs = Path(argv[0]) if argv else root
        cases = []
        for record in RECORDS:
            _write_record(root, record, seed=2024)
            cases += [(record, f"{record}-seed{seed}-{cv_name}-cv", seed, cv, PERCENTILES)
                      for seed in SEEDS for cv_name, cv in CV.items()]
        # after the cases above, so that their lines keep their places
        cases += [(record, f"{record}-seed0-default-cv-ascending", 0, None,
                   sorted(PERCENTILES)) for record in RECORDS]
        for case in cases:
            code = _run_case(root, runs, *case)
            if code != 0:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main_digests(sys.argv[1:]))
