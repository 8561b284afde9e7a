"""The three workloads: inputs, set-up, measured rounds and output checks.

Each workload object makes its inputs in the constructor (untimed), then
``setup`` runs one timed set-up repetition, ``round`` one timed round of
the measured phase (returning the latency of each operation a caller
waits for), and ``check_round`` checks that round's outputs, untimed:
against the oracle, or, where a later round repeats work already checked,
against the first round.  Problems are collected in ``problems``; a
non-empty list makes the run incorrect.

The program is always reached through module attributes looked up at
call time (``self.pkg.ensemble_predict``), so the tracer's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import oracle
from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERCENTILES = (99.0, 95.0)
DELTA1 = (0.25, 0.5)   # OrConfig defaults
DELTA2 = (0.5, 1.0)
MIN_SUBSET_ROWS = 5    # ExperimentConfig default


def fresh_import():
    """Import outreg from scratch, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "outreg" or n.startswith("outreg.")]:
        del sys.modules[name]
    pkg = importlib.import_module("outreg")
    importlib.import_module("outreg.evalharness.cli")
    return pkg


def _qkey(q: float) -> str:
    return repr(float(q))


class Workload:
    setup_reps = 1            # set-up repetitions before the measured phase
    setup_each_round = False  # one more after every round, spread over the run

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []

    def problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)


# ---------------------------------------------------------------- protocol-train

@dataclasses.dataclass(frozen=True)
class TrainSize:
    n_rows: int
    n_outside: int
    trials: int
    members: int
    grid: tuple[int, ...]
    onehot_rows: int
    onehot_members: int


TRAIN_FULL = TrainSize(570, 3, 1, 100, (10, 20, 40, 70, 100, 150), 570, 10)
TRAIN_TOY = TrainSize(100, 2, 1, 6, (5, 10), 100, 4)


@dataclasses.dataclass
class ReportTruth:
    """What a correct report on one record must contain, from the oracle."""

    y_test: np.ndarray                 # log10 flow of the test rows
    lr: np.ndarray                     # lstsq prediction, log10 units
    flags: dict                        # percentile key -> (flagged, excused)
    mad: float
    gate95_distances: np.ndarray
    gate95_threshold: float


def _report_truth(X: np.ndarray, flow: np.ndarray, n_train: int) -> ReportTruth:
    Z = oracle.minmax(X[:n_train], X)
    y = np.log10(flow)
    flags = {}
    g95 = None
    for q in PERCENTILES:
        gate = oracle.GateOracle(Z[:n_train], q)
        flags[_qkey(q)] = gate.flags(Z[n_train:])
        if q == 95.0:
            g95 = gate
    return ReportTruth(
        y_test=y[n_train:],
        lr=oracle.lstsq_predict(Z[:n_train], y[:n_train], Z[n_train:]),
        flags=flags,
        mad=oracle.mad(y[n_train:]),
        gate95_distances=g95.distances(Z[n_train:]),
        gate95_threshold=g95.threshold,
    )


def _count_problems(counts: dict, flags: dict, what: str) -> list[str]:
    """Reported outlier counts against the oracle's (flagged, excused) rows."""
    problems = []
    for qk, (flagged, excused) in flags.items():
        if not (flagged & ~excused).sum() <= counts[qk] <= (flagged | excused).sum():
            problems.append(f"{what}: outlier_counts[{qk}] = {counts[qk]}, "
                            f"oracle flags {int(flagged.sum())}")
    return problems


def check_report(out_dir: Path, truth: ReportTruth, what: str) -> list[str]:
    """Check report.json and trials.csv of one ``outreg run`` against the oracle."""
    doc = json.loads((out_dir / "report.json").read_text())
    problems = _count_problems(doc["dataset"]["outlier_counts"], truth.flags, what)
    for trial in doc["trials"]:
        tag = f"{what} trial {trial['activation']}/{trial['trial_index']}"
        preds = trial["predictions"]
        lr = np.log10(np.asarray(preds["lr"]))
        if not np.all(np.abs(lr - truth.lr) <= 1e-8):
            problems.append(f"{tag}: LR predictions differ from lstsq by "
                            f"{float(np.max(np.abs(lr - truth.lr))):.3g}")
        nlr = np.asarray(preds["nlr"])
        for qk, (flagged, excused) in truth.flags.items():
            ungated = ~flagged & ~excused
            nlr_or = np.asarray(preds[f"nlr_or@{qk}"])
            if not np.array_equal(nlr_or[ungated], nlr[ungated]):
                problems.append(f"{tag}: nlr_or@{qk} differs from nlr on an ungated row")
            if excused.any():
                continue
            rows = {"all": np.arange(flagged.size),
                    "outliers": np.flatnonzero(flagged),
                    "non_outliers": np.flatnonzero(~flagged)}
            for subset, idx in rows.items():
                want = oracle.subset_scores(truth.lr, truth.y_test, idx, truth.mad,
                                            MIN_SUBSET_ROWS)
                got = trial["scores"][qk]["lr"][subset]
                for metric, value in want.items():
                    ok = (got[metric] is None if value is None else
                          got[metric] is not None and oracle.close(got[metric], value, 1e-8))
                    if not ok:
                        problems.append(f"{tag}: lr {subset} {metric} at {qk} is "
                                        f"{got[metric]}, oracle {value}")
    problems += _check_trials_csv(out_dir / "trials.csv", doc, what)
    return problems


def _check_trials_csv(path: Path, doc: dict, what: str) -> list[str]:
    expected = {}
    for trial in doc["trials"]:
        for qk, by_model in trial["scores"].items():
            for model, by_subset in by_model.items():
                for subset, by_metric in by_subset.items():
                    for metric, value in by_metric.items():
                        key = (str(trial["trial_index"]), trial["activation"], qk,
                               model, subset, metric)
                        expected[key] = value
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if rows[0] != ["trial", "activation", "percentile", "model", "subset", "metric", "value"]:
        return [f"{what}: trials.csv header is {rows[0]}"]
    seen = {}
    for row in rows[1:]:
        seen[tuple(row[:6])] = None if row[6] == "" else float(row[6])
    if seen != expected:
        return [f"{what}: trials.csv does not match report.json"]
    return []


def _check_gate_csv(path: Path, truth: ReportTruth) -> list[str]:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    flagged, excused = truth.flags[_qkey(95.0)]
    problems = oracle.compare_flags(
        flagged, excused, [int(r["row"]) for r in rows if r["outlier"] == "1"],
        "outreg gate --percentile 95")
    dist = np.array([float(r["mahalanobis_distance"]) for r in rows])
    if not np.allclose(dist, truth.gate95_distances, rtol=oracle.REL, atol=0.0):
        problems.append("outreg gate: Mahalanobis distances differ from the oracle")
    if not oracle.close(float(rows[0]["threshold"]), truth.gate95_threshold, oracle.REL):
        problems.append("outreg gate: threshold differs from the oracle")
    return problems


class ProtocolTrain(Workload):
    """``outreg gate`` then ``outreg run --format both`` through the CLI's main.

    Each round also runs ``outreg run`` on a record with a 4-level
    categorical column, in a process of its own, outside every timing.
    """

    setup_each_round = True

    def __init__(self, seed: int, toy: bool, workdir: Path):
        super().__init__()
        size = TRAIN_TOY if toy else TRAIN_FULL
        record = inputs.river_record(seed, size.n_rows, size.n_outside)
        self.manifest = inputs.write_river(record, workdir / "river", "river", False)
        self.config = self._write_config(workdir / "river" / "config.json", seed,
                                         size.trials, size.members, size.grid)
        self.truth = _report_truth(record.X, record.flow, record.n_train)

        cat = inputs.river_record(inputs.ONEHOT_RECORD_SEED, size.onehot_rows, size.n_outside)
        self.cat_manifest = inputs.write_river(cat, workdir / "seasons", "seasons", True)
        self.cat_config = self._write_config(workdir / "seasons" / "config.json",
                                             inputs.ONEHOT_RECORD_SEED, 1,
                                             size.onehot_members, size.grid[:2])
        indicators = np.array([[float(s == c) for c in inputs.SEASONS] for s in cat.season])
        self.cat_truth = _report_truth(np.hstack([cat.X, indicators]), cat.flow, cat.n_train)

        self.out = workdir / "out"
        self.cat_out = workdir / "seasons-out"
        self.gate_csv = workdir / "gate.csv"
        self.digests: set[str] = set()
        self.cat_digests: set[str] = set()

    @staticmethod
    def _write_config(path: Path, seed: int, trials: int, members: int, grid) -> Path:
        path.write_text(json.dumps({
            "activations": ["sigmoid"],
            "trials": trials,
            "members_per_trial": members,
            "gate_percentiles": list(PERCENTILES),
            "master_seed": seed,
            "store_predictions": True,
            "cv": {"folds": 5, "candidate_node_counts": list(grid), "seed": seed},
        }, indent=2) + "\n")
        return path

    def setup(self, tracer: Tracer | None, run_id: str) -> float:
        t0 = perf_counter()
        self.pkg = fresh_import()
        t1 = perf_counter()
        if tracer is not None:
            tracer.install(run_id)
        t2 = perf_counter()
        manifest = self.pkg.evalharness.load_manifest(self.manifest)
        self.pkg.evalharness.load_dataset(manifest)
        t3 = perf_counter()
        if tracer is not None:
            tracer.uninstall()
        return (t1 - t0) + (t3 - t2)

    def _cli(self, argv) -> tuple[int, str]:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = self.pkg.evalharness.cli.main(argv)
        return code, err.getvalue()

    def round(self, k: int) -> list[float]:
        t0 = perf_counter()
        self.gate_rc = self._cli(["gate", "--manifest", str(self.manifest),
                                  "--percentile", "95", "--out", str(self.gate_csv)])
        self.run_rc = self._cli(["run", "--manifest", str(self.manifest),
                                 "--config", str(self.config), "--format", "both",
                                 "--out", str(self.out)])
        elapsed = perf_counter() - t0
        self.attempted += 2
        return [elapsed]

    def check_round(self, k: int) -> None:
        for name, (code, err) in (("outreg gate", self.gate_rc), ("outreg run", self.run_rc)):
            if code != 0:
                self.failed += 1
                self.note(f"{name} exited {code}: {err.strip()[:160]}")
        if self.gate_rc[0] == 0:
            for p in _check_gate_csv(self.gate_csv, self.truth):
                self.problem(p)
        if self.run_rc[0] == 0:
            self._check_run(self.out, self.truth, self.digests, "outreg run")
        self._categorical_run()

    def _check_run(self, out: Path, truth: ReportTruth, digests: set, what: str) -> None:
        for p in check_report(out, truth, what):
            self.problem(p)
        digests.add(hashlib.sha256((out / "report.json").read_bytes()).hexdigest())
        if len(digests) > 1:
            self.problem(f"{what}: report.json bytes differ between runs at one seed")

    def _categorical_run(self) -> None:
        """``outreg run`` on the record with a season column, in its own process."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "outreg.evalharness.cli", "run",
             "--manifest", str(self.cat_manifest), "--config", str(self.cat_config),
             "--format", "both", "--out", str(self.cat_out)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=150)
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            self.note(f"categorical-record outreg run exited {proc.returncode}: "
                      f"{proc.stderr.strip()[:160]}")
            return
        self._check_run(self.cat_out, self.cat_truth, self.cat_digests,
                        "categorical-record outreg run")


# ---------------------------------------------------------------- protocol-outliers

@dataclasses.dataclass(frozen=True)
class OutlierSize:
    n_train: int
    n_inside: int
    n_far: int
    trials: int
    members: int
    node_count: int


OUTLIERS_FULL = OutlierSize(150, 10, 10, 1, 100, 10)
OUTLIERS_TOY = OutlierSize(40, 5, 5, 1, 5, 5)


class ProtocolOutliers(Workload):
    """``run_experiment`` in-process with softplus and radial-basis members.

    The CV grid has the single candidate ``node_count``, so every seed
    trains the same shapes and the run's cost does not depend on which
    count CV would have picked.
    """

    setup_each_round = True

    def __init__(self, seed: int, toy: bool, workdir: Path):
        super().__init__()
        self.size = OUTLIERS_TOY if toy else OUTLIERS_FULL
        self.seed = seed
        self.arrays = inputs.outlier_arrays(seed, self.size.n_train, self.size.n_inside,
                                            self.size.n_far)
        a = self.arrays
        self.z_train = oracle.minmax(a.train_inputs, a.train_inputs)
        self.z_test = oracle.minmax(a.train_inputs, a.test_inputs)
        self.flags = {_qkey(q): oracle.GateOracle(self.z_train, q).flags(self.z_test)
                      for q in PERCENTILES}
        self.center = np.median(self.z_train, axis=0)
        self.first_result = None

    def setup(self, tracer: Tracer | None, run_id: str) -> float:
        t0 = perf_counter()
        self.pkg = fresh_import()
        t1 = perf_counter()
        if tracer is not None:
            tracer.install(run_id)
        a = self.arrays
        t2 = perf_counter()
        self.dataset = self.pkg.evalharness.dataset_from_arrays(
            a.train_inputs, a.test_inputs, a.train_target, a.test_target, name="outliers")
        t3 = perf_counter()
        if tracer is not None:
            tracer.uninstall()
        pkg = self.pkg
        self.config = pkg.evalharness.ExperimentConfig(
            activations=(pkg.Activation.SOFTPLUS, pkg.Activation.RADIAL_BASIS),
            trials=self.size.trials,
            members_per_trial=self.size.members,
            gate_percentiles=PERCENTILES,
            cv=pkg.CvConfig(folds=5, candidate_node_counts=(self.size.node_count,),
                            seed=self.seed),
            master_seed=self.seed,
            collect_extrapolation_records=True,
        )
        return (t1 - t0) + (t3 - t2)

    def round(self, k: int) -> list[float]:
        t0 = perf_counter()
        self.result = self.pkg.evalharness.run_experiment(self.dataset, self.config)
        elapsed = perf_counter() - t0
        self.attempted += 1
        return [elapsed]

    def check_round(self, k: int) -> None:
        """Check the first round against the oracle, later rounds against the first."""
        result = self.result
        # compared as plain data: each round's result comes from a fresh import
        if self.first_result is not None:
            if dataclasses.asdict(result) != self.first_result:
                self.problem("a later run_experiment gave a different result")
            return
        self.first_result = dataclasses.asdict(result)
        for p in _count_problems(result.dataset_summary["outlier_counts"], self.flags,
                                 "run_experiment"):
            self.problem(p)
        expected_rows = {qk: (set(np.flatnonzero(flagged & ~excused).tolist()),
                              set(np.flatnonzero(excused).tolist()))
                         for qk, (flagged, excused) in self.flags.items()}
        by_trial: dict = {}
        for rec in result.extrapolation_records:
            by_trial.setdefault((rec["activation"], rec["trial"]), []).append(rec)
            if rec["value"] != statistics.median(v for _, v in rec["candidates"]):
                self.problem(f"record {rec['activation']}/{rec['trial']}/row {rec['row']}: "
                             f"value {rec['value']} is not the median of its candidates")
        for (activation, t), recs in by_trial.items():
            for qk, (must, may) in expected_rows.items():
                rows = {r["row"] for r in recs if r["percentile"] == qk}
                if not must <= rows <= must | may:
                    self.problem(f"records {activation}/{t}@{qk} cover rows other than "
                                 f"the oracle's outliers")
        # rebuild every trial's ensemble and recompute its records' secants
        for trial in result.trials:
            ensemble = self.pkg.ensemble_train(
                self.z_train, self.arrays.train_target[:, None], trial.node_count,
                self.pkg.Activation(trial.activation), member_count=self.size.members,
                seed=trial.trial_seed)
            surface = oracle.Surface(ensemble)
            for rec in by_trial.get((trial.activation, trial.trial_index), []):
                self._check_record(rec, surface)

    def _check_record(self, rec: dict, surface) -> None:
        x_o = self.z_test[rec["row"]]
        want, dropped, nn = oracle.secant_candidates(surface, x_o, self.z_train,
                                                     self.center, DELTA1, DELTA2)
        got = dict(rec["candidates"])
        tag = f"record {rec['activation']}/{rec['trial']}/row {rec['row']}"
        if set(got) != set(want) or sorted(d for d, _ in rec["dropped"]) != sorted(dropped):
            self.problem(f"{tag}: candidate set {sorted(got)} differs from the oracle's "
                         f"{sorted(want)}")
            return
        for label, value in want.items():
            if not oracle.close(got[label], value, oracle.REL):
                self.problem(f"{tag}: {label} is {got[label]}, oracle {value}")
        if rec["nn_index"] != nn:
            self.problem(f"{tag}: nearest neighbour {rec['nn_index']}, oracle {nn}")


# ---------------------------------------------------------------- deploy-score

@dataclasses.dataclass(frozen=True)
class DeploySize:
    n_train: int
    node_count: int
    members: int
    batch_rows: int
    far_rows: int
    batches: int
    setup_reps: int


DEPLOY_FULL = DeploySize(2000, 50, 100, 150, 1, 100, 3)
DEPLOY_TOY = DeploySize(200, 10, 5, 50, 1, 2, 1)


class DeployScore(Workload):
    """A deployed ensemble and gate scoring batches of new rows in a closed loop.

    One caller sends the next batch only after the previous one is scored.
    A round is one pass over the same batches, so each batch is timed once
    per round.  Inputs are already in normalised units, as the deployed
    model sees them.
    """

    def __init__(self, seed: int, toy: bool, workdir: Path):
        super().__init__()
        self.size = DEPLOY_TOY if toy else DEPLOY_FULL
        self.setup_reps = self.size.setup_reps
        self.seed = seed
        self.workdir = workdir
        self.train, self.target = inputs.deploy_training(seed, self.size.n_train)
        self.batches = inputs.deploy_batches(seed, self.train, self.size.batches,
                                             self.size.batch_rows, self.size.far_rows)
        self.gate_oracle = oracle.GateOracle(self.train, 99.0)
        self.center = np.median(self.train, axis=0)
        rng = np.random.default_rng([inputs.STREAM_DEPLOY, seed, 2])
        self.affine = (rng.standard_normal(6), float(rng.standard_normal()))
        self.pkg = fresh_import()
        self.first_pass: list | None = None

    def setup(self, tracer: Tracer | None, run_id: str) -> float:
        pkg = self.pkg
        paths = (self.workdir / "ensemble.npz", self.workdir / "gate.npz")
        if tracer is not None:
            tracer.install(run_id)
        t0 = perf_counter()
        ensemble = pkg.ensemble_train(self.train, self.target[:, None], self.size.node_count,
                                      pkg.Activation.SIGMOID, member_count=self.size.members,
                                      seed=self.seed)
        gate = pkg.fit_gate(self.train, 99.0)
        pkg.save_ensemble(paths[0], ensemble)
        pkg.save_gate(paths[1], gate)
        loaded = pkg.load_ensemble(paths[0])
        loaded_gate = pkg.load_gate(paths[1])
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        probe = self.batches[0]
        same = np.array_equal(pkg.ensemble_predict(ensemble, probe),
                              pkg.ensemble_predict(loaded, probe))
        a, b = pkg.classify(gate, probe), pkg.classify(loaded_gate, probe)
        same = same and np.array_equal(a.outlier_indices, b.outlier_indices) \
            and np.array_equal(a.distances, b.distances)
        if not same:
            self.problem("reloaded model does not predict and classify bitwise "
                         "like the in-memory one")
        self.ensemble, self.gate = loaded, loaded_gate
        self.surface = oracle.Surface(loaded)
        return elapsed

    def round(self, k: int) -> list[float]:
        pkg = self.pkg
        ensemble, gate = self.ensemble, self.gate

        def f(points):
            return pkg.ensemble_predict(ensemble, points)[:, 0]

        latencies = []
        self.outputs = []
        for rows in self.batches:
            t0 = perf_counter()
            pred = pkg.ensemble_predict(ensemble, rows)[:, 0]
            part = pkg.classify(gate, rows)
            for i in part.outlier_indices:
                pred[i] = pkg.nlror_predict(f, gate, rows[i])
            latencies.append(perf_counter() - t0)
            self.outputs.append((pred, part.outlier_indices))
        self.attempted += len(latencies)
        return latencies

    def check_round(self, k: int) -> None:
        """Check the first pass against the oracle, later passes against the first."""
        if self.first_pass is not None:
            for (pred, flagged), (pred0, flagged0) in zip(self.outputs, self.first_pass):
                if not (np.array_equal(pred, pred0) and np.array_equal(flagged, flagged0)):
                    self.problem("a later pass scored a batch differently from the first")
            return
        self.first_pass = self.outputs
        rng = np.random.default_rng([self.seed, k])
        a, b = self.affine
        for rows, (pred, flagged_rows) in zip(self.batches, self.outputs):
            flagged, excused = self.gate_oracle.flags(rows)
            for p in oracle.compare_flags(flagged, excused, flagged_rows, "classify"):
                self.problem(p)
            plain = np.setdiff1d(np.arange(rows.shape[0]), flagged_rows)
            sample = rng.choice(plain, min(8, plain.size), replace=False)
            if not np.allclose(pred[sample], self.surface(rows[sample]),
                               rtol=oracle.REL, atol=oracle.REL):
                self.problem("ensemble_predict differs from the oracle surface")
            for i in flagged_rows:
                want, _, _ = oracle.secant_candidates(self.surface, rows[i], self.train,
                                                      self.center, DELTA1, DELTA2)
                median = statistics.median(want.values())
                if not oracle.close(pred[i], median, oracle.REL):
                    self.problem(f"fallback value {pred[i]} differs from the oracle "
                                 f"median {median}")
                exact = float(rows[i] @ a + b)
                got = self.pkg.nlror_predict(lambda P: P @ a + b, self.gate, rows[i])
                if not oracle.close(got, exact, oracle.REL):
                    self.problem(f"fallback on an affine surface gives {got}, not {exact}")


WORKLOADS = {
    "protocol-train": ProtocolTrain,
    "protocol-outliers": ProtocolOutliers,
    "deploy-score": DeployScore,
}


def run(name: str, seed: int, seconds: float, trace: bool, toy: bool,
        workdir: Path, trace_path: Path | None = None) -> dict:
    """Set up, measure for ``seconds`` in whole rounds, check; return the figures.

    Every timing is the best of its repetitions: the best set-up, the best
    round, and for each operation of a round its best latency over the
    rounds.  Cheap set-ups are repeated after every round, so that their
    repetitions, like the rounds, are spread over the whole run.  On a
    machine shared with other tenants a slower repetition measures the
    neighbours, not the program (see README).
    """
    wl = WORKLOADS[name](seed, toy, workdir)
    tracer = Tracer() if trace else None
    setup_ids = [f"setup-{r}" for r in range(wl.setup_reps)]
    setup_times = [wl.setup(tracer, run_id) for run_id in setup_ids]
    # a fresh import leaves the previous copy of the package as cyclic
    # garbage; collecting it keeps peak memory independent of the rounds
    gc.collect()

    plain_times: list[float] = []
    traced_times: list[float] = []
    round_ids: list[str] = []
    best_latency: list[float] = []
    min_rounds = 2 if trace else 1
    start = perf_counter()
    k = 0
    # whole rounds only: stop before a round that would overrun the budget
    while k < min_rounds or (perf_counter() - start) * (k + 1) / k <= seconds:
        # the traced run alternates traced and plain rounds, so the
        # difference of their best times is the tracing overhead
        traced = tracer is not None and k % 2 == 0
        if traced:
            round_ids.append(f"round-{k}")
            tracer.install(round_ids[-1])
        try:
            lat = wl.round(k)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_times.append(sum(lat))
        else:
            plain_times.append(sum(lat))
            best_latency = lat if not best_latency else list(map(min, best_latency, lat))
        wl.check_round(k)
        if wl.setup_each_round:
            setup_ids.append(f"setup-{len(setup_ids)}")
            setup_times.append(wl.setup(tracer, setup_ids[-1]))
            gc.collect()
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    figures = {
        "setup_s": min(setup_times),
        "run_s": min(plain_times),
        "peak_rss_mb": peak_rss_mb,
        "batch_p50_ms": 1e3 * float(np.percentile(best_latency, 50)),
        "batch_p90_ms": 1e3 * float(np.percentile(best_latency, 90)),
    }
    if tracer is not None:
        figures.update(layer_metrics(tracer.spans, round_ids, setup_ids))
        figures["trace.overhead_s"] = min(traced_times) - min(plain_times)
        if trace_path is not None:
            tracer.write(trace_path)
    return {
        "correct": not wl.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "figures": figures,
        "rounds": k,
        "problems": wl.problems,
        "notes": wl.notes,
    }
