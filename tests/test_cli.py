"""Command line behaviour, exercised in-process through ``main(argv)``.

Each subcommand is driven end to end against small on-disk fixtures
(CSV plus manifest written into tmp_path) and its outputs are parsed
back and cross-checked against the library calls the command wraps.
Failures must exit with status 2 and a message on stderr, never a
traceback.
"""

import csv
import json

import numpy as np
import pytest

from outreg import (CvConfig, OrConfig, apply_minmax, classify, fit_gate,
                    fit_minmax)
from outreg.evalharness import load_dataset, load_manifest, load_report
from outreg.evalharness.cli import main


def _write_dataset(directory, name="cli-demo", seed=12345):
    """A 52-row CSV: 40 train rows in the unit square, then 12 test rows
    of which the last 6 sit far outside.  Returns the manifest path."""
    rng = np.random.default_rng(seed)
    train = rng.uniform(0.0, 1.0, size=(40, 2))
    interior = rng.uniform(0.2, 0.8, size=(6, 2))
    far = np.array([[3.0, 3.0], [-2.0, 4.0], [5.0, -1.0],
                    [4.0, 4.0], [-3.0, -3.0], [6.0, 2.0]])
    X = np.vstack([train, interior, far])
    y = 2.0 * X[:, 0] - X[:, 1] + 0.5
    csv_path = directory / f"{name}.csv"
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x0", "x1", "y"])
        for row, target in zip(X, y):
            writer.writerow([repr(float(row[0])), repr(float(row[1])),
                             repr(float(target))])
    manifest_path = directory / f"{name}.json"
    manifest_path.write_text(json.dumps({
        "name": name,
        "csv_path": csv_path.name,
        "feature_columns": ["x0", "x1"],
        "target_column": "y",
        "split": {"train_range": [0, 40], "test_range": [40, 52]},
    }))
    return manifest_path


def _write_config(directory, **overrides):
    config = {
        "activations": ["sigmoid"],
        "trials": 2,
        "members_per_trial": 3,
        "gate_percentiles": [99.0],
        "master_seed": 42,
        "cv": {"folds": 5, "candidate_node_counts": [8], "seed": 7},
    }
    config.update(overrides)
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestToyCommand:
    def test_writes_curve_and_training_tables(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        train_out = tmp_path / "train.csv"
        code = main(["toy", "--seed", "3", "--n-train", "30",
                     "--members", "4", "--node-count", "8",
                     "--grid-start", "-2", "--grid-stop", "2",
                     "--grid-step", "0.5", "--out", str(out),
                     "--train-out", str(train_out)])
        assert code == 0
        assert "node_count=8" in capsys.readouterr().out
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 9
        header = list(rows[0])
        assert header[:5] == ["x", "true_signal", "linear", "ensemble_mean",
                              "bounded_ensemble_mean"]
        assert header[5:] == [f"member_{i:03d}" for i in range(4)]
        xs = [float(r["x"]) for r in rows]
        np.testing.assert_allclose(xs, np.arange(-2.0, 2.25, 0.5), atol=1e-12)
        for r in rows:
            x = float(r["x"])
            assert float(r["true_signal"]) == pytest.approx(x + 0.2 * x * x)
        train_rows = list(csv.DictReader(train_out.read_text().splitlines()))
        assert len(train_rows) == 30
        assert list(train_rows[0]) == ["x", "y"]

    @pytest.mark.parametrize("grid, message", [
        (["--grid-step", "0"], "grid_step must be positive, got 0.0"),
        (["--grid-step", "-0.05"], "grid_step must be positive, got -0.05"),
        (["--grid-start", "5", "--grid-stop", "-5"],
         "grid_stop -5.0 lies below grid_start 5.0"),
    ], ids=["zero-step", "negative-step", "stop-below-start"])
    def test_empty_or_impossible_grid_exits_2(self, tmp_path, capsys, grid, message):
        out = tmp_path / "curves.csv"
        assert main(["toy", *grid, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_activation_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["toy", "--activation", "tanh",
                  "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2


class TestGateCommand:
    def test_flags_match_library_classification(self, tmp_path, capsys):
        manifest_path = _write_dataset(tmp_path)
        out = tmp_path / "gate.csv"
        code = main(["gate", "--manifest", str(manifest_path),
                     "--percentile", "95", "--out", str(out)])
        assert code == 0

        dataset = load_dataset(load_manifest(manifest_path))
        scaler = fit_minmax(dataset.train_inputs)
        gate = fit_gate(apply_minmax(scaler, dataset.train_inputs), 95.0)
        part = classify(gate, apply_minmax(scaler, dataset.test_inputs))

        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 12
        flagged = [int(r["row"]) for r in rows if r["outlier"] == "1"]
        assert flagged == list(part.outlier_indices)
        for r in rows:
            assert float(r["mahalanobis_distance"]) == \
                part.distances[int(r["row"])]
        assert f"{len(flagged)} of 12 test rows" in capsys.readouterr().out

    def test_duplicated_far_training_rows_agree_with_the_label(self, tmp_path):
        # the test rows copy the training rows over the threshold, so each is
        # its own nearest neighbour and the CSV's second condition must fail
        rng = np.random.default_rng(0)
        train = rng.normal(size=(100, 3))
        scaled = apply_minmax(fit_minmax(train), train)
        gate = fit_gate(scaled, 95.0)
        far = train[classify(gate, scaled).distances > gate.threshold_distance]
        X = np.vstack([train, far])
        columns = ["x0", "x1", "x2"]
        with open(tmp_path / "dup.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns + ["y"])
            for row in X:
                writer.writerow([repr(float(v)) for v in row]
                                + [repr(float(row.sum()))])
        manifest_path = tmp_path / "dup.json"
        manifest_path.write_text(json.dumps({
            "name": "dup", "csv_path": "dup.csv", "feature_columns": columns,
            "target_column": "y",
            "split": {"train_range": [0, 100], "test_range": [100, len(X)]},
        }))
        out = tmp_path / "gate.csv"
        assert main(["gate", "--manifest", str(manifest_path),
                     "--percentile", "95", "--out", str(out)]) == 0

        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == len(far) > 0
        for r in rows:
            assert r["exceeds_threshold"] == "1"
            assert r["beyond_nearest_neighbor"] == "0"
            assert r["outlier"] == "0"

    @pytest.mark.parametrize("overrides, message", [
        ({"split": {"train_fraction": "0.5"}},
         'split.train_fraction must be a number, got "0.5"'),
        ({"split": {"train_fraction": None}},
         "split.train_fraction must be a number, got null"),
        ({"split": {"train_range": [0, 2.9], "test_range": [40, 52]}},
         "split.train_range[1] must be an integer, got 2.9"),
        ({"split": {"train_range": [0, None], "test_range": [40, 52]}},
         "split.train_range[1] must be an integer, got null"),
        ({"categorical_groups": 5},
         "{manifest}.categorical_groups must be a list, got 5"),
        ({"clip_negative_predictions": "false"},
         '{manifest}.clip_negative_predictions must be a boolean, got "false"'),
        ({"csv_path": 3}, "{manifest}.csv_path must be a string, got 3"),
    ], ids=["string-fraction", "null-fraction", "fractional-bound", "null-bound",
            "groups-not-a-list", "string-boolean", "numeric-csv-path"])
    def test_wrong_manifest_value_type_exits_2(self, tmp_path, capsys,
                                               overrides, message):
        manifest_path = _write_dataset(tmp_path)
        manifest = json.loads(manifest_path.read_text())
        manifest.update(overrides)
        manifest_path.write_text(json.dumps(manifest))
        out = tmp_path / "gate.csv"
        assert main(["gate", "--manifest", str(manifest_path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message.format(manifest=manifest_path)}\n"
        assert not out.exists()

    def test_missing_manifest_exits_2(self, tmp_path, capsys):
        code = main(["gate", "--manifest", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "gate.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestRunCommand:
    def test_writes_report_with_config_and_flag_overrides(self, tmp_path):
        manifest_path = _write_dataset(tmp_path)
        config_path = _write_config(tmp_path)
        out_dir = tmp_path / "out"
        code = main(["run", "--manifest", str(manifest_path),
                     "--config", str(config_path), "--trials", "1",
                     "--format", "both", "--out", str(out_dir)])
        assert code == 0
        doc = load_report(out_dir / "report.json")
        assert (out_dir / "trials.csv").exists()
        assert doc["dataset"]["name"] == "cli-demo"
        assert doc["config"]["trials"] == 1          # flag beats config file
        assert doc["config"]["members_per_trial"] == 3
        assert doc["config"]["master_seed"] == 42
        assert doc["config"]["cv_candidates"] == [8]
        assert len(doc["trials"]) == 1

    def test_same_seed_reports_are_byte_identical(self, tmp_path):
        manifest_path = _write_dataset(tmp_path)
        config_path = _write_config(tmp_path)
        for sub in ("a", "b"):
            assert main(["run", "--manifest", str(manifest_path),
                         "--config", str(config_path),
                         "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        manifest_path = _write_dataset(tmp_path)
        config_path = tmp_path / "config.json"
        config_path.write_text('{"trails": 3}')
        code = main(["run", "--manifest", str(manifest_path),
                     "--config", str(config_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "unknown keys" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, key", [
        ({"store_predictions": "false"}, "config.store_predictions"),
        ({"or": {"include_raw_nlr": "false"}}, "config.or.include_raw_nlr"),
        ({"trials": 2.9}, "config.trials"),
        ({"master_seed": True}, "config.master_seed"),
        ({"cv": {"candidate_node_counts": [8.0]}},
         "config.cv.candidate_node_counts[0]"),
        ({"gate_percentiles": ["99"]}, "config.gate_percentiles[0]"),
        ({"or": {"delta1_values": [True]}}, "config.or.delta1_values[0]"),
        ({"cv": 5}, "config.cv"),
        ({"activations": "sigmoid"}, "config.activations"),
    ], ids=["string-boolean", "string-boolean-in-or", "fractional-count",
            "boolean-seed", "float-node-count", "string-percentile",
            "boolean-delta", "cv-not-an-object", "activations-not-a-list"])
    def test_wrong_config_value_type_exits_2(self, tmp_path, capsys,
                                             overrides, key):
        manifest_path = _write_dataset(tmp_path)
        config_path = _write_config(tmp_path, **overrides)
        code = main(["run", "--manifest", str(manifest_path),
                     "--config", str(config_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"activations": ["sigmoid", "softplus", "sigmoid"]},
         "activations must not repeat, got ['sigmoid', 'softplus', 'sigmoid']"),
        ({"gate_percentiles": [95, 99.0, 95.0]},
         "gate percentiles must not repeat, got [95.0, 99.0, 95.0]"),
    ], ids=["repeated-activation", "repeated-percentile"])
    def test_repeated_config_key_exits_2(self, tmp_path, capsys, overrides, message):
        manifest_path = _write_dataset(tmp_path)
        config_path = _write_config(tmp_path, **overrides)
        code = main(["run", "--manifest", str(manifest_path),
                     "--config", str(config_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_or_section_round_trips_into_the_report(self, tmp_path):
        manifest_path = _write_dataset(tmp_path)
        config_path = _write_config(
            tmp_path, **{"or": {"delta1_values": [0.5],
                                "delta2_values": [1.0],
                                "include_raw_nlr": False}})
        out_dir = tmp_path / "out"
        assert main(["run", "--manifest", str(manifest_path),
                     "--config", str(config_path),
                     "--out", str(out_dir)]) == 0
        doc = load_report(out_dir / "report.json")
        assert doc["config"]["delta1_values"] == [0.5]
        assert doc["config"]["delta2_values"] == [1.0]
        assert doc["config"]["include_raw_nlr"] is False


    def test_or_section_keys_left_out_take_the_defaults(self, tmp_path):
        manifest_path = _write_dataset(tmp_path)
        config_path = _write_config(tmp_path, **{"or": {"delta1_values": [0.5]}})
        out_dir = tmp_path / "out"
        assert main(["run", "--manifest", str(manifest_path),
                     "--config", str(config_path),
                     "--out", str(out_dir)]) == 0
        doc = load_report(out_dir / "report.json")
        defaults = OrConfig()
        assert doc["config"]["delta1_values"] == [0.5]
        assert doc["config"]["delta2_values"] == list(defaults.delta2_values)
        assert doc["config"]["include_raw_nlr"] is defaults.include_raw_nlr

    def test_cv_section_keys_left_out_take_the_defaults(self, tmp_path):
        manifest_path = _write_dataset(tmp_path)
        config_path = _write_config(tmp_path, cv={"folds": 4})
        out_dir = tmp_path / "out"
        with pytest.warns(UserWarning, match="skipping candidate"):
            code = main(["run", "--manifest", str(manifest_path),
                         "--config", str(config_path), "--out", str(out_dir)])
        assert code == 0
        doc = load_report(out_dir / "report.json")
        assert doc["config"]["cv_folds"] == 4
        assert doc["config"]["cv_candidates"] == list(CvConfig().candidate_node_counts)

    def test_categorical_manifest_with_gated_rows_runs(self, tmp_path):
        """One-hot columns reach the fallback min-max scaled, like the rest."""
        manifest_path = _write_dataset(tmp_path)
        rows = list(csv.reader((tmp_path / "cli-demo.csv").read_text().splitlines()))
        with open(tmp_path / "cli-demo.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(rows[0] + ["season"])
            for i, row in enumerate(rows[1:]):
                writer.writerow(row + [("wet", "dry")[i % 2]])
        manifest = json.loads(manifest_path.read_text())
        manifest["feature_columns"].append("season")
        manifest["categorical_groups"] = [{"column": "season",
                                           "categories": ["wet", "dry"]}]
        manifest_path.write_text(json.dumps(manifest))
        out_dir = tmp_path / "out"
        assert main(["run", "--manifest", str(manifest_path),
                     "--config", str(_write_config(tmp_path)),
                     "--out", str(out_dir)]) == 0
        doc = load_report(out_dir / "report.json")
        assert doc["dataset"]["n_features"] == 4
        assert doc["dataset"]["outlier_counts"]["99.0"] > 0

class TestReportCommand:
    def _make_report(self, tmp_path, name, seed):
        manifest_path = _write_dataset(tmp_path, name=name, seed=seed)
        config_path = _write_config(tmp_path)
        out_dir = tmp_path / f"out-{name}"
        assert main(["run", "--manifest", str(manifest_path),
                     "--config", str(config_path),
                     "--out", str(out_dir)]) == 0
        return out_dir / "report.json"

    def test_combines_reports_into_a_summary(self, tmp_path, capsys):
        first = self._make_report(tmp_path, "alpha", seed=1)
        second = self._make_report(tmp_path, "beta", seed=2)
        out = tmp_path / "summary.json"
        code = main(["report", str(first), str(second), "--out", str(out)])
        assert code == 0
        summary = json.loads(out.read_text())
        assert summary["kind"] == "outreg-summary"
        assert summary["datasets"] == ["alpha", "beta"]
        assert "sigmoid/99.0/nlr/all/maen" in summary["cells"]
        assert f"wrote {out}" in capsys.readouterr().out

    @pytest.mark.parametrize("body, message", [
        ({}, "dataset must be an object, got null"),
        ({"dataset": {"name": "alpha"}, "aggregates": []},
         "aggregates must be an object, got []"),
        ({"dataset": {"name": "alpha"}, "aggregates": {"sigmoid": []}},
         "aggregates.sigmoid must be an object, got []"),
        ({"dataset": {"name": "alpha"},
          "aggregates": {"sigmoid": {"99.0": {"lr": {}}}}},
         "aggregates.sigmoid.99.0.lr.all must be an object, got null"),
        ({"dataset": {"name": "alpha"},
          "aggregates": {"sigmoid": {"99.0": {"lr": {"all": {"maen": {}}}}}}},
         "aggregates.sigmoid.99.0.lr.all.maen.median must be a number, got null"),
    ], ids=["no-dataset", "aggregates-not-an-object", "activation-not-an-object",
            "missing-subset", "cell-without-median"])
    def test_malformed_report_exits_2(self, tmp_path, capsys, body, message):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"kind": "outreg-report", "schema_version": 1,
                                    **body}))
        out = tmp_path / "summary.json"
        assert main(["report", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    def test_duplicate_dataset_names_exit_2(self, tmp_path, capsys):
        report = self._make_report(tmp_path, "alpha", seed=1)
        code = main(["report", str(report), str(report),
                     "--out", str(tmp_path / "summary.json")])
        assert code == 2
        assert "duplicate" in capsys.readouterr().err
