"""Command line behaviour, exercised in-process through ``main(argv)``.

Each subcommand is driven end to end against small on-disk fixtures
(CSV plus manifest written into tmp_path) and its outputs are parsed
back and cross-checked against the library calls the command wraps.
Failures must exit with status 2 and a message on stderr, never a
traceback.
"""

import csv
import dataclasses
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from outreg import (Activation, CvConfig, OrConfig, apply_minmax, beyond_nearest_neighbor,
                    classify, fit_gate, fit_minmax, outlier_gate)
from outreg.evalharness import (ExperimentConfig, experiment, load_dataset, load_manifest,
                                load_report)
from outreg.evalharness import cli
from outreg.evalharness.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


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

    def test_unknown_activation_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["toy", "--activation", "tanh",
                  "--out", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2
        assert "'sigmoid', 'radial-basis', 'softplus'" in capsys.readouterr().err


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

    def test_searches_each_row_once(self, tmp_path, monkeypatch):
        """The numeric record of tools/report_digests.py has 16 test rows, 8
        of them over the 95th-percentile threshold: one search per row, and
        the CSV's neighbour column is that of searching every row."""
        tool = runpy.run_path(str(Path(__file__).parents[1] / "tools" / "report_digests.py"))
        manifest_path = tool["_write_record"](tmp_path, "numeric", seed=2024)
        searched = []
        search = outlier_gate.nearest_training_neighbor
        monkeypatch.setattr(outlier_gate, "nearest_training_neighbor",
                            lambda gate, x: searched.append(x) or search(gate, x))
        out = tmp_path / "gate.csv"
        assert main(["gate", "--manifest", str(manifest_path),
                     "--percentile", "95", "--out", str(out)]) == 0
        assert len(searched) == 16
        monkeypatch.undo()

        dataset = load_dataset(load_manifest(manifest_path))
        scaler = fit_minmax(dataset.train_inputs)
        gate = fit_gate(apply_minmax(scaler, dataset.train_inputs), 95.0)
        beyond = beyond_nearest_neighbor(gate, apply_minmax(scaler, dataset.test_inputs))
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert sum(r["exceeds_threshold"] == "1" for r in rows) == 8
        assert [r["beyond_nearest_neighbor"] for r in rows] == \
            [str(int(b)) for b in beyond]

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

    @pytest.mark.parametrize("overrides, key", [
        ({"gate_percentiles": [10 ** 400]}, "config.gate_percentiles[0]"),
        ({"or": {"delta1_values": [10 ** 400]}}, "config.or.delta1_values[0]"),
        ({"or": {"delta2_values": [0.5, -10 ** 400]}}, "config.or.delta2_values[1]"),
    ], ids=["percentile", "delta1", "delta2"])
    def test_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys, overrides, key):
        """A 401-digit JSON integer where a number belongs is an error that
        names the field by its JSON path, not an OverflowError traceback."""
        manifest_path = _write_dataset(tmp_path)
        config_path = _write_config(tmp_path, **overrides)
        code = main(["run", "--manifest", str(manifest_path),
                     "--config", str(config_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (f"error: {key} must be a number, got an integer "
                                           "too large for a float\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"activations": ["sigmoid", "softplus", "sigmoid"]},
         'config.activations must not repeat, got ["sigmoid", "softplus", "sigmoid"]'),
        ({"gate_percentiles": [95, 99.0, 95.0]},
         "config.gate_percentiles must not repeat, got [95.0, 99.0, 95.0]"),
        ({"or": {"delta1_values": [0.5, 0.5]}},
         "config.or.delta1_values must not repeat a value at 6 significant digits, "
         "got [0.5, 0.5]"),
        ({"or": {"delta2_values": [0.25, 0.2500001]}},
         "config.or.delta2_values must not repeat a value at 6 significant digits, "
         "got [0.25, 0.2500001]"),
    ], ids=["repeated-activation", "repeated-percentile", "repeated-delta1",
            "delta2-alike-at-6-digits"])
    def test_repeated_config_key_exits_2(self, tmp_path, capsys, overrides, message):
        manifest_path = _write_dataset(tmp_path)
        config_path = _write_config(tmp_path, **overrides)
        code = main(["run", "--manifest", str(manifest_path),
                     "--config", str(config_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, flags", [
        ({"activations": ["sigmoid", "radial-basis"], "members_per_trial": 2}, []),
        (None, ["--members", "2"]),
    ], ids=["config", "members-flag"])
    def test_radial_basis_with_two_members_exits_2_before_training(
            self, tmp_path, capsys, monkeypatch, config, flags):
        """Drop-min-max trimming needs 3 members: refused before sigmoid's
        cross-validation and trials could run."""
        def no_training(*args, **kwargs):
            raise AssertionError("a member trained")

        monkeypatch.setattr(experiment, "select_node_count", no_training)
        monkeypatch.setattr(experiment, "ensemble_train", no_training)
        argv = ["run", "--manifest", str(_write_dataset(tmp_path)), *flags,
                "--out", str(tmp_path / "out")]
        if config is not None:
            argv += ["--config", str(_write_config(tmp_path, **config))]
        assert main(argv) == 2
        prefix = "config." if config is not None else ""
        assert capsys.readouterr().err == (f"error: {prefix}members_per_trial must be at "
                                           "least 3 for the radial-basis activation, got 2\n")
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

    def test_every_candidate_dropped_without_raw_value_exits_2(self, tmp_path, capsys,
                                                               monkeypatch):
        """The last test row copies training row 0 but for a category no
        training row has.  Its indicators are pinned onto the neighbour,
        which then coincides with it, and the centre line ends on it, so
        both routes drop; with the raw value excluded there is no
        prediction, found while the run is prepared."""
        rng = np.random.default_rng(5)
        x = np.append(rng.uniform(0.0, 1.0, size=26), 0.0)
        x[-1] = x[0]
        seasons = ["wet", "dry"] * 13
        seasons[-1] = "wet"
        seasons.append("snow")
        with open(tmp_path / "snow.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["x0", "season", "y"])
            for value, season in zip(x, seasons):
                writer.writerow([repr(float(value)), season, repr(float(2.0 * value + 1.0))])
        manifest_path = tmp_path / "snow.json"
        manifest_path.write_text(json.dumps({
            "name": "snow", "csv_path": "snow.csv",
            "feature_columns": ["x0", "season"], "target_column": "y",
            "categorical_groups": [{"column": "season",
                                    "categories": ["wet", "dry", "snow"]}],
            "split": {"train_range": [0, 21], "test_range": [21, 27]},
        }))
        config_path = _write_config(tmp_path, **{"or": {"include_raw_nlr": False}})

        def no_training(*args, **kwargs):
            raise AssertionError("members trained before the plans were built")

        monkeypatch.setattr(experiment, "select_node_count", no_training)
        monkeypatch.setattr(experiment, "ensemble_train", no_training)
        with pytest.warns(UserWarning, match="global training centre"):
            code = main(["run", "--manifest", str(manifest_path),
                         "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: all directional candidates were dropped")
        assert "nearest neighbour coincides with the point" in err
        assert "at or beyond the outlier" in err
        assert not (tmp_path / "out").exists()


_ACTIVATIONS = "['sigmoid', 'radial-basis', 'softplus']"


class TestConfigErrors:
    """The config dataclasses are the one typing layer: the CLI checks only
    the keys, and every config error is one line that names its field
    once, by its JSON path, before the dataset is read."""

    @pytest.mark.parametrize("overrides, message", [
        ({"trials": 2.9}, "config.trials must be an integer, got 2.9"),
        ({"master_seed": -1}, "config.master_seed must be non-negative, got -1"),
        ({"cv": {"folds": 1}}, "config.cv.folds must be at least 2, got 1"),
        ({"cv": {"candidate_node_counts": [0, 5]}},
         "config.cv.candidate_node_counts[0] must be at least 1, got 0"),
        ({"cv": {"candidate_node_counts": [8, 5]}},
         "config.cv.candidate_node_counts must be strictly increasing, got [8, 5]"),
        ({"gate_percentiles": [99.0, 100]}, "config.gate_percentiles[1] must be in (0, 100), "
                                            "got 100.0"),
        ({"or": {"delta1_values": [0.0]}}, "config.or.delta1_values[0] must be positive, "
                                           "got 0.0"),
        ({"or": {"delta2_values": [0.5, 2]}}, "config.or.delta2_values[1] must lie in (0, 1], "
                                              "got 2.0"),
        ({"activations": ["sigmoid", "sigmoid"]},
         'config.activations must not repeat, got ["sigmoid", "sigmoid"]'),
        ({"activations": []}, "config.activations must not be empty"),
        ({"gate_percentiles": []}, "config.gate_percentiles must not be empty"),
        ({"cv": {"candidate_node_counts": []}},
         "config.cv.candidate_node_counts must not be empty"),
        ({"or": {"delta1_values": [], "delta2_values": [], "include_raw_nlr": False}},
         "config.or.include_raw_nlr must be true when both delta lists are empty, "
         "or no candidate is configured"),
        ({"activations": ["nope"]},
         f'config.activations[0] must be one of {_ACTIVATIONS}, got "nope"'),
        ({"activations": ["sigmoid", 1]},
         f"config.activations[1] must be one of {_ACTIVATIONS}, got 1"),
        ({"activations": {"sigmoid": 1}},
         'config.activations must be a sequence, got {"sigmoid": 1}'),
        ({"trails": 3}, "config: unknown keys ['trails']"),
        ({"or_config": {}}, "config: unknown keys ['or_config']"),
        ({"cv": {"bogus": 1}}, "config.cv: unknown keys ['bogus']"),
        ({"or": {"delta3_values": []}}, "config.or: unknown keys ['delta3_values']"),
        ({"cv": None}, "config.cv must be an object, got null"),
        ({"or": [0.5]}, "config.or must be an object, got [0.5]"),
        ({"trials": None}, "config.trials must be an integer, got null"),
        ({"store_predictions": "false"},
         'config.store_predictions must be a boolean, got "false"'),
    ], ids=["type", "negative-seed", "folds", "node-count", "node-order", "percentile",
            "delta1", "delta2", "repeat", "no-activation", "no-percentile", "no-node-count",
            "no-candidate", "unknown-activation", "non-string-activation",
            "activations-object", "unknown-key", "field-name-for-or", "unknown-cv-key",
            "unknown-or-key", "null-cv", "or-not-an-object", "null-integer",
            "string-boolean"])
    def test_one_line_naming_the_field_by_its_path(self, tmp_path, capsys, monkeypatch,
                                                  overrides, message):
        def no_work(*args, **kwargs):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "load_dataset", no_work)
        code = main(["run", "--manifest", str(tmp_path / "absent.json"),
                     "--config", str(_write_config(tmp_path, **overrides)),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        path = message.split(" ")[0].rstrip(":").split("[")[0]
        assert len(re.findall(rf"\b{re.escape(path)}\b", message)) == 1
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("[]")
        assert main(["run", "--manifest", str(_write_dataset(tmp_path)),
                     "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: config must be an object, got []\n"

    def test_config_that_is_not_json_names_the_file(self, tmp_path, capsys):
        """As the manifest reader does: the path, then the decoder's message."""
        config_path = tmp_path / "config.json"
        config_path.write_text('{"trials": 2,}')
        assert main(["run", "--manifest", str(_write_dataset(tmp_path)),
                     "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {config_path}: not valid JSON (Expecting property name enclosed "
            f"in double quotes: line 1 column 14 (char 13))\n")
        assert not (tmp_path / "out").exists()

    def test_every_dataclass_field_is_a_key(self):
        """The keys come from the dataclass fields, ``or`` standing for
        ``or_config``: a config that sets every field to its default is the
        default config."""
        def as_json(value):
            if dataclasses.is_dataclass(value):
                return {f.name: as_json(getattr(value, f.name))
                        for f in dataclasses.fields(value)}
            if isinstance(value, tuple):
                return [as_json(v) for v in value]
            return value.value if isinstance(value, Activation) else value

        default = ExperimentConfig(cv=CvConfig())
        raw = as_json(default)
        raw["or"] = raw.pop("or_config")
        assert cli._config_from_json(raw) == default


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

    def test_report_that_is_not_json_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text('{"kind": "outreg-report",}')
        assert main(["report", str(path), "--out", str(tmp_path / "summary.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: not valid JSON (")

    def test_duplicate_dataset_names_exit_2(self, tmp_path, capsys):
        report = self._make_report(tmp_path, "alpha", seed=1)
        code = main(["report", str(report), str(report),
                     "--out", str(tmp_path / "summary.json")])
        assert code == 2
        assert "duplicate" in capsys.readouterr().err


def _write_fit_record(directory, train_rows=400, dim=4):
    """``train_rows`` training rows on ``dim`` inputs and 40 test rows, the
    last 10 far outside.  At the defaults, members with 150 nodes and the
    CV's fold fits on 320 rows take the least-squares solve's QR route; at
    1400 rows on 6 inputs with 300 nodes, the fold fits on 1120 rows take
    the QR route and the members the Gram route, on arrays of 2.7 to
    3.4 MB.  Returns the manifest path."""
    rng = np.random.default_rng(2026)
    X = rng.uniform(-1.0, 1.0, size=(train_rows + 40, dim))
    X[-10:] *= 4.0
    y = np.sin(X[:, 0]) + X[:, 1] * X[:, 2] - 0.5 * X[:, 3]
    columns = [f"x{i}" for i in range(dim)]
    csv_path = directory / "fit.csv"
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns + ["y"])
        for row, target in zip(X, y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])
    manifest_path = directory / "fit.json"
    manifest_path.write_text(json.dumps({
        "name": "fit",
        "csv_path": csv_path.name,
        "feature_columns": columns,
        "target_column": "y",
        "split": {"train_range": [0, train_rows],
                  "test_range": [train_rows, train_rows + 40]},
    }))
    return manifest_path


_QR_CONFIG = {"trials": 1, "members_per_trial": 20,
              "cv": {"folds": 5, "candidate_node_counts": [150], "seed": 7}}


def _child_env():
    """The environment with no heap policy of the user's and one BLAS thread."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _child(script, *args):
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=_child_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _on_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


class TestHeapPolicy:
    """``main`` has glibc keep freed heap for the next fit.  Without it,
    each QR-route member fit faults its ~1 MB of [H | y] copies in again,
    about 200 minor faults a member.  The policy moves no report byte, and
    it is left out off glibc and wherever the user has set a heap policy."""

    _TWO_RUNS = """
import contextlib, resource, sys
from outreg.evalharness.cli import main
manifest, config, *outs = sys.argv[1:]
for out in outs:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(sys.stderr):
        assert main(["run", "--manifest", manifest, "--config", config, "--out", out]) == 0
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

    _LIBRARY_RUN = """
import sys
from outreg import Activation, CvConfig
from outreg.evalharness import (ExperimentConfig, emit_report, load_dataset,
                                load_manifest, run_experiment)
manifest, out = sys.argv[1:]
config = ExperimentConfig(activations=(Activation.SIGMOID,), trials=1,
                          members_per_trial=20, gate_percentiles=(99.0,),
                          master_seed=42,
                          cv=CvConfig(folds=5, candidate_node_counts=(150,), seed=7))
emit_report(run_experiment(load_dataset(load_manifest(manifest)), config), out)
"""

    @pytest.mark.parametrize("train_rows, dim, nodes, members, bound", [
        (400, 4, 150, 20, 1000), (1400, 6, 300, 5, 3000)])
    def test_a_second_run_does_not_fault_its_fits_in_again(
            self, tmp_path, train_rows, dim, nodes, members, bound):
        """Faults of a second run in one process (one BLAS thread, glibc
        2.36).  400x4 at 150 nodes, 25 QR-route fits: 5,600 to 8,900
        without the policy, about 25 with it.  1400x6 at 300 nodes, 5
        QR-route folds and 5 Gram-route members: 11,000 to 16,300 without
        it, about 16,300 with thresholds of 2 and 4 MiB, and about 760 with
        32 and 64 MiB.  Each bound sits far from all of them."""
        if not _on_glibc():
            pytest.skip("the heap policy is set on glibc only")
        manifest = _write_fit_record(tmp_path, train_rows, dim)
        config = _write_config(tmp_path, trials=1, members_per_trial=members,
                               cv={"folds": 5, "candidate_node_counts": [nodes], "seed": 7})
        first, second = map(int, _child(self._TWO_RUNS, manifest, config,
                                        tmp_path / "a", tmp_path / "b").split())
        assert second < 1000, (first, second)
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()

    def test_the_policy_moves_no_report_byte(self, tmp_path):
        manifest = _write_fit_record(tmp_path)
        config = _write_config(tmp_path, **_QR_CONFIG)
        _child(self._TWO_RUNS, manifest, config, tmp_path / "cli")
        _child(self._LIBRARY_RUN, manifest, tmp_path / "library")
        assert (tmp_path / "cli" / "report.json").read_bytes() == \
            (tmp_path / "library" / "report.json").read_bytes()

    def test_both_thresholds_are_set_on_glibc(self, monkeypatch):
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        for name in [n for n in os.environ if n.startswith("MALLOC_")] + ["GLIBC_TUNABLES"]:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr("ctypes.CDLL", lambda name: Libc())
        cli._keep_freed_heap()
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]  # M_MMAP_ and M_TRIM_THRESHOLD

    def test_glibc_accepts_both_thresholds(self):
        """``mallopt`` returns 0, and sets nothing, for an mmap threshold
        above glibc's ceiling (32 MiB on 64-bit)."""
        if not _on_glibc():
            pytest.skip("the heap policy is set on glibc only")
        out = _child("import ctypes\n"
                     "from outreg.evalharness.cli import _MMAP_THRESHOLD, _TRIM_THRESHOLD\n"
                     "libc = ctypes.CDLL(None)\n"
                     "print(libc.mallopt(-3, _MMAP_THRESHOLD), libc.mallopt(-1, _TRIM_THRESHOLD))")
        assert out.split() == ["1", "1"]

    def _no_libc_call(self, monkeypatch, tmp_path):
        def refuse(name):
            raise AssertionError("the heap policy was set")

        monkeypatch.setattr("ctypes.CDLL", refuse)
        manifest_path = _write_dataset(tmp_path)
        config_path = _write_config(tmp_path)
        for sub in ("a", "b"):
            assert main(["run", "--manifest", str(manifest_path),
                         "--config", str(config_path),
                         "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()

    @pytest.mark.parametrize("confstr", [None, ValueError, AttributeError])
    def test_off_glibc_the_policy_is_left_alone(self, monkeypatch, tmp_path, confstr):
        def libc_version(name):
            if confstr is None:
                return None
            raise confstr(name)

        monkeypatch.setattr(os, "confstr", libc_version)
        self._no_libc_call(monkeypatch, tmp_path)

    @pytest.mark.parametrize("variable", ["MALLOC_TRIM_THRESHOLD_", "MALLOC_ARENA_MAX",
                                          "GLIBC_TUNABLES"])
    def test_a_user_heap_policy_is_left_alone(self, monkeypatch, tmp_path, variable):
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.setenv(variable, "131072" if variable.startswith("MALLOC_")
                           else "glibc.malloc.trim_threshold=131072")
        self._no_libc_call(monkeypatch, tmp_path)
