"""End-to-end protocol checks on small in-memory datasets.

The workhorse fixture is a noise-free affine problem: the linear
baseline recovers it exactly, every far-outside test row is gated at
both percentiles, and both row subsets stay above the scoring
threshold, so the per-cell bookkeeping (additivity across subsets,
aggregate boxplots, difference cells, clipping order) can be recomputed
independently from the per-trial scores and raw arrays.  Determinism is
asserted at the strictest level available: two runs with the same
master seed must agree cell by cell, bitwise.
"""

import dataclasses
import functools
import itertools
import json
import pickle
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest

from outreg import (Activation, CvConfig, OneHotGroup, OrConfig, TargetTransform,
                    apply_minmax, at_percentile, classify, clip_nonnegative,
                    default_node_grid, ensemble_predict, ensemble_train,
                    extrapolate, extrapolation_plan, fit_gate, fit_minmax,
                    load_gate, lr_fit, lr_predict, nlror_predict_detailed,
                    outlier_gate, save_gate)
from outreg.evalharness import (ExperimentConfig, dataset_from_arrays, emit_report,
                                load_dataset, load_manifest, mad, run_experiment)
from outreg.evalharness import cli, experiment
from outreg.evalharness.experiment import METRICS, MODEL_PAIRS, MODELS, SUBSETS
from outreg.evalharness.metrics import boxplot_stats
from test_metrics import as_json, boxplot_oracle
from outreg.seeding import STREAM_TRIAL, derive_seed

Q99 = "99.0"
Q95 = "95.0"


def _affine_arrays():
    """40 train rows in the unit square, 18 interior + 6 far test rows."""
    rng = np.random.default_rng(12345)
    Xtr = rng.uniform(0.0, 1.0, size=(40, 2))
    interior = rng.uniform(0.2, 0.8, size=(18, 2))
    far = np.array([[3.0, 3.0], [-2.0, 4.0], [5.0, -1.0],
                    [4.0, 4.0], [-3.0, -3.0], [6.0, 2.0]])
    Xte = np.vstack([interior, far])

    def target(X):
        return 2.0 * X[:, 0] - X[:, 1] + 0.5

    return Xtr, Xte, target(Xtr), target(Xte)


def _affine_dataset():
    Xtr, Xte, ytr, yte = _affine_arrays()
    return dataset_from_arrays(Xtr, Xte, ytr, yte, name="affine")


def _main_config(**overrides):
    base = dict(
        activations=(Activation.SIGMOID, Activation.RADIAL_BASIS),
        trials=3,
        members_per_trial=3,
        gate_percentiles=(99.0, 95.0),
        cv=CvConfig(folds=5, candidate_node_counts=(8,), seed=7),
        master_seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@functools.cache
def _main_result():
    return run_experiment(_affine_dataset(), _main_config())


def _graded_dataset():
    """120 standard-normal train rows in 2-D, 12 test rows inside and 12
    at radii 2 to 4: the gate flags 10 rows at the 95th percentile and 8
    of them at the 99th."""
    rng = np.random.default_rng(31)
    Xtr = rng.normal(size=(120, 2))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=12)
    radii = np.linspace(2.0, 4.0, 12)
    Xte = np.vstack([rng.normal(scale=0.5, size=(12, 2)),
                     np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])])
    return dataset_from_arrays(Xtr, Xte, Xtr.sum(axis=1), Xte.sum(axis=1), name="graded")


class TestConfigValidation:
    def test_no_activations_rejected(self):
        with pytest.raises(ValueError, match="activation"):
            ExperimentConfig(activations=())

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(trials=0)

    def test_zero_members_rejected(self):
        with pytest.raises(ValueError, match="members_per_trial"):
            ExperimentConfig(members_per_trial=0)

    def test_no_percentiles_rejected(self):
        with pytest.raises(ValueError, match="percentile"):
            ExperimentConfig(gate_percentiles=())

    def test_percentile_bounds_rejected(self):
        for q in (0.0, 100.0, -5.0, 120.0):
            with pytest.raises(ValueError, match="percentile"):
                ExperimentConfig(gate_percentiles=(q,))

    @pytest.mark.parametrize("activations", [(Activation.RADIAL_BASIS,),
                                             (Activation.SIGMOID, Activation.RADIAL_BASIS)])
    def test_radial_basis_needs_three_members(self, activations):
        """Its drop-min-max trimming drops two members per cell; refused
        when built, not after another activation's trials have run."""
        with pytest.raises(ValueError, match=r"^members_per_trial must be at least 3 for "
                                             r"the radial-basis activation, got 2$"):
            ExperimentConfig(activations=activations, members_per_trial=2)
        assert ExperimentConfig(activations=activations, members_per_trial=3)
        assert ExperimentConfig(activations=(Activation.SIGMOID,), members_per_trial=1)

    def test_tiny_min_subset_rejected(self):
        with pytest.raises(ValueError, match="min_subset_rows"):
            ExperimentConfig(min_subset_rows=1)

    def test_repeated_activation_rejected(self):
        """A repeat would pool its trials twice into one activation's cells."""
        with pytest.raises(ValueError, match="activations must not repeat"):
            ExperimentConfig(activations=(Activation.SIGMOID, Activation.SIGMOID))

    def test_categorical_groups_in_or_config_rejected(self):
        """The fallback takes the one-hot groups from the gate, which a run
        fits with the dataset's; OrConfig has no field to give others."""
        group = OneHotGroup(column_indices=(1, 2), category_labels=("a", "b"))
        assert "categorical_groups" not in {f.name for f in dataclasses.fields(OrConfig)}
        with pytest.raises(TypeError, match="categorical_groups"):
            ExperimentConfig(or_config=OrConfig(categorical_groups=(group,)))

    def test_repeated_percentile_rejected(self):
        """95 and 95.0 name one score key, so the echo would list a phantom."""
        with pytest.raises(ValueError, match="^gate_percentiles must not repeat"):
            ExperimentConfig(gate_percentiles=(95, 95.0))

    def test_negative_master_seed_rejected_at_construction(self):
        """Not after the gate, the baseline and the plans are built."""
        with pytest.raises(ValueError, match="master_seed must be non-negative"):
            ExperimentConfig(master_seed=-1)

    @pytest.mark.parametrize("bad", [True, 1.0, "1"])
    def test_non_integer_master_seed_rejected(self, bad):
        """True would run as seed 1 and be echoed as true in the report."""
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            ExperimentConfig(master_seed=bad)


# (the config class, the integer field, a valid value, a numpy integer of it)
INTEGER_FIELDS = [
    (ExperimentConfig, "trials", 2, np.int64(2)),
    (ExperimentConfig, "members_per_trial", 3, np.int32(3)),
    (ExperimentConfig, "master_seed", 42, np.uint64(42)),
    (ExperimentConfig, "min_subset_rows", 5, np.int16(5)),
    (CvConfig, "folds", 5, np.int64(5)),
    (CvConfig, "seed", 7, np.uint32(7)),
    (CvConfig, "candidate_node_counts", (4, 8), (np.int64(4), np.int8(8))),
]


class TestIntegerFields:
    """Every integer field of a config is typed when the config is built:
    a numpy integer is held as an int, and a bool or a float is a
    ValueError that names the field, before any work runs."""

    @pytest.mark.parametrize("config, name, plain, numpy_value", INTEGER_FIELDS,
                             ids=[f[1] for f in INTEGER_FIELDS])
    def test_numpy_integer_held_as_int(self, config, name, plain, numpy_value):
        held = getattr(config(**{name: numpy_value}), name)
        assert held == plain
        assert all(type(v) is int for v in (held if isinstance(held, tuple) else [held]))

    @pytest.mark.parametrize("bad", [True, np.True_, 2.0, np.float64(2.0)],
                             ids=["bool", "numpy-bool", "float", "numpy-float"])
    @pytest.mark.parametrize("config, name, plain, numpy_value", INTEGER_FIELDS,
                             ids=[f[1] for f in INTEGER_FIELDS])
    def test_bool_and_float_rejected(self, config, name, plain, numpy_value, bad):
        value = (plain[0], bad) if isinstance(plain, tuple) else bad
        with pytest.raises(ValueError, match=rf"{name}(\[1\])? must be an integer"):
            config(**{name: value})

    @pytest.mark.parametrize("cv", ["given", "default"])
    def test_numpy_integer_config_writes_the_plain_report(self, tmp_path, cv):
        """The twin of a config of plain ints, with numpy integers in every
        integer field, runs and writes the same report bytes; with the
        default CV, its numpy master seed derives the CV seed."""
        reports = []
        for kind, fields in enumerate(zip(*((plain, numpy_value)
                                            for _, _, plain, numpy_value in INTEGER_FIELDS))):
            trials, members, seed, rows, folds, cv_seed, counts = fields
            config = ExperimentConfig(
                activations=(Activation.SIGMOID,), trials=trials, members_per_trial=members,
                master_seed=seed, min_subset_rows=rows,
                cv=CvConfig(folds=folds, seed=cv_seed, candidate_node_counts=counts)
                if cv == "given" else None)
            emit_report(run_experiment(_affine_dataset(), config), tmp_path / str(kind))
            reports.append((tmp_path / str(kind) / "report.json").read_bytes())
        assert reports[0] == reports[1]


# (the config class, the field, a wrongly typed value, a valid numpy value,
# its plain twin): one case per field kind
TYPED_FIELDS = {
    "bool-raw-nlr": (OrConfig, "include_raw_nlr", 1, np.True_, True),
    "bool-store-predictions": (ExperimentConfig, "store_predictions", 0, np.False_, False),
    "bool-records": (ExperimentConfig, "collect_extrapolation_records", "yes",
                     np.True_, True),
    "activations": (ExperimentConfig, "activations", ("sigmoid",),
                    [Activation.SIGMOID], (Activation.SIGMOID,)),
    "gate-percentiles": (ExperimentConfig, "gate_percentiles", (True,),
                         (np.float64(99.0), np.int64(95)), (99.0, 95.0)),
    "delta1-values": (OrConfig, "delta1_values", (0.5, True), (np.float32(0.5),), (0.5,)),
    "delta2-values": (OrConfig, "delta2_values", ("1",), (np.int8(1),), (1.0,)),
}


class TestTypedFields:
    """The bool, activation and number fields are typed when a config is
    built: a value of the wrong kind is a ValueError that names the field,
    before any work runs, and a numpy value is held as its plain twin."""

    @pytest.mark.parametrize("case", TYPED_FIELDS)
    def test_wrong_kind_rejected_naming_the_field(self, case):
        config, name, bad, _, _ = TYPED_FIELDS[case]
        with pytest.raises(ValueError, match=rf"^{name}(\[\d\])? must be"):
            config(**{name: bad})

    @pytest.mark.parametrize("case", TYPED_FIELDS)
    def test_numpy_value_held_as_its_plain_twin(self, case):
        config, name, _, numpy_value, plain = TYPED_FIELDS[case]
        held = getattr(config(**{name: numpy_value}), name)
        assert held == plain
        assert [type(v) for v in np.atleast_1d(np.asarray(held, dtype=object))] == \
            [type(v) for v in np.atleast_1d(np.asarray(plain, dtype=object))]

    def test_numpy_config_writes_the_plain_report(self, tmp_path):
        """A config with numpy values in every typed field runs and writes
        the report bytes of its plain twin."""
        reports = []
        for kind in (3, 4):    # the numpy value, then the plain twin
            fields = {name: case[kind] for case in TYPED_FIELDS.values()
                      for name in [case[1]] if case[0] is ExperimentConfig}
            fields["activations"] = tuple(fields["activations"]) + (Activation.SOFTPLUS,)
            or_fields = {case[1]: case[kind] for case in TYPED_FIELDS.values()
                         if case[0] is OrConfig}
            config = _main_config(**fields, or_config=OrConfig(**or_fields), trials=2)
            emit_report(run_experiment(_affine_dataset(), config), tmp_path / str(kind))
            reports.append((tmp_path / str(kind) / "report.json").read_bytes())
        assert reports[0] == reports[1]
        assert b'"include_raw_nlr": true' in reports[1]


# (the config class, the field that holds several values, a scalar of the
# kind its items take, a valid list of them, the tuple that list is held as)
CONTAINER_FIELDS = {
    "activations": (ExperimentConfig, "activations", Activation.SIGMOID,
                    [Activation.SIGMOID, Activation.SOFTPLUS],
                    (Activation.SIGMOID, Activation.SOFTPLUS)),
    "gate-percentiles": (ExperimentConfig, "gate_percentiles", 99.0, [99.0, 95.0],
                         (99.0, 95.0)),
    "candidate-node-counts": (CvConfig, "candidate_node_counts", 5, [5, 10], (5, 10)),
    "delta1-values": (OrConfig, "delta1_values", 0.5, [0.5, 0.25], (0.5, 0.25)),
    "delta2-values": (OrConfig, "delta2_values", 0.5, [0.5, 0.25], (0.5, 0.25)),
}


class TestContainerFields:
    """A field that holds several values, or a sub-config, is typed when the
    config is built: a scalar where a sequence belongs, or a dict where a
    config belongs, is a ValueError that names the field, not a TypeError
    or an AttributeError in the middle of a run."""

    @pytest.mark.parametrize("case", CONTAINER_FIELDS)
    def test_scalar_rejected_naming_the_field(self, case):
        config, name, scalar, _, _ = CONTAINER_FIELDS[case]
        with pytest.raises(ValueError, match=rf"^{name} must be a sequence"):
            config(**{name: scalar})

    @pytest.mark.parametrize("unordered", [set, frozenset, dict.fromkeys])
    @pytest.mark.parametrize("case", CONTAINER_FIELDS)
    def test_unordered_collection_rejected_naming_the_field(self, case, unordered):
        """A set's order follows string hashing, so it would set the trial
        order and the report's echo differently from one process to the
        next; a mapping's keys are no better a sequence."""
        config, name, _, items, _ = CONTAINER_FIELDS[case]
        with pytest.raises(ValueError, match=rf"^{name} must be a sequence"):
            config(**{name: unordered(items)})

    @pytest.mark.parametrize("case", CONTAINER_FIELDS)
    def test_tuples_lists_and_arrays_held_as_tuples(self, case):
        config, name, _, items, held = CONTAINER_FIELDS[case]
        for value in (tuple(items), items, np.array(items)):
            assert getattr(config(**{name: value}), name) == held

    @pytest.mark.parametrize("name, value", [("cv", {"folds": 5}),
                                             ("or_config", {"include_raw_nlr": True}),
                                             ("or_config", None)])
    def test_sub_config_of_another_kind_rejected(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be a"):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize("config, name", [(ExperimentConfig, "gate_percentiles"),
                                              (OrConfig, "delta1_values"),
                                              (OrConfig, "delta2_values")])
    def test_integer_too_large_for_a_float_rejected(self, config, name):
        with pytest.raises(ValueError, match=rf"^{name}\[0\] must be a number, got an "
                                             "integer too large for a float"):
            config(**{name: (10 ** 400,)})


def _activation_part(result, activation):
    """Everything a run reports for ``activation``, as exact JSON text."""
    name = activation.value
    return json.dumps({
        "node_count": result.node_counts[name],
        "cv_scores": result.cv_scores[name],
        "trials": [dataclasses.asdict(t) for t in result.trials if t.activation == name],
        "aggregates": result.aggregates[name],
        "differences": result.difference_aggregates[name],
        "records": [r for r in result.extrapolation_records if r["activation"] == name],
    })


class TestKeyedSeeds:
    """Metamorphic checks: trial and CV seeds are keyed by the activation and
    CV streams by the node count, so an activation's results, and a
    candidate's CV score, do not depend on what else the run holds."""

    def test_an_activation_is_bitwise_the_same_beside_any_other(self):
        """The default CV, whose seed the activation keys too."""
        dataset = _affine_dataset()
        parts = {
            activations: _activation_part(run_experiment(dataset, _main_config(
                activations=activations, cv=None, trials=2,
                collect_extrapolation_records=True)), Activation.SIGMOID)
            for activations in ((Activation.SIGMOID,),
                                (Activation.SIGMOID, Activation.SOFTPLUS),
                                (Activation.SOFTPLUS, Activation.SIGMOID))}
        first, *others = parts.values()
        assert all(other == first for other in others)
        assert json.loads(first)["records"]

    def test_a_candidate_scores_the_same_in_any_grid(self):
        dataset = _affine_dataset()
        scores = [run_experiment(dataset, _main_config(
            activations=(Activation.SOFTPLUS,), trials=1,
            cv=CvConfig(folds=5, candidate_node_counts=grid, seed=7))).cv_scores["softplus"]
            for grid in ((8,), (4, 8), (8, 12, 16), (2, 4, 8, 30))]
        assert len({json.dumps(s["8"]) for s in scores}) == 1
        assert all(set(s) == {str(c) for c in grid} for s, grid in zip(
            scores, ((8,), (4, 8), (8, 12, 16), (2, 4, 8, 30))))


class TestMetamorphicRelations:
    """Results that depend only on what they are (Chen et al. 2018, *ACM
    Computing Surveys* 51(1)): on the test rows as a set, mapped row by
    row, and on the gate percentiles as a set."""

    def test_permuted_test_rows_permute_predictions_and_records(self):
        """Each row's predictions and fallback records follow the row,
        bitwise; the scores and aggregates, which sum over rows in another
        order, move by rounding only, as ``tools/report_diff.py`` measures."""
        Xtr, Xte, ytr, yte = _affine_arrays()
        order = np.random.default_rng(8).permutation(len(Xte))
        config = _main_config(trials=2, store_predictions=True,
                              collect_extrapolation_records=True)
        base, moved = (run_experiment(dataset_from_arrays(Xtr, Xte[rows], ytr, yte[rows]),
                                      config)
                       for rows in (np.arange(len(Xte)), order))
        for a, b in zip(base.trials, moved.trials):
            assert a.predictions.keys() == b.predictions.keys()
            for key, values in a.predictions.items():
                assert (np.array(b.predictions[key]).tobytes()
                        == np.array(values)[order].tobytes())

        def by_row(records, rows):
            return {(r["activation"], r["trial"], r["percentile"], int(rows[r["row"]])):
                    json.dumps({**r, "row": int(rows[r["row"]])}) for r in records}

        assert by_row(base.extrapolation_records, np.arange(len(Xte)))
        assert (by_row(moved.extrapolation_records, order)
                == by_row(base.extrapolation_records, np.arange(len(Xte))))

        def scored(result):
            return json.loads(json.dumps({
                "summary": result.dataset_summary, "node_counts": result.node_counts,
                "cv_scores": result.cv_scores, "aggregates": result.aggregates,
                "differences": result.difference_aggregates,
                "trials": [dataclasses.replace(t, predictions=None).__dict__
                           for t in result.trials]}))

        float_pairs = runpy.run_path(
            str(Path(__file__).parents[1] / "tools" / "report_diff.py"))["float_pairs"]
        pairs = list(float_pairs(scored(base), scored(moved)))
        assert len(pairs) > 100
        assert max(abs(x - y) / max(abs(x), abs(y), 1e-300) for _, x, y in pairs) < 1e-12

    def test_reversed_gate_percentiles_leave_every_score(self):
        """At 99 and 95 the graded rows flag 8 and 10 outliers, so the two
        keys score different subsets."""
        trials = [run_experiment(_graded_dataset(), _main_config(
            trials=2, gate_percentiles=percentiles)).trials
            for percentiles in ((99.0, 95.0), (95.0, 99.0))]
        assert trials[0][0].outlier_counts == {Q99: 8, Q95: 10}
        for a, b in zip(*trials):
            assert list(a.scores) == list(reversed(b.scores))
            for key in a.scores:
                assert json.dumps(a.scores[key]) == json.dumps(b.scores[key])


class TestResultShape:
    def test_one_trial_report_per_activation_and_trial(self):
        result = _main_result()
        assert len(result.trials) == 2 * 3
        seen = [(t.activation, t.trial_index) for t in result.trials]
        assert seen == [("sigmoid", 0), ("sigmoid", 1), ("sigmoid", 2),
                        ("radial-basis", 0), ("radial-basis", 1),
                        ("radial-basis", 2)]

    def test_trial_seeds_derived_from_master(self):
        """Keyed by the activation's position in ``Activation``."""
        result = _main_result()
        for t in result.trials:
            key = list(Activation).index(Activation(t.activation))
            assert t.trial_seed == derive_seed(42, STREAM_TRIAL, key,
                                               t.trial_index)

    def test_node_count_fixed_by_cv_config(self):
        result = _main_result()
        assert result.node_counts == {"sigmoid": 8, "radial-basis": 8}
        for t in result.trials:
            assert t.node_count == 8

    def test_cv_scores_recorded_per_candidate(self):
        result = _main_result()
        for activation in ("sigmoid", "radial-basis"):
            scores = result.cv_scores[activation]
            assert set(scores) == {"8"}
            assert scores["8"] >= 0.0

    def test_score_grid_is_complete(self):
        result = _main_result()
        for t in result.trials:
            assert set(t.scores) == {Q99, Q95}
            for qk in (Q99, Q95):
                assert set(t.scores[qk]) == set(MODELS)
                for model in MODELS:
                    assert set(t.scores[qk][model]) == set(SUBSETS)
                    for subset in SUBSETS:
                        assert set(t.scores[qk][model][subset]) == set(METRICS)

    def test_dataset_summary_counts(self):
        result = _main_result()
        summary = result.dataset_summary
        assert summary["name"] == "affine"
        assert summary["n_train"] == 40
        assert summary["n_test"] == 24
        assert summary["n_features"] == 2
        assert summary["dropped_rows"] == 0
        assert summary["target_transform"] == "none"
        assert summary["clip_negative_predictions"] is False
        assert summary["r_outl_excluded_columns"] == []
        assert summary["r_outl"] > 1.0

    def test_config_summary_reflects_explicit_cv(self):
        result = _main_result()
        summary = result.config_summary
        assert summary["activations"] == ["sigmoid", "radial-basis"]
        assert summary["trials"] == 3
        assert summary["members_per_trial"] == 3
        assert summary["gate_percentiles"] == [99.0, 95.0]
        assert summary["master_seed"] == 42
        assert summary["cv_folds"] == 5
        assert summary["cv_candidates"] == [8]
        assert summary["delta1_values"] == [0.25, 0.5]
        assert summary["delta2_values"] == [0.5, 1.0]
        assert summary["include_raw_nlr"] is True

    def test_config_summary_echoes_the_default_cv(self):
        config = _main_config(activations=(Activation.SOFTPLUS,), trials=1,
                              cv=None)
        summary = run_experiment(_affine_dataset(), config).config_summary
        assert summary["cv_folds"] == CvConfig().folds
        assert summary["cv_candidates"] == list(default_node_grid(40))


class TestGateBookkeeping:
    def test_all_far_rows_gated(self):
        result = _main_result()
        counts = result.dataset_summary["outlier_counts"]
        assert counts[Q99] == 6
        assert counts[Q95] == 6

    def test_looser_percentile_never_flags_fewer(self):
        result = _main_result()
        counts = result.dataset_summary["outlier_counts"]
        assert counts[Q95] >= counts[Q99]

    def test_trial_outlier_counts_match_summary(self):
        result = _main_result()
        for t in result.trials:
            assert t.outlier_counts == result.dataset_summary["outlier_counts"]

    def test_counts_match_direct_classification(self):
        """The harness gates scaled inputs exactly as a by-hand gate fitted
        at each percentile does, whichever percentile comes first."""
        dataset = _graded_dataset()
        scaler = fit_minmax(dataset.train_inputs)
        Ztr = apply_minmax(scaler, dataset.train_inputs)
        Zte = apply_minmax(scaler, dataset.test_inputs)
        for percentiles in ((99.0, 95.0), (95.0, 99.0)):
            prepared = experiment._prepare(dataset, _main_config(gate_percentiles=percentiles))
            assert list(prepared.subsets) == [repr(q) for q in percentiles]
            for q in percentiles:
                part = classify(fit_gate(Ztr, q), Zte)
                rows = prepared.subsets[repr(q)]
                np.testing.assert_array_equal(rows["outliers"], part.outlier_indices)
                np.testing.assert_array_equal(rows["non_outliers"], part.non_outlier_indices)
                assert prepared.dataset_summary["outlier_counts"][repr(q)] == \
                    part.outlier_indices.size
            assert [len(prepared.subsets[repr(q)]["outliers"])
                    for q in (95.0, 99.0)] == [10, 8]

    def test_one_fit_and_one_search_per_row_over_the_lowest_threshold(self, monkeypatch):
        """``_prepare`` fits the gate once and searches the neighbour of each
        row over the lowest percentile's threshold once, plans included."""
        dataset = _graded_dataset()
        scaler = fit_minmax(dataset.train_inputs)
        gate = fit_gate(apply_minmax(scaler, dataset.train_inputs), 95.0)
        over = int(np.sum(classify(gate, apply_minmax(scaler, dataset.test_inputs)).distances
                          > gate.threshold_distance))
        calls = {"fit_gate": 0, "nearest_training_neighbor": 0}

        def counting(function):
            def call(*args, **kwargs):
                calls[function.__name__] += 1
                return function(*args, **kwargs)
            return call

        monkeypatch.setattr(experiment, "fit_gate", counting(fit_gate))
        search = counting(outlier_gate.nearest_training_neighbor)
        monkeypatch.setattr(outlier_gate, "nearest_training_neighbor", search)
        monkeypatch.setattr(extrapolate, "nearest_training_neighbor", search)
        prepared = experiment._prepare(dataset, _main_config(gate_percentiles=(99.0, 95.0)))
        assert len(prepared.plans) == 10
        assert calls == {"fit_gate": 1, "nearest_training_neighbor": over}


class TestScores:
    def test_linear_baseline_is_exact_on_affine_data(self):
        result = _main_result()
        for t in result.trials:
            for qk in (Q99, Q95):
                for subset in SUBSETS:
                    cell = t.scores[qk]["lr"][subset]
                    assert cell["maen"] == pytest.approx(0.0, abs=1e-10)
                    assert cell["spearman"] == pytest.approx(1.0)

    def test_lr_scores_constant_across_trials(self):
        result = _main_result()
        reference = result.trials[0].scores[Q99]["lr"]
        for t in result.trials:
            assert t.scores[Q99]["lr"] == reference

    def test_fallback_matches_plain_ensemble_off_outliers(self):
        """Replacing only gated rows cannot move the non-outlier cells."""
        result = _main_result()
        for t in result.trials:
            for qk in (Q99, Q95):
                assert t.scores[qk]["nlr_or"]["non_outliers"] == \
                    t.scores[qk]["nlr"]["non_outliers"]

    def test_fallback_changes_the_outlier_cells(self):
        result = _main_result()
        changed = [
            t.scores[qk]["nlr_or"]["outliers"] != t.scores[qk]["nlr"]["outliers"]
            for t in _main_result().trials for qk in (Q99, Q95)
        ]
        assert any(changed)

    def test_subset_additivity_of_absolute_errors(self):
        """n_all * MAEn_all == n_out * MAEn_out + n_rest * MAEn_rest."""
        result = _main_result()
        n_test = result.dataset_summary["n_test"]
        for t in result.trials:
            for qk in (Q99, Q95):
                n_out = t.outlier_counts[qk]
                n_rest = n_test - n_out
                for model in MODELS:
                    cells = t.scores[qk][model]
                    whole = n_test * cells["all"]["maen"]
                    parts = (n_out * cells["outliers"]["maen"]
                             + n_rest * cells["non_outliers"]["maen"])
                    assert whole == pytest.approx(parts, abs=1e-10)

    def test_mad_reference_is_full_test_target_mad(self):
        _, _, _, yte = _affine_arrays()
        result = _main_result()
        assert result.dataset_summary["mad_reference"] == mad(yte)


class TestDeterminism:
    def test_same_master_seed_reproduces_every_cell(self):
        dataset = _affine_dataset()
        first = run_experiment(dataset, _main_config())
        second = run_experiment(dataset, _main_config())
        assert len(first.trials) == len(second.trials)
        for a, b in zip(first.trials, second.trials):
            assert a.trial_seed == b.trial_seed
            assert a.scores == b.scores
        assert first.aggregates == second.aggregates
        assert first.difference_aggregates == second.difference_aggregates

    def test_different_master_seed_changes_ensembles(self):
        dataset = _affine_dataset()
        other = run_experiment(dataset, _main_config(master_seed=43))
        base = _main_result()
        assert other.trials[0].scores[Q99]["nlr"]["all"] != \
            base.trials[0].scores[Q99]["nlr"]["all"]


class TestAggregates:
    def test_aggregate_matches_recomputed_boxplot(self):
        result = _main_result()
        rows = [t for t in result.trials if t.activation == "sigmoid"]
        values = np.array([t.scores[Q99]["nlr"]["all"]["maen"] for t in rows])
        stats = boxplot_stats(values)
        cell = result.aggregates["sigmoid"][Q99]["nlr"]["all"]["maen"]
        assert cell["median"] == stats.median
        assert cell["q25"] == stats.q25
        assert cell["q75"] == stats.q75
        assert cell["whisker_low"] == stats.whisker_low
        assert cell["whisker_high"] == stats.whisker_high
        assert cell["mean"] == float(np.mean(values))
        assert cell["n"] == 3

    def test_difference_cells_are_paired_by_trial(self):
        result = _main_result()
        rows = [t for t in result.trials if t.activation == "radial-basis"]
        or_values = np.array(
            [t.scores[Q95]["nlr_or"]["outliers"]["maen"] for t in rows])
        nlr_values = np.array(
            [t.scores[Q95]["nlr"]["outliers"]["maen"] for t in rows])
        stats = boxplot_stats(or_values - nlr_values)
        cell = result.difference_aggregates[
            "radial-basis"][Q95]["nlr_or_minus_nlr"]["outliers"]["maen"]
        assert cell["median"] == stats.median
        assert cell["n"] == 3

    def test_all_model_pairs_present(self):
        result = _main_result()
        names = set(result.difference_aggregates["sigmoid"][Q99])
        assert names == {f"{hi}_minus_{lo}" for hi, lo in MODEL_PAIRS}

    @staticmethod
    def _trials(nlr, lr):
        """Trials whose only non-null cells are nlr's and lr's all-row MAEn."""
        trials = []
        for t, pair in enumerate(zip(nlr, lr)):
            scores = {Q99: {model: {subset: dict.fromkeys(METRICS) for subset in SUBSETS}
                            for model in MODELS}}
            for model, value in zip(("nlr", "lr"), pair):
                scores[Q99][model]["all"]["maen"] = value
            trials.append(experiment.TrialReport("sigmoid", t, t, 8, {Q99: 0}, scores))
        return trials

    def test_difference_skips_trials_where_either_model_is_null(self):
        """nlr is null in trial 0 and lr in trial 1, so only trial 2 pairs."""
        _, differences = experiment._aggregate_cells(
            self._trials([None, 0.9, 0.8], [0.5, None, 0.1]), [Q99])
        cell = differences[Q99]["nlr_minus_lr"]["all"]["maen"]
        assert cell["n"] == 1
        assert cell["median"] == 0.8 - 0.1

    def test_unequal_null_counts_keep_the_paired_trials(self):
        aggregates, differences = experiment._aggregate_cells(
            self._trials([None, 0.9, 0.8], [0.5, 0.4, 0.1]), [Q99])
        assert aggregates[Q99]["nlr"]["all"]["maen"]["n"] == 2
        assert aggregates[Q99]["lr"]["all"]["maen"]["n"] == 3
        cell = differences[Q99]["nlr_minus_lr"]["all"]["maen"]
        assert cell["n"] == 2
        assert cell["mean"] == float(np.mean([0.9 - 0.4, 0.8 - 0.1]))
        assert differences[Q99]["nlr_minus_lr"]["all"]["spearman"] is None

    @staticmethod
    def _per_cell_loop(trials, percentile_keys):
        """The aggregates as built before the row-wise kernel: one summary
        per cell, over the trials whose score is not null."""
        aggregates: dict = {}
        differences: dict = {}
        for qk, subset, metric in itertools.product(percentile_keys, SUBSETS, METRICS):
            scores = {model: [t.scores[qk][model][subset][metric] for t in trials]
                      for model in MODELS}
            for hi, lo in MODEL_PAIRS:
                scores[f"{hi}_minus_{lo}"] = [None if a is None or b is None else a - b
                                              for a, b in zip(scores[hi], scores[lo])]
            for name, values in scores.items():
                kept = [v for v in values if v is not None]
                cell = ((aggregates if name in MODELS else differences)
                        .setdefault(qk, {}).setdefault(name, {}).setdefault(subset, {}))
                cell[metric] = boxplot_oracle(kept) if kept else None
        return aggregates, differences

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_per_cell_loop_when_null_masks_differ(self, seed):
        """25 trials; each cell has its own share of null scores (none, some
        or all), and the values tie at 0.0 and -0.0 and reach far out."""
        rng = np.random.default_rng(seed)
        keys = (Q99, Q95)
        null_share = {cell: rng.choice([0.0, 0.0, 0.1, 0.4, 1.0])
                      for cell in itertools.product(keys, MODELS, SUBSETS, METRICS)}
        trials = []
        for t in range(25):
            scores = {}
            for (qk, model, subset, metric), share in null_share.items():
                value = float(rng.choice([0.0, -0.0, 0.5, 1.0, rng.normal(), 40.0]))
                (scores.setdefault(qk, {}).setdefault(model, {}).setdefault(subset, {})
                 )[metric] = None if rng.random() < share else value
            trials.append(experiment.TrialReport("sigmoid", t, t, 8, {}, scores))
        got = experiment._aggregate_cells(trials, keys)
        assert as_json(got) == as_json(self._per_cell_loop(trials, keys))


class TestSmallSubsets:
    def test_subsets_below_threshold_report_none(self):
        """Two gated rows with min_subset_rows=5: outlier cells stay empty."""
        rng = np.random.default_rng(99)
        Xtr = rng.uniform(0.0, 1.0, size=(30, 2))
        Xte = np.vstack([rng.uniform(0.1, 0.9, size=(10, 2)),
                         [[5.0, 5.0], [-4.0, 6.0]]])
        ytr = Xtr[:, 0] + Xtr[:, 1]
        yte = Xte[:, 0] + Xte[:, 1]
        dataset = dataset_from_arrays(Xtr, Xte, ytr, yte, name="two-gated")
        config = _main_config(activations=(Activation.SIGMOID,),
                              gate_percentiles=(99.0,), trials=1)
        result = run_experiment(dataset, config)
        assert result.dataset_summary["outlier_counts"][Q99] == 2
        cells = result.trials[0].scores[Q99]
        for model in MODELS:
            assert cells[model]["outliers"] == {"maen": None, "spearman": None}
            assert cells[model]["all"]["maen"] is not None
            assert cells[model]["non_outliers"]["maen"] is not None
        aggregate = result.aggregates["sigmoid"][Q99]["nlr"]["outliers"]
        assert aggregate["maen"] is None
        assert aggregate["spearman"] is None

    def test_constant_test_target_disables_both_metrics(self):
        """MAD of a constant reference is zero, so MAEn has no scale, and
        rank correlation is undefined on a constant vector."""
        rng = np.random.default_rng(7)
        Xtr = rng.uniform(0.0, 1.0, size=(30, 2))
        Xte = rng.uniform(0.1, 0.9, size=(8, 2))
        dataset = dataset_from_arrays(Xtr, Xte, Xtr[:, 0], np.full(8, 3.0),
                                      name="flat-target")
        config = _main_config(activations=(Activation.SIGMOID,),
                              gate_percentiles=(99.0,), trials=1)
        result = run_experiment(dataset, config)
        assert result.dataset_summary["mad_reference"] == 0.0
        cells = result.trials[0].scores[Q99]
        for model in MODELS:
            assert cells[model]["all"] == {"maen": None, "spearman": None}


class TestStoredPredictions:
    def test_keys_and_original_units(self):
        """With a log10 target the stored values must be de-transformed."""
        rng = np.random.default_rng(21)
        Xtr = rng.uniform(0.0, 1.0, size=(35, 2))
        Xte = np.vstack([rng.uniform(0.1, 0.9, size=(8, 2)),
                         [[4.0, 4.0], [-3.0, 5.0]]])
        ytr_raw = 10.0 ** (Xtr[:, 0] - Xtr[:, 1] + 1.0)
        yte_raw = 10.0 ** (Xte[:, 0] - Xte[:, 1] + 1.0)
        dataset = dataset_from_arrays(
            Xtr, Xte, ytr_raw, yte_raw, name="log-scale",
            target_transform=TargetTransform.LOG10)
        config = _main_config(activations=(Activation.SIGMOID,),
                              gate_percentiles=(99.0,), trials=2,
                              store_predictions=True)
        result = run_experiment(dataset, config)
        for t in result.trials:
            assert set(t.predictions) == {"lr", "nlr", "nlr_or@99.0"}
            # the transformed target is affine, so LR is exact and the
            # stored (inverse-transformed) values equal the raw targets
            np.testing.assert_allclose(t.predictions["lr"], yte_raw,
                                       rtol=1e-10)

    def test_predictions_absent_by_default(self):
        result = _main_result()
        for t in result.trials:
            assert t.predictions is None

    def test_clip_applies_to_scores_only_without_transform(self):
        """clip flag + no transform: scoring sees clipped predictions."""
        rng = np.random.default_rng(31)
        Xtr = rng.uniform(0.0, 1.0, size=(35, 2))
        Xte = np.vstack([rng.uniform(0.1, 0.9, size=(10, 2)),
                         [[4.0, 4.0], [-3.0, 5.0], [6.0, -2.0],
                          [5.0, 5.0], [-4.0, -4.0]]])
        ytr = Xtr[:, 0] - 0.6          # negative for small x0
        yte = Xte[:, 0] - 0.6
        dataset = dataset_from_arrays(Xtr, Xte, ytr, yte, name="clipped",
                                      clip_negative_predictions=True)
        config = _main_config(activations=(Activation.SIGMOID,),
                              gate_percentiles=(99.0,), trials=1,
                              store_predictions=True)
        result = run_experiment(dataset, config)
        stored = np.array(result.trials[0].predictions["lr"])
        assert stored.min() >= 0.0
        # recompute the lr cell from scratch with the same clipping order
        scaler = fit_minmax(Xtr)
        pred = clip_nonnegative(
            lr_predict(lr_fit(apply_minmax(scaler, Xtr), ytr),
                       apply_minmax(scaler, Xte)))
        expected = float(np.mean(np.abs(pred - yte)) / mad(yte))
        cell = result.trials[0].scores[Q99]["lr"]["all"]
        assert cell["maen"] == pytest.approx(expected, rel=1e-12)
        np.testing.assert_array_equal(stored, pred)


class TestExtrapolationRecords:
    def test_records_cover_every_gated_row(self):
        config = _main_config(activations=(Activation.SIGMOID,),
                              gate_percentiles=(99.0,), trials=2,
                              collect_extrapolation_records=True)
        result = run_experiment(_affine_dataset(), config)
        records = result.extrapolation_records
        n_out = result.dataset_summary["outlier_counts"][Q99]
        assert len(records) == 2 * n_out
        outlier_rows = {r["row"] for r in records}
        assert len(outlier_rows) == n_out
        for record in records:
            assert record["activation"] == "sigmoid"
            assert record["percentile"] == Q99
            assert record["trial"] in (0, 1)
            assert np.isfinite(record["value"])
            assert record["nn_index"] is not None
            labels = [label for label, _ in record["candidates"]]
            assert "raw-surface" in labels
            values = [value for _, value in record["candidates"]]
            assert record["value"] == float(np.median(values))

    def test_fallback_runs_once_per_gated_row_and_trial(self, monkeypatch):
        """One plan per gated row per run, whatever the activations and
        trials; a row gated at two percentiles has twin records."""
        calls = []

        def counting(gate, x_o, config, *, nn_index):
            calls.append(1)
            return extrapolation_plan(gate, x_o, config, nn_index=nn_index)

        monkeypatch.setattr(experiment, "extrapolation_plan", counting)
        config = _main_config(trials=2, collect_extrapolation_records=True)
        result = run_experiment(_affine_dataset(), config)
        records = result.extrapolation_records
        gated = {q: {r["row"] for r in records if r["percentile"] == q}
                 for q in (Q99, Q95)}
        both = gated[Q99] & gated[Q95]
        assert both
        assert len(config.activations) == config.trials == 2
        assert len(calls) == len(gated[Q99] | gated[Q95])

        def content(record):
            return {k: v for k, v in record.items() if k != "percentile"}

        by_key = {(r["activation"], r["trial"], r["percentile"], r["row"]): r
                  for r in records}
        for (activation, trial, qk, row), record in by_key.items():
            if qk == Q99 and row in both:
                twin = by_key[(activation, trial, Q95, row)]
                assert content(record) == content(twin)

    def test_unit_records_equal_the_fallback_on_the_trial_surface(self):
        """Bitwise: a unit's records are ``nlror_predict_detailed`` on the
        trial's ensemble, the last percentile's gate and the run's OrConfig."""
        dataset, config = _affine_dataset(), _main_config(collect_extrapolation_records=True)
        prepared = experiment._prepare(dataset, config)
        Ztr = apply_minmax(fit_minmax(dataset.train_inputs), dataset.train_inputs)
        gate = fit_gate(Ztr, config.gate_percentiles[-1])
        activation, t = Activation.RADIAL_BASIS, 2
        key = list(Activation).index(activation)
        ensemble = ensemble_train(Ztr, dataset.train_target[:, None], 8,
                                  activation, member_count=config.members_per_trial,
                                  seed=derive_seed(config.master_seed, STREAM_TRIAL, key, t))
        _, records = experiment._run_unit(prepared, activation, 8, t)
        assert {r["row"] for r in records} == set(prepared.plans)
        for r in records:
            expected = nlror_predict_detailed(
                lambda P: ensemble_predict(ensemble, P)[:, 0], gate,
                prepared.Zte[r["row"]], config.or_config)
            assert np.float64(r["value"]).tobytes() == np.float64(expected.value).tobytes()
            assert r["candidates"] == [list(c) for c in expected.candidates]
            assert r["dropped"] == [list(d) for d in expected.dropped]
            assert r["nn_index"] == expected.nn_index

    def test_no_neighbour_search_or_centre_after_prepare(self, monkeypatch):
        """The units read the plans: after ``_prepare`` the run searches no
        neighbour and builds no categorical centre."""
        prepare = experiment._prepare

        def forbidden(name):
            def call(*args):
                raise AssertionError(f"{name} called after _prepare")
            return call

        def prepare_then_forbid(dataset, config):
            prepared = prepare(dataset, config)
            for module, name in ((extrapolate, "nearest_training_neighbor"),
                                 (extrapolate, "categorical_center"),
                                 (outlier_gate, "nearest_training_neighbor")):
                monkeypatch.setattr(module, name, forbidden(name))
            return prepared

        monkeypatch.setattr(experiment, "_prepare", prepare_then_forbid)
        config = _main_config(trials=2, collect_extrapolation_records=True)
        result = run_experiment(_categorical_dataset("ABABABA"), config)
        assert result.extrapolation_records

    def test_records_empty_by_default(self):
        assert _main_result().extrapolation_records == ()


class TestIndicatorColumns:
    def test_indicator_and_constant_columns_excluded_from_severity(self):
        rng = np.random.default_rng(17)
        n_tr, n_te = 30, 12
        base_tr = rng.uniform(0.0, 1.0, size=(n_tr, 1))
        base_te = rng.uniform(0.1, 0.9, size=(n_te, 1))
        flags_tr = (np.arange(n_tr) % 2).astype(float)[:, None]
        flags_te = (np.arange(n_te) % 2).astype(float)[:, None]
        const_tr = np.full((n_tr, 1), 2.5)
        const_te = np.full((n_te, 1), 2.5)
        Xtr = np.hstack([base_tr, flags_tr, 1.0 - flags_tr, const_tr])
        Xte = np.hstack([base_te, flags_te, 1.0 - flags_te, const_te])
        groups = (OneHotGroup(column_indices=(1, 2),
                              category_labels=("a", "b")),)
        dataset = dataset_from_arrays(Xtr, Xte, Xtr[:, 0], Xte[:, 0],
                                      name="mixed", onehot_groups=groups)
        config = _main_config(activations=(Activation.SIGMOID,),
                              gate_percentiles=(99.0,), trials=1)
        result = run_experiment(dataset, config)
        assert result.dataset_summary["r_outl_excluded_columns"] == [1, 2, 3]


def _categorical_dataset(test_categories):
    """One continuous column and a 3-category block (A, B, C).

    Training alternates A and B, so C's column is constant there.  The
    last test row sits far outside the continuous training range, with
    the category named last in ``test_categories``.
    """
    rng = np.random.default_rng(23)
    n_tr = 40
    codes = np.eye(3)
    x_tr = rng.uniform(0.0, 1.0, size=n_tr)
    Xtr = np.column_stack([x_tr, codes[np.arange(n_tr) % 2]])
    cats = ["ABC".index(c) for c in test_categories]
    x_te = np.append(rng.uniform(0.2, 0.8, size=len(cats) - 1), 6.0)
    Xte = np.column_stack([x_te, codes[cats]])
    groups = (OneHotGroup(column_indices=(1, 2, 3),
                          category_labels=("A", "B", "C")),)
    return dataset_from_arrays(Xtr, Xte, 1.0 + Xtr[:, 0], 1.0 + Xte[:, 0],
                               name="categorical", onehot_groups=groups)


class TestCategoricalFallback:
    """Gated rows of a dataset with a one-hot block reach the fallback in
    min-max scaled form, indicator columns included."""

    def _run(self, dataset):
        config = _main_config(activations=(Activation.SIGMOID,),
                              gate_percentiles=(99.0,), trials=1,
                              collect_extrapolation_records=True)
        return run_experiment(dataset, config)

    def test_gated_row_with_a_training_category_completes(self):
        dataset = _categorical_dataset("ABABABA")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = self._run(dataset)
        record = next(r for r in result.extrapolation_records if r["row"] == 6)
        assert record["candidates"]
        # the neighbour shares the outlier's category
        np.testing.assert_array_equal(
            dataset.train_inputs[record["nn_index"], 1:],
            dataset.test_inputs[6, 1:])

    def test_category_absent_from_training_takes_global_centre(self):
        dataset = _categorical_dataset("ABABABC")
        with pytest.warns(UserWarning, match="global training centre"):
            result = self._run(dataset)
        assert 6 in [r["row"] for r in result.extrapolation_records]

    def test_reloaded_gate_plans_bitwise_as_the_run(self, tmp_path):
        """A deploy caller who saves and reloads the run's fitted gate, moved
        to a percentile, builds bitwise the run's plan for every gated row:
        the scaled groups travel with the gate."""
        digests = runpy.run_path(str(Path(__file__).parents[1] / "tools"
                                     / "report_digests.py"))
        dataset = load_dataset(load_manifest(
            digests["_write_record"](tmp_path, "categorical", seed=2024)))
        config = _main_config(gate_percentiles=(99.0, 75.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            prepared = experiment._prepare(dataset, config)
        save_gate(tmp_path / "gate.npz", at_percentile(prepared.pipeline.gate, 75.0))
        loaded = load_gate(tmp_path / "gate.npz")
        part = classify(loaded, prepared.Zte)
        assert part.outlier_indices.tolist() == sorted(prepared.plans)
        assert len(prepared.plans) >= 5
        categories = {tuple(dataset.test_inputs[i, 2:]) for i in prepared.plans}
        assert len(categories) >= 2
        for i, nn in zip(part.outlier_indices, part.nearest_indices):
            plan, run_plan = (extrapolation_plan(loaded, prepared.Zte[i], config.or_config,
                                                 nn_index=nn), prepared.plans[i])
            assert plan.labels == run_plan.labels
            assert plan.anchors.tobytes() == run_plan.anchors.tobytes()
            assert plan.slopes.tobytes() == run_plan.slopes.tobytes()
            assert plan.dropped == run_plan.dropped
            assert plan.nn_index == run_plan.nn_index
        # without its groups the gate anchors some row's centre line elsewhere
        plain = dataclasses.replace(loaded, onehot_groups=())
        assert any(extrapolation_plan(plain, prepared.Zte[i], config.or_config,
                                      nn_index=nn).anchors.tobytes()
                   != prepared.plans[i].anchors.tobytes()
                   for i, nn in zip(part.outlier_indices, part.nearest_indices))


def _bits(unit):
    """A unit's report and records as JSON text, each float by its repr, so
    two units compare equal only when every float has the same bits."""
    report, records = unit
    return json.dumps([dataclasses.asdict(report), records])


class TestUnits:
    """A run is one fitted pipeline, the prepared state around it, and one
    pure unit per (activation, node count, trial)."""

    def _config(self):
        return _main_config(store_predictions=True,
                            collect_extrapolation_records=True)

    def test_unit_equals_the_matching_trial_of_a_full_run(self):
        dataset, config = _affine_dataset(), self._config()
        result = run_experiment(dataset, config)
        prepared = experiment._prepare(dataset, config)
        for ai, activation in enumerate(config.activations):
            for t in range(config.trials):
                expected = result.trials[ai * config.trials + t]
                report, records = experiment._run_unit(
                    prepared, activation, expected.node_count, t)
                assert report == expected
                assert records == [r for r in result.extrapolation_records
                                   if r["activation"] == activation.value
                                   and r["trial"] == t]
                assert records

    def test_pickled_prepared_state_gives_the_same_unit(self):
        """Bitwise, on an unpickled copy of the prepared state and on the
        state around an unpickled copy of its pipeline alone."""
        dataset = _categorical_dataset("ABABABA")
        config = self._config()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prepared = experiment._prepare(dataset, config)
        assert prepared.plans
        expected = _bits(experiment._run_unit(prepared, Activation.RADIAL_BASIS, 8, 2))
        restored = pickle.loads(pickle.dumps(prepared))
        repiped = dataclasses.replace(
            prepared, pipeline=pickle.loads(pickle.dumps(prepared.pipeline)))
        for state in (restored, repiped):
            assert _bits(experiment._run_unit(state, Activation.RADIAL_BASIS, 8, 2)) == expected


class TestOneFitPath:
    """A run and ``outreg gate`` fit the scaler, the gate and the linear
    baseline through ``fit_pipeline``, each once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {}

        def count(module, name):
            function = getattr(module, name)

            def call(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return function(*args, **kwargs)
            monkeypatch.setattr(module, name, call)

        for name in ("fit_pipeline", "fit_minmax", "fit_gate", "lr_fit", "classify"):
            count(experiment, name)
        count(cli, "fit_pipeline")
        return calls

    def test_a_run_fits_and_classifies_once(self, calls):
        run_experiment(_categorical_dataset("ABABABA"), _main_config())
        assert calls == {"fit_pipeline": 1, "fit_minmax": 1, "fit_gate": 1, "lr_fit": 1,
                         "classify": 1}

    def test_outreg_gate_fits_through_the_pipeline(self, calls, tmp_path, capsys):
        digests = runpy.run_path(str(Path(__file__).parents[1] / "tools"
                                     / "report_digests.py"))
        manifest = digests["_write_record"](tmp_path, "categorical", seed=2024)
        assert cli.main(["gate", "--manifest", str(manifest), "--percentile", "75",
                         "--out", str(tmp_path / "gate.csv")]) == 0
        assert calls == {"fit_pipeline": 1, "fit_minmax": 1, "fit_gate": 1, "lr_fit": 1}

    def test_an_or_config_of_another_type_is_refused_before_any_fit(self, calls):
        with pytest.raises(ValueError) as info:
            experiment.fit_pipeline(_affine_dataset(), 99.0, {"include_raw_nlr": True})
        assert str(info.value) == \
            'or_config must be an OrConfig, got {"include_raw_nlr": true}'
        assert calls == {"fit_pipeline": 1}
