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

import functools
import pickle
import warnings

import numpy as np
import pytest

from outreg import (Activation, CvConfig, OneHotGroup, OrConfig, TargetTransform,
                    apply_minmax, classify, clip_nonnegative,
                    default_node_grid, ensemble_predict, ensemble_train,
                    extrapolate, extrapolation_plan, fit_gate, fit_minmax,
                    lr_fit, lr_predict, nlror_predict_detailed, outlier_gate)
from outreg.evalharness import (ExperimentConfig, dataset_from_arrays, mad,
                                run_experiment)
from outreg.evalharness import experiment
from outreg.evalharness.experiment import METRICS, MODEL_PAIRS, MODELS, SUBSETS
from outreg.evalharness.metrics import boxplot_stats
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

    def test_tiny_min_subset_rejected(self):
        with pytest.raises(ValueError, match="min_subset_rows"):
            ExperimentConfig(min_subset_rows=1)

    def test_repeated_activation_rejected(self):
        """A repeat would pool its trials twice into one activation's cells."""
        with pytest.raises(ValueError, match="activations must not repeat"):
            ExperimentConfig(activations=(Activation.SIGMOID, Activation.SIGMOID))

    def test_categorical_groups_in_or_config_rejected(self):
        """The fallback takes the dataset's one-hot groups; the report does
        not echo any others, so a run could not be reproduced from it."""
        group = OneHotGroup(column_indices=(1, 2), category_labels=("a", "b"))
        with pytest.raises(ValueError, match="categorical_groups"):
            ExperimentConfig(or_config=OrConfig(categorical_groups=(group,)))

    def test_repeated_percentile_rejected(self):
        """95 and 95.0 name one score key, so the echo would list a phantom."""
        with pytest.raises(ValueError, match="gate percentiles must not repeat"):
            ExperimentConfig(gate_percentiles=(95, 95.0))


class TestResultShape:
    def test_one_trial_report_per_activation_and_trial(self):
        result = _main_result()
        assert len(result.trials) == 2 * 3
        seen = [(t.activation, t.trial_index) for t in result.trials]
        assert seen == [("sigmoid", 0), ("sigmoid", 1), ("sigmoid", 2),
                        ("radial-basis", 0), ("radial-basis", 1),
                        ("radial-basis", 2)]

    def test_trial_seeds_derived_from_master(self):
        result = _main_result()
        for t in result.trials:
            ai = 0 if t.activation == "sigmoid" else 1
            assert t.trial_seed == derive_seed(42, STREAM_TRIAL, ai,
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
        gate = fit_gate(prepared.Ztr, config.gate_percentiles[-1])
        ai, t = 1, 2
        ensemble = ensemble_train(prepared.Ztr, dataset.train_target[:, None], 8,
                                  config.activations[ai], member_count=config.members_per_trial,
                                  seed=derive_seed(config.master_seed, STREAM_TRIAL, ai, t))
        _, records = experiment._run_unit(prepared, ai, 8, t)
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


class TestUnits:
    """A run is one prepared state plus one pure unit per (activation, trial)."""

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
                    prepared, ai, expected.node_count, t)
                assert report == expected
                assert records == [r for r in result.extrapolation_records
                                   if r["activation"] == activation.value
                                   and r["trial"] == t]
                assert records

    def test_pickled_prepared_state_gives_the_same_unit(self):
        dataset, config = _affine_dataset(), self._config()
        prepared = experiment._prepare(dataset, config)
        restored = pickle.loads(pickle.dumps(prepared))
        assert experiment._run_unit(restored, 1, 8, 2) == \
            experiment._run_unit(prepared, 1, 8, 2)
