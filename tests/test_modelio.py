"""Round-trip persistence for ensembles and gates.

The only interesting property is bit-exactness: a reloaded model must
predict identically, and a reloaded gate must classify identically.
Header checks guard against feeding one artifact kind into the other
loader, and field checks against a gate file whose arrays disagree in
shape or hold non-finite values, one-hot group arrays included.
"""

import dataclasses

import numpy as np
import pytest

from outreg import (Activation, OneHotGroup, TrimPolicy, classify, ensemble_predict,
                    ensemble_train, fit_gate, load_ensemble, load_gate,
                    mahalanobis_distance, save_ensemble, save_gate)


def small_ensemble(activation=Activation.RADIAL_BASIS):
    X = np.linspace(-1, 1, 30)[:, None]
    return ensemble_train(X, np.sin(3 * X), 8, activation,
                          member_count=5, seed=11)


class TestEnsembleRoundTrip:
    def test_predictions_bit_identical(self, tmp_path):
        ensemble = small_ensemble()
        path = tmp_path / "model.npz"
        save_ensemble(path, ensemble)
        loaded = load_ensemble(path)
        grid = np.linspace(-2, 2, 50)[:, None]
        np.testing.assert_array_equal(ensemble_predict(loaded, grid),
                                      ensemble_predict(ensemble, grid))

    def test_structure_preserved(self, tmp_path):
        ensemble = small_ensemble()
        path = tmp_path / "model.npz"
        save_ensemble(path, ensemble)
        loaded = load_ensemble(path)
        assert loaded.trim_policy is TrimPolicy.DROP_MIN_MAX
        assert loaded.activation is Activation.RADIAL_BASIS
        assert loaded.node_count == 8
        assert loaded.seed == 11
        assert len(loaded.members) == 5
        for original, reloaded in zip(ensemble.members, loaded.members):
            assert reloaded.seed == original.seed
            np.testing.assert_array_equal(reloaded.hidden_weights,
                                          original.hidden_weights)
            np.testing.assert_array_equal(reloaded.output_weights,
                                          original.output_weights)

    def test_none_seeds_survive(self, tmp_path):
        from outreg import ElmModel, EnsembleModel
        member = ElmModel(hidden_weights=np.ones((2, 1)),
                          hidden_biases=np.zeros(2),
                          output_weights=np.ones((2, 1)),
                          activation=Activation.SIGMOID)
        ensemble = EnsembleModel(members=(member,),
                                 trim_policy=TrimPolicy.NONE)
        path = tmp_path / "model.npz"
        save_ensemble(path, ensemble)
        loaded = load_ensemble(path)
        assert loaded.seed is None
        assert loaded.members[0].seed is None


def season_gate():
    """A gate on a continuous column, then a scaled three-season block."""
    rng = np.random.default_rng(37)
    seasons = np.where(np.eye(3)[np.arange(24) % 3] > 0, 1.0, -1.0)
    group = OneHotGroup(column_indices=(1, 2, 3), category_labels=("dry", "wet", "mixed"),
                        levels=((-1.0, 1.0),) * 3)
    return fit_gate(np.column_stack([rng.normal(size=24), seasons]), 95.0,
                    onehot_groups=(group,))


class TestGateRoundTrip:
    def test_classification_bit_identical(self, tmp_path):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(60, 3))
        gate = fit_gate(X, percentile_q=95.0)
        path = tmp_path / "gate.npz"
        save_gate(path, gate)
        loaded = load_gate(path)
        tests = rng.normal(size=(40, 3)) * 3
        original = classify(gate, tests)
        reloaded = classify(loaded, tests)
        np.testing.assert_array_equal(reloaded.outlier_indices,
                                      original.outlier_indices)
        np.testing.assert_array_equal(reloaded.distances, original.distances)
        for row in tests[:5]:
            assert (mahalanobis_distance(loaded, row)
                    == mahalanobis_distance(gate, row))

    def test_gate_without_groups_round_trips(self, tmp_path):
        gate = fit_gate(np.random.default_rng(31).normal(size=(20, 3)))
        path = tmp_path / "gate.npz"
        save_gate(path, gate)
        assert load_gate(path).onehot_groups == ()

    def test_scalar_fields_preserved(self, tmp_path):
        rng = np.random.default_rng(19)
        gate = fit_gate(rng.normal(size=(30, 2)), percentile_q=97.5)
        path = tmp_path / "gate.npz"
        save_gate(path, gate)
        loaded = load_gate(path)
        assert loaded.percentile_q == 97.5
        assert loaded.threshold_distance == gate.threshold_distance


class TestHeaderChecks:
    def test_wrong_kind_rejected(self, tmp_path):
        rng = np.random.default_rng(21)
        gate = fit_gate(rng.normal(size=(20, 2)))
        gate_path = tmp_path / "gate.npz"
        save_gate(gate_path, gate)
        with pytest.raises(ValueError, match="expected format"):
            load_ensemble(gate_path)

        ensemble_path = tmp_path / "model.npz"
        save_ensemble(ensemble_path, small_ensemble())
        with pytest.raises(ValueError, match="expected format"):
            load_gate(ensemble_path)

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, stuff=np.ones(3))
        with pytest.raises(ValueError, match="not a recognised model file"):
            load_ensemble(path)

    def test_version_1_file_loads_with_no_groups(self, tmp_path):
        """A version-1 gate file, written before gates held one-hot groups."""
        gate = fit_gate(np.random.default_rng(29).normal(size=(20, 3)), 95.0)
        path = tmp_path / "old.npz"
        np.savez(path, format="outreg-gate", version=1,
                 **{name: getattr(gate, name) for name in GATE_FIELDS})
        loaded = load_gate(path)
        assert loaded.onehot_groups == ()
        np.testing.assert_array_equal(loaded.training_inputs, gate.training_inputs)
        assert loaded.threshold_distance == gate.threshold_distance

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.npz"
        np.savez(path, format="outreg-gate", version=99,
                 mean=np.zeros(2))
        with pytest.raises(ValueError, match="unsupported format version"):
            load_gate(path)



def _inf_diagonal(rows):
    return np.where(np.eye(*rows.shape) > 0, np.inf, rows)


GATE_FIELDS = ("mean", "covariance", "covariance_inverse_factor", "threshold_distance",
               "percentile_q", "center", "training_inputs")

# id -> (field, a change to a fitted 3-D gate that breaks one check of load_gate)
BAD_GATE_FIELDS = {
    "mean-2d": ("mean", lambda g: g.mean[None, :]),
    "mean-empty": ("mean", lambda g: np.zeros(0)),
    "covariance-columns": ("covariance", lambda g: g.covariance[:, :2]),
    "covariance-nan": ("covariance", lambda g: np.full_like(g.covariance, np.nan)),
    "inverse-factor-shape": ("covariance_inverse_factor",
                             lambda g: g.covariance_inverse_factor[:2, :2]),
    "center-one-column": ("center", lambda g: g.center[:1]),
    "center-strings": ("center", lambda g: g.center.astype(str)),
    "training-one-column": ("training_inputs", lambda g: g.training_inputs[:, :1]),
    "training-one-row": ("training_inputs", lambda g: g.training_inputs[:1]),
    "training-inf": ("training_inputs", lambda g: _inf_diagonal(g.training_inputs)),
    "threshold-nan": ("threshold_distance", lambda g: float("nan")),
    "threshold-inf": ("threshold_distance", lambda g: float("inf")),
    "percentile-0": ("percentile_q", lambda g: 0.0),
    "percentile-100": ("percentile_q", lambda g: 100.0),
}


class TestGateFieldChecks:
    """A gate file whose fields disagree in shape, or hold non-finite
    values, fails at load with the file and the field named, instead of
    classifying with broadcast geometry."""

    @pytest.mark.parametrize("case", BAD_GATE_FIELDS)
    def test_bad_field_rejected(self, tmp_path, case):
        field, bad = BAD_GATE_FIELDS[case]
        gate = fit_gate(np.random.default_rng(23).normal(size=(20, 3)))
        path = tmp_path / "gate.npz"
        save_gate(path, dataclasses.replace(gate, **{field: bad(gate)}))
        with pytest.raises(ValueError, match=rf"gate\.npz: gate field '{field}'"):
            load_gate(path)

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("field", GATE_FIELDS)
    def test_missing_field_named(self, tmp_path, version, field):
        """A file missing one of the seven gate fields is a ValueError
        naming the file and the field, not a KeyError from the archive."""
        path = tmp_path / "gate.npz"
        save_gate(path, season_gate())
        with np.load(path) as data:
            # a version-1 file holds no group arrays
            arrays = {k: v for k, v in data.items()
                      if k != field and (version == 2 or not k.startswith("onehot_"))}
        arrays["version"] = version
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=rf"gate\.npz: gate field '{field}' is missing"):
            load_gate(path)



# id -> (array, its replacement in a saved season_gate file)
BAD_GROUP_ARRAYS = {
    "columns-past-the-inputs": ("columns", np.array([1, 2, 4])),
    "columns-negative": ("columns", np.array([-1, 2, 3])),
    "columns-repeated": ("columns", np.array([1, 1, 3])),
    "columns-floats": ("columns", np.array([1.0, 2.0, 3.0])),
    "columns-2d": ("columns", np.array([[1, 2, 3]])),
    "sizes-short-of-the-columns": ("sizes", np.array([2])),
    "sizes-with-an-empty-group": ("sizes", np.array([0, 3])),
    "sizes-floats": ("sizes", np.array([3.0])),
    "labels-one-short": ("labels", np.array(["dry", "wet"])),
    "labels-numbers": ("labels", np.array([1, 2, 3])),
    "levels-three-per-column": ("levels", np.zeros((3, 3))),
    "levels-one-row-short": ("levels", np.zeros((2, 2))),
    "levels-nan": ("levels", np.array([[-1.0, 1.0], [np.nan, 1.0], [-1.0, 1.0]])),
    "levels-strings": ("levels", np.full((3, 2), "1")),
    "levels-missing": ("levels", None),
}


class TestGroupArrayChecks:
    """A version-2 gate file whose one-hot arrays disagree with each other
    or with the gate's inputs fails at load with the file and the array
    named."""

    @pytest.mark.parametrize("case", BAD_GROUP_ARRAYS)
    def test_bad_group_array_rejected(self, tmp_path, case):
        name, bad = BAD_GROUP_ARRAYS[case]
        path = tmp_path / "gate.npz"
        save_gate(path, season_gate())
        with np.load(path) as data:
            arrays = dict(data)
        arrays[f"onehot_{name}"] = bad
        np.savez(path, **{k: v for k, v in arrays.items() if v is not None})
        with pytest.raises(ValueError, match=rf"gate\.npz: gate field 'onehot_{name}'"):
            load_gate(path)
