"""Round-trip persistence for ensembles and gates.

The only interesting property is bit-exactness: a reloaded model must
predict identically, and a reloaded gate must classify identically.
Header checks guard against feeding one artifact kind into the other
loader, and field checks against a gate file whose arrays disagree in
shape or hold non-finite values.
"""

import dataclasses

import numpy as np
import pytest

from outreg import (Activation, TrimPolicy, classify, ensemble_predict,
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

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.npz"
        np.savez(path, format="outreg-gate", version=99,
                 mean=np.zeros(2))
        with pytest.raises(ValueError, match="unsupported format version"):
            load_gate(path)



def _inf_diagonal(rows):
    return np.where(np.eye(*rows.shape) > 0, np.inf, rows)


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

