"""Round-trip persistence for ensembles and gates.

The only interesting property is bit-exactness: a reloaded model must
predict identically, and a reloaded gate must classify identically.
Header checks guard against feeding one artifact kind into the other
loader, and field checks against a file with a missing field, or whose
arrays disagree in shape or hold non-finite values: a gate's, one-hot
group arrays included, and an ensemble's, member count and seeds
included.  A file that is not an NPZ archive is named too, and the
written layout of each format is pinned field by field.  Frozen writers
of ensemble format versions 1 and 2 keep the older files' checks: their
member seeds are checked, then dropped.
"""

import dataclasses
import gc
import warnings

import numpy as np
import pytest

from outreg import (Activation, OneHotGroup, TrimPolicy, classify, ensemble_predict,
                    ensemble_train, fit_gate, load_ensemble, load_gate,
                    mahalanobis_distance, save_ensemble, save_gate)
from outreg.seeding import STREAM_MEMBER, derive_seed


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
            np.testing.assert_array_equal(reloaded.hidden_weights,
                                          original.hidden_weights)
            np.testing.assert_array_equal(reloaded.output_weights,
                                          original.output_weights)

    def test_none_seeds_survive(self, tmp_path):
        from outreg import EnsembleModel
        ensemble = EnsembleModel(np.ones((1, 2, 1)), np.zeros((1, 2)), np.ones((1, 2, 1)),
                                 Activation.SIGMOID, TrimPolicy.NONE)
        path = tmp_path / "model.npz"
        save_ensemble(path, ensemble)
        loaded = load_ensemble(path)
        assert loaded.seed is None

    def test_mismatched_stacks_never_reach_a_file(self, tmp_path):
        """Stacks that disagree in M or L are refused when the ensemble is
        built or replaced, so ``save_ensemble`` cannot write a file that
        ``load_ensemble`` would refuse."""
        from outreg import EnsembleModel
        ensemble = sigmoid_ensemble()
        W, b, B = ensemble.hidden_weights, ensemble.hidden_biases, ensemble.output_weights
        for stacks in ((W, b[:2], B), (W, b, B[:, :3])):
            with pytest.raises(ValueError, match="stacks must be W"):
                save_ensemble(tmp_path / "model.npz",
                              EnsembleModel(*stacks, Activation.SIGMOID, TrimPolicy.NONE))
        with pytest.raises(ValueError, match="stacks must be W"):
            dataclasses.replace(ensemble, hidden_biases=b[:2])
        assert not (tmp_path / "model.npz").exists()


def _old_header(ensemble, version, member_seeds=None):
    """The fields that ensemble format versions 1 and 2 wrote first: the
    header, then the member seeds, by default each member's seed as those
    versions derived it, ``derive_seed(seed, STREAM_MEMBER, i)``."""
    if member_seeds is None:
        member_seeds = [None if ensemble.seed is None else
                        derive_seed(ensemble.seed, STREAM_MEMBER, i)
                        for i in range(ensemble.member_count)]
    return {
        "format": "outreg-ensemble",
        "version": version,
        "activation": ensemble.activation.value,
        "trim_policy": ensemble.trim_policy.value,
        "member_count": len(ensemble.members),
        "seed": "none" if ensemble.seed is None else str(int(ensemble.seed)),
        "member_seeds": np.asarray(["none" if s is None else str(int(s)) for s in member_seeds]),
    }


def save_ensemble_v1(path, ensemble, member_seeds=None):
    """``save_ensemble`` as it wrote ensemble format version 1, frozen: the
    header fields, the member seeds, then three arrays per member suffixed
    with its index (pinned by ``TestWrittenLayout``)."""
    payload = _old_header(ensemble, 1, member_seeds)
    for i, m in enumerate(ensemble.members):
        payload[f"hidden_weights_{i}"] = m.hidden_weights
        payload[f"hidden_biases_{i}"] = m.hidden_biases
        payload[f"output_weights_{i}"] = m.output_weights
    np.savez(path, **payload)


def save_ensemble_v2(path, ensemble, member_seeds=None):
    """``save_ensemble`` as it wrote ensemble format version 2, frozen: the
    header fields, the member seeds, then the three stacks (pinned by
    ``TestWrittenLayout``)."""
    np.savez(path, **_old_header(ensemble, 2, member_seeds),
             hidden_weights=ensemble.hidden_weights, hidden_biases=ensemble.hidden_biases,
             output_weights=ensemble.output_weights)


def sigmoid_ensemble(member_count=3):
    """A sigmoid ensemble at L = 4 on d = 2 inputs and m = 1 output."""
    X = np.linspace(-1, 1, 20).reshape(10, 2)
    return ensemble_train(X, X[:, :1], 4, Activation.SIGMOID,
                          member_count=member_count, seed=5)


class TestVersion1Files:
    """Version-1 files, three arrays per member, and version-2 files, three
    stacks beside the member seeds, still load: bitwise the ensemble that
    was saved, and the same ensemble as its version-3 file."""

    @pytest.mark.parametrize("activation", list(Activation), ids=lambda a: a.value)
    def test_loads_bitwise(self, tmp_path, activation):
        ensemble = small_ensemble(activation)
        save_ensemble_v1(tmp_path / "v1.npz", ensemble)
        save_ensemble_v2(tmp_path / "v2.npz", ensemble)
        save_ensemble(tmp_path / "v3.npz", ensemble)
        grid = np.linspace(-2, 2, 50)[:, None]
        for version in (1, 2, 3):
            loaded = load_ensemble(tmp_path / f"v{version}.npz")
            assert (loaded.activation, loaded.trim_policy, loaded.seed) == (
                ensemble.activation, ensemble.trim_policy, ensemble.seed)
            for name in ("hidden_weights", "hidden_biases", "output_weights"):
                np.testing.assert_array_equal(getattr(loaded, name), getattr(ensemble, name))
            assert (ensemble_predict(loaded, grid).tobytes()
                    == ensemble_predict(ensemble, grid).tobytes())


def _rewrite(path, change):
    """Rewrite a saved file with ``change(arrays)`` applied to its arrays;
    an array set to None is left out."""
    with np.load(path) as data:
        arrays = dict(data)
    change(arrays)
    np.savez(path, **{k: v for k, v in arrays.items() if v is not None})


def _set(**fields):
    return lambda arrays: arrays.update(fields)


def _nan_at(name, index):
    def change(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name][index] = np.nan
    return change


# id -> (the field named, a change to a saved 3-member, L = 4, d = 2 sigmoid
# ensemble file)
BAD_ENSEMBLE_FIELDS = {
    **{f"{name}-missing": (name, _set(**{name: None})) for name in (
        "activation", "trim_policy", "member_count", "seed", "member_seeds",
        "hidden_weights_0", "hidden_biases_2", "output_weights_1")},
    "activation-unknown": ("activation", _set(activation="relu")),
    "trim-policy-unknown": ("trim_policy", _set(trim_policy="median")),
    "member-count-short-drops-a-member": ("member_count", _set(member_count=2)),
    "member-count-long": ("member_seeds", _set(member_count=4)),
    "member-count-zero": ("member_count", _set(member_count=0)),
    "member-count-float": ("member_count", _set(member_count=3.0)),
    "member-count-1d": ("member_count", _set(member_count=np.array([3]))),
    "drop-min-max-on-2-members": ("trim_policy", lambda a: a.update(
        trim_policy="drop-min-max", member_count=2, member_seeds=a["member_seeds"][:2],
        hidden_weights_2=None, hidden_biases_2=None, output_weights_2=None)),
    "member-seeds-one-for-three": ("member_seeds", _set(member_seeds=np.array(["5"]))),
    "member-seeds-integers": ("member_seeds", _set(member_seeds=np.array([1, 2, 3]))),
    "member-seeds-not-decimal": ("member_seeds",
                                 _set(member_seeds=np.array(["1", "two", "3"]))),
    "seed-not-decimal": ("seed", _set(seed="eleven")),
    "seed-integer": ("seed", _set(seed=11)),
    "seed-objects": ("seed", _set(seed=np.array("11", dtype=object))),
    "hidden-weights-nan": ("hidden_weights_1", _nan_at("hidden_weights_1", (2, 0))),
    "hidden-weights-integers": ("hidden_weights_2",
                                _set(hidden_weights_2=np.ones((4, 2), dtype=np.int64))),
    "hidden-weights-other-width": ("hidden_weights_1", _set(hidden_weights_1=np.ones((4, 3)))),
    "hidden-weights-1d": ("hidden_weights_0", _set(hidden_weights_0=np.ones(4))),
    "hidden-weights-no-nodes": ("hidden_weights_0", _set(hidden_weights_0=np.ones((0, 2)))),
    "hidden-biases-5-for-4-nodes": ("hidden_biases_0", _set(hidden_biases_0=np.ones(5))),
    "hidden-biases-inf": ("hidden_biases_2", _set(hidden_biases_2=np.full(4, np.inf))),
    "output-weights-1d": ("output_weights_0", _set(output_weights_0=np.ones(4))),
    "output-weights-1d-later": ("output_weights_2", _set(output_weights_2=np.ones(4))),
    "output-weights-other-outputs": ("output_weights_1",
                                     _set(output_weights_1=np.ones((4, 2)))),
    "output-weights-strings": ("output_weights_1",
                               _set(output_weights_1=np.full((4, 1), "1"))),
}


# id -> (the field named, a change to a version-2 file of the same ensemble)
BAD_ENSEMBLE_V2_FIELDS = {
    **{f"{name}-missing": (name, _set(**{name: None})) for name in (
        "member_seeds", "hidden_weights", "hidden_biases", "output_weights")},
    "hidden-weights-nan-in-member-1": ("hidden_weights",
                                       _nan_at("hidden_weights", (1, 2, 0))),
    "hidden-biases-nan-in-member-2": ("hidden_biases", _nan_at("hidden_biases", 2)),
    "output-weights-nan-in-member-0": ("output_weights", _nan_at("output_weights", 0)),
    "hidden-weights-two-members": ("hidden_weights",
                                   lambda a: a.update(hidden_weights=a["hidden_weights"][:2])),
    "output-weights-four-members": ("output_weights", lambda a: a.update(
        output_weights=np.concatenate([a["output_weights"], a["output_weights"][:1]]))),
    "member-count-long": ("member_seeds", _set(member_count=4)),
    "member-count-short": ("member_seeds", _set(member_count=2)),
    "hidden-weights-integers": ("hidden_weights",
                                _set(hidden_weights=np.ones((3, 4, 2), dtype=np.int64))),
    "hidden-biases-integers": ("hidden_biases",
                               _set(hidden_biases=np.ones((3, 4), dtype=np.int32))),
    "output-weights-5-nodes-for-4": ("output_weights",
                                     _set(output_weights=np.ones((3, 5, 1)))),
    "hidden-biases-5-nodes-for-4": ("hidden_biases", _set(hidden_biases=np.ones((3, 5)))),
    "hidden-weights-2d": ("hidden_weights", _set(hidden_weights=np.ones((3, 4)))),
    "output-weights-2d": ("output_weights", _set(output_weights=np.ones((3, 4)))),
    "hidden-weights-no-nodes": ("hidden_weights", _set(hidden_weights=np.ones((3, 0, 2)))),
    "member-seeds-one-for-three": ("member_seeds", _set(member_seeds=np.array(["5"]))),
    "member-seeds-four-for-three": ("member_seeds",
                                    _set(member_seeds=np.array(["1", "2", "3", "4"]))),
    "member-seeds-not-decimal": ("member_seeds",
                                 _set(member_seeds=np.array(["1", "two", "3"]))),
    "drop-min-max-on-2-members": ("trim_policy", lambda a: a.update(
        trim_policy="drop-min-max", member_count=2,
        **{k: a[k][:2] for k in ("member_seeds", "hidden_weights", "hidden_biases",
                                 "output_weights")})),
}

# id -> (the field named, a change to a version-3 file of the same ensemble,
# which holds no member seeds, so its stacks check the member count)
BAD_ENSEMBLE_STACKS = {
    **{f"{name}-missing": (name, _set(**{name: None})) for name in (
        "seed", "hidden_weights", "hidden_biases", "output_weights")},
    "hidden-weights-nan-in-member-1": ("hidden_weights",
                                       _nan_at("hidden_weights", (1, 2, 0))),
    "output-weights-four-members": ("output_weights", lambda a: a.update(
        output_weights=np.concatenate([a["output_weights"], a["output_weights"][:1]]))),
    "member-count-long": ("hidden_weights", _set(member_count=4)),
    "member-count-short": ("hidden_weights", _set(member_count=2)),
    "hidden-biases-5-nodes-for-4": ("hidden_biases", _set(hidden_biases=np.ones((3, 5)))),
    "output-weights-2d": ("output_weights", _set(output_weights=np.ones((3, 4)))),
    "drop-min-max-on-2-members": ("trim_policy", lambda a: a.update(
        trim_policy="drop-min-max", member_count=2,
        **{k: a[k][:2] for k in ("hidden_weights", "hidden_biases", "output_weights")})),
}


class TestEnsembleFieldChecks:
    """An ensemble file with a missing field, a member count that disagrees
    with its arrays, or member arrays of the wrong shape or type fails at
    load with the file and the field named, not with a KeyError or
    IndexError, nor by loading a different ensemble: at version 1, three
    arrays per member, at version 2, three stacks beside the member seeds,
    and at version 3, the stacks alone."""

    @pytest.mark.parametrize("case", BAD_ENSEMBLE_FIELDS)
    def test_bad_field_rejected(self, tmp_path, case):
        field, change = BAD_ENSEMBLE_FIELDS[case]
        path = tmp_path / "model.npz"
        save_ensemble_v1(path, sigmoid_ensemble())
        _rewrite(path, change)
        with pytest.raises(ValueError, match=rf"model\.npz: ensemble field '{field}'"):
            load_ensemble(path)

    @pytest.mark.parametrize("case", BAD_ENSEMBLE_V2_FIELDS)
    def test_bad_stack_rejected(self, tmp_path, case):
        """At version 2."""
        field, change = BAD_ENSEMBLE_V2_FIELDS[case]
        path = tmp_path / "model.npz"
        save_ensemble_v2(path, sigmoid_ensemble())
        _rewrite(path, change)
        with pytest.raises(ValueError, match=rf"model\.npz: ensemble field '{field}'"):
            load_ensemble(path)

    @pytest.mark.parametrize("case", BAD_ENSEMBLE_STACKS)
    def test_bad_version_3_stack_rejected(self, tmp_path, case):
        field, change = BAD_ENSEMBLE_STACKS[case]
        path = tmp_path / "model.npz"
        save_ensemble(path, sigmoid_ensemble())
        _rewrite(path, change)
        with pytest.raises(ValueError, match=rf"model\.npz: ensemble field '{field}'"):
            load_ensemble(path)

    def test_read_count_does_not_grow_with_members(self, tmp_path, monkeypatch):
        """A version-3 file is read in as many array reads for 50 members
        as for 3, so loading does not slow with the member count."""
        reads = []
        read = np.lib.npyio.NpzFile.__getitem__
        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__",
                            lambda data, key: reads.append(key) or read(data, key))
        counts = []
        for member_count in (3, 50):
            path = tmp_path / f"model-{member_count}.npz"
            save_ensemble(path, sigmoid_ensemble(member_count))
            reads.clear()
            assert load_ensemble(path).member_count == member_count
            counts.append(len(reads))
        assert counts[0] == counts[1] == 9

    def test_negative_and_absent_seeds_round_trip(self, tmp_path):
        """Ensemble seeds of either sign, past 64 bits or absent round-trip,
        and such member seeds in a version-1 or version-2 file pass their
        check and are dropped."""
        from outreg import EnsembleModel
        for seed in (-1, None, 2 ** 64 + 1):
            ensemble = EnsembleModel(np.ones((3, 2, 1)), np.zeros((3, 2)), np.ones((3, 2, 1)),
                                     Activation.SIGMOID, TrimPolicy.NONE, seed)
            for save in (save_ensemble, save_ensemble_v1, save_ensemble_v2):
                path = tmp_path / f"{save.__name__}.npz"
                if save is save_ensemble:
                    save(path, ensemble)
                else:
                    save(path, ensemble, member_seeds=(-3, None, 2 ** 64 + 1))
                loaded = load_ensemble(path)
                assert loaded.seed == seed
                assert loaded.hidden_weights.tobytes() == ensemble.hidden_weights.tobytes()


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


def _as_npy(path):
    with open(path, "wb") as file:
        np.save(file, np.ones(3))


# id -> (a change to a saved ensemble file, what the error says after its name)
NOT_ARCHIVES = {
    "npy-array": (_as_npy, "not a recognised model file"),
    "empty": (lambda path: path.write_bytes(b""), "not a recognised model file"),
    "text": (lambda path: path.write_text("mean,center\n0,1\n"), "not a recognised model file"),
    "truncated": (lambda path: path.write_bytes(path.read_bytes()[:200]),
                  "not a recognised model file"),
    "version-objects": (lambda path: _rewrite(path, _set(version=np.array(1, dtype=object))),
                        "header field 'version' cannot be read"),
}


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

    @pytest.mark.parametrize("load", [load_ensemble, load_gate])
    @pytest.mark.parametrize("case", NOT_ARCHIVES)
    def test_file_that_is_not_an_archive_named(self, tmp_path, case, load):
        """A file that numpy does not open as an NPZ archive, or whose
        header field holds pickled objects, is a ValueError naming the file,
        not a TypeError, EOFError or an unnamed ValueError from numpy."""
        change, message = NOT_ARCHIVES[case]
        path = tmp_path / "model.npz"
        save_ensemble(path, small_ensemble())
        change(path)
        with pytest.raises(ValueError, match=rf"model\.npz: {message}"):
            load(path)

    @pytest.mark.parametrize("load", [load_ensemble, load_gate])
    def test_truncated_archive_closes_its_file(self, tmp_path, load):
        """The file a failed load opened is closed before the error reaches
        the caller, so no ResourceWarning follows when it is collected."""
        path = tmp_path / "model.npz"
        save_ensemble(path, small_ensemble())
        path.write_bytes(path.read_bytes()[:200])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                load(path)
            except ValueError:
                pass
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_absent_file_stays_file_not_found(self, tmp_path):
        for load in (load_ensemble, load_gate):
            with pytest.raises(FileNotFoundError):
                load(tmp_path / "absent.npz")

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
    "threshold-negative": ("threshold_distance", lambda g: -1.0),
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



class TestScalarFieldChecks:
    """A gate's threshold or percentile that is not one number, or a format
    version that is not an integer, fails at load with the file named,
    not with a TypeError or an unnamed ValueError."""

    @pytest.mark.parametrize("field, bad", [
        ("threshold_distance", np.array([1.0, 2.0])),
        ("percentile_q", "ninety"),
        ("percentile_q", np.array([[95.0]])),
    ])
    def test_gate_scalar_field_named(self, tmp_path, field, bad):
        path = tmp_path / "gate.npz"
        save_gate(path, season_gate())
        _rewrite(path, _set(**{field: bad}))
        with pytest.raises(ValueError, match=rf"gate\.npz: gate field '{field}'"):
            load_gate(path)

    @pytest.mark.parametrize("bad", ["two", np.array([1, 2]), 1.5, True, 2.0])
    def test_version_that_is_not_an_integer_named(self, tmp_path, bad):
        gate_path, model_path = tmp_path / "gate.npz", tmp_path / "model.npz"
        save_gate(gate_path, season_gate())
        save_ensemble(model_path, small_ensemble())
        for path, load in ((gate_path, load_gate), (model_path, load_ensemble)):
            _rewrite(path, _set(version=bad))
            with pytest.raises(ValueError, match=rf"{path.name}: format version .* is not"):
                load(path)


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
    "labels-objects": ("labels", np.array(["dry", "wet", "mixed"], dtype=object)),
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


def _layout(path):
    with np.load(path) as data:
        return [(name, data[name].dtype.str, data[name].shape) for name in data.files]


class TestWrittenLayout:
    """The writers' output, field by field: its names in archive order,
    their dtypes and shapes.  A saved file must not change within a format
    version, so a change here needs a new version or a reason it loads the
    same."""

    def test_ensemble_layout(self, tmp_path):
        path = tmp_path / "model.npz"
        save_ensemble(path, sigmoid_ensemble())
        assert _layout(path) == [
            ("format", "<U15", ()), ("version", "<i8", ()), ("activation", "<U7", ()),
            ("trim_policy", "<U4", ()), ("member_count", "<i8", ()), ("seed", "<U1", ()),
            ("hidden_weights", "<f8", (3, 4, 2)),
            ("hidden_biases", "<f8", (3, 4)), ("output_weights", "<f8", (3, 4, 1)),
        ]
        with np.load(path) as data:
            assert int(data["version"]) == 3

    def test_version_2_ensemble_layout(self, tmp_path):
        """What ``save_ensemble`` wrote at version 2, which the frozen test
        writer must keep reproducing."""
        path = tmp_path / "model.npz"
        save_ensemble_v2(path, sigmoid_ensemble())
        assert _layout(path) == [
            ("format", "<U15", ()), ("version", "<i8", ()), ("activation", "<U7", ()),
            ("trim_policy", "<U4", ()), ("member_count", "<i8", ()), ("seed", "<U1", ()),
            ("member_seeds", "<U20", (3,)), ("hidden_weights", "<f8", (3, 4, 2)),
            ("hidden_biases", "<f8", (3, 4)), ("output_weights", "<f8", (3, 4, 1)),
        ]

    def test_version_1_ensemble_layout(self, tmp_path):
        """What ``save_ensemble`` wrote at version 1, which the frozen test
        writer must keep reproducing."""
        path = tmp_path / "model.npz"
        save_ensemble_v1(path, sigmoid_ensemble())
        assert _layout(path) == [
            ("format", "<U15", ()), ("version", "<i8", ()), ("activation", "<U7", ()),
            ("trim_policy", "<U4", ()), ("member_count", "<i8", ()), ("seed", "<U1", ()),
            ("member_seeds", "<U20", (3,)),
            ("hidden_weights_0", "<f8", (4, 2)), ("hidden_biases_0", "<f8", (4,)),
            ("output_weights_0", "<f8", (4, 1)),
            ("hidden_weights_1", "<f8", (4, 2)), ("hidden_biases_1", "<f8", (4,)),
            ("output_weights_1", "<f8", (4, 1)),
            ("hidden_weights_2", "<f8", (4, 2)), ("hidden_biases_2", "<f8", (4,)),
            ("output_weights_2", "<f8", (4, 1)),
        ]

    def test_gate_layout(self, tmp_path):
        path = tmp_path / "gate.npz"
        save_gate(path, season_gate())
        assert _layout(path) == [
            ("format", "<U11", ()), ("version", "<i8", ()), ("mean", "<f8", (4,)),
            ("covariance", "<f8", (4, 4)), ("covariance_inverse_factor", "<f8", (4, 4)),
            ("threshold_distance", "<f8", ()), ("percentile_q", "<f8", ()),
            ("center", "<f8", (4,)), ("training_inputs", "<f8", (24, 4)),
            ("onehot_sizes", "<i8", (1,)), ("onehot_columns", "<i8", (3,)),
            ("onehot_labels", "<U5", (3,)), ("onehot_levels", "<f8", (3, 2)),
        ]
