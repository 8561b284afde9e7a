"""Random-hidden-layer networks, ensembles, node selection, linear baseline.

The training routine is cross-checked against a manual reconstruction:
the hidden layer is redrawn from the same seed in the test and the
output weights recomputed with numpy's own lstsq.  Trim behaviour is
pinned with hand-built members whose predictions are known constants.
"""

import math
import warnings

import numpy as np
import pytest

from outreg import (Activation, CvConfig, ElmModel, EnsembleModel, TrimPolicy,
                    activation_value, default_node_grid, elm_predict,
                    elm_train, ensemble_predict, ensemble_train, lr_fit,
                    lr_predict, select_node_count)
from outreg import regress
from outreg.regress import DEFAULT_NODE_GRID
from outreg.seeding import STREAM_CV, STREAM_MEMBER, derive_rng, derive_seed


def constant_member(value: float, activation=Activation.SIGMOID) -> ElmModel:
    """A one-node network that outputs ``value`` everywhere.

    With zero hidden weights and bias the hidden activation is a known
    constant h0, so an output weight of value/h0 gives a flat surface.
    """
    h0 = activation_value(activation, 0.0)
    return ElmModel(hidden_weights=np.zeros((1, 1)), hidden_biases=np.zeros(1),
                    output_weights=np.array([[value / h0]]),
                    activation=activation)


class TestActivations:
    def test_sigmoid_hand_values(self):
        assert activation_value(Activation.SIGMOID, 0.0) == 0.5
        np.testing.assert_allclose(
            activation_value(Activation.SIGMOID, math.log(3.0)), 0.75,
            rtol=0, atol=1e-15)

    def test_sigmoid_saturates_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert activation_value(Activation.SIGMOID, 1000.0) == 1.0
            assert activation_value(Activation.SIGMOID, -1000.0) == 0.0

    def test_radial_basis_hand_values(self):
        assert activation_value(Activation.RADIAL_BASIS, 0.0) == 1.0
        np.testing.assert_allclose(
            activation_value(Activation.RADIAL_BASIS, 2.0), math.exp(-4.0),
            rtol=0, atol=1e-18)

    def test_radial_basis_even_and_stable(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert activation_value(Activation.RADIAL_BASIS, 1e9) == 0.0
        for z in (0.3, 1.7, 5.0):
            assert (activation_value(Activation.RADIAL_BASIS, z)
                    == activation_value(Activation.RADIAL_BASIS, -z))

    def test_softplus_hand_values(self):
        np.testing.assert_allclose(
            activation_value(Activation.SOFTPLUS, 0.0), math.log(2.0),
            rtol=0, atol=1e-15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert activation_value(Activation.SOFTPLUS, 1000.0) == 1000.0
            assert activation_value(Activation.SOFTPLUS, -1000.0) == 0.0

    def test_softplus_difference_identity(self):
        """softplus(z) - softplus(-z) = z for all z."""
        for z in (-3.0, -0.5, 0.0, 1.2, 8.0):
            lhs = (activation_value(Activation.SOFTPLUS, z)
                   - activation_value(Activation.SOFTPLUS, -z))
            np.testing.assert_allclose(lhs, z, rtol=1e-14, atol=1e-14)


class TestElmTraining:
    def test_hidden_layer_draw_order(self):
        """Weights come off the seed stream before biases."""
        X = np.linspace(-1, 1, 12)[:, None]
        Y = np.sin(X)
        model = elm_train(X, Y, 7, Activation.SIGMOID, seed=42)
        rng = derive_rng(42)
        W = rng.uniform(-1.0, 1.0, size=(7, 1))
        b = rng.uniform(0.0, 1.0, size=7)
        np.testing.assert_array_equal(model.hidden_weights, W)
        np.testing.assert_array_equal(model.hidden_biases, b)

    def test_weight_ranges(self):
        X = np.linspace(-1, 1, 10)[:, None]
        model = elm_train(X, X, 200, Activation.SIGMOID, seed=3)
        assert model.hidden_weights.min() >= -1.0
        assert model.hidden_weights.max() <= 1.0
        assert model.hidden_biases.min() >= 0.0
        assert model.hidden_biases.max() <= 1.0

    def test_output_weights_match_lstsq(self):
        """The SVD fit agrees with numpy's reference least-squares solver."""
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(40, 2))
        Y = np.cos(X[:, :1]) + X[:, 1:]
        model = elm_train(X, Y, 15, Activation.SOFTPLUS, seed=9)
        H = np.maximum(X @ model.hidden_weights.T + model.hidden_biases, 0.0) \
            + np.log1p(np.exp(-np.abs(X @ model.hidden_weights.T
                                      + model.hidden_biases)))
        expected, *_ = np.linalg.lstsq(H, Y, rcond=None)
        np.testing.assert_allclose(model.output_weights, expected,
                                   rtol=1e-8, atol=1e-10)

    def test_same_seed_reproduces_bitwise(self):
        X = np.linspace(-1, 1, 25)[:, None]
        Y = X ** 3
        a = elm_train(X, Y, 10, Activation.RADIAL_BASIS, seed=77)
        b = elm_train(X, Y, 10, Activation.RADIAL_BASIS, seed=77)
        np.testing.assert_array_equal(a.output_weights, b.output_weights)
        np.testing.assert_array_equal(elm_predict(a, X), elm_predict(b, X))

    def test_different_seeds_differ(self):
        X = np.linspace(-1, 1, 25)[:, None]
        a = elm_train(X, X, 10, Activation.SIGMOID, seed=0)
        b = elm_train(X, X, 10, Activation.SIGMOID, seed=1)
        assert not np.array_equal(a.hidden_weights, b.hidden_weights)

    def test_prediction_shape_multi_output(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, size=(8, 3))
        Y = rng.normal(size=(8, 2))
        model = elm_train(X, Y, 6, Activation.SIGMOID, seed=2)
        assert elm_predict(model, rng.uniform(-1, 1, (5, 3))).shape == (5, 2)

    def test_smooth_function_approximation(self):
        X = np.linspace(-1, 1, 60)[:, None]
        Y = np.sin(np.pi * X)
        model = elm_train(X, Y, 25, Activation.SIGMOID, seed=4)
        rmse = float(np.sqrt(np.mean((elm_predict(model, X) - Y) ** 2)))
        assert rmse < 0.01

    def test_multi_output_columns_are_independent(self):
        """Joint training equals per-column training on the same seed."""
        rng = np.random.default_rng(13)
        X = rng.uniform(-1, 1, size=(30, 2))
        Y = np.column_stack([np.sin(X[:, 0]), X[:, 1] ** 2])
        joint = elm_train(X, Y, 12, Activation.SIGMOID, seed=6)
        first = elm_train(X, Y[:, :1], 12, Activation.SIGMOID, seed=6)
        second = elm_train(X, Y[:, 1:], 12, Activation.SIGMOID, seed=6)
        np.testing.assert_allclose(
            joint.output_weights,
            np.hstack([first.output_weights, second.output_weights]),
            rtol=1e-12, atol=1e-14)

    def test_no_output_bias_flag(self):
        X = np.linspace(-1, 1, 10)[:, None]
        model = elm_train(X, X, 4, Activation.SIGMOID, seed=0)
        assert model.output_weights.shape == (4, 1)

    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            elm_train([[1.0], [2.0]], [[1.0]], 2, Activation.SIGMOID, seed=0)

    def test_bad_node_count_rejected(self):
        with pytest.raises(ValueError, match="node_count"):
            elm_train([[1.0]], [[1.0]], 0, Activation.SIGMOID, seed=0)

    def test_predict_column_mismatch_rejected(self):
        X = np.linspace(-1, 1, 10)[:, None]
        model = elm_train(X, X, 4, Activation.SIGMOID, seed=0)
        with pytest.raises(ValueError, match="columns"):
            elm_predict(model, [[1.0, 2.0]])


class TestEnsemble:
    def test_trim_policy_follows_activation(self):
        X = np.linspace(-1, 1, 20)[:, None]
        rb = ensemble_train(X, X, 5, Activation.RADIAL_BASIS,
                            member_count=4, seed=0)
        sg = ensemble_train(X, X, 5, Activation.SIGMOID,
                            member_count=4, seed=0)
        sp = ensemble_train(X, X, 5, Activation.SOFTPLUS,
                            member_count=4, seed=0)
        assert rb.trim_policy is TrimPolicy.DROP_MIN_MAX
        assert sg.trim_policy is TrimPolicy.NONE
        assert sp.trim_policy is TrimPolicy.NONE

    def test_member_seeds_are_derived_per_index(self):
        X = np.linspace(-1, 1, 20)[:, None]
        ens = ensemble_train(X, X, 5, Activation.SIGMOID,
                             member_count=6, seed=123)
        for i, member in enumerate(ens.members):
            assert member.seed == derive_seed(123, STREAM_MEMBER, i)

    def test_plain_mean_matches_stacked_members(self):
        X = np.linspace(-1, 1, 20)[:, None]
        ens = ensemble_train(X, np.sin(X), 8, Activation.SIGMOID,
                             member_count=5, seed=1)
        grid = np.linspace(-1, 1, 9)[:, None]
        stacked = np.stack([elm_predict(m, grid) for m in ens.members])
        np.testing.assert_array_equal(ensemble_predict(ens, grid),
                                      stacked.mean(axis=0))

    def test_trimmed_mean_matches_manual_formula(self):
        X = np.linspace(-1, 1, 20)[:, None]
        ens = ensemble_train(X, np.sin(X), 8, Activation.RADIAL_BASIS,
                             member_count=5, seed=1)
        grid = np.linspace(-1, 1, 9)[:, None]
        stacked = np.stack([elm_predict(m, grid) for m in ens.members])
        manual = (stacked.sum(axis=0) - stacked.max(axis=0)
                  - stacked.min(axis=0)) / 3
        np.testing.assert_array_equal(ensemble_predict(ens, grid), manual)

    def test_trim_discards_one_wild_member(self):
        """Constants 0,1,2,3,100: trimming drops 0 and 100, mean is 2."""
        members = tuple(constant_member(v) for v in (0.0, 1.0, 2.0, 3.0, 100.0))
        trimmed = EnsembleModel(members=members,
                                trim_policy=TrimPolicy.DROP_MIN_MAX)
        plain = EnsembleModel(members=members, trim_policy=TrimPolicy.NONE)
        grid = [[0.0], [5.0]]
        np.testing.assert_allclose(ensemble_predict(trimmed, grid), 2.0,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(ensemble_predict(plain, grid), 21.2,
                                   rtol=0, atol=1e-12)

    def test_reproducible_from_single_seed(self):
        X = np.linspace(-1, 1, 20)[:, None]
        a = ensemble_train(X, np.cos(X), 6, Activation.SIGMOID,
                           member_count=4, seed=9)
        b = ensemble_train(X, np.cos(X), 6, Activation.SIGMOID,
                           member_count=4, seed=9)
        grid = np.linspace(-1, 1, 7)[:, None]
        np.testing.assert_array_equal(ensemble_predict(a, grid),
                                      ensemble_predict(b, grid))

    def test_trim_needs_three_members(self):
        members = tuple(constant_member(v) for v in (1.0, 2.0))
        with pytest.raises(ValueError, match="at least 3"):
            EnsembleModel(members=members, trim_policy=TrimPolicy.DROP_MIN_MAX)

    def test_heterogeneous_members_rejected(self):
        a = constant_member(1.0, Activation.SIGMOID)
        b = constant_member(1.0, Activation.SOFTPLUS)
        with pytest.raises(ValueError, match="share"):
            EnsembleModel(members=(a, b), trim_policy=TrimPolicy.NONE)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="at least one member"):
            EnsembleModel(members=(), trim_policy=TrimPolicy.NONE)


def sign_split_sigmoid(z):
    """The logistic function split by sign, so exp never overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


_TINY = np.finfo(float).tiny
# +0 and -0, subnormals, the radial-basis cap at 40, where e^z overflows and
# e^-z underflows (708-746) and the largest float; then 5000 draws over six
# decades.  Read-only: a kernel must be handed a copy
KERNEL_GRID_SPECIAL = np.array([0.0, 5e-324, 1e-310, _TINY / 2, _TINY, 1e-300,
                                1e-16, 0.5, 1.0, 36.0, 37.0, 39.5, 40.0, 40.5,
                                708.0, 710.0, 745.0, 746.0, 800.0, 1e300,
                                np.finfo(float).max])
_GRID_RNG = np.random.default_rng(31)
KERNEL_GRID = np.concatenate([KERNEL_GRID_SPECIAL, -KERNEL_GRID_SPECIAL,
                              _GRID_RNG.standard_normal(5000)
                              * 10.0 ** _GRID_RNG.uniform(-3.0, 3.0, 5000)])
KERNEL_GRID.flags.writeable = False


class TestStackedForwardPass:
    """The stacked ensemble pass reproduces the per-member loop bitwise."""

    def test_sigmoid_matches_tanh_form_bitwise(self):
        """Bitwise the (1 + tanh(z/2))/2 form, and within 2^-52 of the
        sign-split logistic, from -0 and subnormals to the largest float."""
        z = KERNEL_GRID
        assert np.signbit(z[KERNEL_GRID_SPECIAL.size])   # -0.0 is on the grid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = regress._activate(Activation.SIGMOID, z.copy())
        np.testing.assert_array_equal(bits(got),
                                      bits(0.5 + 0.5 * np.tanh(0.5 * z)))
        assert np.abs(got - sign_split_sigmoid(z)).max() <= 2.0 ** -52

    @pytest.mark.parametrize("activation, temporaries_form", [
        (Activation.RADIAL_BASIS, lambda z: np.exp(-np.square(np.minimum(np.abs(z), 40.0)))),
        (Activation.SOFTPLUS, lambda z: np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))),
    ], ids=["radial-basis", "softplus"])
    def test_in_place_kernel_matches_temporaries_form_bitwise(self, activation,
                                                               temporaries_form):
        """The in-place kernel runs the same ops in the same order as the
        form with a temporary per op, so it gives the same bits."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = regress._activate(activation, KERNEL_GRID.copy())
            expected = temporaries_form(KERNEL_GRID)
        np.testing.assert_array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize("activation", list(Activation))
    @pytest.mark.parametrize("rows", [1, 2, 150])
    @pytest.mark.parametrize("outputs", [1, 2])
    @pytest.mark.parametrize("chunk_elements", [None, 30])
    def test_ensemble_equals_member_loop(self, monkeypatch, activation, rows,
                                         outputs, chunk_elements):
        """7 members: one chunk by default, chunks of 3, 3, 1 (or of 1)
        under a 30-float budget."""
        if chunk_elements is not None:
            monkeypatch.setattr(regress, "_CHUNK_ELEMENTS", chunk_elements)
        rng = np.random.default_rng(rows * 10 + outputs)
        X = rng.uniform(-1.0, 1.0, size=(40, 3))
        Y = rng.standard_normal((40, outputs))
        ens = ensemble_train(X, Y, 5, activation, member_count=7, seed=rows)
        grid = rng.uniform(-3.0, 3.0, size=(rows, 3))
        stacked = np.stack([elm_predict(m, grid) for m in ens.members])
        if ens.trim_policy is TrimPolicy.NONE:
            expected = stacked.mean(axis=0)
        else:
            expected = (stacked.sum(axis=0) - stacked.max(axis=0)
                        - stacked.min(axis=0)) / 5
        got = ensemble_predict(ens, grid)
        assert got.shape == (rows, outputs)
        np.testing.assert_array_equal(bits(got), bits(expected))

    def test_column_mismatch_rejected(self):
        X = np.linspace(-1, 1, 10)[:, None]
        ens = ensemble_train(X, X, 4, Activation.SIGMOID, member_count=3, seed=0)
        with pytest.raises(ValueError, match="columns"):
            ensemble_predict(ens, [[1.0, 2.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        X = np.linspace(-1, 1, 10)[:, None]
        ens = ensemble_train(X, X, 4, Activation.SIGMOID, member_count=3, seed=0)
        with pytest.raises(ValueError, match="non-finite"):
            ensemble_predict(ens, [[0.5], [bad]])

    def test_one_dimensional_inputs_rejected(self):
        X = np.linspace(-1, 1, 10)[:, None]
        ens = ensemble_train(X, X, 4, Activation.SIGMOID, member_count=3, seed=0)
        with pytest.raises(ValueError, match="2-D"):
            ensemble_predict(ens, [0.5, 0.25])


class TestNodeSelection:
    def test_scores_match_manual_fold_loop(self):
        """Reimplement the block/seed/score protocol and compare bitwise."""
        rng = np.random.default_rng(21)
        X = rng.uniform(-1, 1, size=(23, 2))
        Y = (np.sin(X[:, :1]) + 0.1 * rng.normal(size=(23, 1)))
        cv = CvConfig(folds=4, candidate_node_counts=(3, 6), seed=17)
        best, scores = select_node_count(X, Y, Activation.SIGMOID, cv)
        blocks = np.array_split(np.arange(23), 4)
        for ci, L in enumerate((3, 6)):
            fold_mse = []
            for fi, block in enumerate(blocks):
                mask = np.ones(23, dtype=bool)
                mask[block] = False
                model = elm_train(X[mask], Y[mask], L, Activation.SIGMOID,
                                  seed=derive_seed(17, STREAM_CV, ci, fi))
                err = elm_predict(model, X[block]) - Y[block]
                fold_mse.append(float(np.mean(err * err)))
            assert scores[L] == float(np.mean(fold_mse))
        assert best == min(scores, key=scores.get)

    def test_exact_tie_prefers_smaller_count(self):
        """All-zero targets give every candidate an exact zero score."""
        rng = np.random.default_rng(23)
        X = rng.uniform(-1, 1, size=(20, 1))
        Y = np.zeros((20, 1))
        cv = CvConfig(folds=5, candidate_node_counts=(4, 8, 12), seed=0)
        best, scores = select_node_count(X, Y, Activation.SIGMOID, cv)
        assert set(scores.values()) == {0.0}
        assert best == 4

    def test_oversized_candidate_skipped_with_warning(self):
        X = np.linspace(-1, 1, 10)[:, None]
        cv = CvConfig(folds=5, candidate_node_counts=(5, 50), seed=0)
        with pytest.warns(UserWarning, match="skipping candidate"):
            best, scores = select_node_count(X, np.sin(X),
                                             Activation.SIGMOID, cv)
        assert best == 5
        assert sorted(scores) == [5]

    def test_all_candidates_oversized_rejected(self):
        X = np.linspace(-1, 1, 10)[:, None]
        cv = CvConfig(folds=5, candidate_node_counts=(50, 60), seed=0)
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="no candidate"):
                select_node_count(X, np.sin(X), Activation.SIGMOID, cv)

    def test_too_few_rows_rejected(self):
        cv = CvConfig(folds=5, candidate_node_counts=(2,), seed=0)
        with pytest.raises(ValueError, match="5 rows"):
            select_node_count([[1.0], [2.0]], [[1.0], [2.0]],
                              Activation.SIGMOID, cv)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="folds"):
            CvConfig(folds=1)
        with pytest.raises(ValueError, match="not be empty"):
            CvConfig(candidate_node_counts=())
        with pytest.raises(ValueError, match="strictly increasing"):
            CvConfig(candidate_node_counts=(5, 5))
        with pytest.raises(ValueError, match="positive"):
            CvConfig(candidate_node_counts=(0, 5))


class TestDefaultNodeGrid:
    def test_hundred_rows(self):
        assert default_node_grid(100) == (5, 10, 20, 40, 70)

    def test_large_dataset_keeps_full_grid(self):
        assert default_node_grid(377) == DEFAULT_NODE_GRID

    def test_tiny_dataset_falls_back_to_limit(self):
        assert default_node_grid(6) == (4,)

    def test_rows_below_folds_rejected(self):
        with pytest.raises(ValueError, match="at least 5"):
            default_node_grid(4)


class TestLinearBaseline:
    def test_recovers_line_exactly(self):
        model = lr_fit([[0.0], [1.0], [2.0]], [1.0, 3.0, 5.0])
        np.testing.assert_allclose(model.coefficients, [2.0], rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(model.intercept, 1.0, rtol=0, atol=1e-12)

    def test_recovers_plane_exactly(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(40, 2))
        y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + 0.5
        model = lr_fit(X, y)
        np.testing.assert_allclose(model.coefficients, [3.0, -2.0],
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(model.intercept, 0.5, rtol=1e-10,
                                   atol=1e-10)
        np.testing.assert_allclose(lr_predict(model, X), y, rtol=1e-10,
                                   atol=1e-10)

    def test_duplicated_column_gets_minimum_norm_split(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        model = lr_fit(X, 2.0 * X[:, 0])
        np.testing.assert_allclose(model.coefficients, [1.0, 1.0],
                                   rtol=0, atol=1e-10)

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            lr_fit([[1.0], [2.0]], [1.0])

    def test_predict_column_mismatch_rejected(self):
        model = lr_fit([[0.0], [1.0]], [0.0, 1.0])
        with pytest.raises(ValueError, match="columns"):
            lr_predict(model, [[1.0, 2.0]])
