"""Random-hidden-layer networks, ensembles, node selection, linear baseline.

The training routine is cross-checked against a manual reconstruction:
the hidden layer is redrawn from the same seed in the test and the
output weights recomputed with numpy's own lstsq.  Every ensemble member
and CV fold model is checked bitwise against a lone fit on its block of
its stream, redrawn by advancing the stream's PCG64.  Trim behaviour is
pinned with hand-built stacks whose members predict known constants.
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
from outreg.seeding import STREAM_CV, STREAM_MEMBER, derive_rng


def block_rng(index, node_count, d, seed, *path):
    """The stream ``derive_rng(seed, *path)`` advanced past ``index``
    blocks of L (d + 1) draws, where block ``index`` begins."""
    bits = derive_rng(seed, *path).bit_generator
    bits.advance(index * node_count * (d + 1))
    return np.random.Generator(bits)


def lone_fit(X, Y, node_count, activation, rng) -> ElmModel:
    """One member trained alone by ``_train`` on the next block of ``rng``."""
    W, b, B = regress._train(X, Y, node_count, activation, rng, 1)
    return ElmModel(W[0], b[0], B[0], activation)


def constant_stacks(values, activation=Activation.SIGMOID):
    """The stacks W, b, B of one-node members, member i outputting
    ``values[i]`` everywhere.

    With zero hidden weights and bias the hidden activation is a known
    constant h0, so an output weight of value/h0 gives a flat surface.
    """
    h0 = activation_value(activation, 0.0)
    M = len(values)
    return (np.zeros((M, 1, 1)), np.zeros((M, 1)),
            np.asarray(values, dtype=float).reshape(M, 1, 1) / h0)


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
        """Weights come off the seed's member stream before biases."""
        X = np.linspace(-1, 1, 12)[:, None]
        Y = np.sin(X)
        model = elm_train(X, Y, 7, Activation.SIGMOID, seed=42)
        rng = derive_rng(42, STREAM_MEMBER)
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

    @pytest.mark.parametrize("rows, nodes", [(60, 100), (399, 150), (2000, 50)])
    def test_each_target_column_is_fitted_as_if_alone(self, rows, nodes):
        """On a wide design (xGELSD), on the QR route through the one spare
        column and on the Gram route, each output column of a fit to three
        target columns is bitwise that column's own one-column fit."""
        rng = np.random.default_rng(rows + nodes)
        X = rng.uniform(-1, 1, size=(rows, 6))
        Y = np.column_stack([np.sin(2 * X[:, 0]), X[:, 1] * X[:, 2], np.cos(X[:, 3])])
        joint = ensemble_train(X, Y, nodes, Activation.SIGMOID, member_count=3, seed=7)
        for j in range(3):
            alone = ensemble_train(X, Y[:, j:j + 1], nodes, Activation.SIGMOID,
                                   member_count=3, seed=7)
            np.testing.assert_array_equal(bits(joint.output_weights[:, :, j]),
                                          bits(alone.output_weights[:, :, 0]))

    @pytest.mark.parametrize("rows, nodes, joined", [(2000, 50, False),
                                                     (399, 150, True)])
    def test_hidden_layer_is_laid_out_for_the_route_it_takes(
            self, monkeypatch, rows, nodes, joined):
        """A design with four rows per column or more goes to the Gram route
        as the hidden layer alone, with no spare column, and is not factored
        by QR; a shorter one is handed over with one spare column, into
        which the QR route writes the targets before it factors that very
        array."""
        seen, factors = [], []
        solve, factor = regress.pinv_solve_stack, np.linalg.qr
        monkeypatch.setattr(regress, "pinv_solve_stack",
                            lambda A, Y, p: seen.append((A, Y, p)) or solve(A, Y, p))
        monkeypatch.setattr(np.linalg, "qr",
                            lambda a, **kw: factors.append(a) or factor(a, **kw))
        rng = np.random.default_rng(rows)
        X = rng.uniform(-1, 1, size=(rows, 6))
        Y = np.sin(X[:, :1])
        elm_train(X, Y, nodes, Activation.SIGMOID, seed=2)
        (A, Y_seen, p), = seen
        assert p == nodes and A.flags.c_contiguous
        np.testing.assert_array_equal(Y_seen[0], Y)
        if joined:
            assert A.shape == (1, rows, nodes + 1)
            assert len(factors) == 1 and factors[0] is A
            np.testing.assert_array_equal(A[0, :, -1:], Y)
        else:
            assert A.shape == (1, rows, nodes)
            assert factors == []

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

    def test_training_sizes_are_typed(self):
        """A node or member count that is not an integer is a ValueError that
        names it, as a count below 1 is, not a TypeError from numpy."""
        X = np.linspace(-1, 1, 10)[:, None]
        for train, kwargs, message in (
                (elm_train, dict(node_count=5.0), "node_count must be an integer, got 5.0"),
                (elm_train, dict(node_count=0), "node_count must be at least 1, got 0"),
                (ensemble_train, dict(node_count=5.0), "node_count must be an integer, got 5.0"),
                (ensemble_train, dict(node_count=0), "node_count must be at least 1, got 0"),
                (ensemble_train, dict(node_count=5, member_count=2.5),
                 "member_count must be an integer, got 2.5"),
                (ensemble_train, dict(node_count=5, member_count=0),
                 "member_count must be at least 1, got 0")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                train(X, X, activation=Activation.SIGMOID, seed=0, **kwargs)

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
        """Member i's draws are derived from (ensemble seed, i): block i of
        the seed's member stream, and member 0 is ``elm_train`` on the seed."""
        X = np.linspace(-1, 1, 20)[:, None]
        ens = ensemble_train(X, X, 5, Activation.SIGMOID,
                             member_count=6, seed=123)
        for i, member in enumerate(ens.members):
            rng = block_rng(i, 5, 1, 123, STREAM_MEMBER)
            np.testing.assert_array_equal(member.hidden_weights,
                                          rng.uniform(-1.0, 1.0, (5, 1)))
            np.testing.assert_array_equal(member.hidden_biases, rng.uniform(0.0, 1.0, 5))
        first = elm_train(X, X, 5, Activation.SIGMOID, seed=123)
        for name in ("hidden_weights", "hidden_biases", "output_weights"):
            assert getattr(first, name).tobytes() == getattr(ens.members[0], name).tobytes()

    @pytest.mark.parametrize("activation", list(Activation))
    @pytest.mark.parametrize("rows, nodes", [(200, 10), (200, 40), (399, 150)])
    def test_members_do_not_depend_on_their_chunk_mates(
            self, monkeypatch, activation, rows, nodes):
        """Budgets of one, three and all eight members per chunk; three puts
        chunk boundaries inside the 8-member ensemble.  At 200 rows the fits
        take the Gram route, at 399x150 the QR route; under every budget
        member i is bitwise a lone ``_train`` on block i of the stream."""
        chunks = []
        solve = regress.pinv_solve_stack
        monkeypatch.setattr(regress, "pinv_solve_stack",
                            lambda A, Y, p: chunks.append(len(A)) or solve(A, Y, p))
        rng = np.random.default_rng(rows + nodes)
        X = rng.uniform(-1.0, 1.0, size=(rows, 4))
        Y = np.sin(2.0 * X[:, :1]) + X[:, 1:2]
        alone = [lone_fit(X, Y, nodes, activation, block_rng(i, nodes, 4, 5, STREAM_MEMBER))
                 for i in range(8)]
        for budget, expected in ((1, [1] * 8), (3, [3, 3, 2]), (8, [8])):
            monkeypatch.setattr(regress, "_CHUNK_ELEMENTS", budget * rows * (nodes + 1))
            chunks.clear()
            ens = ensemble_train(X, Y, nodes, activation, member_count=8, seed=5)
            assert chunks == expected
            for member, lone in zip(ens.members, alone):
                np.testing.assert_array_equal(member.hidden_weights, lone.hidden_weights)
                np.testing.assert_array_equal(member.hidden_biases, lone.hidden_biases)
                np.testing.assert_array_equal(bits(member.output_weights),
                                              bits(lone.output_weights))

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
        stacks = constant_stacks((0.0, 1.0, 2.0, 3.0, 100.0))
        trimmed = EnsembleModel(*stacks, Activation.SIGMOID, TrimPolicy.DROP_MIN_MAX)
        plain = EnsembleModel(*stacks, Activation.SIGMOID, TrimPolicy.NONE)
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
        stacks = constant_stacks((1.0, 2.0))
        with pytest.raises(ValueError, match="at least 3"):
            EnsembleModel(*stacks, Activation.SIGMOID, TrimPolicy.DROP_MIN_MAX)

    def test_heterogeneous_members_rejected(self):
        """Stacks that disagree in member count M or node count L, that
        have the wrong number of axes, or that hold a zero-length axis do
        not make an ensemble."""
        W, b, B = np.ones((3, 5, 2)), np.ones((3, 5)), np.ones((3, 5, 1))
        for stacks in ((W, b[:2], B), (W, b, B[:2]),      # M
                       (W, b[:, :4], B), (W, b, B[:, :4]),  # L
                       (W[0], b, B), (W, b[..., None], B), (W, b, B[..., 0]),  # ndim
                       # L, d or m of 0
                       (W[:, :0], b[:, :0], B[:, :0]), (W[..., :0], b, B), (W, b, B[..., :0])):
            with pytest.raises(ValueError, match="stacks must be W"):
                EnsembleModel(*stacks, Activation.SIGMOID, TrimPolicy.NONE)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="at least one member"):
            EnsembleModel(np.ones((0, 5, 2)), np.ones((0, 5)), np.ones((0, 5, 1)),
                          Activation.SIGMOID, TrimPolicy.NONE)

    @pytest.mark.parametrize("activation, trim, message", [
        ("sigmoid", TrimPolicy.NONE, "activation must be an Activation, got 'sigmoid'"),
        (Activation.SIGMOID, "none", "trim_policy must be a TrimPolicy, got 'none'"),
        (TrimPolicy.NONE, TrimPolicy.NONE,
         "activation must be an Activation, got <TrimPolicy.NONE: 'none'>"),
    ], ids=["activation-string", "trim-string", "activation-of-another-enum"])
    def test_activation_and_trim_policy_are_typed(self, activation, trim, message):
        """Refused when built, before ``ensemble_predict`` or
        ``save_ensemble`` could meet a string."""
        W, b, B = np.ones((3, 5, 2)), np.ones((3, 5)), np.ones((3, 5, 1))
        with pytest.raises(ValueError, match=f"^{message}$"):
            EnsembleModel(W, b, B, activation, trim)

    def test_ensembles_compare_and_hash_by_identity(self):
        """Neither ``==`` nor ``hash`` asks numpy for an array's truth value."""
        X = np.linspace(-1, 1, 20)[:, None]
        a, b = (ensemble_train(X, X, 5, Activation.SIGMOID, member_count=3, seed=1)
                for _ in range(2))
        assert a == a and a != b and not a == b
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_stacks_are_held_without_a_copy(self):
        W, b, B = np.ones((3, 5, 2)), np.ones((3, 5)), np.ones((3, 5, 1))
        ensemble = EnsembleModel(W, b, B, Activation.SIGMOID, TrimPolicy.NONE)
        assert ensemble.hidden_weights is W and ensemble.hidden_biases is b
        assert ensemble.output_weights is B and ensemble.seed is None
        assert ensemble.members[1].hidden_weights.base is W


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
        """Reimplement the block/stream/score protocol and compare bitwise:
        fold f of candidate L is block f of its candidate's stream."""
        rng = np.random.default_rng(21)
        X = rng.uniform(-1, 1, size=(23, 2))
        Y = (np.sin(X[:, :1]) + 0.1 * rng.normal(size=(23, 1)))
        cv = CvConfig(folds=4, candidate_node_counts=(3, 6), seed=17)
        best, scores = select_node_count(X, Y, Activation.SIGMOID, cv)
        blocks = np.array_split(np.arange(23), 4)
        for L in (3, 6):
            fold_mse = []
            for fi, block in enumerate(blocks):
                mask = np.ones(23, dtype=bool)
                mask[block] = False
                model = lone_fit(X[mask], Y[mask], L, Activation.SIGMOID,
                                 block_rng(fi, L, 2, 17, STREAM_CV, L))
                err = elm_predict(model, X[block]) - Y[block]
                fold_mse.append(float(np.mean(err * err)))
            assert scores[L] == float(np.mean(fold_mse))
        assert best == min(scores, key=scores.get)

    def test_fold_groups_are_scored_as_stacks(self, monkeypatch):
        """23 rows in 4 folds are blocks of 6, 6, 6 and 5 rows: each
        candidate scores the three 6-row folds with one ``_forward`` call
        on a (3, 6, d) stack, then the 5-row fold, and no fold becomes an
        ``ElmModel`` or goes through ``elm_predict``."""
        shapes = []
        forward = regress._forward
        monkeypatch.setattr(regress, "_forward",
                            lambda X, *args: shapes.append(X.shape) or forward(X, *args))
        monkeypatch.setattr(regress, "ElmModel", None)
        monkeypatch.setattr(regress, "elm_predict", None)
        X = np.random.default_rng(22).uniform(-1, 1, size=(23, 2))
        cv = CvConfig(folds=4, candidate_node_counts=(3, 6), seed=17)
        select_node_count(X, np.sin(X[:, :1]), Activation.SIGMOID, cv)
        assert shapes == [(3, 6, 2), (1, 5, 2)] * 2

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

    @pytest.mark.parametrize("bad, message", [
        (-1, "seed must be non-negative"), (1.5, "seed must be an integer"),
        (True, "seed must be an integer")])
    def test_bad_seed_rejected_at_construction(self, bad, message):
        """Not inside select_node_count, after the config has been passed on."""
        with pytest.raises(ValueError, match=message):
            CvConfig(seed=bad)

    @staticmethod
    def reference_scores(X, Y, activation, cv):
        """Each (candidate, fold) as a lone ``_train`` fit on block f of the
        candidate's stream, in fold order."""
        n, d = X.shape
        blocks = np.array_split(np.arange(n), cv.folds)
        scores = {}
        for L in cv.candidate_node_counts:
            fold_mse = []
            for fi, block in enumerate(blocks):
                mask = np.ones(n, dtype=bool)
                mask[block] = False
                model = lone_fit(X[mask], Y[mask], L, activation,
                                 block_rng(fi, L, d, cv.seed, STREAM_CV, L))
                err = elm_predict(model, X[block]) - Y[block]
                fold_mse.append(float(np.mean(err * err)))
            scores[L] = float(np.mean(fold_mse))
        return scores

    @pytest.mark.parametrize("activation", list(Activation), ids=lambda a: a.value)
    @pytest.mark.parametrize("rows", [60, 63], ids=["one-fold-size", "two-fold-sizes"])
    @pytest.mark.parametrize("chunk_elements", [None, 100, 3366])
    def test_stacked_folds_are_lone_fits_bitwise(self, monkeypatch, activation,
                                                 rows, chunk_elements):
        """Folds of one training size train as one stack.  63 rows in 5
        folds train on 51 or 50 rows (n % folds is 3), 60 rows on 48 each;
        3 nodes take the Gram route (at least 4 rows per node) and 20 the QR
        route.  A 100-float chunk budget splits every stack into one-member
        chunks, and 3366 floats the 20-node stacks into three-member chunks
        (3366 // (51 * 22) is 3, as for 50 and 48 rows)."""
        if chunk_elements is not None:
            monkeypatch.setattr(regress, "_CHUNK_ELEMENTS", chunk_elements)
        rng = np.random.default_rng(rows)
        X = rng.uniform(-1, 1, size=(rows, 3))
        Y = np.column_stack([np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 2],
                             rng.normal(size=rows)])
        cv = CvConfig(folds=5, candidate_node_counts=(3, 20), seed=2**40 + rows)
        assert not regress.factors_joined(rows * 4 // 5, 3)
        assert regress.factors_joined(rows * 4 // 5, 20)
        _, scores = select_node_count(X, Y, activation, cv)
        assert scores == self.reference_scores(X, Y, activation, cv)


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
