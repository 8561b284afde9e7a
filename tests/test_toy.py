"""The 1-D demonstration problem: generation contract and curve table.

The generator's draw order (inputs first, then noise) is pinned by
reconstructing both draws from the same seed stream, and the demo table
is checked for the defining property of the boundary-linearised curve:
inside the training range it IS the ensemble mean, outside it runs
straight.
"""

import numpy as np
import pytest

from outreg import Activation, apply_minmax, fit_minmax, regress
from outreg.evalharness import toy, toy_demo, toy_generate, true_signal
from outreg.seeding import STREAM_TOY, derive_rng


class TestTrueSignal:
    def test_hand_values(self):
        """y = x + 0.2 x^2 at a few points."""
        np.testing.assert_array_equal(
            true_signal(np.array([0.0, 1.0, -1.0, 5.0])),
            [0.0, 1.2, -0.8, 10.0])


class TestToyGenerate:
    def test_draw_order_inputs_then_noise(self):
        """Reconstruct both draws from the seed stream and match bitwise."""
        X, y, signal = toy_generate(seed=11, n_train=40)
        rng = derive_rng(11, STREAM_TOY)
        x = rng.standard_normal(40)
        noise = rng.standard_normal(40)
        clean = signal(x)
        np.testing.assert_array_equal(X[:, 0], x)
        np.testing.assert_array_equal(
            y, clean + noise * (2.0 * np.std(clean, ddof=1)))

    def test_noise_free_returns_bare_signal(self):
        X, y, signal = toy_generate(seed=5, n_train=30, noise_free=True)
        np.testing.assert_array_equal(y, signal(X[:, 0]))

    def test_noise_level_is_twice_signal_spread(self):
        X, y, signal = toy_generate(seed=7, n_train=20000)
        clean = signal(X[:, 0])
        ratio = np.std(y - clean, ddof=1) / np.std(clean, ddof=1)
        np.testing.assert_allclose(ratio, 2.0, rtol=0.03, atol=0)

    def test_same_seed_reproduces(self):
        Xa, ya, _ = toy_generate(seed=9, n_train=25)
        Xb, yb, _ = toy_generate(seed=9, n_train=25)
        np.testing.assert_array_equal(Xa, Xb)
        np.testing.assert_array_equal(ya, yb)

    def test_different_seeds_differ(self):
        Xa, _, _ = toy_generate(seed=1, n_train=25)
        Xb, _, _ = toy_generate(seed=2, n_train=25)
        assert not np.array_equal(Xa, Xb)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError, match="n_train"):
            toy_generate(seed=0, n_train=1)


class TestToyDemo:
    def small_demo(self, **overrides):
        settings = dict(seed=3, n_train=50, member_count=10, node_count=10)
        settings.update(overrides)
        return toy_demo(**settings)

    def test_table_shape(self):
        demo = self.small_demo()
        grid_len = demo["x"].size
        assert grid_len == 241  # [-6, 6] at 0.05 spacing
        for key in ("true_signal", "linear", "ensemble_mean",
                    "bounded_ensemble_mean"):
            assert demo[key].shape == (grid_len,)
        assert demo["members"].shape == (grid_len, 10)
        assert demo["train_x"].shape == (50,)
        assert demo["train_y"].shape == (50,)
        assert demo["node_count"] == 10

    def test_bounded_curve_equals_mean_inside_training_range(self):
        demo = self.small_demo()
        inside = ((demo["x"] >= demo["train_x"].min())
                  & (demo["x"] <= demo["train_x"].max()))
        assert inside.sum() > 0
        np.testing.assert_array_equal(demo["bounded_ensemble_mean"][inside],
                                      demo["ensemble_mean"][inside])

    def test_bounded_curve_is_straight_outside(self):
        demo = self.small_demo()
        for region in (demo["x"] > demo["train_x"].max(),
                       demo["x"] < demo["train_x"].min()):
            xs = demo["x"][region]
            ys = demo["bounded_ensemble_mean"][region]
            assert xs.size >= 3
            slopes = np.diff(ys) / np.diff(xs)
            np.testing.assert_allclose(slopes, slopes[0], rtol=0, atol=1e-8)

    def test_linear_curve_is_affine(self):
        demo = self.small_demo()
        second_diff = np.diff(demo["linear"], n=2)
        np.testing.assert_allclose(second_diff, 0.0, rtol=0, atol=1e-9)

    def test_mean_curve_averages_member_curves(self):
        demo = self.small_demo()
        np.testing.assert_allclose(demo["ensemble_mean"],
                                   demo["members"].mean(axis=1),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("activation", list(Activation))
    def test_member_curves_are_each_members_own_prediction(self, monkeypatch, activation):
        """Each member curve is bitwise that member's ``elm_predict`` on the
        scaled grid, across several of the prediction kernel's chunks."""
        trained = []

        def recording(*args, **kwargs):
            trained.append(regress.ensemble_train(*args, **kwargs))
            return trained[-1]

        monkeypatch.setattr(toy, "ensemble_train", recording)
        demo = self.small_demo(activation=activation, member_count=40, node_count=20)
        scaler = fit_minmax(demo["train_x"][:, None])
        grid_scaled = apply_minmax(scaler, demo["x"][:, None])
        [ensemble] = trained
        for i, member in enumerate(ensemble.members):
            np.testing.assert_array_equal(demo["members"][:, i],
                                          regress.elm_predict(member, grid_scaled)[:, 0])

    @pytest.mark.parametrize("activation", list(Activation))
    def test_grid_goes_through_the_members_once(self, monkeypatch, activation):
        """The member curves and the ensemble mean come from one forward pass
        over the full grid, and the mean is bitwise ``ensemble_predict``'s.
        The bounded curve adds only the two boundary pairs: no grid row goes
        through the members twice."""
        trained, rows = [], []
        forward = regress._forward

        def recording(*args, **kwargs):
            trained.append(regress.ensemble_train(*args, **kwargs))
            return trained[-1]

        def counting(X, *args):
            rows.append(X.shape[0])
            return forward(X, *args)

        monkeypatch.setattr(toy, "ensemble_train", recording)
        monkeypatch.setattr(regress, "_forward", counting)
        demo = self.small_demo(activation=activation)
        assert sorted(rows) == [2, 2, 241]
        monkeypatch.setattr(regress, "_forward", forward)
        grid_scaled = apply_minmax(fit_minmax(demo["train_x"][:, None]), demo["x"][:, None])
        np.testing.assert_array_equal(demo["ensemble_mean"],
                                      regress.ensemble_predict(trained[0], grid_scaled)[:, 0])

    def test_true_signal_column(self):
        demo = self.small_demo()
        np.testing.assert_array_equal(demo["true_signal"],
                                      true_signal(demo["x"]))

    def test_deterministic_per_seed(self):
        a = self.small_demo()
        b = self.small_demo()
        np.testing.assert_array_equal(a["ensemble_mean"], b["ensemble_mean"])
        np.testing.assert_array_equal(a["bounded_ensemble_mean"],
                                      b["bounded_ensemble_mean"])

    def test_node_count_selected_when_unspecified(self):
        demo = toy_demo(seed=1, n_train=30, member_count=3, node_count=None)
        assert demo["node_count"] in (5, 10, 20)

    def test_custom_grid(self):
        demo = self.small_demo(grid_start=-2.0, grid_stop=2.0, grid_step=0.5)
        np.testing.assert_allclose(demo["x"], np.arange(-2.0, 2.25, 0.5),
                                   rtol=0, atol=1e-12)

    def test_radial_basis_demo_runs(self):
        demo = self.small_demo(activation=Activation.RADIAL_BASIS,
                               member_count=5)
        assert np.isfinite(demo["ensemble_mean"]).all()
        assert np.isfinite(demo["bounded_ensemble_mean"]).all()
