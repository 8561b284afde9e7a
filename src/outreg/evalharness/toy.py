"""One-dimensional noisy toy problem for eyeballing extrapolation failure.

The signal is y = x + 0.2 x^2 with x drawn standard normal and additive
Gaussian noise whose standard deviation is twice that of the signal
itself: a regime noisy enough that an overfit network has plenty of rope.
Evaluating the fits on a wide grid (default [-6, 6], far beyond where the
training data lives) makes the divergence of the nonlinear surface, and
the tameness of its boundary linearisation, directly visible.
"""

from __future__ import annotations

import numpy as np

from ..extrapolate import boundary_extrapolate_1d
from ..preprocess import apply_minmax, fit_minmax
from ..regress import (Activation, CvConfig, combine_members, default_node_grid,
                       ensemble_member_predict, ensemble_predict, ensemble_train, lr_fit,
                       lr_predict, select_node_count)
from ..seeding import STREAM_CV, STREAM_TOY, STREAM_TRIAL, derive_rng, derive_seed


def true_signal(x: np.ndarray) -> np.ndarray:
    return x + 0.2 * np.square(x)


def toy_generate(seed: int, n_train: int = 100, noise_free: bool = False):
    """Sample (inputs, targets, signal_fn) for the toy problem.

    Inputs are standard normal; noise sd is 2 * std(signal) unless
    ``noise_free`` asks for the bare signal.
    """
    if n_train < 2:
        raise ValueError(f"n_train must be at least 2, got {n_train}")
    rng = derive_rng(seed, STREAM_TOY)
    x = rng.standard_normal(n_train)
    signal = true_signal(x)
    if noise_free:
        y = signal.copy()
    else:
        y = signal + rng.standard_normal(n_train) * (2.0 * np.std(signal, ddof=1))
    return x[:, None], y, true_signal


def toy_demo(seed: int = 0, activation: Activation = Activation.SIGMOID,
             n_train: int = 100, member_count: int = 100,
             node_count: int | None = None,
             grid_start: float = -6.0, grid_stop: float = 6.0,
             grid_step: float = 0.05, fd_step: float = 1e-2) -> dict:
    """Fit the toy problem and tabulate every curve on a fixed grid.

    Returns a dict of equal-length columns: the grid, the true signal,
    the linear fit, the ensemble mean, the boundary-linearised ensemble
    mean, plus a (grid, member_count) matrix of individual member curves.
    ``node_count=None`` selects the hidden-node count by cross-validation.
    """
    if not grid_step > 0.0:
        raise ValueError(f"grid_step must be positive, got {grid_step}")
    if not grid_stop >= grid_start:
        raise ValueError(f"grid_stop {grid_stop} lies below grid_start {grid_start}")
    X, y, signal = toy_generate(seed, n_train)
    scaler = fit_minmax(X)
    Xs = apply_minmax(scaler, X)
    grid = np.arange(grid_start, grid_stop + grid_step / 2, grid_step)
    grid_scaled = apply_minmax(scaler, grid[:, None])

    if node_count is None:
        cv = CvConfig(candidate_node_counts=default_node_grid(n_train),
                      seed=derive_seed(seed, STREAM_CV))
        node_count, _ = select_node_count(Xs, y[:, None], activation, cv)

    ensemble = ensemble_train(Xs, y[:, None], node_count, activation,
                              member_count=member_count,
                              seed=derive_seed(seed, STREAM_TRIAL, 0))
    linear = lr_fit(Xs, y)

    outputs = ensemble_member_predict(ensemble, grid_scaled)
    mean = combine_members(outputs, ensemble.trim_policy)[:, 0]

    # training inputs span the full fitted range, so in scaled coordinates
    # the training interval is exactly [-1, 1]; inside it the bounded curve
    # is the mean, and only the points beyond it are linearised
    def surface(z: np.ndarray) -> np.ndarray:
        return ensemble_predict(ensemble, z[:, None])[:, 0]

    beyond = np.abs(grid_scaled[:, 0]) > 1.0
    bounded = mean.copy()
    bounded[beyond] = boundary_extrapolate_1d(surface, -1.0, 1.0, fd_step, grid_scaled[beyond, 0])
    return {
        "x": grid,
        "true_signal": signal(grid),
        "linear": lr_predict(linear, grid_scaled),
        "ensemble_mean": mean,
        "bounded_ensemble_mean": bounded,
        "members": outputs[:, :, 0].T,
        "node_count": int(node_count),
        "train_x": X[:, 0],
        "train_y": y,
    }
