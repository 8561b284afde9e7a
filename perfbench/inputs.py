"""Seeded workload inputs, made with numpy alone.

Nothing here calls the program or its seeding module, so a change to
the program cannot change what it is fed.  Each workload draws from its
own stream of ``np.random.default_rng([stream, seed])``.

The share of gated rows drives the fallback's cost, so it is fixed by
construction rather than left to chance: in-domain test rows are redrawn
until their Mahalanobis distance is below the 90th percentile of the
training rows' own distances (so no gate at the 95th or 99th percentile
can flag them), and a fixed number of rows is placed clearly outside
the training envelope, where both gate conditions hold.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import GateOracle

STREAM_RIVER = 1
STREAM_OUTLIERS = 2
STREAM_DEPLOY = 3
# the categorical record of protocol-train does not depend on --seed
ONEHOT_RECORD_SEED = 0

RIVER_FEATURES = ("rain_mm", "temp_c", "upstream_m3s", "snowmelt_mm")
RIVER_RANGES = ((0.0, 40.0), (-10.0, 30.0), (0.0, 250.0), (5.0, 25.0))
SEASONS = ("winter", "spring", "summer", "fall")
TRAIN_FRACTION = 0.7


def _inside(rng, limit: GateOracle, count: int, draw) -> np.ndarray:
    """``count`` draws of ``draw(rng, k)`` closer than ``limit``'s threshold."""
    kept = np.empty((0, limit.mean.size))
    while kept.shape[0] < count:
        batch = draw(rng, 2 * count)
        kept = np.vstack([kept, batch[limit.distances(batch) < limit.threshold]])
    return kept[:count]


def _corners(rng, count: int, dim: int, low: float, high: float) -> np.ndarray:
    """Points past the corners of the [-1, 1] box: |x_j| in [low, high]."""
    return rng.choice([-1.0, 1.0], size=(count, dim)) * rng.uniform(low, high, (count, dim))


def _uniform(rng, k, dim=4):
    return rng.uniform(-1.0, 1.0, (k, dim))


@dataclass(frozen=True)
class RiverRecord:
    """protocol-train's weekly record, in box units and in physical units."""

    U: np.ndarray          # (n, 4) in [-1, 1] except the outside rows
    X: np.ndarray          # (n, 4) physical units
    flow: np.ndarray       # (n,) positive, log10 target
    season: tuple[str, ...]
    n_train: int


def river_record(seed: int, n_rows: int, n_outside: int) -> RiverRecord:
    """A time-ordered record with 4 stationary predictors and a smooth log-flow.

    The predictors are stationary and bounded, so every contiguous CV fold
    and the test block sample the same envelope; the log10 flow is a
    smooth function of them with 5e-4 noise, smooth enough for CV to
    pick the largest count of the benchmark's grid (150 hidden nodes).
    ``n_outside`` test rows lie 1.3-1.5 box half-widths out in every
    predictor.
    """
    rng = np.random.default_rng([STREAM_RIVER, seed])
    n_train = int(round(TRAIN_FRACTION * n_rows))
    train = _uniform(rng, n_train)
    test = _inside(rng, GateOracle(train, 90.0), n_rows - n_train, _uniform)
    rows = rng.choice(test.shape[0], n_outside, replace=False)
    test[rows] = _corners(rng, n_outside, 4, 1.3, 1.5)
    U = np.vstack([train, test])
    u0, u1, u2, u3 = U.T
    log_flow = (1.5 + 0.5 * np.sin(2.0 * u0 + u1) + 0.3 * np.cos(2.0 * u2 - u3)
                + 0.2 * u0 * u2 + 5e-4 * rng.standard_normal(n_rows))
    lo = np.array([r[0] for r in RIVER_RANGES])
    hi = np.array([r[1] for r in RIVER_RANGES])
    X = lo + (U + 1.0) / 2.0 * (hi - lo)
    season = tuple(SEASONS[(t // 13) % 4] for t in range(n_rows))
    return RiverRecord(U=U, X=X, flow=10.0 ** log_flow, season=season, n_train=n_train)


def write_river(record: RiverRecord, directory: Path, name: str,
                with_season: bool) -> Path:
    """Write the record's CSV and manifest; return the manifest path."""
    directory.mkdir(parents=True, exist_ok=True)
    features = list(RIVER_FEATURES) + (["season"] if with_season else [])
    with open(directory / f"{name}.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["week"] + features + ["flow"])
        for t in range(record.X.shape[0]):
            row = [t] + [repr(float(v)) for v in record.X[t]]
            if with_season:
                row.append(record.season[t])
            writer.writerow(row + [repr(float(record.flow[t]))])
    manifest = {
        "name": name,
        "csv_path": f"{name}.csv",
        "feature_columns": features,
        "target_column": "flow",
        "target_transform": "log10",
        "split": {"train_fraction": TRAIN_FRACTION},
    }
    if with_season:
        manifest["categorical_groups"] = [{"column": "season", "categories": list(SEASONS)}]
    path = directory / f"{name}.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


@dataclass(frozen=True)
class OutlierArrays:
    train_inputs: np.ndarray
    test_inputs: np.ndarray
    train_target: np.ndarray
    test_target: np.ndarray


def _smooth3(U, rng):
    return (2.0 + U[:, 0] - 0.5 * U[:, 1] ** 2 + 0.8 * np.sin(1.5 * U[:, 2])
            + 0.01 * rng.standard_normal(U.shape[0]))


def outlier_arrays(seed: int, n_train: int, n_inside: int, n_far: int) -> OutlierArrays:
    """protocol-outliers: 3 features, half of the test rows far outside.

    Far rows sit 3.5-6 training standard deviations from the training
    mean along a random direction; test rows come in random order.
    """
    rng = np.random.default_rng([STREAM_OUTLIERS, seed])
    draw = lambda r, k: _uniform(r, k, 3)
    train = draw(rng, n_train)
    inside = _inside(rng, GateOracle(train, 90.0), n_inside, draw)
    direction = rng.standard_normal((n_far, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = rng.uniform(3.5, 6.0, (n_far, 1))
    far = train.mean(axis=0) + radius * train.std(axis=0) * direction
    test = np.vstack([inside, far])[rng.permutation(n_inside + n_far)]
    return OutlierArrays(train, test, _smooth3(train, rng), _smooth3(test, rng))


def _smooth6(U, rng):
    return (np.sin(U[:, 0] + U[:, 1]) + 0.5 * U[:, 2] * U[:, 3] - 0.3 * U[:, 4] ** 2
            + 0.2 * U[:, 5] + 0.01 * rng.standard_normal(U.shape[0]))


def deploy_training(seed: int, n_train: int):
    """deploy-score's training set: 6 features already in normalised units."""
    rng = np.random.default_rng([STREAM_DEPLOY, seed, 0])
    train = _uniform(rng, n_train, 6)
    return train, _smooth6(train, rng)


def deploy_batches(seed: int, train: np.ndarray, count: int, size: int,
                   n_far: int) -> list[np.ndarray]:
    """``count`` batches of new rows: in-domain rows plus ``n_far`` past the corners."""
    rng = np.random.default_rng([STREAM_DEPLOY, seed, 1])
    draw = lambda r, k: _uniform(r, k, 6)
    limit = GateOracle(train, 90.0)
    out = []
    for _ in range(count):
        rows = np.vstack([_inside(rng, limit, size - n_far, draw),
                          _corners(rng, n_far, 6, 1.3, 1.6)])
        out.append(rows[rng.permutation(size)])
    return out
