"""Randomised single-hidden-layer networks, ensembles, and a linear baseline.

The regressor is deliberately cheap to train: hidden weights and biases
are drawn at random and never touched again, and only the linear output
layer is fitted, by minimum-norm least squares on the hidden activations
(``pinv_solve``: a QR solve where the design is provably well
conditioned, LAPACK's xGELSD otherwise).  Where ``pinv_solve`` will try
the QR solve, ``elm_train`` writes the activations H and the targets Y
side by side into one array, [H | Y], which it factors as it is.
Averaging an ensemble of such networks (here 100 by default) smooths out
the variance of the random hidden layer.

Hidden weights are uniform on [-1, 1] and hidden biases uniform on [0, 1],
drawn in that order from a generator derived from the training seed, so a
given (seed, node_count, activation) triple always yields the same model.
The output layer has no bias term.

Training and evaluation use different but equal forms of the network.
Training computes activation(X W^T + b) as written, and no fitted weight
depends on how a network is evaluated.  Evaluation folds two affine maps
into the weights, once per call of ``elm_predict`` and once per ensemble
(``EnsembleModel._stacked``):

* The bias joins the input product.  X gains a column of ones and each
  member's hidden layer is stacked as [W | b], shape (M, L, d+1), so the
  pre-activation is one product with no separate ``z += b`` pass.
* A sigmoid network becomes a tanh network.  sigmoid(z) = 1/2 + tanh(z/2)/2,
  so sigmoid(X W^T + b) B = tanh(X (W/2)^T + b/2) (B/2) + sum_l B_l/2: the
  stack holds W/2, b/2 and B/2 (halving is exact) plus a per-member
  offset sum_l B_l/2, shape (M, 1, m), added once to the stacked outputs.
  The chunk loop then runs only ``tanh``, in place.

Both folds are exact in real arithmetic but not bitwise the plain form,
nor the version before them, which added the bias after the product and
the sigmoid's 1 to each activation.  The bias is now summed inside the
product, in BLAS's order, and the sigmoid's 1/2 moves onto the output
sum, so each output moves by rounding, within 8 eps sum_l |B_l| (S_l +
|h_l| + 1), where S_l is the sum of the magnitudes that make up z_l and
h_l is the activation (a property test checks this bound).

``_forward`` is the one evaluation kernel.  It runs a chunk of members
at a time, with chunks sized so that the hidden-layer temporaries stay
near ``_CHUNK_ELEMENTS`` floats, and each member's two products are the
same BLAS calls on the same strides as for a lone member, since
``np.matmul`` loops over the leading member axis.  The offsets are one
whole-array sum and add, which sum each member's L values in the same
order whatever else the stack holds.  So an ensemble's output is bitwise
that of averaging ``elm_predict`` over its members, whatever the chunk
size.  Every activation runs in the pre-activation's own storage, with
the same ops in the same order as the form that allocates a temporary
per op.
"""

from __future__ import annotations

import enum
import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .numkernel import as_matrix, as_vector, pinv_solve, tries_qr
from .seeding import STREAM_CV, STREAM_MEMBER, derive_rng, derive_seed

DEFAULT_NODE_GRID = (5, 10, 20, 40, 70, 100, 150, 200, 300)

# hidden-layer floats evaluated at once by ensemble_predict (256 KiB)
_CHUNK_ELEMENTS = 1 << 15


class Activation(enum.Enum):
    SIGMOID = "sigmoid"
    RADIAL_BASIS = "radial-basis"
    SOFTPLUS = "softplus"


class TrimPolicy(enum.Enum):
    NONE = "none"
    DROP_MIN_MAX = "drop-min-max"


def activation_value(kind: Activation, z: float) -> float:
    """Scalar activation; see _activate for the vectorised forms."""
    return float(_activate(kind, np.asarray([float(z)]))[0])


def _activate(kind: Activation, z: np.ndarray) -> np.ndarray:
    """Activation of a pre-activation array, computed in ``z``'s storage."""
    if kind is Activation.SIGMOID:
        # 1/(1 + e^-z) = (1 + tanh(z/2))/2: one transcendental pass, nothing
        # to overflow.  (t + 1)/2 rounds as 0.5 + t/2 does, so this is
        # bitwise 0.5 + 0.5*tanh(0.5*z), and it is within 2^-52 of the
        # sign-split logistic
        z *= 0.5
        np.tanh(z, out=z)
        z += 1.0
        z *= 0.5
        return z
    if kind is Activation.RADIAL_BASIS:
        # exp(-z^2); |z| capped where the result already underflows to 0
        np.minimum(np.abs(z, out=z), 40.0, out=z)
        return np.exp(np.negative(np.square(z, out=z), out=z), out=z)
    if kind is Activation.SOFTPLUS:
        # log(1 + e^z) = max(z, 0) + log1p(e^{-|z|}), stable at both ends
        positive = np.maximum(z, 0.0)
        np.exp(np.negative(np.abs(z, out=z), out=z), out=z)
        return np.add(positive, np.log1p(z, out=z), out=z)
    raise ValueError(f"unknown activation {kind!r}")


@dataclass(frozen=True)
class ElmModel:
    """One trained network: frozen hidden layer plus fitted output weights."""

    hidden_weights: np.ndarray   # (L, d)
    hidden_biases: np.ndarray    # (L,)
    output_weights: np.ndarray   # (L, m)
    activation: Activation
    seed: int | None = None

    @property
    def node_count(self) -> int:
        return self.hidden_weights.shape[0]

    @property
    def input_dim(self) -> int:
        return self.hidden_weights.shape[1]


def _stack(members) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Members folded for ``_forward`` (see the module docstring): [W | b]^T
    (M, d+1, L), B (M, L, m) and the sigmoid's offsets (M, 1, m) or None.

    [W | b]^T is a transposed view of a C-ordered (M, L, d+1) array, so
    each member's slice has the strides of a lone member's.
    """
    first = members[0]
    L, d = first.hidden_weights.shape
    layer = np.empty((len(members), L, d + 1))
    # np.stack, without its per-call checks: elm_predict stacks one member
    np.concatenate([m.hidden_weights[None] for m in members], out=layer[:, :, :d])
    np.concatenate([m.hidden_biases[None] for m in members], out=layer[:, :, d])
    outputs = np.concatenate([m.output_weights[None] for m in members])
    offsets = None
    if first.activation is Activation.SIGMOID:
        layer *= 0.5
        outputs *= 0.5
        offsets = outputs.sum(axis=1, keepdims=True)
    return layer.transpose(0, 2, 1), outputs, offsets


def _forward(X, stacked, activation) -> np.ndarray:
    """Each stacked member's outputs on the rows of X, shape (M, N, m)."""
    layer_t, outputs, offsets = stacked
    N, d = X.shape
    X1 = np.empty((N, d + 1))
    X1[:, :d] = X
    X1[:, d] = 1.0
    count, _, L = layer_t.shape
    result = np.empty((count, N, outputs.shape[2]))
    step = max(1, _CHUNK_ELEMENTS // max(1, N * L))
    for i in range(0, count, step):
        chunk = slice(i, i + step)
        z = np.matmul(X1, layer_t[chunk])
        # a folded sigmoid is a tanh network
        H = (np.tanh(z, out=z) if activation is Activation.SIGMOID
             else _activate(activation, z))
        np.matmul(H, outputs[chunk], out=result[chunk])
    if offsets is not None:
        result += offsets
    return result


def elm_train(inputs, targets, node_count: int, activation: Activation,
              seed: int) -> ElmModel:
    """Draw a random hidden layer and fit the output weights to targets.

    ``targets`` is (N, m); pass a single-column matrix for scalar targets.
    """
    X = as_matrix(inputs, "inputs")
    Y = as_matrix(targets, "targets")
    if X.shape[0] < 1:
        raise ValueError("elm_train requires at least one training row")
    if Y.shape[0] != X.shape[0]:
        raise ValueError(f"inputs have {X.shape[0]} rows but targets has {Y.shape[0]}")
    if node_count < 1:
        raise ValueError(f"node_count must be at least 1, got {node_count}")
    if not isinstance(activation, Activation):
        raise ValueError(f"activation must be an Activation, got {activation!r}")
    rng = derive_rng(seed)
    W = rng.uniform(-1.0, 1.0, size=(node_count, X.shape[1]))
    b = rng.uniform(0.0, 1.0, size=node_count)
    # the plain form activation(X W^T + b); evaluation folds it (module docstring)
    n, m = Y.shape
    if tries_qr(n, node_count, m):
        # H and Y share one array, [H | Y], which pinv_solve's QR path
        # factors without a copy.  The Y columns go through the activation
        # as zeros, so that every pass runs on contiguous storage, and are
        # then overwritten
        z = np.zeros((n, node_count + m))
        np.matmul(X, W.T, out=z[:, :node_count])
        z += np.concatenate((b, np.zeros(m)))
    else:
        z = X @ W.T
        z += b
    _activate(activation, z)
    if not np.isfinite(z).all():
        raise RuntimeError(
            f"hidden activations are not finite (activation={activation.value}, "
            f"node_count={node_count}); input scaling is probably missing"
        )
    if z.shape[1] > node_count:
        z[:, node_count:] = Y
        Y = z[:, node_count:]
    B = pinv_solve(z[:, :node_count], Y)
    return ElmModel(hidden_weights=W, hidden_biases=b, output_weights=B,
                    activation=activation, seed=int(seed))


def elm_predict(model: ElmModel, inputs) -> np.ndarray:
    """Network outputs, shape (N, m)."""
    X = as_matrix(inputs, "inputs")
    if X.shape[1] != model.input_dim:
        raise ValueError(
            f"inputs have {X.shape[1]} columns, model expects {model.input_dim}"
        )
    return _forward(X, _stack((model,)), model.activation)[0]


@dataclass(frozen=True)
class EnsembleModel:
    members: tuple[ElmModel, ...]
    trim_policy: TrimPolicy
    seed: int | None = None

    def __post_init__(self):
        if not self.members:
            raise ValueError("an ensemble needs at least one member")
        first = self.members[0]
        for m in self.members[1:]:
            if (m.activation is not first.activation
                    or m.node_count != first.node_count
                    or m.input_dim != first.input_dim):
                raise ValueError("ensemble members must share activation, "
                                 "node count and input dimension")
        if self.trim_policy is TrimPolicy.DROP_MIN_MAX and len(self.members) < 3:
            raise ValueError(
                f"drop-min-max trimming needs at least 3 members, got {len(self.members)}"
            )

    @property
    def activation(self) -> Activation:
        return self.members[0].activation

    @property
    def node_count(self) -> int:
        return self.members[0].node_count

    @property
    def input_dim(self) -> int:
        return self.members[0].input_dim

    @functools.cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The members folded for ``_forward``, built once per ensemble."""
        return _stack(self.members)


def ensemble_train(inputs, targets, node_count: int, activation: Activation,
                   member_count: int = 100, seed: int = 0) -> EnsembleModel:
    """Train ``member_count`` independent networks on the same data.

    Member i trains on a seed derived from (seed, member stream, i), so
    members are decorrelated but the whole ensemble is reproducible from
    the single ``seed``.  The radial-basis activation occasionally
    produces wild individual members, so that activation gets the
    drop-min-max trim policy; the others average all members.
    """
    if member_count < 1:
        raise ValueError(f"member_count must be at least 1, got {member_count}")
    trim = (TrimPolicy.DROP_MIN_MAX if activation is Activation.RADIAL_BASIS
            else TrimPolicy.NONE)
    members = tuple(
        elm_train(inputs, targets, node_count, activation,
                  seed=derive_seed(seed, STREAM_MEMBER, i))
        for i in range(member_count)
    )
    return EnsembleModel(members=members, trim_policy=trim, seed=int(seed))


def ensemble_predict(ensemble: EnsembleModel, inputs) -> np.ndarray:
    """Combine member predictions pointwise, shape (N, m).

    Under drop-min-max the single largest and single smallest member
    prediction at each output cell are excluded before averaging.
    """
    X = as_matrix(inputs, "inputs")
    if X.shape[1] != ensemble.input_dim:
        raise ValueError(
            f"inputs have {X.shape[1]} columns, model expects {ensemble.input_dim}"
        )
    stacked = _forward(X, ensemble._stacked, ensemble.activation)
    count = len(ensemble.members)
    if ensemble.trim_policy is TrimPolicy.NONE:
        return stacked.mean(axis=0)
    total = stacked.sum(axis=0) - stacked.max(axis=0) - stacked.min(axis=0)
    return total / (count - 2)


@dataclass(frozen=True)
class CvConfig:
    """Cross-validation settings for hidden-node selection."""

    folds: int = 5
    candidate_node_counts: tuple[int, ...] = DEFAULT_NODE_GRID
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError(f"folds must be at least 2, got {self.folds}")
        counts = tuple(self.candidate_node_counts)
        if not counts:
            raise ValueError("candidate_node_counts must not be empty")
        if any(c < 1 for c in counts):
            raise ValueError(f"candidate node counts must be positive, got {counts}")
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise ValueError(
                f"candidate node counts must be strictly increasing, got {counts}"
            )


def default_node_grid(n_train: int, folds: int = 5) -> tuple[int, ...]:
    """DEFAULT_NODE_GRID truncated to counts trainable on every fold."""
    if n_train < folds:
        raise ValueError(f"need at least {folds} rows for {folds}-fold selection")
    limit = n_train * (folds - 1) // folds
    grid = tuple(c for c in DEFAULT_NODE_GRID if c <= limit)
    if not grid:
        grid = (max(1, limit),)
    return grid


def select_node_count(inputs, targets, activation: Activation, cv: CvConfig):
    """Pick the hidden-node count with the lowest mean validation MSE.

    Folds are contiguous blocks in row order: the datasets this targets
    are time ordered, and shuffling would leak adjacent (correlated) rows
    between train and validation.  Each (fold, candidate) pair trains a
    fresh network on its own derived seed.  Ties go to the smaller count.

    Returns (node_count, mean_mse_per_candidate) where the second element
    maps each evaluated candidate to its score.
    """
    X = as_matrix(inputs, "inputs")
    Y = as_matrix(targets, "targets")
    if Y.shape[0] != X.shape[0]:
        raise ValueError(f"inputs have {X.shape[0]} rows but targets has {Y.shape[0]}")
    n = X.shape[0]
    if n < cv.folds:
        raise ValueError(f"need at least {cv.folds} rows for {cv.folds}-fold selection")
    blocks = np.array_split(np.arange(n), cv.folds)
    min_train_rows = n - max(len(b) for b in blocks)
    scores: dict[int, float] = {}
    for ci, L in enumerate(cv.candidate_node_counts):
        if L > min_train_rows:
            warnings.warn(
                f"skipping candidate node count {L}: exceeds the smallest "
                f"training fold ({min_train_rows} rows)"
            )
            continue
        fold_mse = []
        for fi, block in enumerate(blocks):
            mask = np.ones(n, dtype=bool)
            mask[block] = False
            model = elm_train(X[mask], Y[mask], L, activation,
                              seed=derive_seed(cv.seed, STREAM_CV, ci, fi))
            err = elm_predict(model, X[block]) - Y[block]
            fold_mse.append(float(np.mean(err * err)))
        scores[int(L)] = float(np.mean(fold_mse))
    if not scores:
        raise ValueError(
            "no candidate node count is trainable on every fold; "
            "provide smaller candidates"
        )
    best = min(scores, key=lambda L: (scores[L], L))
    return best, scores


@dataclass(frozen=True)
class LinearModel:
    coefficients: np.ndarray  # (d,)
    intercept: float


def lr_fit(inputs, targets) -> LinearModel:
    """Ordinary least squares with an intercept, via ``pinv_solve``.

    With fewer than 15 inputs the design's d + 1 columns fall below
    ``pinv_solve``'s QR crossover of 16, so xGELSD solves it; a wider
    design takes the guarded QR solve.

    Rank-deficient inputs (e.g. duplicated columns) get the minimum-norm
    coefficient split rather than an error.
    """
    X = as_matrix(inputs, "inputs")
    y = as_vector(targets, "targets")
    if X.shape[0] < 1:
        raise ValueError("lr_fit requires at least one training row")
    if y.size != X.shape[0]:
        raise ValueError(f"inputs have {X.shape[0]} rows but targets has {y.size}")
    design = np.hstack([X, np.ones((X.shape[0], 1))])
    B = pinv_solve(design, y[:, None])
    return LinearModel(coefficients=B[:-1, 0].copy(), intercept=float(B[-1, 0]))


def lr_predict(model: LinearModel, inputs) -> np.ndarray:
    X = as_matrix(inputs, "inputs")
    if X.shape[1] != model.coefficients.size:
        raise ValueError(
            f"inputs have {X.shape[1]} columns, model expects {model.coefficients.size}"
        )
    return X @ model.coefficients + model.intercept
