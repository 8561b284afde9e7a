"""Randomised single-hidden-layer networks, ensembles, and a linear baseline.

The regressor is deliberately cheap to train: hidden weights and biases
are drawn at random and never touched again, and only the linear output
layer is fitted, by minimum-norm least squares on the hidden activations
(``pinv_solve``: where the design is provably well conditioned, a
Cholesky solve of its Gram matrix when it has at least four rows per
hidden node, a QR solve otherwise; LAPACK's xGELSD on any other design).
Averaging an ensemble of such networks (here 100 by default) smooths out
the variance of the random hidden layer.

An ``EnsembleModel`` is its three stacks, one slice per member: hidden
weights W (M, L, d), hidden biases b (M, L) and output weights B
(M, L, m), beside its activation, trim policy and seed.  Its one
constructor holds the stacks as they are and checks that their shapes
agree; ``EnsembleModel.members`` gives each member back as an
``ElmModel`` whose arrays are views of the stacks, built on first use.
Nothing else copies a member: ``ensemble_train`` writes each chunk's W,
b and B into the stacks, and ``modelio`` saves and loads the stacks as
they are.

An ensemble trained with seed s draws every member from one stream,
``derive_rng(s, STREAM_MEMBER)``, cut into consecutive blocks of
L (d + 1) doubles u, one block per member in member order: W = 2u - 1
as (L, d), then b = u as (L,).  Member i is thus block i of the stream,
and it alone is redrawn by advancing a PCG64 on that stream's seed
sequence by i L (d + 1) draws (``PCG64.advance``).  ``elm_train(seed)``
is the one-member case, member 0 of ``ensemble_train(seed)``.  The
output layer has no bias term.

``ensemble_train`` trains its members a chunk at a time, with chunks
sized so that the hidden layers stay near ``_CHUNK_ELEMENTS`` floats.
A chunk of k members takes its k blocks with one ``Generator.random``
call (``_hidden_layers``), after the chunk before it, so the draws too
are held one chunk at a time.  It writes every member's activations H
into one (k, N, L) array with one product, one activation pass and one
finite check, and solves the whole chunk with one ``pinv_solve_stack``
call.  Where that solve goes straight to the QR route, which factors
[H | y] for each target column y (``factors_joined``), the array is
(k, N, L+1) instead: H and one spare column, into which the solve writes
each target column in turn before it factors the array, so that no
design is copied.  Each
member's product, activation and solve are the same operations on the
same strides as for a lone member, so member i is bitwise a lone
``_train`` on its block, whatever the chunk size.

``select_node_count`` draws a candidate's folds the same way, from one
stream per candidate node count L, ``derive_rng(cv.seed, STREAM_CV, L)``:
fold f is block f.  The folds that train on equally many rows are one
(k, n, d) stack, each member with its own X and Y; ``np.array_split``
puts the larger blocks first, so the stacks hold consecutive folds and
are drawn in fold order.  The stacked product and solve make each
member's lone calls, so every fold model is bitwise a lone ``_train``
on its block, and a candidate's score does not depend on the other
candidates.  Each group's validation rows are a (k, n_v, d) stack too,
scored with one ``_forward`` call; no fold becomes an ``ElmModel``.

Training and evaluation use different but equal forms of the network.
Training computes activation(X W^T + b) as written, and no fitted weight
depends on how a network is evaluated.  Evaluation folds two affine maps
into the weights (``_fold``): once per call of ``elm_predict``, from its
model's arrays as one-member stacks; once per ensemble, from its stacks,
cached as ``EnsembleModel._stacked``; and once per CV candidate and
fold-size group, from the group's fitted stacks:

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

``_forward`` is the one evaluation kernel.  It takes one X for all
members or an (M, N, d) stack, one X per member, and runs a chunk of
members at a time, with chunks sized so that the hidden-layer
temporaries stay near ``_CHUNK_ELEMENTS`` floats, and each member's two
products are the same BLAS calls on the same strides as for a lone
member, since ``np.matmul`` loops over the leading member axis.  The
offsets are one whole-array sum and add, which sum each member's L
values in the same order whatever else the stack holds.  So an
ensemble's output is bitwise that of averaging ``elm_predict`` over its
members, whatever the chunk size, and a CV fold's is that of
``elm_predict`` on its fitted model.  Every activation runs in the
pre-activation's own storage, with the same ops in the same order as the
form that allocates a temporary per op.
"""

from __future__ import annotations

import enum
import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .numkernel import (as_matrix, as_vector, factors_joined, pinv_solve,
                        pinv_solve_stack)
from .seeding import (STREAM_CV, STREAM_MEMBER, checked_enum, checked_int, checked_items,
                      derive_rng)

DEFAULT_NODE_GRID = (5, 10, 20, 40, 70, 100, 150, 200, 300)

# hidden-layer floats trained or evaluated at once (256 KiB)
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

    @property
    def input_dim(self) -> int:
        return self.hidden_weights.shape[1]


def _fold(W, b, B, activation) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Stacked members folded for ``_forward`` (see the module docstring):
    [W | b]^T (M, d+1, L), B (M, L, m) and the sigmoid's offsets (M, 1, m)
    or None, from W (M, L, d), b (M, L) and B (M, L, m).

    [W | b]^T is a transposed view of a C-ordered (M, L, d+1) array, and B
    is C-ordered, so each member's slice has the strides of a lone member's.
    """
    M, L, d = W.shape
    layer = np.empty((M, L, d + 1))
    layer[:, :, :d] = W
    layer[:, :, d] = b
    outputs = np.ascontiguousarray(B)
    offsets = None
    if activation is Activation.SIGMOID:
        layer *= 0.5
        outputs = outputs * 0.5
        offsets = outputs.sum(axis=1, keepdims=True)
    return layer.transpose(0, 2, 1), outputs, offsets


def _forward(X, stacked, activation) -> np.ndarray:
    """Each stacked member's outputs on the rows of X, shape (M, N, m):
    on one (N, d) X for every member, or on an (M, N, d) stack, one X per
    member."""
    layer_t, outputs, offsets = stacked
    N, d = X.shape[-2:]
    X1 = np.empty(X.shape[:-1] + (d + 1,))
    X1[..., :d] = X
    X1[..., d] = 1.0
    count, _, L = layer_t.shape
    result = np.empty((count, N, outputs.shape[2]))
    step = max(1, _CHUNK_ELEMENTS // max(1, N * L))
    for i in range(0, count, step):
        chunk = slice(i, i + step)
        z = np.matmul(X1[chunk] if X1.ndim == 3 else X1, layer_t[chunk])
        # a folded sigmoid is a tanh network
        H = (np.tanh(z, out=z) if activation is Activation.SIGMOID
             else _activate(activation, z))
        np.matmul(H, outputs[chunk], out=result[chunk])
    if offsets is not None:
        result += offsets
    return result


def _checked(inputs, targets, activation: Activation):
    """The training inputs and targets as finite matrices, once checked."""
    X = as_matrix(inputs, "inputs")
    Y = as_matrix(targets, "targets")
    if X.shape[0] < 1:
        raise ValueError("elm_train requires at least one training row")
    if Y.shape[0] != X.shape[0]:
        raise ValueError(f"inputs have {X.shape[0]} rows but targets has {Y.shape[0]}")
    checked_enum(activation, "activation", Activation)
    return X, Y


def _train(X, Y, node_count: int, activation: Activation, rng, count: int):
    """``count`` members, drawn block after block from generator ``rng`` and
    trained a chunk of members at a time (module docstring), on checked
    inputs and targets: one (n, d) X and (n, m) Y for every member, or
    (count, n, d) and (count, n, m) stacks, one pair per member.  Returns
    the members' stacks W (count, L, d), b (count, L) and B (count, L, m).
    A ``node_count`` that is not an integer of at least 1 is a ValueError."""
    node_count = checked_int(node_count, "node_count", 1)
    (n, d), m = X.shape[-2:], Y.shape[-1]
    width = node_count + 1 if factors_joined(n, node_count) else node_count
    step = max(1, _CHUNK_ELEMENTS // (n * width))
    stacks = (np.empty((count, node_count, d)), np.empty((count, node_count)),
              np.empty((count, node_count, m)))
    for start in range(0, count, step):
        part = slice(start, start + step)
        _train_chunk(X[part] if X.ndim == 3 else X, Y[part] if Y.ndim == 3 else Y,
                     activation, width, rng, *(s[part] for s in stacks))
    return stacks


def _hidden_layers(rng, k: int, node_count: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The next k members' hidden layers from ``rng``, W ~ U[-1, 1] as
    (k, L, d) and b ~ U[0, 1] as (k, L): bitwise ``rng.uniform(-1, 1,
    (L, d))`` and then ``rng.uniform(0, 1, L)``, member after member, since
    ``uniform(low, high)`` is low + (high - low) u and 2u is exact.

    Both are views of one array of draws, which holds the k layers and
    nothing else."""
    draws = rng.random((k, node_count * (d + 1)))
    W = draws[:, :node_count * d].reshape(k, node_count, d)
    W *= 2.0
    W -= 1.0
    return W, draws[:, node_count * d:]


def _train_chunk(X, Y, activation: Activation, width: int, rng, W, b, B) -> None:
    """The members of one chunk, drawn from ``rng`` and written into their
    slices W, b and B of the stacks.  Their hidden layers H are the first
    L columns of one (k, N, width) array; a spare column, where ``width``
    is L + 1, is the room ``pinv_solve_stack`` may write each target
    column into.  The array is freed on return, before the next chunk's
    is allocated."""
    (k, node_count), (n, d), m = b.shape, X.shape[-2:], Y.shape[-1]
    W[...], b[...] = _hidden_layers(rng, k, node_count, d)
    bias = np.zeros((k, 1, width))
    bias[:, 0, :node_count] = b
    # the plain form activation(X W^T + b); evaluation folds it (module
    # docstring).  A spare column goes through the activation as zeros,
    # so that every pass runs on contiguous storage
    z = np.empty((k, n, width))
    z[:, :, node_count:] = 0.0
    np.matmul(X, W.transpose(0, 2, 1), out=z[:, :, :node_count])
    z += bias
    _activate(activation, z)
    if not np.isfinite(z).all():
        raise RuntimeError(
            f"hidden activations are not finite (activation={activation.value}, "
            f"node_count={node_count}); input scaling is probably missing"
        )
    B[...] = pinv_solve_stack(z, np.broadcast_to(Y, (k, n, m)), node_count)


def elm_train(inputs, targets, node_count: int, activation: Activation,
              seed: int) -> ElmModel:
    """Draw a random hidden layer and fit the output weights to targets.

    ``targets`` is (N, m); pass a single-column matrix for scalar targets.
    This is ``ensemble_train``'s code for one member: member 0 of the
    ensemble trained with the same seed.
    """
    X, Y = _checked(inputs, targets, activation)
    W, b, B = _train(X, Y, node_count, activation, derive_rng(seed, STREAM_MEMBER), 1)
    return ElmModel(W[0], b[0], B[0], activation)


def elm_predict(model: ElmModel, inputs) -> np.ndarray:
    """Network outputs, shape (N, m)."""
    X = as_matrix(inputs, "inputs", model.input_dim)
    stacked = _fold(model.hidden_weights[None], model.hidden_biases[None],
                    model.output_weights[None], model.activation)
    return _forward(X, stacked, model.activation)[0]


@dataclass(frozen=True, eq=False)
class EnsembleModel:
    """M networks that share activation, node count L, input dimension d
    and output count m, held as three stacks, one slice per member, and
    checked for M >= 1, agreeing shapes and an ``Activation`` and a
    ``TrimPolicy``, without a copy.  Two ensembles compare and hash by
    identity, since their stacks have no single truth value.

    ``members`` gives each member back as an ``ElmModel`` whose arrays are
    views of the stacks.  ``seed`` is the seed the members were drawn
    with, or None.
    """

    hidden_weights: np.ndarray        # (M, L, d)
    hidden_biases: np.ndarray         # (M, L)
    output_weights: np.ndarray        # (M, L, m)
    activation: Activation
    trim_policy: TrimPolicy
    seed: int | None = None

    def __post_init__(self):
        checked_enum(self.activation, "activation", Activation)
        checked_enum(self.trim_policy, "trim_policy", TrimPolicy)
        W, b, B = map(np.shape, (self.hidden_weights, self.hidden_biases,
                                 self.output_weights))
        if not (len(W) == len(B) == 3 and W[:2] == b == B[:2] and min(W[1:] + B[2:]) >= 1):
            raise ValueError("an ensemble's stacks must be W (M, L, d), b (M, L) and "
                             f"B (M, L, m) with L, d, m >= 1, got {W}, {b} and {B}")
        if W[0] < 1:
            raise ValueError("an ensemble needs at least one member")
        if self.trim_policy is TrimPolicy.DROP_MIN_MAX and W[0] < 3:
            raise ValueError(f"drop-min-max trimming needs at least 3 members, got {W[0]}")

    @property
    def member_count(self) -> int:
        return self.hidden_weights.shape[0]

    @property
    def node_count(self) -> int:
        return self.hidden_weights.shape[1]

    @property
    def input_dim(self) -> int:
        return self.hidden_weights.shape[2]

    @functools.cached_property
    def members(self) -> tuple[ElmModel, ...]:
        """Each member as a lone network, its arrays views of the stacks."""
        return tuple(ElmModel(*arrays, self.activation) for arrays in zip(
            self.hidden_weights, self.hidden_biases, self.output_weights))

    @functools.cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The members folded for ``_forward``, built once per ensemble."""
        return _fold(self.hidden_weights, self.hidden_biases, self.output_weights,
                     self.activation)


def ensemble_train(inputs, targets, node_count: int, activation: Activation,
                   member_count: int = 100, seed: int = 0) -> EnsembleModel:
    """Train ``member_count`` independent networks on the same data.

    Member i is block i of the one stream ``derive_rng(seed,
    STREAM_MEMBER)`` (module docstring), so members are decorrelated but
    the whole ensemble is reproducible from the single ``seed``.  The
    radial-basis activation occasionally
    produces wild individual members, so that activation gets the
    drop-min-max trim policy; the others average all members.
    """
    member_count = checked_int(member_count, "member_count", 1)
    X, Y = _checked(inputs, targets, activation)
    trim = (TrimPolicy.DROP_MIN_MAX if activation is Activation.RADIAL_BASIS
            else TrimPolicy.NONE)
    rng = derive_rng(seed, STREAM_MEMBER)
    return EnsembleModel(*_train(X, Y, node_count, activation, rng, member_count),
                         activation, trim, int(seed))


def ensemble_predict(ensemble: EnsembleModel, inputs) -> np.ndarray:
    """Combine member predictions pointwise, shape (N, m).

    Under drop-min-max the single largest and single smallest member
    prediction at each output cell are excluded before averaging.
    """
    X = as_matrix(inputs, "inputs", ensemble.input_dim)
    stacked = _forward(X, ensemble._stacked, ensemble.activation)
    if ensemble.trim_policy is TrimPolicy.NONE:
        return stacked.mean(axis=0)
    total = stacked.sum(axis=0) - stacked.max(axis=0) - stacked.min(axis=0)
    return total / (ensemble.member_count - 2)


@dataclass(frozen=True)
class CvConfig:
    """Cross-validation settings for hidden-node selection."""

    folds: int = 5
    candidate_node_counts: tuple[int, ...] = DEFAULT_NODE_GRID
    seed: int = 0

    def __post_init__(self):
        # numpy integers are held as ints, so a report echoes them as JSON
        object.__setattr__(self, "seed", checked_int(self.seed, "seed"))
        object.__setattr__(self, "folds", checked_int(self.folds, "folds", 2))
        counts = checked_items(self.candidate_node_counts, "candidate_node_counts",
                               lambda c, name: checked_int(c, name, None))
        object.__setattr__(self, "candidate_node_counts", counts)
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
    fresh network: fold f of candidate L is block f of the stream
    ``derive_rng(cv.seed, STREAM_CV, L)`` (module docstring).  Ties go to
    the smaller count.

    Returns (node_count, mean_mse_per_candidate) where the second element
    maps each evaluated candidate to its score.
    """
    X, Y = _checked(inputs, targets, activation)
    n = X.shape[0]
    if n < cv.folds:
        raise ValueError(f"need at least {cv.folds} rows for {cv.folds}-fold selection")
    blocks = np.array_split(np.arange(n), cv.folds)
    # array_split's blocks take at most two sizes, the larger first; the
    # folds of each size are consecutive and train as one stack, every
    # fold on its own rows, and are scored as one stack of their blocks
    groups = {}
    for block in blocks:
        groups.setdefault(len(block), []).append(block)
    stacks = [(np.stack([np.delete(X, block, axis=0) for block in group]),
               np.stack([np.delete(Y, block, axis=0) for block in group]),
               np.stack([X[block] for block in group]), np.stack([Y[block] for block in group]))
              for group in groups.values()]
    min_train_rows = n - max(groups)
    scores: dict[int, float] = {}
    for L in cv.candidate_node_counts:
        if L > min_train_rows:
            warnings.warn(
                f"skipping candidate node count {L}: exceeds the smallest "
                f"training fold ({min_train_rows} rows)"
            )
            continue
        rng = derive_rng(cv.seed, STREAM_CV, L)
        fold_mse = []
        for Xs, Ys, Xv, Yv in stacks:
            W, b, B = _train(Xs, Ys, L, activation, rng, len(Xs))
            err = _forward(Xv, _fold(W, b, B, activation), activation) - Yv
            fold_mse.extend(float(np.mean(e * e)) for e in err)
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

    The design's d + 1 columns take the guarded Gram solve when there are
    at least four rows per column, and the guarded QR solve otherwise;
    xGELSD solves a design that fails their guards.

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
    X = as_matrix(inputs, "inputs", model.coefficients.size)
    return X @ model.coefficients + model.intercept
