"""Member training against the paper's formulas (Huang, Zhu & Siew 2006).

Each member of an ensemble is redrawn here from its documented stream:
member i of an ensemble trained with seed s is block i of
``derive_rng(s, STREAM_MEMBER)``, a block being L (d + 1) draws, so it
is redrawn alone by advancing that stream's PCG64 by i L (d + 1) draws
and then drawing hidden weights W ~ U[-1, 1] of shape (L, d), then
biases b ~ U[0, 1] of shape (L,).  Its output weights are the
pseudoinverse solution B = pinv(activation(X W^T + b), rcond=1e-10) Y,
with the textbook activation.  The members are then evaluated, and
radial-basis ensembles trimmed of each output's largest and smallest
member value, by the benchmark's oracle (``perfbench/oracle.py``), which
uses none of the program's folded forms.  ``ensemble_predict`` must
agree within 1e-8, relative to the larger value and absolute below 1.
The prediction rows reach half the training range beyond it on every
side, where the extrapolating members disagree most.
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from outreg import Activation, ensemble_predict, ensemble_train
from outreg.seeding import STREAM_MEMBER, derive_rng

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import oracle  # noqa: E402

SEED = 11
MEMBERS = 5
TRIMMED = {Activation.RADIAL_BASIS}


def _record():
    rng = np.random.default_rng(2024)
    X = rng.uniform(-1.0, 1.0, size=(240, 4))
    y = np.sin(2.0 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.1 * rng.standard_normal(240)
    return X, y[:, None], rng.uniform(-1.5, 1.5, size=(60, 4))


def _oracle_surface(X, Y, node_count, activation):
    members = []
    for i in range(MEMBERS):
        bits = derive_rng(SEED, STREAM_MEMBER).bit_generator
        bits.advance(i * node_count * (X.shape[1] + 1))
        rng = np.random.Generator(bits)
        W = rng.uniform(-1.0, 1.0, size=(node_count, X.shape[1]))
        b = rng.uniform(0.0, 1.0, size=node_count)
        H = oracle._ACTIVATIONS[activation.value](X @ W.T + b)
        members.append(SimpleNamespace(
            hidden_weights=W, hidden_biases=b, activation=activation,
            output_weights=np.linalg.pinv(H, rcond=1e-10) @ Y))
    trim = "drop-min-max" if activation in TRIMMED else "none"
    return oracle.Surface(SimpleNamespace(members=members,
                                          trim_policy=SimpleNamespace(value=trim)))


@pytest.mark.parametrize("node_count", [10, 40, 150])
@pytest.mark.parametrize("activation", list(Activation), ids=lambda a: a.value)
def test_ensemble_predict_matches_the_paper_formulas(activation, node_count):
    X, Y, P = _record()
    ensemble = ensemble_train(X, Y, node_count, activation,
                              member_count=MEMBERS, seed=SEED)
    got = ensemble_predict(ensemble, P)[:, 0]
    want = _oracle_surface(X, Y, node_count, activation)(P)
    wrong = [(i, a, b) for i, (a, b) in enumerate(zip(got, want))
             if not oracle.close(a, b, 1e-8)]
    assert not wrong, wrong[:5]
