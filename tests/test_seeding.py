"""Seed paths and the hidden-layer draws that training makes from them.

``derive_seed`` and ``derive_rng`` build one ``np.random.SeedSequence``
per stream, on the seed and the whole path.  An ensemble draws its
members' hidden layers from one such stream, a chunk of members at a
time: each chunk's layers must be bitwise the draws that
``Generator.uniform`` makes member after member from the same generator.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from outreg import Activation, ensemble_train, regress  # noqa: E402
from outreg.seeding import STREAM_CV, STREAM_MEMBER, derive_rng, derive_seed, shown  # noqa: E402

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None,
                         max_examples=100)

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**100]


@pytest.mark.parametrize("seed, path", [
    (0, ()), (2**32 - 1, (STREAM_CV, 0)), (2**32, (STREAM_CV, 3)),
    (2**64 - 1, (0,)), (5, (2**40, 2**33)),
    # 4 + 1 + 1 + 1 + 1 entropy words: more than SeedSequence's pool holds
    (2**100, (STREAM_CV, 2, 4)),
])
@pytest.mark.parametrize("count", [1, 8, 100])
def test_derive_seeds_at_word_boundaries(seed, path, count):
    """Child seeds, such as the trial seeds a report records, derived per
    index: SeedSequence's first two state words on the whole path, across
    the word boundaries of its entropy split and past its pool, and a
    different seed for every index."""
    seeds = [derive_seed(seed, *path, i) for i in range(count)]
    for i, child in enumerate(seeds):
        lo, hi = np.random.SeedSequence([seed, *path, i]).generate_state(2).tolist()
        assert child == lo | hi << 32
    assert len(set(seeds)) == count


@DETERMINISTIC
@given(seed=st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1),
       chunks=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
       node_count=st.integers(min_value=1, max_value=40),
       d=st.integers(min_value=1, max_value=8))
def test_hidden_layers_are_derive_rng_draws_bitwise(seed, chunks, node_count, d):
    """Chunk after chunk from one generator: member after member, W by
    ``uniform(-1, 1, (L, d))`` and then b by ``uniform(0, 1, L)``."""
    rng, reference = derive_rng(seed, STREAM_MEMBER), derive_rng(seed, STREAM_MEMBER)
    for k in chunks:
        W, b = regress._hidden_layers(rng, k, node_count, d)
        assert W.shape == (k, node_count, d) and b.shape == (k, node_count)
        for i in range(k):
            assert W[i].tobytes() == reference.uniform(-1.0, 1.0, (node_count, d)).tobytes()
            assert b[i].tobytes() == reference.uniform(0.0, 1.0, node_count).tobytes()


def test_hidden_layers_hold_no_more_than_the_layers():
    W, b = regress._hidden_layers(derive_rng(3), 3, 6, 2)
    assert W.base is b.base and W.base.size == 3 * 6 * (2 + 1)


@pytest.mark.parametrize("bad", [True, False, np.bool_(True), -1, 1.5, "3", None])
def test_bad_path_elements_rejected(bad):
    with pytest.raises(ValueError, match="seed path element"):
        derive_seed(bad, 0, 1)
    with pytest.raises(ValueError, match="seed path element"):
        derive_seed(1, bad)
    with pytest.raises(ValueError, match="seed path element"):
        derive_rng(1, bad)


def test_bool_is_not_the_integer_it_equals():
    """True == 1 in Python, but a bool seed is a mistake, not seed 1."""
    with pytest.raises(ValueError, match="integer"):
        derive_seed(True, 0, 1)
    with pytest.raises(ValueError, match="integer"):
        derive_rng(1, False)


@pytest.mark.parametrize("bad", [True, -1, 2.0])
@pytest.mark.parametrize("count", [1, 8])
def test_bad_stream_seeds_rejected(bad, count):
    """An ensemble's seed names its members' stream, whatever their count."""
    X = np.linspace(-1.0, 1.0, 10)[:, None]
    with pytest.raises(ValueError, match="seed"):
        ensemble_train(X, X, 3, Activation.SIGMOID, member_count=count, seed=bad)


@pytest.mark.parametrize("value, text", [
    (None, "null"), ("false", '"false"'), (True, "true"), (2.5, "2.5"),
    (np.float64(2.5), "2.5"), ([1, "a", None], '[1, "a", null]'),
    ({"k": [False]}, '{"k": [false]}'),
    ((1, 2), "(1, 2)"), ({1: "a"}, "{1: 'a'}"), ({"a"}, "{'a'}"),
    (float("nan"), "nan"), ([float("inf")], "[inf]"), (np.int64(3), repr(np.int64(3))),
    (Activation.SIGMOID, "<Activation.SIGMOID: 'sigmoid'>"),
], ids=["null", "string", "bool", "float", "numpy-float", "list", "object", "tuple",
        "integer-keys", "set", "nan", "infinity", "numpy-integer", "enum"])
def test_a_rejected_value_is_shown_as_json_when_it_is_json(value, text):
    """JSON values read back as themselves; a value that JSON would not
    give back unchanged, or cannot write, is shown as its repr."""
    assert shown(value) == text
