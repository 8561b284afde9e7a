"""The batch stream forms of ``outreg.seeding`` against the reference.

``derive_seed`` and ``derive_rng`` build one ``np.random.SeedSequence``
per stream.  ``derive_seeds``, ``stream_words`` and the hidden-layer
draws that training makes from them must give the same bits, both below
the crossover, where they call SeedSequence per seed, and above it,
where they run its arithmetic on arrays.  The seeds cover the word
boundaries of SeedSequence's entropy split (0, 2^32 - 1, 2^32, 2^64 - 1)
and paths longer than its four-word pool.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from outreg import regress, seeding  # noqa: E402
from outreg.seeding import (STREAM_CV, derive_rng, derive_seed,  # noqa: E402
                            derive_seeds, stream_words)

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None,
                         max_examples=100)

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
big_ints = st.one_of(st.sampled_from(EDGE_SEEDS + [2**100]),
                     st.integers(min_value=0, max_value=2**70))
counts = st.sampled_from([1, seeding._BATCH_MIN_SEEDS - 1,
                          seeding._BATCH_MIN_SEEDS, 37])


def reference_words(s):
    return np.random.SeedSequence([s]).generate_state(4, np.uint64)


@DETERMINISTIC
@given(seed=big_ints, path=st.lists(big_ints, max_size=4), count=counts)
def test_derive_seeds_is_derive_seed_per_index(seed, path, count):
    assert derive_seeds(seed, *path, count=count) == [
        derive_seed(seed, *path, i) for i in range(count)]


@pytest.mark.parametrize("seed, path", [
    (0, ()), (2**32 - 1, (STREAM_CV, 0)), (2**32, (STREAM_CV, 3)),
    (2**64 - 1, (0,)), (5, (2**40, 2**33)),
    # 4 + 1 + 1 + 1 + 1 entropy words: more than the pool holds
    (2**100, (STREAM_CV, 2, 4)),
])
@pytest.mark.parametrize("count", [1, seeding._BATCH_MIN_SEEDS, 100])
def test_derive_seeds_at_word_boundaries(seed, path, count):
    assert derive_seeds(seed, *path, count=count) == [
        derive_seed(seed, *path, i) for i in range(count)]


@DETERMINISTIC
@given(seeds=st.lists(st.one_of(st.sampled_from(EDGE_SEEDS),
                                st.integers(min_value=0, max_value=2**64 - 1)),
                      min_size=1, max_size=3 * seeding._BATCH_MIN_SEEDS))
def test_stream_words_are_the_pcg64_seeding_words(seeds):
    got = stream_words(seeds)
    assert got.shape == (len(seeds), 4) and got.dtype == np.uint64
    assert got.tobytes() == np.stack([reference_words(s) for s in seeds]).tobytes()


def test_stream_words_past_64_bits_take_the_reference_path():
    seeds = [2**64, 2**100] + list(range(seeding._BATCH_MIN_SEEDS))
    assert stream_words(seeds).tobytes() == np.stack(
        [reference_words(s) for s in seeds]).tobytes()


@DETERMINISTIC
@given(seeds=st.lists(st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**64 - 1),
                      min_size=1, max_size=2 * seeding._BATCH_MIN_SEEDS),
       node_count=st.integers(min_value=1, max_value=40),
       d=st.integers(min_value=1, max_value=8))
def test_hidden_layers_are_derive_rng_draws_bitwise(seeds, node_count, d):
    W, b = regress._hidden_layers(stream_words(seeds), node_count, d)
    assert W.shape == (len(seeds), node_count, d) and b.shape == (len(seeds), node_count)
    for i, s in enumerate(seeds):
        rng = derive_rng(s)
        assert W[i].tobytes() == rng.uniform(-1.0, 1.0, (node_count, d)).tobytes()
        assert b[i].tobytes() == rng.uniform(0.0, 1.0, node_count).tobytes()


def test_hidden_layers_hold_no_more_than_the_layers():
    W, b = regress._hidden_layers(stream_words([3, 4, 5]), 6, 2)
    assert W.base is b.base and W.base.size == 3 * 6 * (2 + 1)


@pytest.mark.parametrize("bad", [True, False, np.bool_(True), -1, 1.5, "3", None])
def test_bad_path_elements_rejected(bad):
    with pytest.raises(ValueError, match="seed path element"):
        derive_seed(bad, 0, 1)
    with pytest.raises(ValueError, match="seed path element"):
        derive_seed(1, bad)
    with pytest.raises(ValueError, match="seed path element"):
        derive_seeds(1, bad, count=seeding._BATCH_MIN_SEEDS)


def test_bool_is_not_the_integer_it_equals():
    """True == 1 in Python, but a bool seed is a mistake, not seed 1."""
    with pytest.raises(ValueError, match="integer"):
        derive_seed(True, 0, 1)
    with pytest.raises(ValueError, match="integer"):
        derive_rng(1, False)


@pytest.mark.parametrize("bad", [True, -1, 2.0])
@pytest.mark.parametrize("count", [1, seeding._BATCH_MIN_SEEDS])
def test_bad_stream_seeds_rejected(bad, count):
    with pytest.raises(ValueError, match="seed"):
        stream_words([bad] + list(range(count)))
