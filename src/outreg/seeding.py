"""Deterministic random-stream derivation.

Every stochastic component in this package (network weight draws, trial
loops, cross-validation, synthetic data) derives its generator from an
integer seed plus a derivation path.  The same (seed, path) pair always
produces the same stream, and changing any element of the path produces a
statistically independent stream.  This is what makes whole experiment
runs bitwise reproducible.

``derive_seed`` and ``derive_rng`` build one ``np.random.SeedSequence``
per stream; they are the reference.  Training derives many streams at
once (100 ensemble members, the folds of a CV candidate), so it has batch
forms that give the same bits from arrays:

* ``derive_seeds(seed, *path, count)`` is ``derive_seed(seed, *path, i)``
  for i in range(count).
* ``stream_words(seeds)`` gives, per seed s, the four uint64 words that
  ``derive_rng(s)`` seeds its PCG64 with, which are
  ``SeedSequence([s]).generate_state(4, np.uint64)``.
* ``stream_doubles(words, count)`` gives, per row of words, the first
  ``count`` doubles of that PCG64's stream as ``Generator.random`` makes
  them: (raw >> 11) * 2**-53.  ``Generator.uniform(low, high)`` is
  low + (high - low) * random, so ``uniform(-1, 1)`` is -1 + 2u (2u is
  exact) and ``uniform(0, 1)`` is u.

numpy fixes SeedSequence's pool mixing, ``generate_state`` and PCG64's
seeding under its stream-compatibility policy (NEP 19), so ``_mixed_pools``
and ``_generated`` run the same uint32 arithmetic (hashmix and mix over a
four-word pool) on one column per seed.  Their hash constants do not
depend on the data, only on the position of each call, so every seed's
column takes the same constants.  The pass costs a fixed run of small
ufunc calls whatever the count, so fewer than ``_BATCH_MIN_SEEDS`` seeds
go through ``SeedSequence`` one at a time instead.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Stream tags keep generators derived from the same base seed apart when
# the same integer index is reused in different contexts (member 3 of an
# ensemble must not share a stream with fold 3 of a cross-validation).
STREAM_MEMBER = 0
STREAM_CV = 1
STREAM_TRIAL = 2
STREAM_TOY = 3

# seeds at which the vectorised pass beats one SeedSequence per seed: the
# pass takes about 60 us whatever the count, a SeedSequence about 8 us
# (one thread, AVX-512 host, numpy 2.4; derive_seeds and stream_words
# both cross between 7 and 9 seeds)
_BATCH_MIN_SEEDS = 8

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def checked_int(value, name: str, least: int | None = 0) -> int:
    """``value`` as a Python int; a ValueError naming ``name`` if it is a
    bool, not an integer, or below ``least`` (None: no lower bound).  A
    seed's bound is 0; a config field's is its smallest valid value."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


def _check_path(seed: int, path: tuple[int, ...]) -> None:
    for value in (seed, *path):
        checked_int(value, "seed path element")


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Return a generator for the stream identified by (seed, path)."""
    _check_path(seed, path)
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse (seed, path) to a single integer usable as a child seed.

    Handy where an API takes a plain seed but the caller is inside a loop
    that must stay decorrelated across iterations.
    """
    _check_path(seed, path)
    state = np.random.SeedSequence([int(seed), *map(int, path)]).generate_state(2)
    return int(state[0]) ^ (int(state[1]) << 32)


def derive_seeds(seed: int, *path: int, count: int) -> list[int]:
    """``[derive_seed(seed, *path, i) for i in range(count)]``."""
    if count < _BATCH_MIN_SEEDS:
        return [derive_seed(seed, *path, i) for i in range(count)]
    _check_path(seed, path)
    prefix = [w for value in (seed, *path) for w in _words32(int(value))]
    entropy = np.empty((len(prefix) + 1, count), dtype=np.uint32)
    entropy[:-1] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(count, dtype=np.uint32)   # each i is one word
    state = _generated(_mixed_pools(entropy), 2).astype(np.uint64)
    return (state[0] | state[1] << np.uint64(32)).tolist()


def stream_words(seeds) -> np.ndarray:
    """The PCG64 seeding words of ``derive_rng(s)`` per seed, (k, 4) uint64."""
    for s in seeds:
        checked_int(s, "seed")
    if len(seeds) < _BATCH_MIN_SEEDS or max(seeds) > 2**64 - 1:
        return np.array([np.random.SeedSequence([int(s)]).generate_state(4, np.uint64)
                         for s in seeds], dtype=np.uint64).reshape(len(seeds), 4)
    s = np.array([int(v) for v in seeds], dtype=np.uint64)
    # [lo, hi]: a seed below 2^32 is the one word [lo], and the pool pads
    # a short entropy with the hash of 0, which is what hi = 0 gives
    entropy = np.stack([s & np.uint64(_MASK32), s >> np.uint64(32)]).astype(np.uint32)
    state = _generated(_mixed_pools(entropy), 8).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)


class _Words(ISeedSequence):
    """A seed sequence whose state is a given row of ``stream_words``."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks once, for 4 uint64 words, when it is built
        return self.words


def stream_doubles(words, count: int) -> np.ndarray:
    """Row i: the first ``count`` ``Generator.random`` doubles of the stream
    that ``words[i]`` seeds, shape (k, count)."""
    out = np.empty((len(words), count))
    for row, w in zip(out, words):
        np.random.Generator(np.random.PCG64(_Words(w))).random(out=row)
    return out


def _words32(value: int) -> list[int]:
    """SeedSequence's split of one entropy integer: little-endian uint32
    words, and [0] for 0."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


@functools.lru_cache(maxsize=16)
def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The hash constant each of ``calls`` hashmix calls xors with and the
    one it multiplies by, as read-only (calls, 1) uint32 columns."""
    constants = [init]
    for _ in range(calls):
        constants.append(constants[-1] * mult & _MASK32)
    c = np.array(constants, dtype=np.uint32)[:, None]
    c.flags.writeable = False
    return c[:-1], c[1:]


def _hashmix(value, xor, mult):
    value = value ^ xor
    value *= mult
    value ^= value >> _SHIFT
    return value


def _mix(x, y):
    result = x * _MIX_L
    result -= y * _MIX_R
    result ^= result >> _SHIFT
    return result


def _mixed_pools(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's mix_entropy on each column of a (words, k) uint32
    array, giving (4, k) pools."""
    n_words, k = entropy.shape
    xor, mult = _hash_constants(_INIT_A, _MULT_A,
                                _POOL * _POOL + max(0, n_words - _POOL) * _POOL)
    fill = np.zeros((_POOL, k), dtype=np.uint32)
    fill[:n_words] = entropy[:_POOL]
    pool = _hashmix(fill, xor[:_POOL], mult[:_POOL])
    at = _POOL
    # each source word is hashed once per other pool word, in order, and
    # is itself unchanged meanwhile, so its three updates are one pass
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        hashed = _hashmix(pool[src], xor[at:at + 3], mult[at:at + 3])
        pool[dst] = _mix(pool[dst], hashed)
        at += 3
    for src in range(_POOL, n_words):
        pool = _mix(pool, _hashmix(entropy[src], xor[at:at + 4], mult[at:at + 4]))
        at += 4
    return pool


def _generated(pools: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence.generate_state(n_words) on each column of (4, k) pools,
    as (n_words, k) uint32."""
    xor, mult = _hash_constants(_INIT_B, _MULT_B, n_words)
    return _hashmix(pools[np.arange(n_words) % _POOL], xor, mult)
