"""Deterministic random-stream derivation.

Every stochastic component in this package (network weight draws, trial
loops, cross-validation, synthetic data) derives its generator from an
integer seed plus a derivation path.  The same (seed, path) pair always
produces the same stream, and changing an element of the path to another
value produces a statistically independent stream.  Appending zeros need
not: ``np.random.SeedSequence`` pads an entropy of fewer than four 32-bit
words with zero words, so for a seed below 2^32 ``derive_rng(s, 0)`` is
``derive_rng(s)``.  No two streams this package draws differ only by
trailing zeros.  This is what makes whole experiment runs bitwise
reproducible.

``derive_rng`` builds one ``np.random.SeedSequence`` per stream and a
PCG64 generator on it.  An ensemble draws all its members from one such
stream, ``derive_rng(seed, STREAM_MEMBER)``, member after member in
consecutive blocks, and a CV candidate its folds the same way (see
``outreg.regress``), so no member needs a seed of its own.

The configs type their fields when they are built through
``checked_int``, which seeds go through too, ``checked_float``,
``checked_bool``, ``checked_enum`` and, for a field that holds several
values, ``checked_items`` (and ``checked_distinct`` where they must
differ): numpy scalars are held as Python values, and a value of the
wrong kind is a ValueError whose message starts with the field's name and
shows the value through ``shown``, so a value read from JSON reads as the
file wrote it (``null``, not ``None``).  A field of several values takes
a sequence, never a set or a mapping, since their order follows string
hashing and would reorder a run's trials and report from one process to
the next.  These checks are
the only typing layer: ``outreg run --config`` checks only the keys of its
JSON and puts the section's path (``config.``, ``config.cv.``,
``config.or.``) in front of a config's message.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Set

import numpy as np

# Stream tags keep generators derived from the same base seed apart when
# the same integer index is reused in different contexts (an ensemble's
# member stream must not be a CV candidate's fold stream).
STREAM_MEMBER = 0
STREAM_CV = 1
STREAM_TRIAL = 2
STREAM_TOY = 3


def shown(value) -> str:
    """``value`` as an error message echoes it: as ``json.dumps`` writes it
    if it is JSON (``null``, ``"false"``), else as its ``repr``."""
    try:
        text = json.dumps(value, allow_nan=False)
        return text if json.loads(text) == value else repr(value)
    except (TypeError, ValueError):
        return repr(value)


def checked_int(value, name: str, least: int | None = 0) -> int:
    """``value`` as a Python int; a ValueError naming ``name`` if it is a
    bool, not an integer, or below ``least`` (None: no lower bound).  A
    seed's bound is 0; a config field's is its smallest valid value."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {shown(value)}")
    if least is not None and value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


def checked_float(value, name: str) -> float:
    """``value`` as a Python float; a ValueError naming ``name`` if it is a
    bool or not a real number.  Range checks stay with the field."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a number, got an integer too large "
                         "for a float") from None


def checked_items(values, name: str, check) -> tuple:
    """``values`` as a tuple of ``check(item, f"{name}[i]")``; a ValueError
    naming ``name`` if it is a scalar, a string or an unordered collection
    (a set or a mapping, whose order can change from process to process),
    not a sequence."""
    if isinstance(values, (str, Set, Mapping)) or not np.iterable(values):
        raise ValueError(f"{name} must be a sequence, got {shown(values)}")
    return tuple(check(v, f"{name}[{i}]") for i, v in enumerate(values))


def checked_distinct(values: tuple, name: str, echo=list) -> tuple:
    """``values`` if it holds at least one value and none twice; a
    ValueError naming ``name`` if not, which shows ``echo(values)``."""
    if not values:
        raise ValueError(f"{name} must not be empty")
    if len(set(values)) < len(values):
        raise ValueError(f"{name} must not repeat, got {shown(echo(values))}")
    return values


def checked_bool(value, name: str) -> bool:
    """``value`` as a Python bool; a ValueError naming ``name`` if it is not
    a bool (1 is not true)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a boolean, got {shown(value)}")
    return bool(value)


def checked_enum(value, name: str, kind):
    """``value`` if it is a member of enum ``kind``; a ValueError naming
    ``name`` if it is not (its value string is not enough)."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {kind.__name__}, got {shown(value)}")
    return value


def _sequence(seed: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    return np.random.SeedSequence([checked_int(v, "seed path element") for v in (seed, *path)])


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Return a generator for the stream identified by (seed, path)."""
    return np.random.default_rng(_sequence(seed, path))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse (seed, path) to a single integer usable as a child seed.

    Handy where an API takes a plain seed but the caller is inside a loop
    that must stay decorrelated across iterations.
    """
    state = _sequence(seed, path).generate_state(2)
    return int(state[0]) ^ (int(state[1]) << 32)
