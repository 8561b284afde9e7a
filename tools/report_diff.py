"""Compare two ``report.json`` files key by key and float by float.

    python tools/report_diff.py A/report.json B/report.json

Exits 1 if the two differ in structure (a key, a list length or a value's
type) or in any leaf that is not a float: node counts, outlier counts,
nulls, strings.  Otherwise prints how many floats were compared, how many
differ, and the worst relative difference |a - b| / max(|a|, |b|) with
its key path, and exits 0.  It is meant for changes that move report
bytes on purpose, by rounding only: ``tools/report_digests.py`` says
whether bytes moved, this says by how much and where.
"""

from __future__ import annotations

import json
import sys


def float_pairs(a, b, path=""):
    """Yield (path, x, y) for every pair of float leaves of two JSON
    values, with JSON-pointer paths such as ``/aggregates/sigmoid/99.0``;
    raise ValueError at the first other difference."""
    where = path or "/"
    if type(a) is not type(b):
        raise ValueError(f"{where}: {type(a).__name__} against {type(b).__name__}")
    if isinstance(a, dict):
        if a.keys() != b.keys():
            raise ValueError(f"{where}: keys differ: {sorted(a.keys() ^ b.keys())}")
        for key in a:
            yield from float_pairs(a[key], b[key], f"{path}/{key}")
    elif isinstance(a, list):
        if len(a) != len(b):
            raise ValueError(f"{where}: {len(a)} items against {len(b)}")
        for i, (x, y) in enumerate(zip(a, b)):
            yield from float_pairs(x, y, f"{path}/{i}")
    elif isinstance(a, float):
        yield where, a, b
    elif a != b:
        raise ValueError(f"{where}: {a!r} against {b!r}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py A/report.json B/report.json", file=sys.stderr)
        return 2
    docs = []
    for name in argv:
        with open(name, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    try:
        pairs = list(float_pairs(*docs))
    except ValueError as error:
        print(f"not comparable: {error}")
        return 1
    moved = [(abs(x - y) / max(abs(x), abs(y)), path)
             for path, x, y in pairs if x != y]
    print(f"floats compared: {len(pairs)}")
    print(f"floats differing: {len(moved)}")
    if moved:
        worst, path = max(moved)
        print(f"worst relative difference: {worst:.3g} at {path}")
    else:
        print("worst relative difference: 0")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
