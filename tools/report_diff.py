"""Compare two ``report.json`` files key by key and float by float.

    python tools/report_diff.py A/report.json B/report.json
    python tools/report_diff.py DIR_A DIR_B

Exits 1 if the two differ in structure (a key, a list length or a value's
type) or in any leaf that is not a float: node counts, outlier counts,
nulls, strings.  Otherwise prints how many floats were compared, how many
differ, and the worst relative difference |a - b| / max(|a|, |b|) with
its key path, and exits 0.  It is meant for changes that move report
bytes on purpose, by rounding only: ``tools/report_digests.py`` says
whether bytes moved, this says by how much and where.

Given two directories, as ``tools/report_digests.py DIR`` writes them, it
compares ``<case>/report.json`` for every case in either, prints one line
per case and then the worst relative difference over all of them, and
exits 1 if a case is missing from one side or is not comparable.  Each
case's ``trials.csv`` is a flattening of its report's trial scores, so
the reports cover it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


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


def compare(path_a, path_b) -> tuple[int, list[tuple[float, str]]]:
    """The number of float leaves of two report files and the relative
    difference and path of each that moved; ValueError if not comparable."""
    docs = []
    for name in (path_a, path_b):
        with open(name, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    pairs = list(float_pairs(*docs))
    return len(pairs), [(abs(x - y) / max(abs(x), abs(y)), path)
                        for path, x, y in pairs if x != y]


def _compare_files(path_a, path_b) -> int:
    try:
        count, moved = compare(path_a, path_b)
    except ValueError as error:
        print(f"not comparable: {error}")
        return 1
    print(f"floats compared: {count}")
    print(f"floats differing: {len(moved)}")
    if moved:
        worst, path = max(moved)
        print(f"worst relative difference: {worst:.3g} at {path}")
    else:
        print("worst relative difference: 0")
    return 0


def _compare_dirs(dir_a: Path, dir_b: Path) -> int:
    cases = sorted({p.name for d in (dir_a, dir_b) for p in d.iterdir() if p.is_dir()})
    if not cases:
        print("no case directories")
        return 1
    code, overall = 0, (0.0, "", "")
    for case in cases:
        sides = [d / case / "report.json" for d in (dir_a, dir_b)]
        absent = [str(p) for p in sides if not p.is_file()]
        if absent:
            print(f"{case}: missing {', '.join(absent)}")
            code = 1
            continue
        try:
            count, moved = compare(*sides)
        except ValueError as error:
            print(f"{case}: not comparable: {error}")
            code = 1
            continue
        worst, path = max(moved, default=(0.0, ""))
        print(f"{case}: {count} floats, {len(moved)} differ, worst {worst:.3g}"
              + (f" at {path}" if moved else ""))
        overall = max(overall, (worst, case, path))
    worst, case, path = overall
    print(f"worst relative difference over {len(cases)} cases: {worst:.3g}"
          + (f" in {case} at {path}" if worst else ""))
    return code


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py A/report.json B/report.json | DIR_A DIR_B",
              file=sys.stderr)
        return 2
    a, b = map(Path, argv)
    if a.is_dir() and b.is_dir():
        return _compare_dirs(a, b)
    return _compare_files(a, b)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
