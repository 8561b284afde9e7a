"""``tools/report_diff.py``: float leaves are measured, every other
difference (a key, a list length, a type, an int, a string, a null) is a
failure."""

import json
import runpy
from pathlib import Path

import pytest

main = runpy.run_path(str(Path(__file__).parents[1] / "tools" / "report_diff.py"))["main"]

BASE = {"aggregates": {"sigmoid": {"99.0": {"median": 0.25, "n": 4}}},
        "cv_scores": {"sigmoid": [0.5, 2.0]}, "node_counts": {"sigmoid": 12},
        "name": "record", "missing": None}


def _run(tmp_path, other, capsys):
    paths = []
    for name, doc in (("a.json", BASE), ("b.json", other)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    code = main([str(p) for p in paths])
    return code, capsys.readouterr().out


def test_identical_reports(tmp_path, capsys):
    code, out = _run(tmp_path, BASE, capsys)
    assert code == 0
    assert out.splitlines() == ["floats compared: 3", "floats differing: 0",
                                "worst relative difference: 0"]


def test_moved_floats_report_the_worst_with_its_path(tmp_path, capsys):
    other = json.loads(json.dumps(BASE))
    other["aggregates"]["sigmoid"]["99.0"]["median"] = 0.25 * (1 + 1e-12)
    other["cv_scores"]["sigmoid"][1] = 2.0 * (1 - 1e-9)
    code, out = _run(tmp_path, other, capsys)
    assert code == 0
    assert out.splitlines()[1] == "floats differing: 2"
    assert out.splitlines()[2] == "worst relative difference: 1e-09 at /cv_scores/sigmoid/1"


@pytest.mark.parametrize("path, value", [
    (("node_counts", "sigmoid"), 13),
    (("aggregates", "sigmoid", "99.0", "n"), 4.0),
    (("missing",), 0.0),
    (("name",), "other"),
    (("cv_scores", "sigmoid"), [0.5]),
    (("aggregates", "sigmoid"), {"95.0": {"median": 0.25, "n": 4}}),
])
def test_any_other_difference_exits_1(tmp_path, capsys, path, value):
    other = json.loads(json.dumps(BASE))
    parent = other
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    code, out = _run(tmp_path, other, capsys)
    assert code == 1
    assert out.startswith("not comparable: /" + "/".join(path) + ":")
