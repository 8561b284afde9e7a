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


def _case_dirs(tmp_path, cases_a, cases_b):
    """Write ``{case: report}`` maps as two report_digests-style trees."""
    roots = []
    for side, cases in (("a", cases_a), ("b", cases_b)):
        roots.append(tmp_path / side)
        roots[-1].mkdir()
        for case, doc in cases.items():
            (roots[-1] / case).mkdir(parents=True)
            (roots[-1] / case / "report.json").write_text(json.dumps(doc))
    return [str(r) for r in roots]


def _moved(scale):
    other = json.loads(json.dumps(BASE))
    other["cv_scores"]["sigmoid"][1] = 2.0 * (1 - scale)
    return other


class TestCaseDirectories:
    def test_one_line_per_case_then_the_overall_worst(self, tmp_path, capsys):
        dirs = _case_dirs(tmp_path, {"x": BASE, "y": BASE, "z": BASE},
                          {"x": BASE, "y": _moved(1e-9), "z": _moved(1e-12)})
        assert main(dirs) == 0
        assert capsys.readouterr().out.splitlines() == [
            "x: 3 floats, 0 differ, worst 0",
            "y: 3 floats, 1 differ, worst 1e-09 at /cv_scores/sigmoid/1",
            "z: 3 floats, 1 differ, worst 1e-12 at /cv_scores/sigmoid/1",
            "worst relative difference over 3 cases: 1e-09 in y at /cv_scores/sigmoid/1"]

    def test_identical_trees(self, tmp_path, capsys):
        assert main(_case_dirs(tmp_path, {"x": BASE}, {"x": BASE})) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            "worst relative difference over 1 cases: 0")

    @pytest.mark.parametrize("cases_a, cases_b", [
        ({"x": BASE, "y": BASE}, {"x": BASE}),
        ({"x": BASE}, {"x": BASE, "y": BASE}),
    ], ids=["missing-in-b", "missing-in-a"])
    def test_a_missing_case_exits_1(self, tmp_path, capsys, cases_a, cases_b):
        assert main(_case_dirs(tmp_path, cases_a, cases_b)) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x: 3 floats, 0 differ, worst 0"
        assert lines[1].startswith("y: missing ") and lines[1].endswith("report.json")
        assert len(lines) == 3

    def test_a_case_that_is_not_comparable_exits_1_and_the_rest_are_measured(
            self, tmp_path, capsys):
        other = json.loads(json.dumps(BASE))
        other["node_counts"]["sigmoid"] = 13
        dirs = _case_dirs(tmp_path, {"x": BASE, "y": BASE},
                          {"x": other, "y": _moved(1e-12)})
        assert main(dirs) == 1
        assert capsys.readouterr().out.splitlines() == [
            "x: not comparable: /node_counts/sigmoid: 12 against 13",
            "y: 3 floats, 1 differ, worst 1e-12 at /cv_scores/sigmoid/1",
            "worst relative difference over 2 cases: 1e-12 in y at /cv_scores/sigmoid/1"]

    def test_no_cases_exits_1(self, tmp_path, capsys):
        assert main(_case_dirs(tmp_path, {}, {})) == 1
        assert capsys.readouterr().out == "no case directories\n"
