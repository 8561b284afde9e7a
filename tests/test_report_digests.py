"""``tools/report_digests.py``: its many-trial case summarises enough
trials for the byte-parity check to cover quartiles between order
statistics and outside points, not only the two-trial trivial case."""

import csv
import hashlib
import json
import runpy
from pathlib import Path

from outreg import numkernel

tool = runpy.run_path(str(Path(__file__).parents[1] / "tools" / "report_digests.py"))


def _cells(section):
    for activation in section.values():
        for models in activation.values():
            for subsets in models.values():
                for metrics in subsets.values():
                    yield from (cell for cell in metrics.values() if cell is not None)


def test_many_trial_case_reaches_outside_points_and_inner_quartiles(tmp_path, capsys):
    record, case, *_, trials, _ = tool["MANY_TRIAL_CASE"]
    tool["_write_record"](tmp_path, record, seed=2024)
    assert tool["_run_case"](tmp_path, tmp_path, *tool["MANY_TRIAL_CASE"]) == 0
    assert capsys.readouterr().out.startswith(case + " ")
    doc = json.loads((tmp_path / case / "report.json").read_text())
    cells = list(_cells(doc["aggregates"])) + list(_cells(doc["difference_aggregates"]))
    assert trials >= 20
    assert any(cell["n"] == trials for cell in cells)
    assert any(cell["outside_points"] for cell in cells)
    assert any(cell["q25"] < cell["median"] < cell["q75"] for cell in cells)


def test_tall_case_reaches_the_gram_route(tmp_path, capsys, monkeypatch):
    """Every other case trains on 60 rows, too few for ``pinv_solve``'s Gram
    route at 16 nodes or more, so only this case lets the byte-parity
    check see it: its CV fits (180 rows) and member fits (240 rows) at 16
    and 32 nodes all take that route."""
    designs = []
    gram = numkernel._gram_solve

    def counting(H, Y, rel_tol):
        cleared, B = gram(H, Y, rel_tol)
        designs.extend((H.shape[1:], bool(c)) for c in cleared)
        return cleared, B

    monkeypatch.setattr(numkernel, "_gram_solve", counting)
    record, case, *_ = tool["TALL_CASE"]
    tool["_write_record"](tmp_path, record, seed=2024)
    assert tool["_run_case"](tmp_path, tmp_path, *tool["TALL_CASE"]) == 0
    assert capsys.readouterr().out.startswith(case + " ")
    assert {shape for shape, _ in designs} >= {(180, 16), (180, 32)}
    assert {n for (n, _), _ in designs} == {180, 240}
    assert all(cleared for _, cleared in designs)


def test_categorical_gate_case_flags_a_row(tmp_path, capsys):
    """The categorical gate case's CSV gates at least one test row, so its
    line covers the outlier column, not only the distances."""
    [(record, percentile)] = [case for case in tool["GATE_CASES"] if case[0] == "categorical"]
    tool["_write_record"](tmp_path, record, seed=2024)
    assert tool["_gate_case"](tmp_path, tmp_path, record, percentile) == 0
    case, digest = capsys.readouterr().out.split()
    rows = list(csv.DictReader((tmp_path / f"{case}.csv").read_text().splitlines()))
    assert len(rows) == tool["TEST_ROWS"]
    assert any(row["outlier"] == "1" for row in rows)
    assert digest == hashlib.sha256((tmp_path / f"{case}.csv").read_bytes()).hexdigest()
