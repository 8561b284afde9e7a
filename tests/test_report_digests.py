"""``tools/report_digests.py``: its many-trial case summarises enough
trials for the byte-parity check to cover quartiles between order
statistics and outside points, not only the two-trial trivial case."""

import json
import runpy
from pathlib import Path

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
