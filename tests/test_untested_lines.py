"""``tools/untested_lines.py``: which statements count, which of them a
traced run leaves unexecuted, and a whole pytest run through ``main``."""

import importlib.util
import runpy
import sys
import textwrap
from pathlib import Path

tool = runpy.run_path(str(Path(__file__).parents[1] / "tools" / "untested_lines.py"))

FIXTURE = textwrap.dedent('''\
    """Module docstring."""

    import os
    from pathlib import Path

    LIMIT = 3


    class Box:
        """Class docstring."""

        size: int

        def grow(self, n):
            """Method docstring."""
            return n + 1


    def pick(x):
        """Function docstring."""
        if x > LIMIT:
            return "big"
        else:
            label = (
                "small"
            )
        try:
            value = int(x)
        except ValueError:
            raise
        for i in range(value):
            "a string that is not a docstring"
        return label


    if __name__ == "__main__":
        pick(1)
        print("main")
    ''')


def test_definitions_imports_docstrings_and_the_main_block_do_not_count():
    spans = tool["statement_spans"](FIXTURE)
    # LIMIT, return n + 1, if, return "big", label, try, value, raise, for,
    # the string in the loop, return label
    assert sorted(spans) == [6, 16, 21, 22, 24, 27, 28, 30, 31, 32, 33]
    # a compound statement counts by its header, a simple one by all its lines
    assert spans[21] == range(21, 22)
    assert spans[24] == range(24, 27)


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_call_leaves_the_branches_it_did_not_take(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "fixture.py").write_text(FIXTURE)
    (tmp_path / "outside.py").write_text("def twice(x):\n    return 2 * x\n")

    def run():
        module = _load(tmp_path / "pkg" / "fixture.py", "untested_lines_fixture")
        _load(tmp_path / "outside.py", "untested_lines_outside").twice(1)
        return module.pick(2)

    previous = sys.gettrace()
    result, executed = tool["traced"](tmp_path / "pkg", run)
    assert result == "small"
    assert sys.gettrace() is previous
    assert not any(name.endswith("outside.py") for name in executed)
    assert tool["untested"](tmp_path / "pkg", executed) == [
        "pkg/fixture.py:16", "pkg/fixture.py:22", "pkg/fixture.py:30"]


def test_main_runs_pytest_and_exits_with_its_status(tmp_path, capsys, monkeypatch, request):
    # the inner run puts the fixture's directory on sys.path and its modules
    # in sys.modules
    monkeypatch.setattr(sys, "path", list(sys.path))
    request.addfinalizer(lambda: [sys.modules.pop(name, None)
                                  for name in ("untested_lines_fixture", "test_fixture")])
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "untested_lines_fixture.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "test_fixture.py").write_text(textwrap.dedent('''\
        from untested_lines_fixture import Box, pick

        def test_small():
            assert pick(0) == "small"

        def test_big():
            assert pick(9) == "big"
            assert Box().grow(1) == 3
        '''))
    args = ["-q", "-p", "no:cacheprovider", "-c", str(tmp_path / "pytest.ini"),
            str(tmp_path / "pkg")]
    assert tool["main"](args, root=tmp_path / "pkg") == 1
    out = capsys.readouterr().out.splitlines()
    # the test file is traced too, and runs whole; pick(0) skips the loop's body
    assert out[-3:] == ["pkg/untested_lines_fixture.py:30",
                        "pkg/untested_lines_fixture.py:32", "2 total"]
    assert "1 failed, 1 passed" in "\n".join(out)
