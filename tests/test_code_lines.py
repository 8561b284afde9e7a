"""``tools/code_lines.py``: blank lines, comments and docstrings are not
code; everything else, multi-line strings and trailing comments
included, is."""

import runpy
import textwrap
from pathlib import Path

tool = runpy.run_path(str(Path(__file__).parents[1] / "tools" / "code_lines.py"))

FIXTURE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    import os  # a trailing comment keeps the line

    # a comment line


    class Shape:
        """Class docstring."""

        def area(self):
            """Method docstring."""
            return 0


    async def fetch():
        \'\'\'Async docstring.\'\'\'


    def query():
        text = """
        not a docstring
        """
        "a bare string after the first statement"
        return text
    ''')


def test_fixture_counts_code_lines_only():
    # import, class, def area, return 0, async def, def query, the three
    # lines of text, the bare string, return text
    assert tool["code_lines"](FIXTURE) == 11


def test_directory_listing_and_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert tool["main"]([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["2 b.py", "11 pkg/a.py", "13 total"]


def test_more_than_one_argument_exits_2(capsys):
    assert tool["main"](["a", "b"]) == 2
    assert "usage" in capsys.readouterr().err


def test_file_argument_counts_that_file(tmp_path, capsys):
    (tmp_path / "b.py").write_text("x = 1\n\n# note\ny = 2\n")
    (tmp_path / "c.py").write_text("z = 3\n")
    assert tool["main"]([str(tmp_path / "b.py")]) == 0
    assert capsys.readouterr().out.splitlines() == ["2 b.py", "2 total"]


def test_missing_path_exits_2(tmp_path, capsys):
    assert tool["main"]([str(tmp_path / "no" / "such")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no such file or directory" in captured.err
