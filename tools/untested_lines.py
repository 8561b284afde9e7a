"""List the statements of ``src/outreg`` that a pytest run never executes.

    python tools/untested_lines.py [PYTEST_ARGS]

Runs pytest in this process, with PYTEST_ARGS, under ``sys.settrace``
limited to the ``.py`` files under ``src/outreg``, then prints one
``path:line`` for each statement that never ran, sorted by path and line,
and then ``count total``.  A statement counts as run when any line of it
produced a trace event; a compound statement (``if``, ``for``, ``with``,
...) counts by its header alone, so an ``if`` that ran does not hide a
branch that did not.  Definitions (``def``, ``class`` and bare
annotations), imports, docstrings and the statements under an ``if
__name__ == "__main__":`` block are not counted.  Exits with pytest's
status.

Only this process's main thread is traced: code that a test runs in a
child process, such as the tests that run the ``outreg`` command line in a
subprocess, counts as never run.  The tier-1 suite, for example:

    PYTHONPATH=src python tools/untested_lines.py -q --continue-on-collection-errors
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "outreg"

_DOCUMENTED = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_DEFINITIONS_AND_IMPORTS = _DOCUMENTED[1:] + (ast.Import, ast.ImportFrom)


def _is_main_guard(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statement_spans(source: str) -> dict[int, range]:
    """The statements of ``source`` that count, as first line -> the lines
    whose trace events show that the statement ran."""
    spans: dict[int, range] = {}

    def visit(body: list[ast.stmt], owner: ast.AST) -> None:
        for i, node in enumerate(body):
            if _is_main_guard(node):
                continue
            children = [getattr(node, key) for key in ("body", "orelse", "finalbody")
                        if getattr(node, key, None)]
            children += [handler.body for handler in getattr(node, "handlers", ())]
            children += [case.body for case in getattr(node, "cases", ())]
            for child in children:
                visit(child, node)
            bare_annotation = isinstance(node, ast.AnnAssign) and node.value is None
            if isinstance(node, _DEFINITIONS_AND_IMPORTS) or bare_annotation \
                    or (i == 0 and isinstance(owner, _DOCUMENTED) and _is_docstring(node)):
                continue
            if children:
                last = min(child[0].lineno for child in children) - 1
            else:
                last = node.end_lineno
            spans[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)

    tree = ast.parse(source)
    visit(tree.body, tree)
    return spans


def traced(root: Path, run):
    """``run()`` under a trace of the files under directory ``root``;
    returns its result and, per file, the set of lines that produced an
    event.  The trace function in place before is restored."""
    prefix = os.path.realpath(root) + os.sep
    executed: dict[str, set[int]] = {}
    inside: dict[str, bool] = {}

    def local(frame, event, arg):
        executed.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in inside:
            inside[filename] = not filename.startswith("<") \
                and os.path.realpath(filename).startswith(prefix)
        return local(frame, event, arg) if inside[filename] else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    lines: dict[str, set[int]] = {}
    for filename, seen in executed.items():
        lines.setdefault(os.path.realpath(filename), set()).update(seen)
    return result, lines


def untested(root: Path, executed: dict[str, set[int]]) -> list[str]:
    """``path:line`` of each counted statement under ``root`` that has no
    line in ``executed`` (as ``traced`` returns it); paths are relative to
    ``root``'s parent."""
    found = []
    for path in sorted(Path(root).rglob("*.py")):
        seen = executed.get(os.path.realpath(path), set())
        spans = statement_spans(path.read_text(encoding="utf-8"))
        name = path.relative_to(Path(root).parent).as_posix()
        found += [f"{name}:{first}" for first, span in sorted(spans.items())
                  if seen.isdisjoint(span)]
    return found


def main(argv: list[str], root: Path = SOURCE) -> int:
    status, executed = traced(root, lambda: pytest.main(argv))
    found = untested(root, executed)
    for entry in found:
        print(entry)
    print(f"{len(found)} total")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
