"""Count the code lines of every ``.py`` file under a directory, or of one file.

    python tools/code_lines.py [PATH]

A code line holds at least one token that is not a comment.  Blank
lines, comment lines and docstrings (the leading string of a module,
class or function, found with ``ast``) do not count; a line that holds
both code and a trailing comment does.  Prints one ``count path`` line
per file, sorted by path relative to PATH (the current directory by
default; the file's own directory if PATH is a file), then ``count
total``.  A PATH that does not exist exits 2, so a mistyped path cannot
read as an empty tree.  Run it on two trees to compare their size the
same way, e.g. ``python tools/code_lines.py src``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """Line numbers spanned by the docstrings of ``source``."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in ``source``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: code_lines.py [PATH]", file=sys.stderr)
        return 2
    root = Path(argv[0] if argv else ".")
    if not root.exists():
        print(f"code_lines.py: {root}: no such file or directory", file=sys.stderr)
        return 2
    if root.is_file():
        files, root = [root], root.parent
    else:
        files = sorted(root.rglob("*.py"))
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path.relative_to(root).as_posix()}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
