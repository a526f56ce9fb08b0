"""Count the code lines of Python files.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT, DEDENT or ENDMARKER, and lies outside every module, class and
function docstring.  So blank lines, comment lines and docstrings do not
count, and a statement spread over several lines counts each of them.

    python3 tools/code_lines.py                 # every module of src/abelinv
    python3 tools/code_lines.py a.py b.py       # the files given

Prints one `name count` line per file, in the order given.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in `source`, counted as the module docstring says."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> None:
    paths = [Path(a) for a in argv] or sorted((Path(__file__).parent.parent / "src" / "abelinv").glob("*.py"))
    for path in paths:
        print(path.stem, code_lines(path.read_text(encoding="utf-8")))


if __name__ == "__main__":
    main(sys.argv[1:])
