"""tools/code_lines.py: which lines of a Python file count as code."""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment: counts

# a comment line: does not count


class A:
    """Class docstring."""

    x = """a string that is no docstring
    counts on each of its lines"""

    def f(self,
          y):
        """Function docstring."""
        async def g():
            """Nested docstring."""
            return (1 +
                    2)
        return g
'''


def test_counts_code_lines_outside_docstrings():
    # import, class, x (2 lines), def (2 lines), async def, return (2 lines), return g
    assert code_lines.code_lines(SNIPPET) == 10


def test_a_file_without_docstrings_counts_every_token_line():
    assert code_lines.code_lines("x = 1\n\n\ny = [\n    2,\n]\n") == 4
