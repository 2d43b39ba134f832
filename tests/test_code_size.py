"""Tests for scripts/code_size.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_size", ROOT / "scripts" / "code_size.py")
code_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_size)

FIXTURE = '''"""A module docstring
over two lines."""

# A comment.
x = 1
if x:
    """Not a docstring: a string statement inside an if."""


def f():
    """Docstring of f."""
    return (x +
            1)
'''


def test_fixture_module():
    # Code lines: x = 1, the if, its string, def, and the two lines of the
    # return. Statements: both docstrings, the assignment, the if, its
    # string, the def and the return.
    assert code_size.size(FIXTURE) == (13, 6, 7)


def test_docstring_comment_and_two_statements():
    source = '"""Docstring."""\n# comment\n\nx = 1\ny = x\n'
    lines, code, statements = code_size.size(source)
    assert (lines, code) == (5, 2)
    assert statements == 3  # the docstring is a statement node too


def test_report_lists_every_module_and_their_sum(capsys):
    assert code_size.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "lines", "code", "statements"]
    modules = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src" / "dfclab").glob("*.py"))
    assert [r[0] for r in rows[1:-1]] == modules
    assert rows[-1][0] == "total"
    for k in (1, 2, 3):
        assert int(rows[-1][k]) == sum(int(r[k]) for r in rows[1:-1])
