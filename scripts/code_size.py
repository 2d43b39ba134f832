"""Print the size of each module of src/dfclab and of the package.

Three counts per module: lines; code lines, the lines that hold a token
other than a comment, outside every docstring; and statements, the AST
``stmt`` nodes (a docstring is one). Code lines and statements do not move
when code is reformatted or a docstring or comment is edited, so they
measure how much code there is. Run it from anywhere, without options:

    python3 scripts/code_size.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dfclab"
# Tokens that carry no code: layout, comments and the file's ends.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def size(source: str) -> tuple[int, int, int]:
    """(lines, code lines, statements) of one module's source."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    return len(source.splitlines()), len(code - docstrings), statements


def main() -> int:
    rows = [(str(path.relative_to(ROOT)), *size(path.read_text()))
            for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", *(sum(r[k] for r in rows) for k in (1, 2, 3))))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}  {'statements':>10}")
    for name, lines, code, statements in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}  {statements:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
