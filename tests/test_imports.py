"""Module boundaries: no dfclab module imports another one's private names."""

import ast
from pathlib import Path

import dfclab

PACKAGE = Path(dfclab.__file__).parent


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "dfclab"
        if internal:
            found += [
                f"{path.name}:{node.lineno} imports {alias.name} from {node.module or '.'}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    problems = [p for path in modules for p in _private_imports(path)]
    assert problems == []
