"""Module boundaries: no dfclab module imports another one's private names,
and every module of the package and of ``scripts/`` parses as Python 3.10,
the oldest version ``pyproject.toml`` supports."""

import ast
from pathlib import Path

import dfclab

PACKAGE = Path(dfclab.__file__).parent
SCRIPTS = PACKAGE.parents[1] / "scripts"


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


def test_every_module_parses_as_python_3_10():
    # ast checks the grammar of the version asked for (except*, for one, is
    # 3.11), so the 3.10 floor is checked on any newer interpreter too.
    modules = sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    assert len(modules) >= 13
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
