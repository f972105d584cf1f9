"""Each module keeps its private names: no module of the package imports an
underscore name from a sibling, so a rule lives in the module that owns it."""

import ast
from pathlib import Path

import casimir_mto

PACKAGE = Path(casimir_mto.__file__).parent


def _private_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").split(".")[0] == "casimir_mto"
        for alias in node.names:
            name = alias.name
            if sibling and name.startswith("_") and not name.startswith("__"):
                yield f"{path.name}:{node.lineno} imports {name} from {node.module}"


def test_no_module_imports_a_private_sibling_name():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _private_imports(path)]
    assert found == []
