"""Every einpath module imports only the public names of the others."""

import ast
from pathlib import Path

import einpath

SRC = Path(einpath.__file__).parent


def _private_imports(path):
    """(line, module, name) for each underscore name the module at path
    imports from another einpath module, relatively or by package name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "einpath":
            continue
        for alias in node.names:
            if alias.name.startswith("_") and not alias.name.startswith("__"):
                found.append((node.lineno, node.module or ".", alias.name))
    return found


def test_no_private_name_crosses_a_module():
    found = {path.name: hits for path in sorted(SRC.glob("*.py")) if (hits := _private_imports(path))}
    assert found == {}
