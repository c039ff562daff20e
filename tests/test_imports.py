"""Module boundaries: no module of the package imports another module's
private (underscore) name. A name two modules share is public in the module
that owns it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "irribot"


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("irribot"):
                found += [f"{path.name}:{node.lineno} imports {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []
