"""Module boundaries: no module of the package imports another module's
private (``_``-prefixed) names. A helper that two modules need is public in
one of them."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twinloop"


def private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} "
            f"import {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if alias.name.startswith("_")]


def test_no_private_name_crosses_a_module_boundary():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [line for path in modules for line in private_imports(path)]
    assert not found, "\n".join(found)
