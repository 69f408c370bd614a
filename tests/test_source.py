"""Rules on the library source itself."""

import ast
from pathlib import Path

import gemkit


def test_library_has_no_bare_asserts():
    # python -O strips assert statements; library invariants raise
    # InvariantViolated instead, so they are checked in every mode
    package = Path(gemkit.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    assert package / "graph.py" in modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
