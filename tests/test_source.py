"""Rules on the library source itself."""

import ast
import re
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


def test_package_exports_exactly_what_it_imports():
    # a name deleted from a module must leave __all__ too, and the other
    # way round; sorted so that a diff shows where a name went
    init = Path(gemkit.__file__).resolve()
    imported = [
        alias.asname or alias.name
        for node in ast.parse(init.read_text(), filename=str(init)).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert gemkit.__all__ == sorted(set(gemkit.__all__))
    assert set(gemkit.__all__) == set(imported)


def test_only_graph_knows_the_colour_bitmask():
    # residues() keeps each partition under its colour set's bitmask; every
    # other module passes colour tuples, so that key can change in one file
    package = Path(gemkit.__file__).resolve().parent
    mention = re.compile(r"\.bits\b|\bfrom_bits\b|\b_residues\b")
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(package.rglob("*.py"))
        if path.name != "graph.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if mention.search(line)
    ]
    assert found == []


def test_every_error_type_is_raised_somewhere():
    # an error type outlives its last raise only by mistake: delete the
    # raise, and the type and its export must go with it
    package = Path(gemkit.__file__).resolve().parent
    errors = package / "errors.py"
    defined = [
        node.name
        for node in ast.parse(errors.read_text(), filename=str(errors)).body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(base, ast.Name) and base.id == "GemkitError" for base in node.bases)
    ]
    assert "FormatError" in defined
    source = "\n".join(path.read_text() for path in sorted(package.rglob("*.py")))
    never_raised = [name for name in defined if f"raise {name}(" not in source]
    assert never_raised == []


def test_library_modules_use_every_name_they_import():
    # __init__.py imports to re-export; every other module imports a name
    # only to use it, so an import left behind by a deleted caller fails here
    package = Path(gemkit.__file__).resolve().parent
    unused = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used
        ]
    assert unused == []
