"""Properties of the library source itself."""

import ast
from pathlib import Path

import tightbell

SOURCES = sorted(Path(tightbell.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so a runtime check must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 1
    assert found == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import that the module never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name != "annotations":
                    bound[name] = node.lineno
    # a Name covers a bare use and the base of an attribute chain
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    # leftovers of deleted code; __init__ imports only to re-export
    found = [
        f"{path.name}: {name}"
        for path in SOURCES
        if path.name != "__init__.py"
        for name in _unused_imports(ast.parse(path.read_text("utf-8")))
    ]
    assert len(SOURCES) > 1
    assert found == []
