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
