"""Properties of the library source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "degkit").glob("*.py"))


def test_sources_found():
    assert any(path.name == "__init__.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so a check written as one is no check.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} uses assert on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_private_imports_between_modules(path):
    # A name another module needs is part of its home module's interface,
    # so it carries no leading underscore.
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"{path.name} imports private names: {private}"
