"""Checks on the package source itself."""

import ast
from pathlib import Path

import qloop

SOURCES = sorted(Path(qloop.__file__).parent.glob("*.py"))


def test_no_correctness_check_is_an_assert():
    # python -O strips assert statements; a check must raise instead
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found
