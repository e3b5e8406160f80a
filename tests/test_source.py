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


def test_only_the_rational_sl2_inputs_use_fractions():
    # linear algebra over Q runs on ints; Fraction is kept for the
    # rational spectral parameters of `sl2 ybe`, parsed in cli.py
    users = [path.name for path in SOURCES if "fractions" in path.read_text()]
    assert users == ["cli.py", "sl2.py"], users
