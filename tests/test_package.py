"""Source-level guards on the installed package."""

import ast
from pathlib import Path

import aqslie


def test_no_assert_statements_in_package():
    # python -O strips assert statements, and with them any certificate
    # written as one; checks must raise a taxonomy error instead
    sources = sorted(Path(aqslie.__file__).parent.glob("*.py"))
    assert sources
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
