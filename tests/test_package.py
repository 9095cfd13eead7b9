"""Source-level guards on the installed package."""

import ast
import sys
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


def test_package_imports_only_itself_and_the_standard_library():
    # the runtime is stdlib-only; sympy, numpy and the like are test-side
    sources = sorted(Path(aqslie.__file__).parent.glob("*.py"))
    assert sources
    offenders = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"aqslie"}
            ]
    assert offenders == []
