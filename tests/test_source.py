"""Checks on the library's source text."""

import ast
from pathlib import Path

import stonedual


def test_library_has_no_assert_statements():
    # python -O drops asserts, and a failing one escapes the CLI as a
    # traceback: library checks raise InvariantViolation instead
    paths = sorted(Path(stonedual.__file__).parent.glob("*.py"))
    assert len(paths) >= 10
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
