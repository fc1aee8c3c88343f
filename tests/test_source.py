"""Checks on the library's source text."""

import ast
import os
import subprocess
import sys
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


def test_library_reads_flags_one_at_a_time():
    # .flags evaluates every rule of a classification; library code reads
    # the flags it needs as attributes (cls.range) or through witness, so
    # that the checks of the other flags never run
    paths = sorted(Path(stonedual.__file__).parent.glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Subscript)
             and isinstance(node.value, ast.Attribute)
             and node.value.attr == "flags"]
    assert found == []


def test_importing_the_package_leaves_numpy_unloaded():
    # small tables never touch numpy, so every numpy import sits inside the
    # branch that needs it; a fresh interpreter shows whether one leaked
    # to module level
    code = "import sys, stonedual; print('numpy' in sys.modules)"
    src = str(Path(stonedual.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
