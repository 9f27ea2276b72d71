"""The library imports nothing outside the standard library."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "gluedprod"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_module_imports_only_the_standard_library():
    """Guards ``dependencies = []`` in pyproject.toml."""
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    outside = [f"{path.name}: {name}" for path in modules
               for name in _absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
