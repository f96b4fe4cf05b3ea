"""Rules the package source must keep, checked on its syntax tree."""

import ast
from pathlib import Path

import epsmult

SOURCES = sorted(Path(epsmult.__file__).parent.glob("*.py"))


def test_no_unbounded_loop():
    # every loop must carry its own bound; `while True` (or any constant
    # true test) leans on a break that nothing bounds
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.While)
        and isinstance(node.test, ast.Constant)
        and bool(node.test.value)
    ]
    assert SOURCES
    assert not found, f"unbounded loop at {found}"
