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


def test_every_export_resolves():
    missing = [name for name in epsmult.__all__ if not hasattr(epsmult, name)]
    assert not missing, f"__all__ names {missing}, which the package lacks"


def _sibling_imports(tree):
    """(line, module) for every import of a module of this package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x
                yield from ((node.lineno, alias.name) for alias in node.names)
            else:
                yield node.lineno, node.module.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("epsmult."):
            yield node.lineno, node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("epsmult."):
                    yield node.lineno, alias.name.split(".")[1]


def test_no_import_of_a_missing_sibling_module():
    modules = {path.stem for path in SOURCES}
    found = [
        f"{path.name}:{line} imports {module}"
        for path in SOURCES
        for line, module in _sibling_imports(ast.parse(path.read_text(encoding="utf-8")))
        if module not in modules
    ]
    assert not found, f"imports of missing modules: {found}"
