"""Rules the package source must keep, checked on its syntax tree."""

import ast
import re
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


def test_sources_parse_as_python_3_10():
    # requires-python is >=3.10, so no newer syntax (except*, type X = ..,
    # def f[T]) may reach the package or its tests
    tests = sorted(Path(__file__).parent.glob("*.py"))
    for path in SOURCES + tests:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


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


def test_private_names_come_only_from_ideals():
    # ideals owns what modules share privately (the height-grid format and
    # _exact_int); every other underscore name stays in its own module
    found = [
        f"{path.name}:{node.lineno} imports {alias.name} from {node.module}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level == 1 or (node.module or "").startswith("epsmult"))
        and (node.module or "").removeprefix("epsmult.") != "ideals"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not found, f"private names imported from outside ideals: {found}"


def _memo_writes(tree):
    """Lines of every object.__setattr__ call: a write past a frozen dataclass."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        ):
            yield node.lineno


def test_memos_live_in_the_ideals_module():
    # ideals own every memo (arrays, grids, saturations, chains of powers),
    # so no other module can hold a second copy of a chain
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "ideals.py"
        for line in _memo_writes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, f"object.__setattr__ outside ideals.py at {found}"
    ideals = next(path for path in SOURCES if path.name == "ideals.py")
    assert list(_memo_writes(ast.parse(ideals.read_text(encoding="utf-8"))))


def _console_writes(tree):
    """Lines of every print call and every reach for sys.stdout or sys.stderr."""
    streams = ("stdout", "stderr")
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "print":
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in streams:
            if isinstance(node.value, ast.Name) and node.value.id == "sys":
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            if any(alias.name in streams for alias in node.names):
                yield node.lineno


def test_only_the_cli_writes_to_the_console():
    # stdout carries the report alone: library modules return values or raise
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "cli.py"
        for line in _console_writes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, f"console writes outside cli.py at {found}"
    cli = next(path for path in SOURCES if path.name == "cli.py")
    assert list(_console_writes(ast.parse(cli.read_text(encoding="utf-8"))))


def _row_writers(tree):
    """Names of the functions that write an attribute named _rows."""
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                writes = node.attr == "_rows"
            elif isinstance(node, ast.Call) and len(node.args) > 1:
                # setattr(x, "_rows", ..) or object.__setattr__(x, "_rows", ..)
                writes = ast.unparse(node.func) in ("setattr", "object.__setattr__")
                writes = writes and ast.unparse(node.args[1]) == "'_rows'"
            else:
                writes = False
            if writes:
                yield fn.name


def test_ideals_are_formed_in_one_place():
    # every ideal gets its int64 rows where it is formed, in the constructor
    # or in ideals._make, so no second path can form one without them
    writers = {
        f"{path.stem}.{name}"
        for path in SOURCES
        for name in _row_writers(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert writers == {"ideals.__init__", "ideals._make"}
    lazy = [
        f"{path.name}:{number}"
        for path in SOURCES
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if re.search(r"\b_(array|np)\b", line)
    ]
    assert not lazy, f"a lazy generator array is back at {lazy}"


# Entry points that no src module calls, each with what calls it.
ENTRY_POINTS = {
    "colon": "acceptance criterion 8",
    "difference_max_degree": "the pair oracle of the truncation search (oracle_utils.swanson_grid)",
    "beta_stability": "acceptance criterion 6",
    "maximal_ideal": "acceptance criterion 2",
    "k_fold_sum_count": "acceptance criterion 5 and the volumes_2d sumset operation",
}


def _referenced_names(tree):
    """Every name the tree reads: Names, attributes and import aliases."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]


def test_every_public_function_has_a_caller_in_src():
    # a helper only tests call belongs in the tests; the builtin sum hides a
    # method of that name from this walk
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in SOURCES
        if path.name != "__init__.py"
    }
    referenced = {name for tree in trees.values() for name in _referenced_names(tree)}
    uncalled = sorted(
        (node.name, f"{module}:{node.lineno}")
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in referenced
    )
    extra = [f"{where} {name}" for name, where in uncalled if name not in ENTRY_POINTS]
    assert not extra, f"public functions with no caller in src: {extra}"
    # an entry point that gains a caller in src leaves the list
    assert [name for name, _ in uncalled] == sorted(ENTRY_POINTS)


def _owners_of(predicate):
    """module.function (or module) of every src node that predicate accepts."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners: dict[int, str] = {}
        # ast.walk meets an outer function before the functions it nests
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for line in range(fn.lineno, fn.end_lineno + 1):
                    owners.setdefault(line, f"{path.stem}.{fn.name}")
        found += [owners.get(node.lineno, path.stem) for node in ast.walk(tree) if predicate(node)]
    return found


def test_heights_are_filled_in_one_place():
    # ideals._height_grids fills every height grid, alone or stacked, so
    # no second filler can drift from its cuts or its padding
    fills = _owners_of(
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == "at"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "minimum"
    )
    assert fills == ["ideals._height_grids"]


def test_cells_are_looked_up_in_one_place():
    # the grids' cuts and every row's cell come from _height_grids' sort;
    # a second lookup of cells on a stack of grids would be a second reader
    sorts = _owners_of(lambda node: isinstance(node, ast.Attribute) and node.attr == "lexsort")
    assert sorts == ["ideals._height_grids"]
