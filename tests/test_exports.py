import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import brauer

MODULES = sorted(
    f"brauer.{info.name}" for info in pkgutil.iter_modules(brauer.__path__)
) + ["brauer"]

# names that no program code references, each with its claim
NO_CALLER_NEEDED = {
    "identity": "the monoid unit",
    "random_diagram": "the seeded random-diagram fixture",
    "gamma": "the S_(n-2) generators, to be checked without phi (ROADMAP item 3)",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_imports_are_used(name):
    """Every imported name is used in its module or re-exported in __all__."""
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(getattr(module, "__all__", ()))) == []


@pytest.mark.parametrize("name", [m for m in MODULES if m != "brauer.cli"])
def test_no_rank_policy_outside_cli(name):
    """Rank limits belong to the command line: no library function takes
    a ``limit`` or ``force`` parameter."""
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    params = [
        f"{node.name}({arg.arg})"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in ast.walk(node.args)
        if isinstance(arg, ast.arg) and arg.arg in ("limit", "force")
    ]
    assert params == []


def _program_statements() -> list[tuple[Path, int, set[str]]]:
    """Each top-level statement of the package modules (not __init__) and
    the benchmark scripts, as (file, line, names it references as a bare
    name or as an attribute)."""
    package = Path(brauer.__file__).parent
    files = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    files += (package.parents[1] / "perfbench").glob("*.py")
    statements = []
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            statements.append((path, stmt.lineno, names))
    return statements


def _program_references() -> set[str]:
    """Every name the package modules and the benchmark scripts reference."""
    return set().union(*(names for _, _, names in _program_statements()))


@pytest.mark.parametrize("name", MODULES)
def test_exports_have_program_callers(name):
    """Every __all__ name is used by the program or the benchmark, not only
    by the tests, unless NO_CALLER_NEEDED gives it a claim."""
    module = importlib.import_module(name)
    referenced = _program_references()
    unreached = [
        attr for attr in getattr(module, "__all__", ())
        if attr not in referenced and attr not in NO_CALLER_NEEDED
    ]
    assert unreached == []


@pytest.mark.parametrize("name", MODULES)
def test_definitions_have_program_callers(name):
    """Every module-level def and class, public or private, is referenced
    by the program or the benchmark outside its own definition, unless
    NO_CALLER_NEEDED gives it a claim."""
    path = Path(importlib.import_module(name).__file__)
    statements = _program_statements()
    unreached = [
        stmt.name for stmt in ast.parse(path.read_text()).body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name not in NO_CALLER_NEEDED
        and not any(
            stmt.name in names
            for where, line, names in statements
            if (where, line) != (path, stmt.lineno)
        )
    ]
    assert unreached == []
