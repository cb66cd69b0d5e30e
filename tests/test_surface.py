"""The package's public surface carries no dead weight.

Two static checks on the sources, read with :mod:`ast` so that docstrings
and comments never count as a use:

* no module under ``src/catmn`` imports a name it never uses;
* every name ``catmn/__init__.py`` exports is used as code by a module of
  the package or by the benchmark harness under ``perfbench/``.  A name
  only the tests need lives in ``tests/helpers.py`` instead; the exceptions
  are the few library functions the tests keep as references.
"""

import ast
from pathlib import Path

import catmn

PACKAGE = Path(catmn.__file__).parent
PERFBENCH = Path(__file__).parents[1] / "perfbench"

# exported for the tests, which compare against them, and for readers
TEST_REFERENCES = {"opposite", "render_category", "render_spec"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def used_names(tree: ast.AST) -> set[str]:
    """Every name read or written as code: bare names and attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def imported_names(tree: ast.AST) -> set[str]:
    """The names the module's imports bind."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def modules() -> list[Path]:
    """The package's modules, without ``__init__``, which only re-exports."""
    found = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert found
    return found


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in modules():
        tree = parse(path)
        names = imported_names(tree) - used_names(tree)
        if names:
            unused[path.name] = sorted(names)
    assert unused == {}


def test_every_export_is_used_by_the_package_or_the_benchmark():
    exported = {
        alias.asname or alias.name
        for node in parse(PACKAGE / "__init__.py").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    bench = sorted(PERFBENCH.glob("*.py"))
    assert bench
    used = set().union(*(used_names(parse(p)) for p in modules() + bench))
    assert TEST_REFERENCES <= exported
    assert sorted(exported - used - TEST_REFERENCES) == []
