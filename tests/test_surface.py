"""The package's public surface carries no dead weight.

Static checks on the sources, read with :mod:`ast` so that docstrings and
comments never count as a use:

* no module under ``src/catmn`` imports a name it never uses;
* every name ``catmn/__init__.py`` exports is used as code by a module of
  the package or by the benchmark harness under ``perfbench/``.  A name
  only the tests need lives in ``tests/helpers.py`` instead; the exceptions
  are the few library functions the tests keep as references;
* every parameter with a default, on a public module-level function of the
  package, is passed by some call in the package or the harness.  One that
  only the tests set has one value in use, and is a constant instead;
* every public method of a class of the package is used as code by the
  package or the harness.  Like the export check, it matches by attribute
  name, so a method shares its use with any namesake;
* every private module-level function, class and constant of the package
  is read as code somewhere in the package, so a refactor leaves no dead
  helper behind;
* no two public module-level names of the package read the same once their
  comonad words are read as monad words: a comonad function or type is the
  monad one on the other side, not a second copy of it.
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


def defaulted_parameters() -> dict[str, tuple[list[str], set[str]]]:
    """Each public module-level function of the package by name: its
    positional parameters in order, and those of its parameters that have a
    default."""
    found = {}
    for path in modules():
        for node in parse(path).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = set(positional[len(positional) - len(args.defaults):])
            defaulted.update(
                a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            )
            found[node.name] = (positional, defaulted)
    return found


def passed_parameters(tree: ast.AST, functions) -> set[tuple[str, str]]:
    """``(function, parameter)`` for every parameter a call in ``tree``
    passes, positionally or by keyword; a call is matched to a function by
    the name it is called through."""
    passed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in functions:
            continue
        positional, defaulted = functions[name]
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            given = defaulted  # unpacked arguments may pass any of them
        else:
            given = set(positional[: len(node.args)]) | {k.arg for k in node.keywords}
        passed.update((name, p) for p in given)
    return passed


def test_every_defaulted_parameter_is_passed_by_the_package_or_the_benchmark():
    functions = defaulted_parameters()
    declared = {(f, p) for f, (_, defaulted) in functions.items() for p in defaulted}
    assert declared
    bench = sorted(PERFBENCH.glob("*.py"))
    passed = set().union(*(passed_parameters(parse(p), functions) for p in modules() + bench))
    assert sorted(declared - passed) == []


def test_every_public_method_is_used_by_the_package_or_the_benchmark():
    methods = {
        f"{cls.name}.{node.name}"
        for path in modules()
        for cls in parse(path).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    assert methods
    bench = sorted(PERFBENCH.glob("*.py"))
    used = set().union(*(used_names(parse(p)) for p in modules() + bench))
    assert sorted(m for m in methods if m.split(".")[1] not in used) == []


def read_names(tree: ast.AST) -> set[str]:
    """Every name read as code: bare names loaded, and attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_private_definition_is_read_by_the_package():
    defined = set()
    for path in modules():
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.name, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update((path.name, t.id) for t in targets if isinstance(t, ast.Name))
    private = {(m, n) for m, n in defined if n.startswith("_") and not n.startswith("__")}
    assert private
    read = set().union(*(read_names(parse(p)) for p in modules()))
    assert sorted((m, n) for m, n in private if n not in read) == []


# how the comonad side of a name reads on the monad side
DUAL_WORDS = (
    ("comonad", "monad"),
    ("Comonad", "Monad"),
    ("coreflect", "reflect"),
    ("Coreflect", "Reflect"),
    ("counit", "unit"),
)


def public_definitions() -> set[str]:
    """The public names the package's modules define at module level:
    functions, classes and assigned names, but not imports."""
    names = set()
    for path in modules() + [PACKAGE / "__init__.py"]:
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def test_no_public_name_is_the_comonad_twin_of_another():
    """A comonad is a monad on the opposite category, so one name serves
    both sides: no two public names differ only in their comonad words."""
    by_monad_name: dict[str, set[str]] = {}
    for name in public_definitions():
        key = name
        for comonad_word, monad_word in DUAL_WORDS:
            key = key.replace(comonad_word, monad_word)
        by_monad_name.setdefault(key, set()).add(name)
    assert len(by_monad_name) > 50
    assert sorted(sorted(ns) for ns in by_monad_name.values() if len(ns) > 1) == []
