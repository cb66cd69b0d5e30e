"""A corpus of corrupted artifact files.  Each one breaks exactly one law;
the designated validator must reject it and name the witness."""

from pathlib import Path

import pytest

from catmn import (
    COMONAD,
    MONAD,
    ReflectionPackage,
    inverse_of,
    load_path,
    validate_category,
    validate_functor,
    validate_nat,
    validate_spec,
    verify_reflection,
)

CORPUS = Path(__file__).parent / "fixtures" / "corrupted"


def first(arts, kind):
    return next(a.value for a in arts if a.kind == kind)


def by_name(arts, kind, name):
    return next(a.value for a in arts if a.kind == kind and a.name == name)


def check_category(arts):
    return validate_category(first(arts, "category"))


def check_functor(arts):
    return validate_functor(first(arts, "functor"))


def check_nat(arts):
    return validate_nat(first(arts, "nat"))


def check_spec(arts):
    return validate_spec(first(arts, "spec"))


def check_reflection(arts):
    """Assemble the file's reflector presentation and sweep it."""
    ambient = by_name(arts, "category", "orbit")
    sub = by_name(arts, "category", "orbfix")
    unit = by_name(arts, "nat", "unit")
    inverses = {x: inverse_of(ambient, unit.components[x]) for x in sub.objects}
    pkg = ReflectionPackage(
        ambient,
        sub,
        by_name(arts, "functor", "incl"),
        by_name(arts, "functor", "reflect"),
        unit,
        inverses,
        MONAD,
    )
    return verify_reflection(pkg)


def check_coreflection(arts):
    ambient = by_name(arts, "category", "orbit-op")
    sub = by_name(arts, "category", "opfix")
    counit = by_name(arts, "nat", "counit")
    inverses = {x: inverse_of(ambient, counit.components[x]) for x in sub.objects}
    pkg = ReflectionPackage(
        ambient,
        sub,
        by_name(arts, "functor", "incl"),
        by_name(arts, "functor", "coreflect"),
        counit,
        inverses,
        COMONAD,
    )
    return verify_reflection(pkg)


# filename -> (designated validator, violated rule, witness subject)
MANIFEST = {
    "assoc_one_object.cm": (check_category, "associativity", ("p", "p", "p")),
    "assoc_parallel.cm": (check_category, "associativity", ("k", "k", "r")),
    "identity_law.cm": (check_category, "identity-law", ("f", "id_a")),
    "compose_missing.cm": (check_category, "compose-missing", ("e", "f")),
    "functor_comp.cm": (check_functor, "functor-composition", ("e", "f")),
    "nat_swap.cm": (check_nat, "naturality-square", ("f",)),
    "nat_component.cm": (check_nat, "component-typing", ("a",)),
    "nat_missing_component.cm": (check_nat, "component-missing", ("b",)),
    "spec_non_monotone.cm": (check_spec, "action-monotone", ("f", "bot0", "mid0")),
    "spec_false_top.cm": (check_spec, "fiber-top", ("b1", "y")),
    "spec_cyclic.cm": (check_spec, "fiber-order-cycle", ("b1", "p", "q")),
    "spec_partial_action.cm": (check_spec, "action-partial", ("f", "mid0")),
    "spec_unknown_action.cm": (check_spec, "action-unknown-morphism", ("g",)),
    "spec_missing_action.cm": (check_spec, "action-missing", ("f",)),
    "reflector_swapped.cm": (check_reflection, "reflection-closed-form", ("a", "b", "f")),
    "coreflector_swapped.cm": (
        check_coreflection,
        "coreflection-closed-form",
        ("b", "a", "f"),
    ),
}


@pytest.mark.parametrize("filename", sorted(MANIFEST))
def test_corruption_is_detected(filename):
    checker, rule, witness = MANIFEST[filename]
    report = checker(load_path(CORPUS / filename))
    assert not report.ok, f"{filename} passed {checker.__name__}"
    hits = [v for v in report.violations if v.rule == rule]
    found = sorted({v.rule for v in report.violations})
    assert hits, f"{filename}: wanted rule {rule!r}, validator reported {found}"
    assert witness in {v.subject for v in hits}


def test_every_corpus_file_is_covered():
    files = {p.name for p in CORPUS.iterdir() if p.is_file()}
    assert files == set(MANIFEST)
    assert len(files) >= 10
