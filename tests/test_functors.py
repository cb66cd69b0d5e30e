"""Functors, contravariant functors, natural transformations, whiskering."""

import pytest

import catmn.core
from catmn import (
    Functor,
    MismatchError,
    NaturalTransformation,
    UnknownMorphismError,
    UnknownObjectError,
    compose_functors,
    identity_functor,
    identity_nat,
    inverse_of,
    opposite,
    validate_contravariant,
    validate_functor,
    validate_nat,
)
from catmn.functors import iso_report
from helpers import orbit, parallel_pair, spy, walking_arrow, whisker_left, whisker_right


def rules_of(report):
    return {v.rule for v in report.violations}


def orbit_automorphism(c=None):
    """The nontrivial automorphism of the orbit category: post-compose the
    free orbit with the involution."""
    c = c or orbit()
    return Functor(
        c,
        c,
        {"a": "a", "b": "b"},
        {"id_a": "id_a", "id_b": "id_b", "e": "e", "f": "f2", "f2": "f"},
        name="twist",
    )


def swap_functor(c=None):
    c = c or parallel_pair()
    return Functor(
        c,
        c,
        {"s": "s", "t": "t"},
        {"id_s": "id_s", "id_t": "id_t", "u": "v", "v": "u"},
        name="swap",
    )


# ---------------------------------------------------------------------------
# functors


def test_identity_functor_valid():
    c = orbit()
    one = identity_functor(c)
    assert validate_functor(one).ok
    assert one.on_obj("a") == "a"
    assert one.on_mor("e") == "e"
    with pytest.raises(UnknownObjectError):
        one.on_obj("zz")
    with pytest.raises(UnknownMorphismError):
        one.on_mor("zz")


def test_orbit_automorphism_is_a_functor_and_an_involution():
    c = orbit()
    tw = orbit_automorphism(c)
    assert validate_functor(tw).ok
    assert compose_functors(tw, tw) == identity_functor(c)


def test_compose_functors_requires_matching_middle():
    with pytest.raises(MismatchError):
        compose_functors(identity_functor(orbit()), identity_functor(walking_arrow()))


def test_functor_totality_rules():
    c = walking_arrow()
    one = identity_functor(c)

    missing_obj = Functor(c, c, {"a": "a"}, dict(one.mor_map))
    assert "functor-object-missing" in rules_of(validate_functor(missing_obj))

    bad_obj = Functor(c, c, {"a": "a", "b": "zz"}, dict(one.mor_map))
    assert "functor-object-image" in rules_of(validate_functor(bad_obj))

    extra_obj = Functor(c, c, {**one.obj_map, "zz": "a"}, dict(one.mor_map))
    assert "functor-object-extra" in rules_of(validate_functor(extra_obj))

    missing_mor = Functor(
        c, c, dict(one.obj_map), {k: v for k, v in one.mor_map.items() if k != "f"}
    )
    assert "functor-morphism-missing" in rules_of(validate_functor(missing_mor))

    bad_mor = Functor(c, c, dict(one.obj_map), {**one.mor_map, "f": "zz"})
    assert "functor-morphism-image" in rules_of(validate_functor(bad_mor))

    extra_mor = Functor(c, c, dict(one.obj_map), {**one.mor_map, "zz": "f"})
    assert "functor-morphism-extra" in rules_of(validate_functor(extra_mor))


def test_functor_endpoint_rule():
    c = walking_arrow()
    one = identity_functor(c)
    crooked = Functor(c, c, dict(one.obj_map), {**one.mor_map, "f": "id_a"})
    report = validate_functor(crooked)
    assert "functor-endpoints" in rules_of(report)


def test_functor_identity_rule():
    c = orbit()
    one = identity_functor(c)
    crooked = Functor(c, c, dict(one.obj_map), {**one.mor_map, "id_b": "e"})
    assert "functor-identity" in rules_of(validate_functor(crooked))


def test_functor_composition_rule():
    c = orbit()
    one = identity_functor(c)
    # sending f2 to f while fixing e and f breaks G(e . f) = G(e) . G(f)
    crooked = Functor(c, c, dict(one.obj_map), {**one.mor_map, "f2": "f"})
    report = validate_functor(crooked)
    assert "functor-composition" in rules_of(report)
    assert ("e", "f") in {v.subject for v in report.violations}


def test_functor_equality_ignores_name():
    c = orbit()
    assert identity_functor(c) == Functor(
        c, c, {x: x for x in c.objects}, {m: m for m in c.morphisms}, name="other"
    )


# ---------------------------------------------------------------------------
# contravariant functors


def test_contravariant_functor_is_flat(monkeypatch):
    c = orbit()
    op = opposite(orbit())  # an equal opposite, built from another copy
    F = Functor(
        c,
        op,
        {x: x for x in c.objects},
        {m: m for m in c.morphisms},
        name="transpose",
    )
    assert (F.source, F.target, F.name) == (c, op, "transpose")
    assert F.obj_map == {x: x for x in c.objects}
    assert F.mor_map == {m: m for m in c.morphisms}
    built = []
    spy(monkeypatch, catmn.core, "opposite", built)
    assert validate_contravariant(F).ok
    assert built == []  # checked on a flipped view, not on opposite(c)
    assert F.on_obj("a") == "a"
    assert F.on_mor("f") == "f"
    with pytest.raises(UnknownMorphismError, match="'transpose' is undefined on morphism 'zz'"):
        F.on_mor("zz")


def test_contravariant_flips_composition():
    c = orbit()
    broken = Functor(
        c,
        opposite(c),
        {x: x for x in c.objects},
        # f2 and f must swap under transposition of nothing; mapping f2 to f
        # while fixing e breaks the flipped law
        {**{m: m for m in c.morphisms}, "f2": "f"},
    )
    assert "functor-composition" in rules_of(validate_contravariant(broken))


# ---------------------------------------------------------------------------
# natural transformations


def test_identity_nat_valid_and_iso():
    one = identity_functor(orbit())
    alpha = identity_nat(one)
    assert validate_nat(alpha).ok
    assert iso_report(alpha, "not-iso", "identity").ok


def test_nat_parallel_rule():
    alpha = NaturalTransformation(
        identity_functor(orbit()), identity_functor(walking_arrow()), {}
    )
    assert rules_of(validate_nat(alpha)) == {"nat-parallel"}


def test_component_rules():
    c = walking_arrow()
    one = identity_functor(c)

    missing = NaturalTransformation(one, one, {"a": "id_a"})
    assert "component-missing" in rules_of(validate_nat(missing))

    unknown = NaturalTransformation(one, one, {"a": "id_a", "b": "zz"})
    assert "component-unknown" in rules_of(validate_nat(unknown))

    ill_typed = NaturalTransformation(one, one, {"a": "id_a", "b": "f"})
    assert "component-typing" in rules_of(validate_nat(ill_typed))

    extra = NaturalTransformation(one, one, {"a": "id_a", "b": "id_b", "zz": "id_a"})
    assert "component-extra" in rules_of(validate_nat(extra))


def test_naturality_square_rule():
    c = parallel_pair()
    alpha = NaturalTransformation(
        identity_functor(c), swap_functor(c), {"s": "id_s", "t": "id_t"}
    )
    report = validate_nat(alpha)
    assert rules_of(report) == {"naturality-square"}
    witnesses = {v.subject for v in report.violations}
    # identity components cannot intertwine u with v
    assert ("u",) in witnesses and ("v",) in witnesses


def test_twist_comparison_is_a_natural_iso():
    c = orbit()
    alpha = NaturalTransformation(
        identity_functor(c), orbit_automorphism(c), {"a": "id_a", "b": "e"}
    )
    assert validate_nat(alpha).ok
    assert iso_report(alpha, "not-iso", "twist").ok
    inv = {x: inverse_of(c, m) for x, m in alpha.components.items()}
    assert inv == {"a": "id_a", "b": "e"}  # e is its own inverse
    back = {x: c.comp(inv[x], m) for x, m in alpha.components.items()}
    assert back == identity_nat(identity_functor(c)).components


def test_whiskering_components():
    c = orbit()
    tw = orbit_automorphism(c)
    alpha = NaturalTransformation(
        identity_functor(c), tw, {"a": "id_a", "b": "e"}
    )
    left = whisker_left(tw, alpha)
    assert left.components == {"a": tw.on_mor("id_a"), "b": tw.on_mor("e")}
    assert left.source_functor == tw  # tw . 1
    assert left.target_functor == identity_functor(c)  # tw . tw
    right = whisker_right(alpha, tw)
    assert right.components == {"a": alpha.components["a"], "b": alpha.components["b"]}
    assert validate_nat(left).ok and validate_nat(right).ok


def test_whiskering_shape_guards():
    a = identity_nat(identity_functor(orbit()))
    other = identity_functor(walking_arrow())
    with pytest.raises(MismatchError):
        whisker_left(other, a)
    with pytest.raises(MismatchError):
        whisker_right(a, other)
