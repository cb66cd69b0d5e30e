"""Idempotent (co)monads, their fixed subcategories, and the exhaustive
universal-property sweeps for reflections and coreflections."""

import pytest

from catmn import (
    COMONAD,
    MONAD,
    Functor,
    InvalidArtifactError,
    MonadDatum,
    NaturalTransformation,
    ReflectionPackage,
    check_idempotent,
    compose_functors,
    fixed_objects,
    fixed_subcategory,
    full_subcategory,
    identity_functor,
    identity_nat,
    inverse_of,
    opposite,
    validate_functor,
    validate_nat,
    verify_reflection,
)
from catmn.monads import from_units
from helpers import (
    idem_endo,
    identity_datum,
    isomorphic_pair,
    orbit,
    orbit_op,
    parallel_pair,
    predecessor_comonad,
    successor_monad,
    three_chain,
)


def rules_of(report):
    return {v.rule for v in report.violations}


def reflection_onto(ambient, sub_objs, obj_map, mor_map, unit_components):
    """Assemble a ReflectionPackage by hand; inverses are recomputed, so a
    corrupted reflector table is the only thing under test."""
    sub, inclusion = full_subcategory(ambient, sub_objs)
    reflector = Functor(ambient, sub, dict(obj_map), dict(mor_map), name="reflect")
    unit = NaturalTransformation(
        identity_functor(ambient),
        compose_functors(inclusion, reflector),
        dict(unit_components),
        name="unit",
    )
    inverses = {}
    for y in sub.objects:
        inv = inverse_of(ambient, unit_components[y])
        if inv is not None:
            inverses[y] = inv
    return ReflectionPackage(ambient, sub, inclusion, reflector, unit, inverses, MONAD)


def coreflection_onto(ambient, sub_objs, obj_map, mor_map, counit_components):
    sub, inclusion = full_subcategory(ambient, sub_objs)
    coreflector = Functor(ambient, sub, dict(obj_map), dict(mor_map), name="coreflect")
    counit = NaturalTransformation(
        compose_functors(inclusion, coreflector),
        identity_functor(ambient),
        dict(counit_components),
        name="counit",
    )
    inverses = {}
    for x in sub.objects:
        inv = inverse_of(ambient, counit_components[x])
        if inv is not None:
            inverses[x] = inv
    return ReflectionPackage(ambient, sub, inclusion, coreflector, counit, inverses, COMONAD)


ORBIT_REFLECTOR = {
    "obj": {"a": "b", "b": "b"},
    "mor": {"id_a": "id_b", "id_b": "id_b", "e": "e", "f": "id_b", "f2": "e"},
    "unit": {"a": "f", "b": "id_b"},
}

ORBIT_OP_COREFLECTOR = {
    "obj": {"a": "b", "b": "b"},
    "mor": {"id_a": "id_b", "id_b": "id_b", "e": "e", "f": "id_b", "f2": "e"},
    "counit": {"a": "f", "b": "id_b"},
}


# ---------------------------------------------------------------------------
# idempotence checks


def test_identity_monad_and_comonad_are_idempotent():
    c = orbit()
    assert check_idempotent(identity_datum(c, MONAD)).ok
    assert check_idempotent(identity_datum(c, COMONAD)).ok


def test_the_side_tells_the_identity_monad_from_the_identity_comonad():
    c = orbit()
    monad, comonad = identity_datum(c, MONAD), identity_datum(c, COMONAD)
    assert (monad.functor, monad.unit) == (comonad.functor, comonad.unit)
    assert monad != comonad
    assert fixed_subcategory(monad) != fixed_subcategory(comonad)
    assert fixed_objects(monad) == fixed_objects(comonad) == {"a": "id_a", "b": "id_b"}


def test_c2_builders_yield_idempotent_data(c2_monad, c2_comonad):
    assert check_idempotent(c2_monad).ok
    assert check_idempotent(c2_comonad).ok


def test_monad_endofunctor_rule():
    c = orbit()
    sub, inclusion = full_subcategory(c, ["b"])
    d = MonadDatum(inclusion, identity_nat(identity_functor(sub)), MONAD)
    assert rules_of(check_idempotent(d)) == {"monad-endofunctor"}


def test_monad_unit_shape_rule():
    c = orbit()
    one = identity_functor(c)
    tw = Functor(
        c,
        c,
        {"a": "a", "b": "b"},
        {"id_a": "id_a", "id_b": "id_b", "e": "e", "f": "f2", "f2": "f"},
    )
    d = MonadDatum(one, identity_nat(tw), MONAD)  # unit starts at the wrong functor
    assert "monad-unit-shape" in rules_of(check_idempotent(d))


def test_monad_functor_must_be_lawful():
    c = orbit()
    one = identity_functor(c)
    crooked = Functor(c, c, dict(one.obj_map), {**one.mor_map, "f2": "f"})
    d = MonadDatum(crooked, identity_nat(one), MONAD)
    report = check_idempotent(d)
    assert "functor-composition" in rules_of(report)


def test_successor_monad_fails_idempotence_only():
    d = successor_monad()
    assert validate_functor(d.functor).ok
    assert validate_nat(d.unit).ok
    report = check_idempotent(d)
    assert rules_of(report) == {"monad-idempotence"}
    subjects = {v.subject for v in report.violations}
    # eta_{N x0} = a12 and N(eta_x0) = a12, neither invertible in a chain
    assert ("unit-after-functor", "x0") in subjects
    assert ("functor-of-unit", "x0") in subjects


def test_comonad_endofunctor_rule():
    c = three_chain()
    sub, inclusion = full_subcategory(c, ["x0"])
    bad_shape = MonadDatum(inclusion, identity_nat(identity_functor(sub)), COMONAD)
    assert rules_of(check_idempotent(bad_shape)) == {"comonad-endofunctor"}


def test_predecessor_comonad_fails_idempotence_only():
    d = predecessor_comonad()
    assert validate_functor(d.functor).ok
    assert validate_nat(d.unit).ok
    report = check_idempotent(d)
    assert rules_of(report) == {"comonad-idempotence"}
    subjects = {v.subject for v in report.violations}
    # psi_{M x2} = a01 and M(psi_x2) = a01, neither invertible in a chain
    assert ("counit-after-functor", "x2") in subjects
    assert ("functor-of-counit", "x2") in subjects


def test_comonad_counit_shape_rule():
    c = orbit()
    one = identity_functor(c)
    tw = Functor(
        c,
        c,
        {"a": "a", "b": "b"},
        {"id_a": "id_a", "id_b": "id_b", "e": "e", "f": "f2", "f2": "f"},
    )
    crooked = MonadDatum(one, identity_nat(tw), COMONAD)
    assert "comonad-counit-shape" in rules_of(check_idempotent(crooked))


# ---------------------------------------------------------------------------
# fixed subcategories


def test_c2_fixed_subcategories(c2_monad, c2_comonad):
    p = fixed_subcategory(c2_monad)
    assert p.subcategory.objects == ("b0|top0", "b1|top1")
    assert set(p.unit_inverses) == {"b0|top0", "b1|top1"}
    assert validate_functor(p.inclusion).ok
    assert validate_functor(p.reflector).ok
    assert compose_functors(p.inclusion, p.reflector) == c2_monad.functor

    q = fixed_subcategory(c2_comonad)
    assert q.subcategory.objects == ("b0|bot0", "b1|bot1")
    assert compose_functors(q.inclusion, q.reflector) == c2_comonad.functor


def test_fixed_subcategory_requires_idempotence():
    with pytest.raises(InvalidArtifactError, match="idempotent monad"):
        fixed_subcategory(successor_monad())
    with pytest.raises(InvalidArtifactError, match="idempotent comonad"):
        fixed_subcategory(predecessor_comonad())


def test_c2_universal_property_sweeps(c2_monad, c2_comonad):
    assert verify_reflection(fixed_subcategory(c2_monad)).ok
    assert verify_reflection(fixed_subcategory(c2_comonad)).ok


# ---------------------------------------------------------------------------
# reflection sweep failure modes


def test_orbit_reflection_is_genuine():
    g = ORBIT_REFLECTOR
    p = reflection_onto(orbit(), ["b"], g["obj"], g["mor"], g["unit"])
    assert validate_functor(p.reflector).ok
    assert validate_nat(p.unit).ok
    assert verify_reflection(p).ok


def test_reflection_closed_form_rule():
    # swapping the two orbit entries is still a functor (the involution is
    # an automorphism) but disagrees with every mediator
    g = ORBIT_REFLECTOR
    swapped = {**g["mor"], "f": "e", "f2": "id_b"}
    p = reflection_onto(orbit(), ["b"], g["obj"], swapped, g["unit"])
    assert validate_functor(p.reflector).ok
    report = verify_reflection(p)
    assert rules_of(report) == {"reflection-closed-form"}
    assert ("a", "b", "f") in {v.subject for v in report.violations}
    assert "unique mediator is 'id_b' but the closed form gives 'e'" in report.render()


def test_reflection_no_mediator_rule():
    c = parallel_pair()
    p = reflection_onto(
        c,
        ["t"],
        {"s": "t", "t": "t"},
        {"id_s": "id_t", "id_t": "id_t", "u": "id_t", "v": "id_t"},
        {"s": "u", "t": "id_t"},
    )
    report = verify_reflection(p)
    assert rules_of(report) == {"reflection-no-mediator"}
    assert ("s", "t", "v") in {v.subject for v in report.violations}


def test_reflection_ambiguous_mediator_rule():
    c = idem_endo()
    p = reflection_onto(
        c,
        ["b"],
        {"a": "b", "b": "b"},
        {"id_a": "id_b", "id_b": "id_b", "e": "e", "f": "id_b"},
        {"a": "f", "b": "id_b"},
    )
    report = verify_reflection(p)
    assert "reflection-ambiguous-mediator" in rules_of(report)
    assert "2 morphisms factor" in report.render()


def test_reflection_data_rule():
    g = ORBIT_REFLECTOR
    p = reflection_onto(orbit(), ["b"], g["obj"], g["mor"], g["unit"])
    gutted = ReflectionPackage(
        p.ambient,
        p.subcategory,
        p.inclusion,
        p.reflector,
        NaturalTransformation(
            p.unit.source_functor, p.unit.target_functor, {"b": "id_b"}
        ),
        p.unit_inverses,
        MONAD,
    )
    report = verify_reflection(gutted)
    assert ("a",) in {v.subject for v in report.violations if v.rule == "reflection-data"}


# ---------------------------------------------------------------------------
# coreflection sweep failure modes


def test_orbit_op_coreflection_is_genuine():
    g = ORBIT_OP_COREFLECTOR
    p = coreflection_onto(orbit_op(), ["b"], g["obj"], g["mor"], g["counit"])
    assert validate_functor(p.reflector).ok
    assert validate_nat(p.unit).ok
    assert verify_reflection(p).ok


def test_coreflection_closed_form_rule():
    g = ORBIT_OP_COREFLECTOR
    swapped = {**g["mor"], "f": "e", "f2": "id_b"}
    p = coreflection_onto(orbit_op(), ["b"], g["obj"], swapped, g["counit"])
    assert validate_functor(p.reflector).ok
    report = verify_reflection(p)
    assert rules_of(report) == {"coreflection-closed-form"}
    assert ("b", "a", "f") in {v.subject for v in report.violations}


def test_coreflection_no_mediator_rule():
    c = opposite(parallel_pair())
    p = coreflection_onto(
        c,
        ["t"],
        {"s": "t", "t": "t"},
        {"id_s": "id_t", "id_t": "id_t", "u": "id_t", "v": "id_t"},
        {"s": "u", "t": "id_t"},
    )
    report = verify_reflection(p)
    assert rules_of(report) == {"coreflection-no-mediator"}
    assert ("t", "s", "v") in {v.subject for v in report.violations}


def test_coreflection_ambiguous_mediator_rule():
    c = opposite(idem_endo())
    p = coreflection_onto(
        c,
        ["b"],
        {"a": "b", "b": "b"},
        {"id_a": "id_b", "id_b": "id_b", "e": "e", "f": "id_b"},
        {"a": "f", "b": "id_b"},
    )
    report = verify_reflection(p)
    assert "coreflection-ambiguous-mediator" in rules_of(report)


def test_coreflection_data_rule():
    g = ORBIT_OP_COREFLECTOR
    p = coreflection_onto(orbit_op(), ["b"], g["obj"], g["mor"], g["counit"])
    gutted = ReflectionPackage(
        p.ambient,
        p.subcategory,
        p.inclusion,
        p.reflector,
        NaturalTransformation(
            p.unit.source_functor, p.unit.target_functor, {"b": "id_b"}
        ),
        p.unit_inverses,
        COMONAD,
    )
    report = verify_reflection(gutted)
    assert ("a",) in {
        v.subject for v in report.violations if v.rule == "coreflection-data"
    }


def _units(c, side, units):
    """``from_units`` on ``c`` with the unit named ``units[x]`` at each
    object x, read on ``side``."""
    eta = [c.mor_id[units[x]] if x in units else None for x in c.vertices]
    return from_units(c, side, eta, "from-units", "its-unit")


@pytest.mark.parametrize(
    "side, units",
    [(MONAD, {"a": "id_a", "b": "j"}), (COMONAD, {"a": "id_a", "b": "i"})],
    ids=["monad", "comonad"],
)
def test_from_units_on_an_isomorphism(side, units):
    # every unit is invertible, so every object is fixed, and the unit at b
    # is the isomorphism itself, not an identity
    c = isomorphic_pair()
    d, failures = _units(c, side, units)
    assert failures == [] and d.side == side
    assert (d.name, d.functor.name, d.unit.name) == ("from-units", "from-units", "its-unit")
    assert d.functor.obj_map == {"a": "a", "b": "a"}
    assert dict(d.functor.mor_map) == dict.fromkeys(c.morphisms, "id_a")
    assert d.unit.components == units
    assert check_idempotent(d).ok
    p = fixed_subcategory(d)
    assert p.subcategory.objects == ("a", "b")
    assert verify_reflection(p).ok


def test_from_units_reports_a_morphism_without_a_lift():
    # with the unit u at s, v would need some w: t -> t with w after u = v
    c = parallel_pair()
    d, failures = _units(c, MONAD, {"s": "u", "t": "id_t"})
    assert d is None
    assert failures == [(c.mor_id["v"], 0)]
