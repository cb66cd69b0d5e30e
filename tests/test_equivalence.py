"""The equivalence between the monad-fixed and comonad-fixed subcategories:
hypothesis checks, construction, triangle identities, factorizations."""

import dataclasses

import pytest

import catmn.functors
from catmn import (
    COMONAD,
    MONAD,
    EquivalenceResult,
    Functor,
    InvalidArtifactError,
    MNPair,
    MismatchError,
    MonadDatum,
    NaturalTransformation,
    ReflectionPackage,
    build_final_monad,
    build_mn_equivalence,
    canonical_c2,
    check_idempotent,
    check_mn_hypotheses,
    compose_functors,
    full_subcategory,
    identity_functor,
    inverse_of,
    make_mn_pair,
    powerset_duality_demo,
    render_spec,
    validate_nat,
    verify_adjoint_equivalence,
    verify_factorizations,
)
from catmn.cli import main
from helpers import (
    collapse_monad,
    collapsed,
    idem_endo,
    identity_datum,
    orbit,
    spy,
    three_chain,
)


def rules_of(report):
    return {v.rule for v in report.violations}


# ---------------------------------------------------------------------------
# pairing and hypotheses


def test_make_mn_pair_requires_one_category():
    with pytest.raises(MismatchError, match="different categories"):
        make_mn_pair(identity_datum(orbit(), MONAD), identity_datum(three_chain(), COMONAD))


def test_make_mn_pair_rejects_a_datum_of_the_wrong_side():
    c = orbit()
    monad, comonad = identity_datum(c, MONAD), identity_datum(c, COMONAD)
    with pytest.raises(MismatchError, match="expected a monad, got the comonad"):
        make_mn_pair(comonad, monad)
    with pytest.raises(MismatchError, match="expected a comonad, got the monad"):
        make_mn_pair(monad, monad)


def test_hypotheses_reject_a_pair_across_categories():
    # a pair built by hand, past make_mn_pair's check, still cannot whisker
    monad, comonad = identity_datum(orbit(), MONAD), identity_datum(three_chain(), COMONAD)
    pair = MNPair(monad, comonad, None, None)
    with pytest.raises(MismatchError, match="whisker_left"):
        check_mn_hypotheses(pair)


def test_identity_pair_satisfies_everything():
    c = orbit()
    pair = make_mn_pair(identity_datum(c, MONAD), identity_datum(c, COMONAD))
    assert check_mn_hypotheses(pair).ok
    eq = build_mn_equivalence(pair)
    assert verify_adjoint_equivalence(eq).ok
    assert verify_factorizations(pair, eq).ok
    assert eq.forward.obj_map == {x: x for x in c.objects}


def test_c2_pair_passes_hypotheses(c2_pair):
    assert check_mn_hypotheses(c2_pair).ok


def test_hypothesis_failure_is_located():
    sets = powerset_duality_demo().source
    d = collapse_monad(sets)
    assert check_idempotent(d).ok
    pair = make_mn_pair(d, identity_datum(sets, COMONAD))
    report = check_mn_hypotheses(pair)
    assert rules_of(report) == {"mn-hypothesis"}
    # M(eta) = eta and eta_set12 has no inverse; N(psi) is an identity
    assert {v.subject for v in report.violations} == {("comonad-of-unit", "set12")}


def test_build_refuses_failing_hypotheses():
    sets = powerset_duality_demo().source
    pair = make_mn_pair(collapse_monad(sets), identity_datum(sets, COMONAD))
    with pytest.raises(InvalidArtifactError, match="hypotheses"):
        build_mn_equivalence(pair)


def c2_pair_anew(c2_total):
    return make_mn_pair(build_final_monad(c2_total), collapsed(c2_total, COMONAD))


def collapse_pair(c2_total):
    # the hypotheses fail at set12 (see test_hypothesis_failure_is_located)
    sets = powerset_duality_demo().source
    return make_mn_pair(collapse_monad(sets), identity_datum(sets, COMONAD))


@pytest.mark.parametrize("build, holds", [(c2_pair_anew, True), (collapse_pair, False)])
def test_factorizations_do_not_depend_on_the_hypotheses_running_first(build, holds, c2_total):
    alone, checked = build(c2_total), build(c2_total)
    assert check_mn_hypotheses(checked).ok is holds
    # the halves as build_mn_equivalence makes them; it refuses a pair whose
    # hypotheses fail, and verify_factorizations reads no unit or counit
    forward = compose_functors(alone.reflection.reflector, alone.coreflection.inclusion)
    backward = compose_functors(alone.coreflection.reflector, alone.reflection.inclusion)
    eq = EquivalenceResult(forward, backward, None, None)
    reports = [verify_factorizations(p, eq) for p in (alone, checked)]
    assert reports[0].ok is holds
    assert len({(r.violations, r.notes, r.omitted) for r in reports}) == 1


# ---------------------------------------------------------------------------
# the canonical two-fiber equivalence


def test_c2_equivalence_shape(c2_equivalence):
    eq = c2_equivalence
    assert eq.forward.obj_map == {"b0|bot0": "b0|top0", "b1|bot1": "b1|top1"}
    assert eq.backward.obj_map == {"b0|top0": "b0|bot0", "b1|top1": "b1|bot1"}
    assert eq.forward.name == "forward"
    assert eq.backward.name == "backward"


def test_c2_equivalence_unit_and_counit_are_identities(c2_equivalence):
    eq = c2_equivalence
    msub = eq.unit.source_functor.source
    nsub = eq.counit.target_functor.source
    for x in msub.objects:
        assert eq.unit.components[x] == msub.identity[x]
    for y in nsub.objects:
        assert eq.counit.components[y] == nsub.identity[y]


def test_c2_equivalence_verifies(c2_pair, c2_equivalence):
    assert verify_adjoint_equivalence(c2_equivalence).ok
    assert verify_factorizations(c2_pair, c2_equivalence).ok


def test_factorization_reports_the_canonical_candidate(c2_pair, c2_equivalence):
    eq = c2_equivalence
    F = eq.forward
    forward = Functor(F.source, F.target, {**F.obj_map, "b0|bot0": "b1|top1"}, F.mor_map, F.name)
    report = verify_factorizations(c2_pair, dataclasses.replace(eq, forward=forward))
    # the reflector's candidate, inverse(N(psi_x)), now lands on the wrong
    # object wherever the coreflector goes to b0|bot0; nothing else is tried
    cat, R, Q = c2_pair.category, c2_pair.reflection.reflector, c2_pair.coreflection.reflector
    N, psi = c2_pair.monad.functor, c2_pair.comonad.unit.components
    candidate = NaturalTransformation(
        R,
        compose_functors(forward, Q),
        {x: inverse_of(cat, N.mor_map[psi[x]]) for x in cat.objects},
    )
    own = validate_nat(candidate).violations
    assert [(v.rule, v.subject, v.detail) for v in report.violations] == [
        (f"factorization-reflector-{v.rule}", v.subject, v.detail) for v in own
    ]
    assert rules_of(report) == {"factorization-reflector-component-typing"}
    assert {v.subject for v in report.violations} == {
        (x,) for x in cat.objects if Q.obj_map[x] == "b0|bot0"
    }


@pytest.mark.parametrize("side", ["monad", "comonad"])
def test_factorization_reports_a_component_without_inverse(side):
    # on idem-endo, 1 => 1 with the idempotent e at b is natural but not
    # invertible; as the unit it is M(eta) for M = 1, as the counit N(psi)
    c = idem_endo()
    one = identity_functor(c)
    ids = {"a": "id_a", "b": "id_b"}
    bent = NaturalTransformation(one, one, {"a": "id_a", "b": "e"})
    plain = NaturalTransformation(one, one, ids)
    unit, counit = (bent, plain) if side == "monad" else (plain, bent)
    pair = MNPair(
        MonadDatum(one, unit, MONAD),
        MonadDatum(one, counit, COMONAD),
        ReflectionPackage(c, c, one, one, unit, ids, MONAD),
        ReflectionPackage(c, c, one, one, counit, ids, COMONAD),
    )
    report = verify_factorizations(pair, EquivalenceResult(one, one, plain, plain))
    tag, label = {
        "monad": ("factorization-coreflector", "comonad-of-unit"),
        "comonad": ("factorization-reflector", "monad-of-counit"),
    }[side]
    assert report.render() == f"{tag}-not-iso [{label}, b]: component 'e' is not invertible"


def test_mn_check_proves_each_hypothesis_once(tmp_path, monkeypatch, capsys):
    checked = []
    spy(monkeypatch, catmn.functors, "validate_nat", checked)
    spec = tmp_path / "c2.cm"
    spec.write_text(render_spec(canonical_c2()))
    assert main(["mn-check", str(spec)]) == 0
    assert "result: PASS" in capsys.readouterr().out
    # idempotence and the hypotheses read the whiskered components off the
    # tables and sweep no whiskered transformation.  Per (co)monad its unit,
    # the equivalence's unit and counit, and both factorization candidates:
    # six transformations, each validated once
    assert len(checked) == len(set(checked)) == 6


# ---------------------------------------------------------------------------
# failure modes of handmade equivalence data


def one_object_equivalence(cat, sub_objs, unit_mor, counit_mor):
    sub, _ = full_subcategory(cat, sub_objs)
    one = identity_functor(sub)
    unit = NaturalTransformation(one, one, {x: unit_mor for x in sub.objects})
    counit = NaturalTransformation(one, one, {x: counit_mor for x in sub.objects})
    return EquivalenceResult(one, one, unit, counit)


def test_non_invertible_unit_component_is_reported():
    # e is idempotent but not an identity, so it cannot be inverted
    eq = one_object_equivalence(idem_endo(), ["b"], "e", "id_b")
    report = verify_adjoint_equivalence(eq)
    assert "equivalence-not-iso" in rules_of(report)
    assert ("unit", "b") in {v.subject for v in report.violations}


def test_triangle_identities_are_checked():
    # in the orbit the involution is invertible, so both components are
    # isos and only the triangles can fail
    eq = one_object_equivalence(orbit(), ["b"], "e", "id_b")
    report = verify_adjoint_equivalence(eq)
    assert rules_of(report) == {"triangle-forward", "triangle-backward"}
    assert {v.subject for v in report.violations} == {("b",)}
    assert "expected identity 'id_b'" in report.render()


def test_missing_unit_component_is_reported_not_raised():
    eq = one_object_equivalence(orbit(), ["b"], "id_b", "id_b")
    assert verify_adjoint_equivalence(eq).ok
    unit = NaturalTransformation(eq.unit.source_functor, eq.unit.target_functor, {})
    report = verify_adjoint_equivalence(dataclasses.replace(eq, unit=unit))
    assert {"component-missing", "triangle-forward", "triangle-backward"} <= rules_of(report)
    assert ("b",) in {v.subject for v in report.violations if v.rule == "triangle-forward"}


def test_functor_without_object_image_is_reported_not_raised():
    eq = one_object_equivalence(orbit(), ["b"], "id_b", "id_b")
    forward = Functor(eq.forward.source, eq.forward.target, {}, eq.forward.mor_map, "F")
    report = verify_adjoint_equivalence(dataclasses.replace(eq, forward=forward))
    assert [v.render() for v in report.violations if v.rule.startswith("triangle")] == [
        "triangle-forward [b]: functor 'F' is undefined on object 'b'"
    ]
