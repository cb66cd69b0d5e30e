"""Contravariant equivalences and transport of (co)monads across them."""

import dataclasses
import hashlib

import pytest

import catmn.core
import catmn.functors
from catmn import (
    COMONAD,
    MONAD,
    Category,
    ContravariantEquivalence,
    Functor,
    InvalidArtifactError,
    MismatchError,
    Mor,
    NaturalTransformation,
    build_total_category,
    canonical_c2,
    check_idempotent,
    check_mn_hypotheses,
    compose_functors,
    fixed_subcategory,
    identity_functor,
    induce,
    make_mn_pair,
    powerset_duality_demo,
    relabeled_opposite_equivalence,
    render_spec,
    transport_pair,
    validate_category,
    validate_equivalence,
    verify_transfer,
)
from catmn.cli import main
from helpers import (
    collapse_monad,
    idem_endo,
    identity_datum,
    orbit,
    spy,
    successor_monad,
    three_chain,
)


def rules_of(report):
    return {v.rule for v in report.violations}


# ---------------------------------------------------------------------------
# relabeled-opposite equivalences


def test_relabeled_opposite_is_valid():
    c = orbit()
    e = relabeled_opposite_equivalence(c)
    assert validate_equivalence(e).ok
    assert e.source == c
    assert e.dual.objects == ("a~", "b~")
    assert set(e.dual.morphisms) == {"id_a~", "id_b~", "e~", "f~", "f2~"}
    assert validate_category(e.dual).ok
    # the relabeled copy reverses arrows: f: a -> b becomes f~: b~ -> a~
    assert e.dual.morphisms["f~"].src == "b~"
    assert e.dual.morphisms["f~"].dst == "a~"


def test_relabeled_round_trips_are_identities():
    c = orbit()
    e = relabeled_opposite_equivalence(c)
    assert compose_functors(e.backward, e.forward) == identity_functor(c)
    assert compose_functors(e.forward, e.backward) == identity_functor(e.dual)
    for x in e.dual.objects:
        assert e.theta.components[x] == e.dual.identity[x]
    for x in c.objects:
        assert e.theta_bar.components[x] == c.identity[x]


def test_covariant_composite_middle_mismatch():
    # two contravariant functors compose like any others: the middle
    # categories (here orbit~op and orbit) must agree
    e = relabeled_opposite_equivalence(orbit())
    with pytest.raises(MismatchError, match="cannot compose 'relabel' after 'relabel': middle"):
        compose_functors(e.forward, e.forward)


# ---------------------------------------------------------------------------
# equivalence validation failure modes


def test_comparison_shape_rule():
    # putting the source-side comparison in the dual-side slot leaves a
    # transformation over the wrong category entirely
    e = relabeled_opposite_equivalence(orbit())
    crooked = dataclasses.replace(e, theta=e.theta_bar)
    report = validate_equivalence(crooked)
    assert rules_of(report) == {"equivalence-comparison-shape"}
    assert {v.subject for v in report.violations} == {("theta",)}


def test_functors_that_do_not_meet_are_reported():
    # the relabeling of one category paired with the unrelabeling of
    # another: the round trips cannot be composed, which is a violation
    # of the equivalence, not an error of the validator
    total = build_total_category(canonical_c2()).total
    e = relabeled_opposite_equivalence(total)
    other = relabeled_opposite_equivalence(canonical_c2().base)
    crooked = dataclasses.replace(e, backward=other.backward)
    report = validate_equivalence(crooked)
    assert report.render().splitlines() == [
        "equivalence-functors-meet [backward]: "
        "must go from the forward functor's target to its source"
    ]
    d = identity_datum(total, MONAD)
    with pytest.raises(InvalidArtifactError, match="invalid contravariant equivalence"):
        induce(crooked, d)


def test_comparison_iso_rule():
    # e~ squares to itself in the relabeled opposite, so substituting it
    # for the identity component stays natural but is not invertible
    e = relabeled_opposite_equivalence(idem_endo())
    crooked = dataclasses.replace(
        e,
        theta=NaturalTransformation(
            e.theta.source_functor,
            e.theta.target_functor,
            {"a~": "id_a~", "b~": "e~"},
        ),
    )
    report = validate_equivalence(crooked)
    assert rules_of(report) == {"equivalence-comparison-iso"}
    assert {v.subject for v in report.violations} == {("theta", "b~")}


def test_relabeling_rejects_a_table_naming_no_morphism():
    c = orbit()
    compose = {**c.compose, ("e", "e"): "zz"}
    crooked = Category("crooked", c.objects, c.morphisms.values(), c.identity, compose)
    with pytest.raises(InvalidArtifactError, match="names 'zz' in its tables"):
        relabeled_opposite_equivalence(crooked)


def test_broken_functor_reported_before_comparisons():
    e = relabeled_opposite_equivalence(orbit())
    fwd = e.forward
    crooked_fwd = Functor(fwd.source, fwd.target, fwd.obj_map, {**fwd.mor_map, "f2": "f~"}, fwd.name)
    report = validate_equivalence(dataclasses.replace(e, forward=crooked_fwd))
    assert not report.ok
    assert "functor-composition" in rules_of(report)


# ---------------------------------------------------------------------------
# the powerset demo

POWERSET_HOM_PROFILE = [1, 1, 2, 4]


def test_powerset_demo_frozen_shape():
    dual = powerset_duality_demo()
    sets, algs = dual.source, dual.dual
    assert sets.objects == ("set1", "set12")
    assert algs.objects == ("alg1", "alg12")
    assert len(sets.morphisms) == 8
    assert len(algs.morphisms) == 8
    for cat in (sets, algs):
        assert validate_category(cat).ok
        profile = sorted(
            len(cat.hom(a, b)) for a in cat.objects for b in cat.objects
        )
        assert profile == POWERSET_HOM_PROFILE


# sha256 of the demo's tables as recorded before its categories were built
# by one finite-map builder: both categories' morphisms, identities and
# entries, both functors' maps and both comparisons' components
POWERSET_DEMO_DIGEST = "8a34703758e2aa6a31b9fd48f34a14735bf732182c4534e7fc479bd91b54ed80"


def test_powerset_demo_tables_are_pinned():
    e = powerset_duality_demo()
    parts = [
        (cat.name, cat.objects, tuple(cat.morphisms.values()),
         tuple(cat.identity.items()), tuple(cat.entries()))
        for cat in (e.source, e.dual)
    ]
    parts += [
        (F.name, tuple(sorted(F.obj_map.items())), tuple(sorted(F.mor_map.items())))
        for F in (e.forward, e.backward)
    ]
    parts += [(nat.name, tuple(sorted(nat.components.items()))) for nat in (e.theta, e.theta_bar)]
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == POWERSET_DEMO_DIGEST


def test_powerset_demo_equivalence_is_valid():
    e = powerset_duality_demo()
    assert validate_equivalence(e).ok
    assert e.source == e.backward.target
    assert e.dual == e.backward.source
    # preimage reverses functions, so hom sizes transpose across the duality
    assert len(e.source.hom("set1", "set12")) == len(
        e.dual.hom("alg12", "alg1")
    )


# ---------------------------------------------------------------------------
# induced structure


def test_identity_structure_transports_to_identity():
    c = orbit()
    e = relabeled_opposite_equivalence(c)
    r = transport_pair(e, identity_datum(c, MONAD), identity_datum(c, COMONAD))
    assert r.induced_comonad.functor == identity_functor(e.dual)
    assert r.induced_monad.functor == identity_functor(e.dual)
    assert check_idempotent(r.induced_comonad).ok
    assert check_idempotent(r.induced_monad).ok
    report = verify_transfer(identity_datum(c, MONAD), identity_datum(c, COMONAD), r)
    assert report.ok
    assert report.notes == ()


def test_c2_transport_across_relabeling(c2_total, c2_monad, c2_comonad):
    e = relabeled_opposite_equivalence(c2_total.total)
    r = transport_pair(e, c2_monad, c2_comonad)
    assert check_idempotent(r.induced_comonad).ok
    assert check_idempotent(r.induced_monad).ok
    # monads become comonads under a contravariant functor: tops turn
    # into bottoms of the relabeled opposite and vice versa
    assert fixed_subcategory(r.induced_comonad).subcategory.objects == (
        "b0|top0~",
        "b1|top1~",
    )
    assert fixed_subcategory(r.induced_monad).subcategory.objects == (
        "b0|bot0~",
        "b1|bot1~",
    )
    report = verify_transfer(c2_monad, c2_comonad, r)
    assert report.ok
    assert report.notes == ()


def non_strict_equivalence() -> ContravariantEquivalence:
    """The one-object category C = {*} against the indiscrete category D on
    u and v, with i: v -> u and j: u -> v.  F sends * to u and G sends
    everything to *, so the round trip F.G sends v to u and the comparison
    theta has the non-identity component i at v."""
    c = Category("point", ["*"], [Mor("1", "*", "*")], {"*": "1"}, {("1", "1"): "1"})
    ends = {"a": ("u", "u"), "b": ("v", "v"), "i": ("v", "u"), "j": ("u", "v")}
    by_ends = {e: m for m, e in ends.items()}
    d = Category(
        "indiscrete",
        ["u", "v"],
        [Mor(m, s, t) for m, (s, t) in ends.items()],
        {"u": "a", "v": "b"},
        {
            (g, f): by_ends[(ends[f][0], ends[g][1])]
            for g in ends
            for f in ends
            if ends[g][0] == ends[f][1]
        },
    )
    forward = Functor(c, d, {"*": "u"}, {"1": "a"}, name="F")
    backward = Functor(d, c, {"u": "*", "v": "*"}, {m: "1" for m in ends}, name="G")
    theta = NaturalTransformation(
        identity_functor(d), compose_functors(forward, backward), {"u": "a", "v": "i"}
    )
    theta_bar = NaturalTransformation(
        identity_functor(c), compose_functors(backward, forward), {"*": "1"}
    )
    return ContravariantEquivalence(forward, backward, theta, theta_bar)


def test_transport_reads_theta():
    # every other equivalence here has identity comparisons, so only this
    # one shows induce using theta in both (co)unit formulas
    e = non_strict_equivalence()
    assert validate_equivalence(e).ok
    c = e.source
    monad, comonad = identity_datum(c, MONAD), identity_datum(c, COMONAD)
    r = transport_pair(e, monad, comonad)
    assert r.induced_monad.unit.components == {"u": "a", "v": "i"}
    assert r.induced_comonad.unit.components == {"u": "a", "v": "j"}
    assert verify_transfer(monad, comonad, r).ok
    pair = make_mn_pair(r.induced_monad, r.induced_comonad)
    assert check_mn_hypotheses(pair).ok
    assert pair.reflection.subcategory.objects == ("u", "v")
    assert pair.coreflection.subcategory.objects == ("u", "v")


def test_collapse_monad_transports_across_powerset_duality(monkeypatch):
    e = powerset_duality_demo()
    m = collapse_monad(e.source)
    c = identity_datum(e.source, COMONAD)
    r = transport_pair(e, m, c)
    assert check_idempotent(r.induced_comonad).ok
    assert fixed_subcategory(r.induced_comonad).subcategory.objects == (
        "alg1",
    )
    built = []
    spy(monkeypatch, catmn.functors, "left_components", built)
    report = verify_transfer(m, c, r)
    assert report.ok
    assert report.notes == (
        "comonad-of-unit is not a natural isomorphism on the source; "
        "its transfer implication is vacuous",
    )
    # N(psi), then T(epsilon) on the dual side, then M(eta): the failed
    # antecedent builds no table of S(delta)
    assert [functor for functor, _ in built] == [
        m.functor.name, r.induced_comonad.functor.name, c.functor.name
    ]


def test_induce_rejects_foreign_monad():
    e = relabeled_opposite_equivalence(orbit())
    with pytest.raises(MismatchError, match="equivalence source"):
        induce(e, identity_datum(three_chain(), MONAD))


def test_induce_rejects_non_idempotent_monad():
    e = relabeled_opposite_equivalence(three_chain())
    with pytest.raises(InvalidArtifactError, match="idempotent monad"):
        induce(e, successor_monad())


def test_induce_rejects_invalid_equivalence():
    e = relabeled_opposite_equivalence(orbit())
    crooked = dataclasses.replace(e, theta=e.theta_bar)
    with pytest.raises(InvalidArtifactError, match="invalid contravariant"):
        induce(crooked, identity_datum(orbit(), COMONAD))


def test_transport_rejects_a_datum_of_the_wrong_side():
    c = orbit()
    e = relabeled_opposite_equivalence(c)
    monad, comonad = identity_datum(c, MONAD), identity_datum(c, COMONAD)
    r = transport_pair(e, monad, comonad)
    for m, w, expected in ((comonad, monad, "a monad"), (monad, monad, "a comonad")):
        with pytest.raises(MismatchError, match=f"expected {expected}, got"):
            transport_pair(e, m, w)
        with pytest.raises(MismatchError, match=f"expected {expected}, got"):
            verify_transfer(m, w, r)


# ---------------------------------------------------------------------------
# each fact is proved once per value


def test_checked_values_still_reject_crooked_copies():
    c = orbit()
    e = relabeled_opposite_equivalence(c)
    monad, comonad = identity_datum(c, MONAD), identity_datum(c, COMONAD)
    assert validate_equivalence(e) is validate_equivalence(e)
    assert check_idempotent(monad) is check_idempotent(monad)
    assert check_idempotent(comonad).ok
    transport_pair(e, monad, comonad)

    # a component at a that leaves a is mistyped, so neither copy is valid
    bent = {"a": "f", "b": "id_b"}
    crooked_monad = dataclasses.replace(
        monad,
        unit=NaturalTransformation(monad.unit.source_functor, monad.functor, bent),
    )
    crooked_comonad = dataclasses.replace(
        comonad,
        unit=NaturalTransformation(comonad.functor, comonad.unit.target_functor, bent),
    )
    with pytest.raises(InvalidArtifactError, match="idempotent monad"):
        induce(e, crooked_monad)
    with pytest.raises(InvalidArtifactError, match="idempotent comonad"):
        induce(e, crooked_comonad)
    crooked = dataclasses.replace(e, theta=e.theta_bar)
    with pytest.raises(InvalidArtifactError, match="invalid contravariant"):
        induce(crooked, monad)
    assert validate_equivalence(e).ok

    pair = make_mn_pair(monad, comonad)
    assert check_mn_hypotheses(pair) is check_mn_hypotheses(pair)
    assert check_mn_hypotheses(pair).ok
    crooked_pair = dataclasses.replace(pair, monad=crooked_monad)
    assert not check_mn_hypotheses(crooked_pair).ok
    assert check_mn_hypotheses(pair).ok


def _transport_c2(tmp_path, capsys):
    spec = tmp_path / "c2.cm"
    spec.write_text(render_spec(canonical_c2()))
    assert main(["transport", str(spec)]) == 0
    assert "result: PASS" in capsys.readouterr().out


def test_transport_proves_each_functor_once(tmp_path, monkeypatch, capsys):
    checked = []
    spy(monkeypatch, catmn.functors, "validate_functor", checked)
    spy(monkeypatch, catmn.functors, "validate_contravariant", checked)
    _transport_c2(tmp_path, capsys)
    # the duality's two directions, the source (co)monad and the induced
    # (co)monad: each proved once, although the pipeline asks for the
    # equivalence three times and for every (co)monad twice
    assert sorted(checked) == [
        ("fiber-bottom-comonad", "validate_functor"),
        ("fiber-top-monad", "validate_functor"),
        ("induced[fiber-bottom-comonad]", "validate_functor"),
        ("induced[fiber-top-monad]", "validate_functor"),
        ("relabel", "validate_contravariant"),
        ("unrelabel", "validate_contravariant"),
    ]


def test_transport_builds_no_opposite(tmp_path, monkeypatch, capsys):
    built = []
    spy(monkeypatch, catmn.core, "opposite", built)
    _transport_c2(tmp_path, capsys)
    assert built == []
