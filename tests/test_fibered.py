"""Fibered specs: posets, validation rules, the total category, the two
extremal (co)monad builders, and the seeded random generator."""

import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from catmn import (
    COMONAD,
    Category,
    ExtremumError,
    FiberPoset,
    FiberedSpec,
    Functor,
    InvalidArtifactError,
    LiftError,
    Mor,
    SizeLimitError,
    SizeLimits,
    TotalCategory,
    ValidationReport,
    build_final_monad,
    build_total_category,
    canonical_c2,
    chain_poset,
    check_idempotent,
    poset_from_pairs,
    random_spec,
    terminal_spec,
    validate_category,
    validate_functor,
    validate_spec,
)
from helpers import (
    collapsed,
    extension_report,
    fiber_objects,
    linear_extension_by_rescan,
    three_chain,
)


def rules_of(report):
    return {v.rule for v in report.violations}


def subjects_of(report, rule):
    return {v.subject for v in report.violations if v.rule == rule}


# ---------------------------------------------------------------------------
# posets


def test_chain_poset():
    p = chain_poset(["bot", "mid", "top"])
    assert p.elements == ("bot", "mid", "top")
    assert p.bottom == "bot" and p.top == "top"
    assert ("bot", "top") in p.leq and ("top", "bot") not in p.leq
    assert p.linear_extension() == ["bot", "mid", "top"]


def test_diamond_linear_extension():
    p = poset_from_pairs(
        ["m", "x", "y", "t"], [("m", "x"), ("m", "y"), ("x", "t"), ("y", "t")], "m", "t"
    )
    assert p.linear_extension() == ["m", "x", "y", "t"]
    assert ("m", "t") in p.leq
    assert ("x", "y") not in p.leq and ("y", "x") not in p.leq


def test_linear_extension_matches_the_rescan_on_random_relations():
    # raw relations, not closed: cycles, missing reflexive pairs and names
    # outside the elements included
    for seed in range(400):
        rng = random.Random(seed)
        names = [f"k{i}" for i in range(rng.randint(1, 9))]
        pool = names + ["zz"]
        leq = frozenset(
            (rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 24))
        )
        p = FiberPoset(tuple(rng.sample(names, len(names))), leq, names[0], names[-1])
        assert p.linear_extension() == linear_extension_by_rescan(p), seed
        closed = poset_from_pairs(names, leq, names[0], names[-1])
        assert closed.linear_extension() == linear_extension_by_rescan(closed), seed


def test_pairs_outside_elements_are_dropped():
    p = poset_from_pairs(["a", "b"], [("a", "zz"), ("zz", "b")], "a", "b")
    assert ("a", "zz") not in p.leq
    assert ("a", "a") in p.leq and ("b", "b") in p.leq


SIX = ["k0", "k1", "k2", "k3", "k4", "k5"]


@given(
    st.lists(
        st.tuples(st.sampled_from(SIX), st.sampled_from(SIX)),
        max_size=18,
    )
)
def test_poset_from_pairs_is_closed(pairs):
    p = poset_from_pairs(SIX, pairs, "k0", "k5")
    for x in SIX:
        assert (x, x) in p.leq
    for a, b in p.leq:
        for c in SIX:
            if (b, c) in p.leq:
                assert (a, c) in p.leq
    for a, b in pairs:
        assert (a, b) in p.leq
    # and nothing more: leq is the Warshall closure of the pairs, cycles too
    reach = {(a, b) for a in SIX for b in SIX if a == b or (a, b) in pairs}
    for k in SIX:
        reach |= {(a, b) for a, b2 in reach if b2 == k for k2, b in reach if k2 == k}
    assert p.leq == reach


# ---------------------------------------------------------------------------
# spec validation


def test_shipped_specs_validate():
    assert validate_spec(canonical_c2()).ok
    assert validate_spec(terminal_spec()).ok


def spec_with(**changes):
    return dataclasses.replace(canonical_c2(), **changes)


def test_fiber_missing_rule():
    s = canonical_c2()
    report = validate_spec(spec_with(fibers={"b0": s.fibers["b0"]}))
    assert rules_of(report) == {"fiber-missing"}
    assert subjects_of(report, "fiber-missing") == {("b1",)}


def test_fiber_unknown_base_rule():
    s = canonical_c2()
    report = validate_spec(
        spec_with(fibers={**s.fibers, "zz": chain_poset(["w"])})
    )
    assert rules_of(report) == {"fiber-unknown-base"}
    assert subjects_of(report, "fiber-unknown-base") == {("zz",)}


def test_fiber_extremum_unknown_rule():
    s = canonical_c2()
    crooked = dataclasses.replace(s.fibers["b1"], bottom="zz")
    report = validate_spec(spec_with(fibers={**s.fibers, "b1": crooked}))
    assert rules_of(report) == {"fiber-extremum-unknown"}
    assert subjects_of(report, "fiber-extremum-unknown") == {("b1", "zz")}


def test_fiber_order_domain_rule():
    s = canonical_c2()
    p = s.fibers["b1"]
    crooked = dataclasses.replace(p, leq=frozenset(p.leq | {("bot1", "zz")}))
    report = validate_spec(spec_with(fibers={**s.fibers, "b1": crooked}))
    assert rules_of(report) == {"fiber-order-domain"}
    assert subjects_of(report, "fiber-order-domain") == {("b1", "bot1", "zz")}


def test_fiber_order_reflexive_rule():
    s = canonical_c2()
    p = s.fibers["b1"]
    crooked = dataclasses.replace(p, leq=frozenset(p.leq - {("top1", "top1")}))
    report = validate_spec(spec_with(fibers={**s.fibers, "b1": crooked}))
    assert "fiber-order-reflexive" in rules_of(report)
    assert subjects_of(report, "fiber-order-reflexive") == {("b1", "top1")}


def test_fiber_order_transitive_rule():
    s = canonical_c2()
    p = s.fibers["b0"]
    crooked = dataclasses.replace(p, leq=frozenset(p.leq - {("bot0", "top0")}))
    report = validate_spec(spec_with(fibers={**s.fibers, "b0": crooked}))
    assert "fiber-order-transitive" in rules_of(report)
    assert subjects_of(report, "fiber-order-transitive") == {
        ("b0", "bot0", "mid0", "top0")
    }


def test_fiber_order_cycle_rule():
    s = canonical_c2()
    p = s.fibers["b1"]
    crooked = dataclasses.replace(p, leq=frozenset(p.leq | {("top1", "bot1")}))
    report = validate_spec(spec_with(fibers={**s.fibers, "b1": crooked}))
    assert rules_of(report) == {"fiber-order-cycle"}
    assert ("b1", "bot1", "top1") in subjects_of(report, "fiber-order-cycle")


def test_fiber_bottom_rule():
    s = canonical_c2()
    vee = poset_from_pairs(["p", "q", "t"], [("p", "t"), ("q", "t")], "p", "t")
    actions = {
        **s.actions,
        "id_b1": {k: k for k in ("p", "q", "t")},
        "f": {"bot0": "p", "mid0": "p", "top0": "t"},
    }
    report = validate_spec(
        spec_with(fibers={**s.fibers, "b1": vee}, actions=actions)
    )
    assert rules_of(report) == {"fiber-bottom"}
    assert subjects_of(report, "fiber-bottom") == {("b1", "q")}


def test_fiber_top_rule():
    s = canonical_c2()
    wedge = poset_from_pairs(["m", "x", "y"], [("m", "x"), ("m", "y")], "m", "x")
    actions = {
        **s.actions,
        "id_b1": {k: k for k in ("m", "x", "y")},
        "f": {"bot0": "m", "mid0": "m", "top0": "m"},
    }
    report = validate_spec(
        spec_with(fibers={**s.fibers, "b1": wedge}, actions=actions)
    )
    assert rules_of(report) == {"fiber-top"}
    assert subjects_of(report, "fiber-top") == {("b1", "y")}
    assert "designated top 'x' is not above 'y'" in report.render()


def test_action_missing_rule():
    s = canonical_c2()
    actions = {k: v for k, v in s.actions.items() if k != "f"}
    report = validate_spec(spec_with(actions=actions))
    assert rules_of(report) == {"action-missing"}
    assert subjects_of(report, "action-missing") == {("f",)}


def test_action_unknown_morphism_rule():
    s = canonical_c2()
    report = validate_spec(spec_with(actions={**s.actions, "g": {}}))
    assert rules_of(report) == {"action-unknown-morphism"}
    assert subjects_of(report, "action-unknown-morphism") == {("g",)}


def test_action_partial_rule():
    s = canonical_c2()
    act = {k: v for k, v in s.actions["f"].items() if k != "mid0"}
    report = validate_spec(spec_with(actions={**s.actions, "f": act}))
    assert rules_of(report) == {"action-partial"}
    assert subjects_of(report, "action-partial") == {("f", "mid0")}


def test_action_extra_rule():
    s = canonical_c2()
    act = {**s.actions["f"], "zz": "bot1"}
    report = validate_spec(spec_with(actions={**s.actions, "f": act}))
    assert rules_of(report) == {"action-extra"}
    assert subjects_of(report, "action-extra") == {("f", "zz")}


def test_action_image_rule():
    s = canonical_c2()
    act = {**s.actions["f"], "bot0": "zz"}
    report = validate_spec(spec_with(actions={**s.actions, "f": act}))
    assert rules_of(report) == {"action-image"}
    assert subjects_of(report, "action-image") == {("f", "bot0")}


def test_action_identity_rule():
    s = canonical_c2()
    act = {**s.actions["id_b0"], "mid0": "top0"}
    report = validate_spec(spec_with(actions={**s.actions, "id_b0": act}))
    # acting by f no longer agrees with acting by f o id_b0, so the
    # functoriality sweep fires alongside the identity rule
    assert rules_of(report) == {"action-identity", "action-functorial"}
    assert subjects_of(report, "action-identity") == {("id_b0", "mid0")}


def test_action_monotone_rule():
    s = canonical_c2()
    act = {"bot0": "top1", "mid0": "bot1", "top0": "top1"}
    report = validate_spec(spec_with(actions={**s.actions, "f": act}))
    assert rules_of(report) == {"action-monotone"}
    assert subjects_of(report, "action-monotone") == {("f", "bot0", "mid0")}
    assert "'bot0' <= 'mid0' but 'top1' <= 'bot1' fails" in report.render()


def chain_over_chain_spec():
    """Three-object thin base with 2-chain fibers; the a02 action disagrees
    with acting in stages, breaking functoriality at q0."""
    base = three_chain()
    fibers = {
        "x0": chain_poset(["p0", "q0"]),
        "x1": chain_poset(["p1", "q1"]),
        "x2": chain_poset(["p2", "q2"]),
    }
    actions = {
        "id_x0": {"p0": "p0", "q0": "q0"},
        "id_x1": {"p1": "p1", "q1": "q1"},
        "id_x2": {"p2": "p2", "q2": "q2"},
        "a01": {"p0": "p1", "q0": "q1"},
        "a12": {"p1": "p2", "q1": "q2"},
        "a02": {"p0": "p2", "q0": "p2"},
    }
    return FiberedSpec("chain-over-chain", base, fibers, actions)


def test_action_functorial_rule():
    report = validate_spec(chain_over_chain_spec())
    assert rules_of(report) == {"action-functorial"}
    assert subjects_of(report, "action-functorial") == {("a12", "a01", "q0")}


# ---------------------------------------------------------------------------
# the total category

C2_MORPHISMS = {
    "id_b0|bot0|bot0",
    "id_b0|mid0|mid0",
    "id_b0|top0|top0",
    "id_b1|bot1|bot1",
    "id_b1|top1|top1",
    "id_b0|bot0|mid0",
    "id_b0|bot0|top0",
    "id_b0|mid0|top0",
    "id_b1|bot1|top1",
    "f|bot0|bot1",
    "f|bot0|top1",
    "f|mid0|bot1",
    "f|mid0|top1",
    "f|top0|top1",
}


def test_c2_total_category_frozen_shape(c2_total):
    t = c2_total
    assert t.total.objects == (
        "b0|bot0",
        "b0|mid0",
        "b0|top0",
        "b1|bot1",
        "b1|top1",
    )
    assert set(t.total.morphisms) == C2_MORPHISMS
    assert len(t.total.morphisms) == 14
    assert validate_category(t.total).ok
    assert t.object_decoding["b0|mid0"] == ("b0", "mid0")


def test_c2_projection(c2_total):
    t = c2_total
    assert validate_functor(t.projection).ok
    assert t.projection.on_obj("b1|top1") == "b1"
    assert t.projection.on_mor("f|bot0|top1") == "f"
    assert t.projection.on_mor("id_b0|bot0|top0") == "id_b0"


def test_fiber_queries(c2_spec, c2_total, c2_monad, c2_comonad):
    t = c2_total
    assert fiber_objects(t, "b0") == ["b0|bot0", "b0|mid0", "b0|top0"]
    assert fiber_objects(t, "b1") == ["b1|bot1", "b1|top1"]
    assert fiber_objects(t, "nowhere") == []
    # each fiber collapses onto the top and the bottom the spec declares
    for b, fiber in c2_spec.fibers.items():
        objs = fiber_objects(t, b)
        assert {c2_monad.functor.on_obj(x) for x in objs} == {f"{b}|{fiber.top}"}
        assert {c2_comonad.functor.on_obj(x) for x in objs} == {f"{b}|{fiber.bottom}"}


def test_terminal_spec_total_is_terminal():
    t = build_total_category(terminal_spec())
    assert t.total.objects == ("b0|k0",)
    assert len(t.total.morphisms) == 1


def test_build_rejects_invalid_spec():
    s = canonical_c2()
    crooked = dataclasses.replace(
        s, actions={**s.actions, "f": {**s.actions["f"], "bot0": "zz"}}
    )
    with pytest.raises(InvalidArtifactError, match="invalid fibered spec") as exc:
        build_total_category(crooked)
    assert "action-image" in rules_of(exc.value.report)


def test_build_rejects_name_collisions():
    base = Category(
        "cbase",
        ["a", "a|p"],
        [Mor("id_a", "a", "a"), Mor("id_ap", "a|p", "a|p")],
        {"a": "id_a", "a|p": "id_ap"},
        {("id_a", "id_a"): "id_a", ("id_ap", "id_ap"): "id_ap"},
    )
    fibers = {"a": chain_poset(["p|q"]), "a|p": chain_poset(["q"])}
    actions = {"id_a": {"p|q": "p|q"}, "id_ap": {"q": "q"}}
    spec = FiberedSpec("collide", base, fibers, actions)
    with pytest.raises(InvalidArtifactError, match="object name collision"):
        build_total_category(spec)


def test_build_reports_a_missing_composite_as_an_engine_error():
    # f is not monotone, so id(bot0 -> mid0) then f(mid0 -> bot1) has no
    # total morphism f|bot0|bot1 to compose to; the stored report skips
    # validate_spec, which would reject the spec first
    s = canonical_c2()
    crooked = dataclasses.replace(
        s, actions={**s.actions, "f": {"bot0": "top1", "mid0": "bot1", "top0": "bot1"}}
    )
    assert "action-monotone" in rules_of(validate_spec(crooked))
    crooked = dataclasses.replace(crooked)
    object.__setattr__(crooked, "_report", ValidationReport())
    with pytest.raises(InvalidArtifactError, match=r"\('f', 'bot0', 'bot1'\)"):
        build_total_category(crooked)


def test_build_respects_morphism_guardrail(monkeypatch):
    monkeypatch.setenv("CATMN_MAX_MORPHISMS", "10")
    with pytest.raises(SizeLimitError):
        build_total_category(canonical_c2())


# ---------------------------------------------------------------------------
# the extremal builders


def test_c2_monad_frozen_values(c2_monad):
    assert c2_monad.functor.obj_map == {
        "b0|bot0": "b0|top0",
        "b0|mid0": "b0|top0",
        "b0|top0": "b0|top0",
        "b1|bot1": "b1|top1",
        "b1|top1": "b1|top1",
    }
    assert c2_monad.unit.components["b0|bot0"] == "id_b0|bot0|top0"
    assert c2_monad.functor.on_mor("f|bot0|bot1") == "f|top0|top1"
    assert check_idempotent(c2_monad).ok


def test_c2_comonad_frozen_values(c2_comonad):
    assert c2_comonad.functor.obj_map == {
        "b0|bot0": "b0|bot0",
        "b0|mid0": "b0|bot0",
        "b0|top0": "b0|bot0",
        "b1|bot1": "b1|bot1",
        "b1|top1": "b1|bot1",
    }
    assert c2_comonad.unit.components["b0|top0"] == "id_b0|bot0|top0"
    assert c2_comonad.functor.on_mor("f|top0|top1") == "f|bot0|bot1"
    assert check_idempotent(c2_comonad).ok


def test_extension_property_clean_on_c2(c2_total):
    assert extension_report(c2_total).ok


def top_collapsing_c2():
    """Valid spec whose action does not preserve bottoms, so the initial
    comonad cannot exist although the final monad does."""
    s = canonical_c2()
    act = {"bot0": "top1", "mid0": "top1", "top0": "top1"}
    return dataclasses.replace(s, actions={**s.actions, "f": act})


def test_non_bottom_preserving_action_breaks_only_the_comonad():
    s = top_collapsing_c2()
    assert validate_spec(s).ok
    t = build_total_category(s)
    monad = build_final_monad(t)
    assert check_idempotent(monad).ok
    with pytest.raises(LiftError, match="expected exactly one lift"):
        collapsed(t, COMONAD)
    report = extension_report(t)
    assert rules_of(report) == {"extension-initial-lift"}
    assert subjects_of(report, "extension-initial-lift") == {
        ("f|bot0|top1",),
        ("f|mid0|top1",),
        ("f|top0|top1",),
    }


def antichain_total():
    """A hand-spliced total category whose single fiber is a two-element
    antichain.  No valid spec produces this (validation pins the designated
    extrema), so it is assembled directly to reach the builder errors."""
    base = Category(
        "pt",
        ["b0"],
        [Mor("id_b0", "b0", "b0")],
        {"b0": "id_b0"},
        {("id_b0", "id_b0"): "id_b0"},
    )
    total = Category(
        "antichain-total",
        ["b0|p", "b0|q"],
        [Mor("id_b0|p|p", "b0|p", "b0|p"), Mor("id_b0|q|q", "b0|q", "b0|q")],
        {"b0|p": "id_b0|p|p", "b0|q": "id_b0|q|q"},
        {
            ("id_b0|p|p", "id_b0|p|p"): "id_b0|p|p",
            ("id_b0|q|q", "id_b0|q|q"): "id_b0|q|q",
        },
    )
    projection = Functor(
        total,
        base,
        {"b0|p": "b0", "b0|q": "b0"},
        {"id_b0|p|p": "id_b0", "id_b0|q|q": "id_b0"},
        name="project(antichain)",
    )
    return TotalCategory(
        total, projection, {"b0|p": ("b0", "p"), "b0|q": ("b0", "q")}
    )


def test_extremum_error_from_builders():
    t = antichain_total()
    with pytest.raises(ExtremumError, match="no final object"):
        build_final_monad(t)
    with pytest.raises(ExtremumError, match="no initial object"):
        collapsed(t, COMONAD)
    ext = extension_report(t)
    assert rules_of(ext) == {"extension-no-final", "extension-no-initial"}
    assert subjects_of(ext, "extension-no-final") == {("b0",)}


# ---------------------------------------------------------------------------
# the random generator


def test_random_spec_is_deterministic():
    assert random_spec(7) == random_spec(7)
    assert random_spec(7) != random_spec(8)


def test_random_spec_rejects_unsatisfiable_limits():
    with pytest.raises(SizeLimitError, match="unsatisfiable"):
        random_spec(0, SizeLimits(max_base_objects=0))
    with pytest.raises(SizeLimitError, match="unsatisfiable"):
        random_spec(0, SizeLimits(max_fiber_elements=0))


@given(st.integers(0, 10**6))
def test_random_spec_respects_limits_and_validates(seed):
    limits = SizeLimits()
    s = random_spec(seed, limits)
    assert s.base.name == f"random-base-{seed}"
    assert len(s.base.objects) <= limits.max_base_objects
    nonid = [m for m in s.base.morphisms if m not in set(s.base.identity.values())]
    assert len(nonid) <= limits.max_base_morphisms
    assert set(s.fibers) == set(s.base.objects)
    assert set(s.actions) == set(s.base.morphisms)
    for p in s.fibers.values():
        assert len(p.elements) <= limits.max_fiber_elements
    assert validate_spec(s).ok
    assert random_spec(seed, limits) == s


def test_random_specs_build_and_extend():
    for seed in range(12):
        t = build_total_category(random_spec(seed))
        assert extension_report(t).ok
        monad = build_final_monad(t)
        comonad = collapsed(t, COMONAD)
        assert check_idempotent(monad).ok
        assert check_idempotent(comonad).ok
