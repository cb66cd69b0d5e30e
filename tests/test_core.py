"""Category construction, axiom validation, and the small derived helpers."""

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catmn import (
    Category,
    InvalidArtifactError,
    MismatchError,
    Mor,
    SizeLimitError,
    UnknownMorphismError,
    UnknownObjectError,
    build_total_category,
    full_subcategory,
    inverse_of,
    load_path,
    morphism_limit,
    opposite,
    random_spec,
    validate_category,
    validate_functor,
)
from helpers import idem_endo, orbit, parallel_pair, three_chain, walking_arrow


def brute_assoc_failures(c):
    """Oracle: every (h, g, f) whose two bracketings disagree, skipping
    triples whose inner composites are missing (those are totality
    problems, reported under their own rule)."""
    bad = set()
    names = sorted(c.morphisms)
    for f in names:
        mf = c.morphisms[f]
        for g in names:
            mg = c.morphisms[g]
            if mg.src != mf.dst:
                continue
            gf = c.compose.get((g, f))
            if gf not in c.morphisms:
                continue
            for h in names:
                mh = c.morphisms[h]
                if mh.src != mg.dst:
                    continue
                hg = c.compose.get((h, g))
                if hg not in c.morphisms:
                    continue
                if c.compose.get((h, gf)) != c.compose.get((hg, f)):
                    bad.add((h, g, f))
    return bad


def rules_of(report):
    return {v.rule for v in report.violations}


# ---------------------------------------------------------------------------
# construction guards


def test_gadget_categories_are_valid():
    for build in (walking_arrow, parallel_pair, orbit, idem_endo, three_chain):
        report = validate_category(build())
        assert report.ok, f"{build.__name__}: {report.render()}"


def test_duplicate_object_names_rejected():
    with pytest.raises(InvalidArtifactError, match="duplicate object"):
        Category("dup", ["a", "a"], [Mor("id_a", "a", "a")], {"a": "id_a"}, {})


def test_duplicate_morphism_names_rejected():
    with pytest.raises(InvalidArtifactError, match="duplicate morphism"):
        Category(
            "dup",
            ["a"],
            [Mor("id_a", "a", "a"), Mor("id_a", "a", "a")],
            {"a": "id_a"},
            {},
        )


def test_morphism_limit_guard(monkeypatch):
    monkeypatch.setenv("CATMN_MAX_MORPHISMS", "2")
    with pytest.raises(SizeLimitError, match="over the"):
        walking_arrow()  # 3 morphisms
    monkeypatch.setenv("CATMN_MAX_MORPHISMS", "3")
    walking_arrow()


def test_composable_pair_guard(monkeypatch):
    # one object and n endomorphisms make n * n composable pairs; the bound
    # is 64 times the morphism limit, inclusive
    def loops(n):
        return Category("dense", ["x"], [Mor(f"m{i}", "x", "x") for i in range(n)], {})

    monkeypatch.setenv("CATMN_MAX_MORPHISMS", "65")
    assert len(loops(64).compose) == 0
    with pytest.raises(SizeLimitError) as exc:
        loops(65)
    assert str(exc.value) == (
        "category 'dense' has 4225 composable pairs, over the limit of 4160 "
        "(64 times the morphism limit; set CATMN_MAX_MORPHISMS to override)"
    )


def test_bad_environment_values_rejected(monkeypatch):
    monkeypatch.setenv("CATMN_MAX_MORPHISMS", "many")
    with pytest.raises(SizeLimitError):
        morphism_limit()
    monkeypatch.setenv("CATMN_MAX_MORPHISMS", "-1")
    with pytest.raises(SizeLimitError, match="must be positive"):
        morphism_limit()


# ---------------------------------------------------------------------------
# lookups


def test_lookup_errors():
    c = walking_arrow()
    with pytest.raises(UnknownObjectError):
        c.require_object("zz")
    with pytest.raises(UnknownMorphismError):
        c.mor("zz")
    with pytest.raises(UnknownObjectError):
        c.id_of("zz")
    with pytest.raises(MismatchError, match="not composable"):
        c.comp("f", "id_b")  # id_b ends where f starts, not the other way
    assert c.comp("id_b", "f") == "f"
    assert c.comp_or_none("f", "id_b") is None


def test_comp_reports_missing_table_entry():
    c = walking_arrow()
    broken = Category(
        "partial",
        c.objects,
        list(c.morphisms.values()),
        c.identity,
        {k: v for k, v in c.compose.items() if k != ("id_b", "f")},
    )
    with pytest.raises(MismatchError, match="no table entry"):
        broken.comp("id_b", "f")


def test_identity_name_recognition():
    c = orbit()
    assert c.is_identity_name("id_b")
    assert not c.is_identity_name("e")  # endo but not the identity
    assert not c.is_identity_name("zz")


def test_category_equality_ignores_name():
    c = walking_arrow()
    d = Category(
        "other-name", c.objects, list(c.morphisms.values()), c.identity, c.compose
    )
    assert c == d
    with pytest.raises(TypeError):
        hash(c)


# ---------------------------------------------------------------------------
# axiom validation, rule by rule


def test_morphism_endpoints_rule():
    c = Category(
        "bad", ["a"], [Mor("id_a", "a", "a"), Mor("f", "a", "zz")], {"a": "id_a"}, {}
    )
    report = validate_category(c)
    assert "morphism-endpoints" in rules_of(report)
    assert "'zz'" in report.render()


def test_identity_rules():
    mors = [Mor("id_a", "a", "a"), Mor("f", "a", "b"), Mor("id_b", "b", "b")]
    missing = Category("bad", ["a", "b"], mors, {"a": "id_a"}, {})
    assert "identity-missing" in rules_of(validate_category(missing))

    unknown = Category("bad", ["a", "b"], mors, {"a": "id_a", "b": "zz"}, {})
    assert "identity-unknown" in rules_of(validate_category(unknown))

    crooked = Category("bad", ["a", "b"], mors, {"a": "id_a", "b": "f"}, {})
    assert "identity-endpoints" in rules_of(validate_category(crooked))

    extra = Category(
        "bad", ["a", "b"], mors, {"a": "id_a", "b": "id_b", "zz": "id_a"}, {}
    )
    assert "identity-extra" in rules_of(validate_category(extra))


def test_compose_table_rules():
    base = walking_arrow()
    mors = list(base.morphisms.values())

    unknown = Category(
        "bad", base.objects, mors, base.identity, {**base.compose, ("zz", "id_a"): "f"}
    )
    assert "compose-unknown" in rules_of(validate_category(unknown))

    ill_typed = Category(
        "bad", base.objects, mors, base.identity, {**base.compose, ("f", "id_b"): "f"}
    )
    assert "compose-ill-typed-pair" in rules_of(validate_category(ill_typed))

    unknown_result = Category(
        "bad",
        base.objects,
        mors,
        base.identity,
        {**base.compose, ("id_b", "id_b"): "zz"},
    )
    report = validate_category(unknown_result)
    assert "compose-unknown-result" in rules_of(report)

    bad_endpoints = Category(
        "bad",
        base.objects,
        mors,
        base.identity,
        {**base.compose, ("id_b", "f"): "id_a"},
    )
    assert "compose-endpoints" in rules_of(validate_category(bad_endpoints))

    missing = Category(
        "bad",
        base.objects,
        mors,
        base.identity,
        {k: v for k, v in base.compose.items() if k != ("id_b", "f")},
    )
    report = validate_category(missing)
    assert "compose-missing" in rules_of(report)
    assert ("id_b", "f") in {v.subject for v in report.violations}


def test_identity_law_rule():
    base = parallel_pair()
    # the table is total and well typed, but u after id_s comes out as v
    broken = Category(
        "bad",
        base.objects,
        list(base.morphisms.values()),
        base.identity,
        {**base.compose, ("u", "id_s"): "v"},
    )
    report = validate_category(broken)
    assert "identity-law" in rules_of(report)
    assert ("u", "id_s") in {v.subject for v in report.violations}


def one_object_nonassociative():
    return Category(
        "nonassoc",
        ["x"],
        [Mor("id_x", "x", "x"), Mor("a", "x", "x"), Mor("b", "x", "x")],
        {"x": "id_x"},
        {
            ("id_x", "id_x"): "id_x",
            ("a", "id_x"): "a",
            ("id_x", "a"): "a",
            ("b", "id_x"): "b",
            ("id_x", "b"): "b",
            ("a", "a"): "b",
            ("a", "b"): "b",
            ("b", "a"): "id_x",
            ("b", "b"): "b",
        },
    )


def test_associativity_rule_matches_brute_force():
    c = one_object_nonassociative()
    report = validate_category(c)
    reported = {v.subject for v in report.violations if v.rule == "associativity"}
    assert reported == brute_assoc_failures(c)
    # hand-checked witness: a(aa) = ab = b while (aa)a = ba = id_x
    assert ("a", "a", "a") in reported


def test_associativity_rule_on_clean_categories():
    for build in (orbit, three_chain, idem_endo):
        c = build()
        assert brute_assoc_failures(c) == set()
        assert "associativity" not in rules_of(validate_category(c))


# ---------------------------------------------------------------------------
# the name-level readers against the plain table

CORRUPTED = Path(__file__).parent / "fixtures" / "corrupted"


def with_table(c, table):
    return Category(c.name, c.objects, list(c.morphisms.values()), c.identity, table)


def differential_categories():
    """orbit, the non-associative table and every category of the corrupted
    corpus (a spec by its base), each followed by equal copies built two
    other ways and by copies whose table differs in one entry: dropped,
    redirected, or added under a name of no morphism."""
    bases = [orbit(), one_object_nonassociative()]
    for path in sorted(CORRUPTED.iterdir()):
        for a in load_path(path):
            if a.kind in ("category", "spec"):
                bases.append(a.value if a.kind == "category" else a.value.base)
    cats = []
    for c in bases:
        table = dict(c.compose)
        (g, f), h = next(iter(table.items()))
        other = next(m for m in c.morphisms if m != h)
        cats += [
            c,
            with_table(c, table),
            opposite(opposite(c)),
            with_table(c, {k: v for k, v in table.items() if k != (g, f)}),
            with_table(c, {**table, (g, f): other}),
            with_table(c, {**table, ("zz", f): h}),
        ]
    return cats


def test_comp_or_none_reads_the_compose_view():
    for c in differential_categories():
        table = dict(c.compose)
        names = {"zz", *c.objects, *c.morphisms, *(x for pair in table for x in pair)}
        for g in names:
            for f in names:
                assert c.comp_or_none(g, f) == table.get((g, f)), (c.name, g, f)


def test_category_equality_agrees_with_the_tables():
    cats = differential_categories()
    plain = [(c.objects, c.morphisms, c.identity, dict(c.compose)) for c in cats]
    for a, plain_a in zip(cats, plain):
        for b, plain_b in zip(cats, plain):
            assert (a == b) is (plain_a == plain_b), (a.name, b.name)


# ---------------------------------------------------------------------------
# derived helpers


def test_hom_set_sorted_and_guarded():
    c = orbit()
    assert c.hom("a", "b") == ("f", "f2")
    assert c.hom("b", "a") == ()
    with pytest.raises(UnknownObjectError):
        c.require_object("zz")


def test_inverse_and_isomorphism():
    c = orbit()
    assert inverse_of(c, "e") == "e"  # involution
    assert inverse_of(c, "f") is None
    assert inverse_of(c, "id_a") == "id_a"
    assert inverse_of(c, "f2") is None
    d = idem_endo()
    assert inverse_of(d, "e") is None  # idempotent but not invertible


def test_opposite_is_an_involution():
    for build in (walking_arrow, orbit, three_chain):
        c = build()
        op = opposite(c)
        assert validate_category(op).ok
        assert op.hom("b", "a") if c.hom("a", "b") else True
        assert opposite(op) == c


def test_opposite_swaps_hom_sets():
    c = orbit()
    op = opposite(c)
    assert op.hom("b", "a") == ("f", "f2")
    assert op.hom("a", "b") == ()


def test_full_subcategory_keeps_hom_sets():
    c = orbit()
    sub, inclusion = full_subcategory(c, ["b"])
    assert sub.objects == ("b",)
    assert sorted(sub.morphisms) == ["e", "id_b"]
    assert validate_category(sub).ok
    assert validate_functor(inclusion).ok
    with pytest.raises(UnknownObjectError):
        full_subcategory(c, ["zz"])


# ---------------------------------------------------------------------------
# generated corpus properties


@given(st.integers(min_value=0, max_value=10**6))
def test_random_total_categories_satisfy_axioms(seed):
    t = build_total_category(random_spec(seed))
    report = validate_category(t.total)
    assert report.ok, report.render()
    assert brute_assoc_failures(t.total) == set()
    assert opposite(opposite(t.total)) == t.total
