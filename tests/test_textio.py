"""Text and JSON serialization: canonical rendering, the completion rules,
and parse errors."""

import importlib.resources
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import LINE_MUTATIONS, MUTATION_BASES, mutated

from catmn import (
    Category,
    EngineError,
    Functor,
    LoadedArtifact,
    Mor,
    NaturalTransformation,
    ParseError,
    SizeLimitError,
    ValidationReport,
    canonical_c2,
    identity_functor,
    load_path,
    load_text,
    parse_text,
    render_artifacts,
    render_category,
    render_json,
    render_spec,
    validate_category,
    validator_for,
)
from helpers import orbit, three_chain, walking_arrow


def twist():
    c = orbit()
    return Functor(
        c,
        c,
        {"a": "a", "b": "b"},
        {"id_a": "id_a", "id_b": "id_b", "e": "e", "f": "f2", "f2": "f"},
        name="twist",
    )


# ---------------------------------------------------------------------------
# canonical form and round trips


def test_shipped_spec_is_the_canonical_rendering():
    shipped = (
        importlib.resources.files("catmn")
        .joinpath("data/canonical_c2.spec")
        .read_bytes()
    )
    assert shipped == render_spec(canonical_c2()).encode()


def test_spec_round_trip():
    text = render_spec(canonical_c2())
    arts = parse_text(text)
    assert [(a.kind, a.name) for a in arts] == [("spec", "canonical_c2")]
    assert arts[0].value == canonical_c2()
    assert render_spec(arts[0].value) == text


def test_category_round_trip_and_omitted_entries():
    text = render_category(orbit())
    # the identity rule makes composites with identities derivable, so the
    # canonical form only spells out the genuinely informative entries
    assert "e o e = id_b" in text
    assert "e o f = f2" in text
    assert "f o id_a" not in text
    arts = parse_text(text)
    assert arts[0].value == orbit()
    assert render_category(arts[0].value) == text


def test_functor_and_nat_round_trip():
    tw = twist()
    alpha = NaturalTransformation(
        tw, identity_functor(tw.source), {"a": "id_a", "b": "e"}, name="untwist"
    )
    arts = [
        LoadedArtifact("category", "orbit", tw.source),
        LoadedArtifact("functor", "twist", tw),
        LoadedArtifact("nat", "untwist", alpha),
    ]
    text = render_artifacts(arts)
    assert "NAT untwist: twist => id(orbit)" in text
    back = parse_text(text)
    assert [(a.kind, a.name) for a in back] == [(a.kind, a.name) for a in arts]
    assert back[1].value == tw
    assert back[2].value == alpha
    assert render_artifacts(back) == text


def test_json_mirror_round_trip():
    arts = [LoadedArtifact("spec", "canonical_c2", canonical_c2())]
    blob = render_json(arts)
    back = load_text(blob)
    assert back[0].value == canonical_c2()
    assert render_json(back) == blob


def test_load_text_sniffs_the_encoding():
    spec = canonical_c2()
    as_text = load_text(render_spec(spec))
    as_json = load_text(render_json([LoadedArtifact("spec", "canonical_c2", spec)]))
    assert as_text[0].value == as_json[0].value == spec


# ---------------------------------------------------------------------------
# compose-table completion

WALKING_TEXT = """\
CATEGORY walking
  OBJECTS
    a b
  MORPHISMS
    f: a -> b
    id_a: a -> a
    id_b: b -> b
  IDENTITIES
    a: id_a
    b: id_b
  COMPOSE
END
"""


def test_identity_rule_completes_empty_compose():
    arts = parse_text(WALKING_TEXT)
    c = arts[0].value
    assert validate_category(c).ok
    assert c == walking_arrow()


THREE_CHAIN_TEXT = """\
CATEGORY chain
  OBJECTS
    x0 x1 x2
  MORPHISMS
    a01: x0 -> x1
    a02: x0 -> x2
    a12: x1 -> x2
    id_x0: x0 -> x0
    id_x1: x1 -> x1
    id_x2: x2 -> x2
  IDENTITIES
    x0: id_x0
    x1: id_x1
    x2: id_x2
  COMPOSE
END
"""


def test_singleton_hom_rule_completes_thin_composites():
    # a12 o a01 is not an identity composite, but hom(x0, x2) = {a02}
    # leaves only one candidate
    c = parse_text(THREE_CHAIN_TEXT)[0].value
    assert validate_category(c).ok
    assert c == three_chain()
    assert c.compose[("a12", "a01")] == "a02"


def test_explicit_entries_are_preserved():
    text = render_category(orbit()).replace("e o e = id_b", "e o e = e")
    c = parse_text(text)[0].value
    assert c.compose[("e", "e")] == "e"
    assert not validate_category(c).ok


# ---------------------------------------------------------------------------
# parse errors


@pytest.mark.parametrize(
    "text, message",
    [
        ("BANANA split\nEND\n", "expected CATEGORY, SPEC, FUNCTOR, or NAT"),
        ("", "empty file: no artifact blocks"),
        ("CATEGORY\nEND\n", "expected 'CATEGORY <name>'"),
        ("SPEC s\n  FIBER b0\nEND\n", "must start with BASE"),
        (
            "CATEGORY c\n  OBJECTS\n    a\n  MORPHISMS\n  IDENTITIES\n"
            "  COMPOSE\n    e o f\nEND\n",
            "expected 'g o f = h'",
        ),
        ("NAT n: nope => nope\n  COMPONENTS\nEND\n", "unknown functor 'nope'"),
        ("FUNCTOR F: nope -> nope\n  OBJMAP\n  MORMAP\nEND\n", "unknown category 'nope'"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_text(text)


def test_fiber_requires_bottom_and_top_directives():
    text = render_spec(canonical_c2())
    with pytest.raises(ParseError, match="lacks a BOTTOM directive"):
        parse_text(text.replace("    BOTTOM bot1\n", ""))
    with pytest.raises(ParseError, match="lacks a TOP directive"):
        parse_text(text.replace("    TOP top1\n", ""))


def test_duplicate_fiber_block_rejected():
    text = render_spec(canonical_c2())
    block = "  FIBER b1\n    ELEMENTS bot1 top1\n    BOTTOM bot1\n    TOP top1\n    LEQ bot1 top1\n"
    with pytest.raises(ParseError, match="duplicate FIBER"):
        parse_text(text.replace(block, block + block))


def test_parse_error_carries_location():
    text = "CATEGORY c\n  OBJECTS\n    a\n  MORPHISMS\n    e f: a -> a\nEND\n"
    with pytest.raises(ParseError, match="malformed morphism name") as exc:
        parse_text(text, filename="bad.cm")
    assert str(exc.value).startswith("bad.cm:5:")


@pytest.mark.parametrize(
    "block, message",
    [
        ("NAT n: nope => id(c)\n  COMPONENTS\nEND\n", "unknown functor 'nope'"),
        ("NAT n: id(c) => id(nope)\n  COMPONENTS\nEND\n", "unknown category 'nope'"),
        ("FUNCTOR F: c -> nope\n  OBJMAP\n  MORMAP\nEND\n", "unknown category 'nope'"),
    ],
)
def test_reference_error_carries_the_block_line(block, message):
    head = render_artifacts([LoadedArtifact("category", "c", orbit())])
    with pytest.raises(ParseError, match=message) as exc:
        parse_text(head + block, filename="bad.cm")
    assert str(exc.value).startswith(f"bad.cm:{head.count(chr(10)) + 1}:1: ")


# ---------------------------------------------------------------------------
# names: non-empty, with no whitespace, in both encodings


def _json_category(objects, morphisms, identities, compose=()):
    doc = {
        "kind": "category",
        "name": "y",
        "objects": objects,
        "morphisms": [{"name": n, "src": a, "dst": b} for n, a, b in morphisms],
        "identities": identities,
        "compose": [list(e) for e in compose],
    }
    return json.dumps({"artifacts": [doc]})


TAB_NAME = _json_category(
    ["a"],
    [("id_a", "a", "a"), ("f\tg", "a", "a"), ("h", "a", "a")],
    {"a": "id_a"},
    [("f\tg", "f\tg", "h"), ("h", "h", "h"), ("f\tg", "h", "h"), ("h", "f\tg", "h")],
)


@pytest.mark.parametrize(
    "text, message",
    [
        (TAB_NAME, "field morphisms[1].name must be a name: a non-empty string with no whitespace"),
        (
            _json_category(["a b"], [("id", "a b", "a b")], {"a b": "id"}),
            "field objects[0] must be a name: a non-empty string with no whitespace",
        ),
        (
            _json_category(["a"], [("id", "a", "a")], {"a b": "id"}),
            "field identities has key 'a b', which is not a name",
        ),
        (
            _json_category(["a"], [("id", "a", "a")], {"a": "id"}, [("id", "", "id")]),
            "field compose[0][1] must be a name: a non-empty string with no whitespace",
        ),
    ],
)
def test_json_names_are_non_empty_with_no_whitespace(text, message):
    with pytest.raises(ParseError) as exc:
        load_text(text, "y.json")
    assert str(exc.value) == f"y.json:1:1: artifact 0: {message}"


@pytest.mark.parametrize(
    "line, message",
    [
        ("    f\tg: a -> a", "malformed morphism name"),
        ("    f: a\tb -> a", "malformed '->' entry"),
        ("    a: id\ta", "malformed identity entry"),
    ],
)
def test_text_names_with_tabs_are_refused(line, message):
    sections = ["CATEGORY c", "  OBJECTS", "    a", "  MORPHISMS", "    id_a: a -> a"]
    at = 6 if "->" in line else 7
    lines = sections + (["  IDENTITIES"] if at == 7 else []) + [line, "END"]
    with pytest.raises(ParseError) as exc:
        parse_text("\n".join(lines) + "\n", "y.cm")
    assert str(exc.value) == f"y.cm:{at}:1: {message}"


@settings(max_examples=200)
@given(name=st.text(alphabet="bc \t\n\x0b\u00a0", max_size=3))
def test_what_either_encoding_loads_round_trips(name):
    """A name the JSON loader accepts renders to text that loads back, and
    one it refuses is refused with a parse error."""
    text = _json_category(
        ["a", name], [("id_a", "a", "a"), ("f", "a", name)], {"a": "id_a"}, [("f", "id_a", "f")]
    )
    try:
        arts = load_text(text, "y.json")
    except ParseError:
        assert name.split() != [name]
        return
    rendered = render_artifacts(arts)
    assert [a.value for a in parse_text(rendered)] == [a.value for a in arts]


def test_load_path_reads_files(tmp_path):
    path = tmp_path / "c2.cm"
    path.write_text(render_spec(canonical_c2()))
    arts = load_path(path)
    assert arts[0].value == canonical_c2()


def test_bad_morphism_limit_is_no_fault_of_the_file(tmp_path, monkeypatch):
    point = Category("c", ["a"], [Mor("id_a", "a", "a")], {"a": "id_a"})
    text = render_artifacts([LoadedArtifact("category", "c", point)])
    path = tmp_path / "c.cm"
    path.write_text(text)
    json_text = render_json([LoadedArtifact("category", "c", point)])
    over = "# five morphisms\n" + render_category(orbit())
    for value, error in (("many", "must be an integer, got 'many'"), ("0", "must be positive, got 0")):
        monkeypatch.setenv("CATMN_MAX_MORPHISMS", value)
        for load in (lambda: load_path(path), lambda: load_text(text, "c.cm"), lambda: load_text(json_text, "c.json")):
            with pytest.raises(SizeLimitError) as exc:
                load()
            assert str(exc.value) == f"CATMN_MAX_MORPHISMS {error}"
    # a category over a good limit is still the fault of its block
    monkeypatch.setenv("CATMN_MAX_MORPHISMS", "2")
    with pytest.raises(ParseError) as exc:
        load_text(over, "orbit.cm")
    assert str(exc.value).startswith("orbit.cm:2:1: category 'orbit' has 5 morphisms")


# ---------------------------------------------------------------------------
# whatever the loader accepts, mutated fixtures included


def check_accepted(name, text):
    """If ``load_text`` accepts ``text``, every artifact's validator returns
    a report, and loading its rendering gives the same artifacts and the
    same rendering back, in both encodings."""
    try:
        arts = load_text(text, name)
    except EngineError:
        return
    for a in arts:
        assert isinstance(validator_for(a.kind)(a.value), ValidationReport), a.kind
    triples = [(a.kind, a.name, a.value) for a in arts]
    for render in (render_artifacts, render_json):
        rendered = render(arts)
        back = load_text(rendered, name)
        assert [(a.kind, a.name, a.value) for a in back] == triples, render.__name__
        assert render(back) == rendered, render.__name__


@pytest.mark.parametrize("name, text", MUTATION_BASES, ids=[n for n, _ in MUTATION_BASES])
def test_every_fixture_is_a_fixed_point(name, text):
    load_text(text, name)  # each base is accepted as it stands
    check_accepted(name, text)


@settings(max_examples=200)
@given(
    base=st.sampled_from(MUTATION_BASES),
    mutations=st.lists(LINE_MUTATIONS, min_size=1, max_size=3),
)
def test_accepted_mutants_validate_and_round_trip(base, mutations):
    """Validators never raise on what the loader accepts, and load, render,
    load is a fixed point, on fixtures with a few lines dropped, repeated,
    swapped or cut."""
    name, text = base
    check_accepted(name, "".join(mutated(text.splitlines(keepends=True), mutations)))
