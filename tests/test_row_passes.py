"""Differential tests for the three passes that work a row at a time.

Loading an artifact file completes each category's table a row at a time
(``textio._derived_rows``), reads canonical lines straight off their tokens,
and ``validate_category`` compares associativity a row at a time where the
rows are typed.  Each pass is checked here against the one it replaced, kept
in ``helpers``: the slot-at-a-time completion rules (``_derivation``), a
name-level associativity check that reads every composable triple through
the ``compose`` view, and the line-at-a-time parser.  The parser is also
held to it where each kind of block ends: on every cut of each base file
and every insertion of a block keyword.  The canonical form is checked to
load back as the category it was rendered from.
"""

import random
import re
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmn import (
    Category,
    LoadedArtifact,
    Mor,
    ParseError,
    SizeLimits,
    ValidationReport,
    build_total_category,
    load_text,
    random_spec,
    render_artifacts,
    render_json,
    validate_category,
)
from catmn.textio import _completing, _Cursor, _nonderivable_entries, _parse_blocks
from helpers import (
    associativity_by_names,
    completing_by_slots,
    idem_endo,
    nonderivable_by_slots,
    orbit,
    orbit_op,
    parallel_pair,
    parse_blocks_by_lines,
    three_chain,
    walking_arrow,
)

CORPUS = Path(__file__).parent / "fixtures" / "corrupted"
# the benchmark's artifacts rung: random_spec seed 3 in these limits
RUNG_SEED, RUNG_LIMITS = 3, SizeLimits(24, 96, 64)


@pytest.fixture(scope="module")
def rung():
    return build_total_category(random_spec(RUNG_SEED, RUNG_LIMITS)).total


def corrupted(c: Category, k: int, seed: int) -> Category:
    """A copy of ``c`` with ``k`` random compose entries of non-identities
    naming a random morphism instead."""
    rng = random.Random(seed)
    ident = set(c.identity.values())
    pairs = sorted(p for p in c.compose if p[0] not in ident and p[1] not in ident)
    table = dict(c.compose)
    for pair in rng.sample(pairs, k):
        table[pair] = rng.choice(c.names)
    return Category(f"corrupt({c.name})", c.objects, c.morphisms.values(), c.identity, table)


# ---------------------------------------------------------------------------
# (a) completion by rows against the slot-at-a-time rules


def both_completions(doc: dict) -> tuple[Category, Category]:
    """The category ``doc`` describes, completed by rows and by slots."""
    mors = [Mor(m["name"], m["src"], m["dst"]) for m in doc["morphisms"]]
    entries = {(g, f): h for g, f, h in doc["compose"]}
    objects, identity = doc["objects"], doc["identities"]
    return (
        Category("c", objects, mors, identity, fill=_completing(entries)),
        Category("c", objects, mors, identity, fill=completing_by_slots(entries)),
    )


def assert_completion_matches(doc: dict) -> None:
    by_rows, by_slots = both_completions(doc)
    assert by_rows == by_slots
    assert _nonderivable_entries(by_rows) == nonderivable_by_slots(by_rows)


def category_docs(text: str):
    for _, doc in _parse_blocks(_Cursor(text, "<test>")):
        if doc["kind"] == "category":
            yield doc
        elif doc["kind"] == "spec":
            yield doc["base"]


@pytest.mark.parametrize("path", sorted(CORPUS.iterdir()), ids=lambda p: p.name)
def test_completion_matches_the_slot_rules_on_the_corrupted_corpus(path):
    docs = list(category_docs(path.read_text(encoding="utf-8")))
    assert docs
    for doc in docs:
        assert_completion_matches(doc)


def test_completion_matches_the_slot_rules_on_the_artifact_rung(rung):
    for c in (rung, corrupted(rung, 3, 0)):
        text = render_artifacts([LoadedArtifact("category", c.name, c)])
        (doc,) = category_docs(text)
        assert_completion_matches(doc)


@st.composite
def small_tables(draw):
    """A category document of up to three objects and seven morphisms: some
    identities, missing or wrong; every composable pair with an explicit,
    missing or unknown composite; and a few stray entries."""
    objects = [f"x{i}" for i in range(draw(st.integers(1, 3)))]
    ends = st.sampled_from(objects + ["zz"])
    morphisms, identities = [], {}
    for x in objects:
        kind = draw(st.sampled_from(["loop", "loop", "none", "other"]))
        if kind == "loop":
            morphisms.append({"name": f"id_{x}", "src": x, "dst": x})
            identities[x] = f"id_{x}"
        elif kind == "other":
            identities[x] = draw(st.sampled_from(["m0", "ghost"]))
    for i in range(draw(st.integers(0, 4))):
        morphisms.append({"name": f"m{i}", "src": draw(ends), "dst": draw(ends)})
    anything = st.sampled_from([m["name"] for m in morphisms] + ["ghost"])
    compose = []
    for f in morphisms:
        for g in morphisms:
            if g["src"] == f["dst"] and draw(st.booleans()):
                compose.append([g["name"], f["name"], draw(anything)])
    for _ in range(draw(st.integers(0, 2))):
        compose.append([draw(anything), draw(anything), draw(anything)])
    return {
        "objects": objects,
        "morphisms": morphisms,
        "identities": identities,
        "compose": compose,
    }


@settings(max_examples=300, deadline=None)
@given(doc=small_tables())
def test_completion_matches_the_slot_rules_on_random_tables(doc):
    assert_completion_matches(doc)


def assert_round_trips(c: Category) -> None:
    """``c`` rendered to text and to JSON loads back as an equal category
    with an equal report."""
    report = validate_category(c)
    for render in (render_artifacts, render_json):
        (back,) = load_text(render([LoadedArtifact("category", c.name, c)]))
        assert back.value == c
        assert validate_category(back.value) == report


@settings(max_examples=300, deadline=None)
@given(doc=small_tables())
def test_the_canonical_form_round_trips_on_random_tables(doc):
    assert_round_trips(both_completions(doc)[0])


def test_the_canonical_form_writes_every_stray_entry():
    id_a, id_b, f = Mor("id_a", "a", "a"), Mor("id_b", "b", "b"), Mor("f", "a", "b")
    ghost = Category(
        "ghost",
        ["a"],
        [id_a],
        {"a": "id_a"},
        {("id_a", "id_a"): "id_a", ("ghost", "id_a"): "ghost"},
    )
    # a full table, and id_a after f, though f ends at b, as the identity
    # law would give it
    ill_typed = Category(
        "ill-typed",
        ["a", "b"],
        [id_a, id_b, f],
        {"a": "id_a", "b": "id_b"},
        {
            ("id_a", "id_a"): "id_a",
            ("id_b", "id_b"): "id_b",
            ("f", "id_a"): "f",
            ("id_b", "f"): "f",
            ("id_a", "f"): "f",
        },
    )
    for c, entry, rule in (
        (ghost, "ghost o id_a = ghost", "compose-unknown [ghost, id_a]"),
        (ill_typed, "id_a o f = f", "compose-ill-typed-pair [id_a, f]"),
    ):
        assert rule in validate_category(c).render()
        assert f"    {entry}\n" in render_artifacts([LoadedArtifact("category", c.name, c)])
        assert_round_trips(c)


# ---------------------------------------------------------------------------
# (b) associativity by rows against a check of every triple by names


def assert_report_matches_the_names_oracle(c: Category) -> None:
    report = validate_category(c)
    others = [v for v in report.violations if v.rule != "associativity"]
    assert report == ValidationReport(others + associativity_by_names(c))


def one_entry_edits(c: Category):
    """``c`` with one compose entry of a composable pair changed to each
    morphism, to a name of none, or dropped."""
    table = dict(c.compose)
    for f, mf in c.morphisms.items():
        for g, mg in c.morphisms.items():
            if mg.src != mf.dst:
                continue
            for h in [*c.names, "ghost", None]:
                if table.get((g, f)) == h:
                    continue
                edited = {k: v for k, v in table.items() if k != (g, f)}
                if h is not None:
                    edited[(g, f)] = h
                yield Category(c.name, c.objects, c.morphisms.values(), c.identity, edited)


@pytest.mark.parametrize(
    "build", [walking_arrow, parallel_pair, orbit, orbit_op, idem_endo, three_chain]
)
def test_associativity_matches_the_names_oracle_on_one_entry_edits(build):
    c = build()
    assert_report_matches_the_names_oracle(c)
    edits = list(one_entry_edits(c))
    assert edits
    for edited in edits:
        assert_report_matches_the_names_oracle(edited)


@pytest.mark.parametrize("k", [1, 4])
def test_associativity_matches_the_names_oracle_on_the_corrupted_rung(rung, k):
    c = corrupted(rung, k, seed=k)
    assert any(v.rule == "associativity" for v in validate_category(c).violations)
    assert_report_matches_the_names_oracle(c)


@settings(max_examples=300, deadline=None)
@given(doc=small_tables())
def test_associativity_matches_the_names_oracle_on_random_tables(doc):
    assert_report_matches_the_names_oracle(both_completions(doc)[0])


def test_a_row_with_no_slots_needs_no_reader():
    # b has no identity and nothing leaves it, so f's row is empty
    c = Category(
        "empty-row",
        ["a", "b"],
        [Mor("id_a", "a", "a"), Mor("f", "a", "b")],
        {"a": "id_a"},
        {("id_a", "id_a"): "id_a", ("f", "id_a"): "f"},
    )
    assert validate_category(c).render() == "identity-missing [b]: no identity assigned"
    assert_report_matches_the_names_oracle(c)


# ---------------------------------------------------------------------------
# (c) the token readers against the line-at-a-time parser


SHIPPED = resources.files("catmn.data").joinpath("canonical_c2.spec")
TEXT_BASES = [
    ("canonical_c2.spec", SHIPPED.read_text(encoding="utf-8")),
    *[(p.name, p.read_text(encoding="utf-8")) for p in sorted(CORPUS.iterdir())],
]


def edited_line(line: str, kind: str, j: int) -> str:
    """``line`` with one edit of ``kind``; ``j`` picks where, wrapping round."""
    if kind == "comment":
        return "# " + line
    if kind == "tab":
        spaces = [m.start() for m in re.finditer(" ", line)] or [0]
        at = spaces[j % len(spaces)]
        return line[:at] + "\t" + line[at + 1 :]
    if kind == "tab-inside":
        at = j % (len(line) + 1)
        return line[:at] + "\t" + line[at:]
    seps = list(re.finditer(r"->|=>|:|=| o ", line))
    if not seps:
        return line + " ->" if kind == "double" else line
    m = seps[j % len(seps)]
    sep = m.group()
    if kind == "stuck":  # a second separator glued to the word before
        return line[: m.start()].rstrip() + sep.strip() + " " + line[m.start() :]
    new = {
        "spaced": f"  {sep.strip()}  ",
        "tight": sep.strip(),
        "missing": " " if sep == " o " else "",
        "double": sep + sep,
    }[kind]
    return line[: m.start()] + new + line[m.end() :]


def outcome(parse, text: str):
    try:
        return parse(text, "<edited>")
    except ParseError as exc:
        return str(exc)


def names_in(value) -> list[str]:
    """Every string in a parsed document, keys included."""
    if isinstance(value, str):
        return [value]
    if isinstance(value, dict):
        return [s for k, v in value.items() for s in [k, *names_in(v)]]
    if isinstance(value, (list, tuple)):
        return [s for v in value for s in names_in(v)]
    return []


def parse_by_tokens(text: str, filename: str):
    return _parse_blocks(_Cursor(text, filename))


# a line of each kind that ends, opens or heads part of a block, and entries
STOP_RULE_LINES = [
    "END ->",
    "END x",
    "FIBER",
    "ACTION a b",
    "OBJMAP",
    "COMPONENTS",
    "BASE",
    "ELEMENTS",
    "LEQ a",
    "TOP",
    "MORPHISMS",
    "x -> y",
    "x: y",
]


def cut_and_inserted(lines: list[str]):
    """The file cut after each line (and before the first), then with each
    of STOP_RULE_LINES inserted before each line."""
    for k in range(len(lines) + 1):
        yield lines[:k]
    for i in range(len(lines)):
        for extra in STOP_RULE_LINES:
            yield [*lines[:i], extra, *lines[i:]]


@pytest.mark.parametrize("base", TEXT_BASES, ids=lambda b: b[0])
def test_stop_rules_match_the_line_parser(base):
    """Where each block ends, and what an early end of file gives, in every
    kind of block: 7,507 variants of the 17 base files, each parsed to the
    same documents or the same error as by the line parser."""
    lines = base[1].splitlines()
    variants = list(cut_and_inserted(lines))
    assert len(variants) == 14 * len(lines) + 1
    for variant in variants:
        text = "\n".join(variant) + "\n"
        assert outcome(parse_by_tokens, text) == outcome(parse_blocks_by_lines, text), text


@settings(max_examples=400, deadline=None)
@given(
    base=st.sampled_from(TEXT_BASES),
    i=st.integers(0, 1 << 16),
    j=st.integers(0, 1 << 16),
    kind=st.sampled_from(
        ["spaced", "tight", "missing", "double", "stuck", "comment", "tab", "tab-inside"]
    ),
    insert_comment=st.booleans(),
)
def test_token_readers_match_the_line_parser(base, i, j, kind, insert_comment):
    lines = base[1].splitlines()
    i %= len(lines)
    lines[i] = edited_line(lines[i], kind, j)
    if insert_comment:
        lines.insert(j % (len(lines) + 1), "  # a comment")
    text = "\n".join(lines) + "\n"
    old = outcome(parse_blocks_by_lines, text)
    new = outcome(parse_by_tokens, text)
    if not isinstance(old, str) and any(s.split() != [s] for s in names_in(old)):
        # a name with whitespace in it: the line parser let a tab through
        assert isinstance(new, str), new
    else:
        assert new == old

