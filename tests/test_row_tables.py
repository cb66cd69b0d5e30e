"""Differential and oracle tests for the row-indexed composition tables.

``Category`` keeps composition as rows over interned ids (``rows[f][i]`` is
``out[dst f][i]`` after ``f``) and shows the pair-keyed ``compose`` mapping
as a read-only view of them.  The
tests here pin that representation against answers computed without it:
the total category's table from the spec alone, the relabeled dual's table
from C's pairs, and the validator reports of every corrupted table in the
suite, rendered and stored as goldens (``fixtures/row_table_goldens.json``).

The goldens were written by the pair-keyed implementation the rows replaced.
To rewrite them after an intended change of a report, run
``PYTHONPATH=src:tests python tests/test_row_tables.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from catmn import (
    Category,
    Functor,
    Mor,
    NaturalTransformation,
    build_total_category,
    canonical_c2,
    load_path,
    opposite,
    random_spec,
    relabeled_opposite_equivalence,
    validate_category,
    validate_contravariant,
    validate_functor,
    validate_nat,
)
from helpers import idem_endo, orbit, parallel_pair, three_chain, walking_arrow
from test_collapse import odd_totals

CORPUS = Path(__file__).parent / "fixtures" / "corrupted"
GOLDENS = Path(__file__).parent / "fixtures" / "row_table_goldens.json"


# ---------------------------------------------------------------------------
# the corrupted tables: test_core.py's by hand, then the corrupted corpus


def _edited(base, name, extra=(), drop=()):
    table = {k: v for k, v in base.compose.items() if k not in drop}
    table.update(extra)
    return Category(name, base.objects, list(base.morphisms.values()), base.identity, table)


def _identity_variant(identity):
    mors = [Mor("id_a", "a", "a"), Mor("f", "a", "b"), Mor("id_b", "b", "b")]
    return Category("bad", ["a", "b"], mors, identity, {})


NONASSOC_TABLE = {
    ("id_x", "id_x"): "id_x",
    ("a", "id_x"): "a",
    ("id_x", "a"): "a",
    ("b", "id_x"): "b",
    ("id_x", "b"): "b",
    ("a", "a"): "b",
    ("a", "b"): "b",
    ("b", "a"): "id_x",
    ("b", "b"): "b",
}


def _nonassociative():
    return Category(
        "nonassoc",
        ["x"],
        [Mor("id_x", "x", "x"), Mor("a", "x", "x"), Mor("b", "x", "x")],
        {"x": "id_x"},
        NONASSOC_TABLE,
    )


def hand_built_tables():
    """name -> (corrupted category, the clean one it was edited from or None)."""
    arrow, pair = walking_arrow(), parallel_pair()
    return {
        "morphism-endpoints": (
            Category("bad", ["a"], [Mor("id_a", "a", "a"), Mor("f", "a", "zz")], {"a": "id_a"}, {}),
            None,
        ),
        "identity-missing": (_identity_variant({"a": "id_a"}), None),
        "identity-unknown": (_identity_variant({"a": "id_a", "b": "zz"}), None),
        "identity-endpoints": (_identity_variant({"a": "id_a", "b": "f"}), None),
        "identity-extra": (_identity_variant({"a": "id_a", "b": "id_b", "zz": "id_a"}), None),
        "compose-unknown": (_edited(arrow, "bad", {("zz", "id_a"): "f"}), arrow),
        "compose-ill-typed-pair": (_edited(arrow, "bad", {("f", "id_b"): "f"}), arrow),
        "compose-unknown-result": (_edited(arrow, "bad", {("id_b", "id_b"): "zz"}), arrow),
        "compose-endpoints": (_edited(arrow, "bad", {("id_b", "f"): "id_a"}), arrow),
        "compose-missing": (_edited(arrow, "bad", drop={("id_b", "f")}), arrow),
        "identity-law": (_edited(pair, "bad", {("u", "id_s"): "v"}), pair),
        "associativity": (_nonassociative(), None),
    }


def corpus_artifacts():
    """file name -> its artifacts, spec bases standing in for their specs."""
    out = {}
    for path in sorted(CORPUS.iterdir()):
        arts = []
        for a in load_path(path):
            arts.append(("category", a.name, a.value.base) if a.kind == "spec" else (a.kind, a.name, a.value))
        out[path.name] = arts
    return out


# ---------------------------------------------------------------------------
# rendered reports


def _ids(c):
    return {x: x for x in c.objects}, {m: m for m in c.morphisms}


def table_reports(c, clean=None) -> dict[str, str]:
    """Every validator that reads ``c``'s table, on identity-labelled tables:
    each sweep walks one table's rows and looks entries up in another's."""
    objs, mors = _ids(c)
    op = opposite(c)
    into_self = Functor(c, c, objs, mors)
    out = {
        "category": validate_category(c),
        "functor-self": validate_functor(into_self),
        "functor-opposite": validate_functor(Functor(c, op, objs, mors)),
        "contravariant-self": validate_contravariant(Functor(c, c, objs, mors)),
        "contravariant-opposite": validate_contravariant(Functor(c, op, objs, mors)),
    }
    if all(m.src in objs and m.dst in objs for m in c.morphisms.values()):
        # validate_nat assumes its functors are valid, so it is given none
        # whose morphisms leave the objects
        out["nat-identities"] = validate_nat(
            NaturalTransformation(
                into_self,
                into_self,
                {x: c.identity[x] for x in c.objects if x in c.identity},
            )
        )
    if clean is not None:
        cobjs, cmors = _ids(clean)
        out["functor-to-clean"] = validate_functor(Functor(c, clean, objs, mors))
        out["functor-from-clean"] = validate_functor(Functor(clean, c, cobjs, cmors))
        out["contravariant-to-clean-opposite"] = validate_contravariant(
            Functor(c, opposite(clean), objs, mors)
        )
    return {check: report.render() for check, report in out.items()}


def all_reports() -> dict[str, dict[str, str]]:
    reports = {
        f"test_core:{name}": table_reports(c, clean)
        for name, (c, clean) in hand_built_tables().items()
    }
    for filename, arts in corpus_artifacts().items():
        for kind, name, value in arts:
            key = f"corpus:{filename}:{kind}:{name}"
            if kind == "category":
                reports[key] = table_reports(value)
            elif kind == "functor":
                reports[key] = {"functor": validate_functor(value).render()}
            else:
                reports[key] = {"nat": validate_nat(value).render()}
    return reports


def test_reports_match_the_pair_keyed_goldens():
    golden = json.loads(GOLDENS.read_text(encoding="utf-8"))
    got = all_reports()
    assert sorted(got) == sorted(golden)
    for case in golden:
        assert got[case] == golden[case], case


def test_goldens_cover_every_corrupted_file_and_rule():
    golden = json.loads(GOLDENS.read_text(encoding="utf-8"))
    files = {case.split(":")[1] for case in golden if case.startswith("corpus:")}
    assert files == {p.name for p in CORPUS.iterdir()}
    rendered = "\n".join(text for case in golden.values() for text in case.values())
    for rule in (
        "compose-unknown",
        "compose-ill-typed-pair",
        "compose-unknown-result",
        "compose-endpoints",
        "compose-missing",
        "identity-law",
        "associativity",
        "functor-composition",
        "naturality-square",
    ):
        assert f"{rule} [" in rendered, rule


# ---------------------------------------------------------------------------
# oracles for the builders that fill rows


def total_table_from_spec(s) -> dict[tuple[str, str], str]:
    """``(g, k1, k2) after (f, k, k1) = (g o f, k, k2)`` over every total
    morphism pair, from the spec's base table, fibers and actions alone."""
    base = s.base
    table = {}
    for (g, f), gf in base.compose.items():
        mf, mg = base.morphisms[f], base.morphisms[g]
        fib_a, fib_b, fib_c = s.fibers[mf.src], s.fibers[mf.dst], s.fibers[mg.dst]
        for k in fib_a.elements:
            for k1 in fib_b.elements:
                if (s.actions[f][k], k1) not in fib_b.leq:
                    continue
                for k2 in fib_c.elements:
                    if (s.actions[g][k1], k2) in fib_c.leq:
                        table[(f"{g}|{k1}|{k2}", f"{f}|{k}|{k1}")] = f"{gf}|{k}|{k2}"
    return table


SPECS = [canonical_c2()] + [random_spec(seed) for seed in range(50)]


@pytest.mark.parametrize("s", SPECS, ids=lambda s: s.name)
def test_total_table_matches_the_formula(s):
    t = build_total_category(s)
    want = total_table_from_spec(s)
    assert t.total.compose == want
    assert want == t.total.compose
    assert len(t.total.compose) == len(want)


@pytest.mark.parametrize("s", SPECS[:12], ids=lambda s: s.name)
def test_relabeled_dual_reads_the_table_backwards(s):
    c = build_total_category(s).total
    dual = relabeled_opposite_equivalence(c).dual
    assert dual.compose == {(f + "~", g + "~"): h + "~" for (g, f), h in c.compose.items()}


def _odd_tables():
    """Tables the view must carry as they are: entries naming unknown
    morphisms, and morphisms with no row at all."""
    arrow = walking_arrow()
    unknown = _edited(arrow, "odd", {("zz", "id_a"): "f", ("f", "yy"): "zz"})
    rowless = _edited(arrow, "odd", drop={("f", "id_a"), ("id_a", "id_a")})
    return [unknown, rowless, hand_built_tables()["associativity"][0]]


@pytest.mark.parametrize(
    "c",
    [walking_arrow(), parallel_pair(), orbit(), three_chain(), idem_endo(), *_odd_tables()]
    + [build_total_category(s).total for s in SPECS[:6]],
    ids=lambda c: c.name,
)
def test_round_trips_through_pairs_and_opposites(c):
    assert opposite(opposite(c)) == c
    rebuilt = Category(c.name, c.objects, c.morphisms.values(), c.identity, dict(c.compose))
    assert rebuilt == c


def test_rowless_morphisms_compare_equal_to_empty_rows():
    c = _odd_tables()[1]
    id_a = c.mor_id["id_a"]
    assert c.rows[id_a] == (None,) * len(c.out[c.dst[id_a]])
    assert ("id_a", "id_a") not in c.compose and ("f", "id_a") not in c.compose
    rows = [list(row) for row in c.rows]
    with_empty = Category(
        c.name, c.objects, c.morphisms.values(), c.identity, fill=lambda d: (rows, {})
    )
    assert with_empty == c and c == with_empty
    assert len(with_empty.compose) == len(c.compose)


# ---------------------------------------------------------------------------
# the compose view's Mapping contract


def test_compose_view_is_a_read_only_mapping():
    table = NONASSOC_TABLE
    view = _nonassociative().compose
    assert len(view) == len(table) == 9
    pairs = list(view)
    assert len(pairs) == len(set(pairs)) == len(table)
    assert set(pairs) == set(table)
    assert dict(view.items()) == table
    assert sorted(view.values()) == sorted(table.values())
    for pair, h in table.items():
        assert view[pair] == h and view.get(pair) == h and pair in view
    assert view == table and table == view
    assert not (view != table)
    assert view != {**table, ("a", "a"): "a"}
    assert {**table, ("zz", "zz"): "a"} != view
    with pytest.raises(TypeError):
        view[("a", "a")] = "a"


@pytest.mark.parametrize("pair", [("zz", "e"), ("e", "zz"), ("f", "e"), ("e",), "e", 7])
def test_compose_view_misses_act_as_on_a_dict(pair):
    view = orbit().compose
    table = dict(view)
    assert (pair in view) is (pair in table) is False
    assert view.get(pair) is table.get(pair) is None
    assert view.get(pair, "dflt") == "dflt"
    with pytest.raises(KeyError) as exc:
        view[pair]
    assert exc.value.args == (pair,)


def _view_tables():
    """The odd tables above, the odd fiber totals that keep stray entries,
    and a table with a stray entry for an ill-typed pair of morphisms."""
    totals = [t.total for t in odd_totals() if t.total.stray]
    ill_typed = _edited(walking_arrow(), "ill-typed-stray", {("f", "id_b"): "f"})
    return [*_odd_tables(), *totals, ill_typed]


@pytest.mark.parametrize("c", _view_tables(), ids=lambda c: c.name)
def test_compose_view_answers_as_the_dict_of_its_entries(c):
    table = {(g, f): h for g, f, h in c.entries()}
    view = c.compose
    assert list(view) == list(table)
    probe = [*c.names, "nowhere"]
    pairs = [(g, f) for g in probe for f in probe] + list(table) + [(0, 0), (0, c.names[0])]
    for pair in pairs:
        assert view.get(pair) == table.get(pair)
        assert (pair in view) is (pair in table)
        if pair in table:
            assert view[pair] == table[pair]
        else:
            with pytest.raises(KeyError):
                view[pair]


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps(all_reports(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
