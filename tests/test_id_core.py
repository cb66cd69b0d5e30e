"""Differential tests for the integer-indexed core.

``Category`` numbers its objects and morphisms once and keeps composition as
rows of ids; every name-level value is a view of those rows.  The tests here
pin the name-level views and every validator report against goldens
(``fixtures/id_core_goldens.json``) written by the code that kept the table
as name-keyed rows: on ``canonical_c2``, ``orbit``, ``parallel_pair``,
``idem_endo``, every artifact of the corrupted corpus and the seed-0
artifacts rung of the benchmark.  The rung's values are stored as digests.

They also show that no sweep stops early, that every stored id is the one
int object of its category for that id, and that a report keeps a bounded
number of violations per rule and counts the rest.

To rewrite the goldens after an intended change, run
``PYTHONPATH=src:tests python tests/test_id_core.py``.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from catmn import (
    Category,
    ContravariantFunctor,
    Functor,
    LoadedArtifact,
    SizeLimits,
    Violation,
    ValidationReport,
    build_final_monad,
    build_total_category,
    canonical_c2,
    identity_functor,
    identity_nat,
    inverse_of,
    load_path,
    load_text,
    opposite,
    random_spec,
    relabeled_opposite_equivalence,
    render_artifacts,
    validate_category,
    validate_contravariant,
    validate_equivalence,
    validate_functor,
    validate_nat,
    validate_spec,
)
from helpers import idem_endo, orbit, parallel_pair

CORPUS = Path(__file__).parent / "fixtures" / "corrupted"
GOLDENS = Path(__file__).parent / "fixtures" / "id_core_goldens.json"
# the benchmark's artifacts rung: random_spec seed 3 in these limits
RUNG_SEED, RUNG_LIMITS = 3, SizeLimits(24, 96, 64)


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def views(c: Category) -> dict:
    """Every name-level view of ``c``: objects, morphisms, identities,
    compose entries and the hom-set between every two objects."""
    return {
        "objects": list(c.objects),
        "morphisms": [list(m) for m in c.morphisms.values()],
        "identity": sorted(c.identity.items()),
        "compose": sorted([g, f, h] for (g, f), h in c.compose.items()),
        "compose-size": len(c.compose),
        "hom": [[a, b, list(c.hom(a, b))] for a in c.objects for b in c.objects if c.hom(a, b)],
    }


def category_reports(c: Category) -> dict[str, str]:
    """Every validator that reads ``c``'s table, on identity-labelled maps,
    and the inverse search on every morphism."""
    objs, mors = {x: x for x in c.objects}, {m: m for m in c.morphisms}
    out = {
        "category": validate_category(c).render(),
        "functor-self": validate_functor(Functor(c, c, objs, mors)).render(),
        "contravariant-opposite": validate_contravariant(
            ContravariantFunctor(c, opposite(c), objs, mors)
        ).render(),
        "inverses": json.dumps([[m, inverse_of(c, m)] for m in c.morphisms]),
    }
    if all(m.src in objs and m.dst in objs for m in c.morphisms.values()) and all(
        x in c.identity for x in c.objects
    ):
        out["nat-identity"] = validate_nat(identity_nat(identity_functor(c))).render()
    return out


def small_cases() -> dict:
    cases = {}
    for c in (build_total_category(canonical_c2()).total, orbit(), parallel_pair(), idem_endo()):
        cases[c.name] = {"views": views(c), "reports": category_reports(c)}
    for path in sorted(CORPUS.iterdir()):
        for a in load_path(path):
            key = f"corpus:{path.name}:{a.kind}:{a.name}"
            if a.kind == "category":
                cases[key] = {"views": views(a.value), "reports": category_reports(a.value)}
            elif a.kind == "spec":
                cases[key] = {
                    "views": views(a.value.base),
                    "reports": {"spec": validate_spec(a.value).render()},
                }
            elif a.kind == "functor":
                cases[key] = {"reports": {"functor": validate_functor(a.value).render()}}
            else:
                cases[key] = {"reports": {"nat": validate_nat(a.value).render()}}
    return cases


def rung_case() -> dict:
    """The artifacts rung's total category, its fiber-top monad and its
    relabeled dual, as digests."""
    t = build_total_category(random_spec(RUNG_SEED, RUNG_LIMITS))
    c = t.total
    monad = build_final_monad(t)
    e = relabeled_opposite_equivalence(c)
    reports = category_reports(c)
    reports["monad-functor"] = validate_functor(monad.functor).render()
    reports["monad-unit"] = validate_nat(monad.unit).render()
    reports["duality"] = validate_equivalence(e).render()
    return {
        "views": _digest(views(c)),
        "dual-views": _digest(views(e.dual)),
        "reports": _digest(reports),
        "morphisms": len(c.morphisms),
        "compose": len(c.compose),
    }


def all_goldens() -> dict:
    return {"small": small_cases(), "rung": rung_case()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def test_small_views_and_reports_match_the_goldens(golden):
    got = json.loads(json.dumps(small_cases()))
    assert sorted(got) == sorted(golden["small"])
    for case, want in golden["small"].items():
        assert got[case] == want, case


def test_artifacts_rung_matches_the_goldens(golden):
    assert rung_case() == golden["rung"]
    assert golden["rung"]["morphisms"] == 3_883


def test_goldens_cover_every_corrupted_file():
    golden = json.loads(GOLDENS.read_text(encoding="utf-8"))
    files = {case.split(":")[1] for case in golden["small"] if case.startswith("corpus:")}
    assert files == {p.name for p in CORPUS.iterdir()}


# ---------------------------------------------------------------------------
# no sweep stops early


def _with_last_entry_corrupted(c: Category) -> tuple[Category, tuple[str, str]]:
    """``c`` with the last entry of its last row, in id order, naming the
    first morphism instead of the composite."""
    f = len(c.names) - 1
    while not c.rows[f]:
        f -= 1
    g = c.out[c.dst[f]][-1]
    pair = (c.names[g], c.names[f])
    assert c.compose[pair] != c.names[0]
    table = {**c.compose, pair: c.names[0]}
    return Category(c.name, c.objects, c.morphisms.values(), c.identity, table), pair


@pytest.mark.parametrize("seed", [0, 7])
def test_every_sweep_reaches_the_last_entry(seed):
    clean = build_total_category(random_spec(seed)).total
    bad, (g, f) = _with_last_entry_corrupted(clean)
    objs, mors = {x: x for x in clean.objects}, {m: m for m in clean.morphisms}

    covariant = validate_functor(Functor(bad, clean, objs, mors))
    assert [(v.rule, v.subject) for v in covariant.violations] == [("functor-composition", (g, f))]
    flipped = validate_contravariant(ContravariantFunctor(bad, opposite(clean), objs, mors))
    assert [(v.rule, v.subject) for v in flipped.violations] == [("functor-composition", (f, g))]
    found = validate_category(bad).violations
    assert ("compose-endpoints", (g, f)) in {(v.rule, v.subject) for v in found}


# ---------------------------------------------------------------------------
# the id layout itself


def _categories():
    t = build_total_category(canonical_c2())
    # past 256 morphisms, where CPython no longer shares small ints by itself
    rung = build_total_category(random_spec(RUNG_SEED, RUNG_LIMITS)).total
    text = render_artifacts([LoadedArtifact("category", rung.name, rung)])
    return [
        pytest.param(c, id=label)
        for label, c in (
            ("c2-total", t.total),
            ("c2-relabeled-dual", relabeled_opposite_equivalence(t.total).dual),
            ("c2-opposite", opposite(t.total)),
            ("orbit", orbit()),
            ("rung-total", rung),
            ("rung-relabeled-dual", relabeled_opposite_equivalence(rung).dual),
            ("rung-loaded", load_text(text)[0].value),
        )
    ]


@pytest.mark.parametrize("c", _categories())
def test_every_stored_id_is_the_shared_int(c):
    canon = list(c.mor_id.values())
    stored = [h for row in c.rows for h in row if h is not None]
    stored += [f for fs in c.out for f in fs] + [f for fs in c.into for f in fs]
    stored += [f for fs in c.homs.values() for f in fs]
    assert stored and all(i is canon[i] for i in stored)
    assert list(c.names) == sorted(c.names) and list(c.objects) == sorted(c.objects)
    assert all(len(row) == len(c.out[c.dst[f]]) for f, row in enumerate(c.rows))


def test_reports_keep_a_bounded_number_per_rule():
    from catmn.report import MAX_PER_RULE

    many = [Violation("r", (f"x{i:04d}",), "d") for i in reversed(range(MAX_PER_RULE + 7))]
    report = ValidationReport([*many, Violation("q", ("y",), "d")])
    assert report.omitted == 7 and not report.ok
    assert [v.subject for v in report.violations[1:]] == [
        (f"x{i:04d}",) for i in range(MAX_PER_RULE)
    ]
    merged = report.merged(ValidationReport(many[:3], omitted=2))
    assert merged.omitted == 7 + 3 + 2
    assert merged.render().splitlines()[-1].startswith(f"... and {merged.omitted} more")
    assert ValidationReport(many[:3]).render().count("more violations") == 0


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps(all_goldens(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
