"""Hom-set reads on ids against a name-level brute-force oracle.

``Category`` keeps no index keyed by hom-set: ``hom_ids`` scans the
morphisms leaving a vertex, ``inverse_of`` looks for the identity in the
morphism's own row, and ``verify_reflection`` keys the arrows out of each
reflected object by their composite with the unit.  Each is compared here
with a search that reads nothing but the morphism list and the compose
view, on ``canonical_c2``'s total, ``orbit``, ``parallel_pair``,
``idem_endo``, the totals of ``random_spec(0..49)``, every category of the
corrupted corpus, a split idempotent, a table with an ill-typed composite,
copies of the small ones whose identities name no morphism (so that their
tables hold stray entries), and the opposites of all but the corpus.  The
reflection sweep runs on both sides, on the real fixed subcategories of the
totals, on seeded packages that need not satisfy anything, and on packages
naming objects the ambient lacks.
"""

import random
from dataclasses import replace
from pathlib import Path

import pytest
from helpers import collapsed, idem_endo, orbit, parallel_pair

from catmn import (
    COMONAD,
    MONAD,
    Category,
    Functor,
    Mor,
    NaturalTransformation,
    ReflectionPackage,
    build_total_category,
    canonical_c2,
    fixed_subcategory,
    full_subcategory,
    inverse_of,
    load_path,
    opposite,
    random_spec,
    verify_reflection,
)
from catmn.report import ValidationReport, Violation

CORPUS = Path(__file__).parent / "fixtures" / "corrupted"


def _corpus_categories() -> list[Category]:
    found: dict[int, Category] = {}
    for path in sorted(CORPUS.iterdir()):
        for a in load_path(path):
            if a.kind == "category":
                cats = [a.value]
            elif a.kind == "spec":
                cats = [a.value.base]
            elif a.kind == "functor":
                cats = [a.value.source, a.value.target]
            else:
                cats = [a.value.source_functor.source, a.value.source_functor.target]
            for c in cats:
                found.setdefault(id(c), c)
    return list(found.values())


def split_idempotent() -> Category:
    """r after f is the identity of a, but f after r is the idempotent e:
    f and r are one-sided inverses only."""
    return Category(
        "split",
        ["a", "b"],
        [Mor("id_a", "a", "a"), Mor("id_b", "b", "b"), Mor("e", "b", "b")]
        + [Mor("f", "a", "b"), Mor("r", "b", "a")],
        {"a": "id_a", "b": "id_b"},
        {
            ("id_a", "id_a"): "id_a",
            ("id_b", "id_b"): "id_b",
            ("f", "id_a"): "f",
            ("id_b", "f"): "f",
            ("r", "id_b"): "r",
            ("id_a", "r"): "r",
            ("e", "id_b"): "e",
            ("id_b", "e"): "e",
            ("e", "e"): "e",
            ("e", "f"): "f",
            ("r", "e"): "r",
            ("r", "f"): "id_a",
            ("f", "r"): "e",
        },
    )


def ill_typed_composite(stray: bool = False) -> Category:
    """g after f is given as the identity of a although g ends at c, where
    nothing leaves; h is the true inverse of f and comes after g in id
    order.  With ``stray``, the pair (f, g), which does not compose, is
    given as the identity of b too."""
    extra = {("f", "g"): "id_b"} if stray else {}
    return Category(
        "ill-typed",
        ["a", "b", "c"],
        [Mor("id_a", "a", "a"), Mor("id_b", "b", "b")]
        + [Mor("f", "a", "b"), Mor("g", "b", "c"), Mor("h", "b", "a")],
        {"a": "id_a", "b": "id_b"},
        {
            ("id_a", "id_a"): "id_a",
            ("id_b", "id_b"): "id_b",
            ("f", "id_a"): "f",
            ("id_b", "f"): "f",
            ("g", "id_b"): "g",
            ("h", "id_b"): "h",
            ("id_a", "h"): "h",
            ("g", "f"): "id_a",
            ("h", "f"): "id_a",
            ("f", "h"): "id_b",
            **extra,
        },
    )


def ghostly(c: Category) -> Category:
    """``c`` with each identity renamed to a name of no morphism, in the
    identity map and wherever the table gives it, plus one ill-typed entry:
    every such entry is stray, and the id reads must settle them by name."""
    ghost = {i: f"ghost-{i}" for i in c.identity.values()}
    table = {pair: ghost.get(h, h) for pair, h in c.compose.items()}
    names = sorted(c.morphisms)
    table[(names[0], names[-1])] = names[0]
    identity = {x: ghost[i] for x, i in c.identity.items()}
    return Category(f"ghostly({c.name})", c.objects, c.morphisms.values(), identity, table)


@pytest.fixture(scope="module")
def totals():
    specs = [canonical_c2()] + [random_spec(seed) for seed in range(50)]
    return [build_total_category(s) for s in specs]


@pytest.fixture(scope="module")
def categories(totals):
    small = [totals[0].total, orbit(), parallel_pair(), idem_endo()]
    small += [split_idempotent(), ill_typed_composite(), ill_typed_composite(stray=True)]
    own = [t.total for t in totals[1:]] + small + [ghostly(c) for c in small]
    return own + [opposite(c) for c in own] + _corpus_categories()


def hom_by_names(c: Category, a: str, b: str) -> list[str]:
    return [m.name for m in c.morphisms.values() if m.src == a and m.dst == b]


def inverse_by_names(c: Category, m: str):
    f = c.morphisms[m]
    id_a, id_b = c.identity.get(f.src), c.identity.get(f.dst)
    if id_a is None or id_b is None:
        return None
    table = c.compose
    for g in hom_by_names(c, f.dst, f.src):
        if table.get((g, m)) == id_a and table.get((m, g)) == id_b:
            return g
    return None


def reflection_by_names(p: ReflectionPackage) -> ValidationReport:
    """The universal-property sweep of :func:`verify_reflection`, with
    hom-sets found by scanning the morphism list and composites read from
    the compose view, both flipped on the comonad side."""
    cat, side = p.ambient, p.side
    table = cat.compose
    if side.flip:
        hom = lambda a, b: hom_by_names(cat, b, a)  # noqa: E731
        after = lambda g, f: table.get((f, g))  # noqa: E731
    else:
        hom = lambda a, b: hom_by_names(cat, a, b)  # noqa: E731
        after = lambda g, f: table.get((g, f))  # noqa: E731
    tag = f"{side.reflect}ion"
    found = []
    for x in cat.objects:
        eta, Nx = p.unit.components.get(x), p.reflector.obj_map.get(x)
        if eta is None or Nx is None:
            found.append(
                Violation(f"{tag}-data", (x,), f"{side.unit} or {side.reflect}or undefined here")
            )
            continue
        for y in p.subcategory.objects:
            for f in hom(x, y):
                mediators = [g for g in hom(Nx, y) if after(g, eta) == f]
                subject = (*side.orient(x, y), f)
                if not mediators:
                    found.append(
                        Violation(
                            f"{tag}-no-mediator",
                            subject,
                            f"no morphism {side.mediator} the {side.reflect}ed object "
                            f"factors f through the {side.unit}",
                        )
                    )
                elif len(mediators) > 1:
                    found.append(
                        Violation(
                            f"{tag}-ambiguous-mediator",
                            subject,
                            f"{len(mediators)} morphisms factor f through the {side.unit}: "
                            + ", ".join(mediators),
                        )
                    )
                else:
                    inv_y, Nf = p.unit_inverses.get(y), p.reflector.mor_map.get(f)
                    closed = after(inv_y, Nf) if inv_y is not None and Nf is not None else None
                    if mediators[0] != closed:
                        found.append(
                            Violation(
                                f"{tag}-closed-form",
                                subject,
                                f"unique mediator is {mediators[0]!r} but the closed form "
                                f"gives {closed!r}",
                            )
                        )
    return ValidationReport(found)


def seeded_package(c: Category, side, seed: int) -> ReflectionPackage:
    """A package on ``c`` whose tables are drawn at random, mostly from the
    hom-sets the sweep reads, so every rule of the sweep can fire."""
    rng = random.Random(seed)
    names = list(c.morphisms)
    keep = sorted(rng.sample(c.objects, rng.randint(1, len(c.objects))))
    sub, inclusion = full_subcategory(c, keep)

    def pick(a: str, b: str):
        """Mostly a morphism a -> b as the side reads it, else anything."""
        roll = rng.random()
        if roll < 0.05:
            return None
        homs = hom_by_names(c, *side.orient(a, b))
        if homs and roll < 0.85:
            return rng.choice(homs)
        return rng.choice(names) if names else None

    obj_map, units = {}, {}
    for x in c.objects:
        if rng.random() < 0.95:
            obj_map[x] = Nx = rng.choice(keep)
            if (eta := pick(x, Nx)) is not None:
                units[x] = eta
    mor_map = {}
    for m in c.morphisms.values():
        a, b = obj_map.get(m.src), obj_map.get(m.dst)
        if (image := pick(a, b) if a and b else rng.choice(names)) is not None:
            mor_map[m.name] = image
    inverses = {y: g for y in keep if (g := pick(obj_map.get(y, y), y)) is not None}
    reflector = Functor(c, sub, obj_map, mor_map, name="seeded")
    return ReflectionPackage(
        c,
        sub,
        inclusion,
        reflector,
        NaturalTransformation(reflector, reflector, units),
        inverses,
        side,
    )


def test_hom_reads_match_the_morphism_list(categories):
    for c in categories:
        for va, a in enumerate(c.vertices):
            for vb, b in enumerate(c.vertices):
                want = hom_by_names(c, a, b)
                assert c.hom_ids(va, vb) == [c.mor_id[m] for m in want], (c.name, a, b)
                assert list(c.hom(a, b)) == want, (c.name, a, b)


def test_inverse_search_matches_the_brute_force(categories):
    found = {True: 0, False: 0}
    for c in categories:
        for m in c.morphisms:
            assert inverse_of(c, m) == inverse_by_names(c, m), (c.name, m)
            found[bool(c.stray)] += inverse_of(c, m) is not None
    # inverses are found both off the rows and through stray entries
    assert found[True] and found[False]


def test_reflection_sweeps_match_on_fixed_subcategories(totals):
    swept = 0
    for t in totals:
        for side in (MONAD, COMONAD):
            p = fixed_subcategory(collapsed(t, side))
            assert p.side is side
            got, want = verify_reflection(p), reflection_by_names(p)
            assert got.ok and want.ok, t.total.name
            swept += 1
    assert swept == 2 * len(totals)


def test_reflection_sweeps_match_on_seeded_packages(categories):
    rules = set()
    for i, c in enumerate(categories):
        if not c.objects:
            continue
        for side in (MONAD, COMONAD):
            p = seeded_package(c, side, seed=i)
            got, want = verify_reflection(p), reflection_by_names(p)
            assert (got.render(), got.omitted) == (want.render(), want.omitted), c.name
            rules |= {v.rule for v in got.violations}
    # the seeded packages reach every rule of the sweep on both sides
    assert rules >= {
        f"{tag}-{rule}"
        for tag in ("reflection", "coreflection")
        for rule in ("data", "no-mediator", "ambiguous-mediator", "closed-form")
    }


def test_reflection_sweeps_match_where_a_name_is_no_ambient_vertex(totals):
    """Two packages per side whose names leave the ambient: a reflector
    sending an object to a name that is no vertex, which then has no
    mediators, and a subcategory holding an object the ambient lacks, which
    then has no arrows."""
    for side in (MONAD, COMONAD):
        p = fixed_subcategory(collapsed(totals[0], side))
        x = p.ambient.objects[0]
        stray_image = replace(
            p,
            reflector=Functor(
                p.ambient,
                p.subcategory,
                {**p.reflector.obj_map, x: "ghost"},
                name="stray-image",
                images=p.reflector.images,
            ),
        )
        sub = p.subcategory
        ghost_object = replace(
            p,
            subcategory=Category(
                sub.name,
                (*sub.objects, "ghost"),
                [*sub.morphisms.values(), Mor("id_ghost", "ghost", "ghost")],
                {**sub.identity, "ghost": "id_ghost"},
                {**sub.compose, ("id_ghost", "id_ghost"): "id_ghost"},
            ),
            unit_inverses={**p.unit_inverses, "ghost": "id_ghost"},
        )
        for q in (stray_image, ghost_object):
            got, want = verify_reflection(q), reflection_by_names(q)
            assert (got.render(), got.omitted) == (want.render(), want.omitted), p.side.monad
        # the object sent off the ambient has arrows into the subcategory,
        # and none of them factors
        assert {v.rule for v in verify_reflection(stray_image).violations} == {
            f"{p.side.reflect}ion-no-mediator"
        }


def test_no_identity_at_an_end_means_no_inverse():
    # f: a -> b and g: b -> a with no identities and an empty table: both
    # composites are missing, which must not read as the missing identity
    c = Category("bare", ["a", "b"], [Mor("f", "a", "b"), Mor("g", "b", "a")], {}, {})
    assert inverse_of(c, "f") is None and inverse_of(c, "g") is None
    # an identity at one end only is no better
    one = Category(
        "one-end",
        ["a", "b"],
        [Mor("id_a", "a", "a"), Mor("f", "a", "b"), Mor("g", "b", "a")],
        {"a": "id_a"},
        {("id_a", "id_a"): "id_a", ("f", "id_a"): "f", ("id_a", "g"): "g", ("g", "f"): "id_a"},
    )
    assert inverse_of(one, "f") is None and inverse_of(one, "g") is None
