"""Hand-built gadget categories and (co)monads the test modules share, the
name-level collapse search the fiber builders are compared with, the
rescanning linear extension that ``FiberPoset.linear_extension`` is, and the
name-level tables that each functor builder gave before functors held ids.

Each is small enough to check by eye; the composition tables are written
out in full so the tests do not depend on the loader's completion rules.
"""

import sys

from catmn import (
    COMONAD,
    MONAD,
    Category,
    ExtremumError,
    Functor,
    LiftError,
    MonadDatum,
    Mor,
    NaturalTransformation,
    Violation,
    compose_functors,
    identity_functor,
    identity_nat,
)
from catmn.functors import left_components, right_components


def walking_arrow() -> Category:
    """Two objects, one arrow between them: the smallest non-discrete case."""
    return Category(
        "walking-arrow",
        ["a", "b"],
        [Mor("id_a", "a", "a"), Mor("id_b", "b", "b"), Mor("f", "a", "b")],
        {"a": "id_a", "b": "id_b"},
        {
            ("id_a", "id_a"): "id_a",
            ("id_b", "id_b"): "id_b",
            ("f", "id_a"): "f",
            ("id_b", "f"): "f",
        },
    )


def parallel_pair() -> Category:
    """Two parallel arrows u, v: s -> t and nothing else."""
    return Category(
        "parallel-pair",
        ["s", "t"],
        [
            Mor("id_s", "s", "s"),
            Mor("id_t", "t", "t"),
            Mor("u", "s", "t"),
            Mor("v", "s", "t"),
        ],
        {"s": "id_s", "t": "id_t"},
        {
            ("id_s", "id_s"): "id_s",
            ("id_t", "id_t"): "id_t",
            ("u", "id_s"): "u",
            ("v", "id_s"): "v",
            ("id_t", "u"): "u",
            ("id_t", "v"): "v",
        },
    )


def orbit() -> Category:
    """An involution e on b and a free point a over it: f2 = e after f.

    hom(a, b) = {f, f2} is a free orbit of the two-element group acting on
    b, which makes {b} reflective in a way small enough to sweep by hand.
    """
    return Category(
        "orbit",
        ["a", "b"],
        [
            Mor("id_a", "a", "a"),
            Mor("id_b", "b", "b"),
            Mor("e", "b", "b"),
            Mor("f", "a", "b"),
            Mor("f2", "a", "b"),
        ],
        {"a": "id_a", "b": "id_b"},
        {
            ("id_a", "id_a"): "id_a",
            ("id_b", "id_b"): "id_b",
            ("e", "e"): "id_b",
            ("e", "id_b"): "e",
            ("id_b", "e"): "e",
            ("f", "id_a"): "f",
            ("f2", "id_a"): "f2",
            ("id_b", "f"): "f",
            ("id_b", "f2"): "f2",
            ("e", "f"): "f2",
            ("e", "f2"): "f",
        },
    )


def orbit_op() -> Category:
    """Mirror image of :func:`orbit`: the free point maps out of b."""
    return Category(
        "orbit-op",
        ["a", "b"],
        [
            Mor("id_a", "a", "a"),
            Mor("id_b", "b", "b"),
            Mor("e", "b", "b"),
            Mor("f", "b", "a"),
            Mor("f2", "b", "a"),
        ],
        {"a": "id_a", "b": "id_b"},
        {
            ("id_a", "id_a"): "id_a",
            ("id_b", "id_b"): "id_b",
            ("e", "e"): "id_b",
            ("e", "id_b"): "e",
            ("id_b", "e"): "e",
            ("f", "id_b"): "f",
            ("f2", "id_b"): "f2",
            ("id_a", "f"): "f",
            ("id_a", "f2"): "f2",
            ("f", "e"): "f2",
            ("f2", "e"): "f",
        },
    )


def idem_endo() -> Category:
    """A non-invertible idempotent e on b absorbing the arrow from a."""
    return Category(
        "idem-endo",
        ["a", "b"],
        [
            Mor("id_a", "a", "a"),
            Mor("id_b", "b", "b"),
            Mor("e", "b", "b"),
            Mor("f", "a", "b"),
        ],
        {"a": "id_a", "b": "id_b"},
        {
            ("id_a", "id_a"): "id_a",
            ("id_b", "id_b"): "id_b",
            ("e", "e"): "e",
            ("e", "id_b"): "e",
            ("id_b", "e"): "e",
            ("f", "id_a"): "f",
            ("id_b", "f"): "f",
            ("e", "f"): "f",
        },
    )


def three_chain() -> Category:
    """The thin category x0 <= x1 <= x2."""
    return Category(
        "three-chain",
        ["x0", "x1", "x2"],
        [
            Mor("id_x0", "x0", "x0"),
            Mor("id_x1", "x1", "x1"),
            Mor("id_x2", "x2", "x2"),
            Mor("a01", "x0", "x1"),
            Mor("a12", "x1", "x2"),
            Mor("a02", "x0", "x2"),
        ],
        {"x0": "id_x0", "x1": "id_x1", "x2": "id_x2"},
        {
            ("id_x0", "id_x0"): "id_x0",
            ("id_x1", "id_x1"): "id_x1",
            ("id_x2", "id_x2"): "id_x2",
            ("a01", "id_x0"): "a01",
            ("id_x1", "a01"): "a01",
            ("a12", "id_x1"): "a12",
            ("id_x2", "a12"): "a12",
            ("a02", "id_x0"): "a02",
            ("id_x2", "a02"): "a02",
            ("a12", "a01"): "a02",
        },
    )


def successor_monad() -> MonadDatum:
    """Round up one step along the three-chain: a valid monad datum whose
    unit whiskerings are not invertible, so idempotence fails."""
    c = three_chain()
    N = Functor(
        c,
        c,
        {"x0": "x1", "x1": "x2", "x2": "x2"},
        {
            "id_x0": "id_x1",
            "id_x1": "id_x2",
            "id_x2": "id_x2",
            "a01": "a12",
            "a12": "id_x2",
            "a02": "a12",
        },
        name="step-up",
    )
    unit = NaturalTransformation(
        identity_functor(c), N, {"x0": "a01", "x1": "a12", "x2": "id_x2"}
    )
    return MonadDatum(N, unit, MONAD, name="step-up")


def predecessor_comonad() -> MonadDatum:
    c = three_chain()
    M = Functor(
        c,
        c,
        {"x0": "x0", "x1": "x0", "x2": "x1"},
        {
            "id_x0": "id_x0",
            "id_x1": "id_x0",
            "id_x2": "id_x1",
            "a01": "id_x0",
            "a12": "a01",
            "a02": "a01",
        },
        name="step-down",
    )
    counit = NaturalTransformation(
        M, identity_functor(c), {"x0": "id_x0", "x1": "a01", "x2": "a12"}
    )
    return MonadDatum(M, counit, COMONAD, name="step-down")


def collapse_monad(sets: Category) -> MonadDatum:
    """Send every object of the two-set demo category to the singleton.
    Idempotent, but its unit is not pointwise invertible."""
    only = {
        (a, b): sets.hom(a, b)[0] for a in sets.objects for b in sets.objects
    }
    N = Functor(
        sets,
        sets,
        {x: "set1" for x in sets.objects},
        {f: only[("set1", "set1")] for f in sets.morphisms},
        name="collapse",
    )
    unit = NaturalTransformation(
        identity_functor(sets),
        N,
        {x: only[(x, "set1")] for x in sets.objects},
        name="collapse-unit",
    )
    return MonadDatum(N, unit, MONAD, name="collapse")


def identity_datum(c: Category, side) -> MonadDatum:
    """The identity monad or comonad of ``c``, as ``side`` says."""
    one = identity_functor(c)
    return MonadDatum(one, identity_nat(one), side, name=f"identity-{side.monad}")


def whisker_left(F: Functor, alpha: NaturalTransformation) -> NaturalTransformation:
    """Post-compose with a functor: component at x is ``F(alpha_x)``."""
    components = left_components(F, alpha)
    return NaturalTransformation(
        compose_functors(F, alpha.source_functor),
        compose_functors(F, alpha.target_functor),
        components,
        name=f"{F.name}.{alpha.name}",
    )


def whisker_right(alpha: NaturalTransformation, F: Functor) -> NaturalTransformation:
    """Pre-compose with a functor: component at x is ``alpha_{F(x)}``."""
    components = right_components(alpha, F)
    return NaturalTransformation(
        compose_functors(alpha.source_functor, F),
        compose_functors(alpha.target_functor, F),
        components,
        name=f"{alpha.name}.{F.name}",
    )


def spy(monkeypatch, module, name, calls):
    """Record ``(first argument's name, name)`` in ``calls`` whenever any
    catmn module calls ``module.name``; an argument with no ``name``, such
    as a command's parsed arguments, is recorded itself."""
    original = getattr(module, name)

    def counted(value, *rest):
        calls.append((getattr(value, "name", value), name))
        return original(value, *rest)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("catmn") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)


def collapse_by_names(t, side):
    """The collapse of every fiber of the total category ``t`` onto its
    ``side.final`` object, found by the name-level search: hom-sets by name
    and composites by ``comp_or_none``, both read flipped for the comonad.

    Returns the object map, the units, the morphism map, and each failure
    as ``(error, violation)`` in the order the search meets them: the error
    a builder raises first, and the violation the extension check records.
    """
    cat, base = t.total, t.projection.target
    over = dict(t.projection.mor_map)
    if side.flip:
        hom = lambda a, b: cat.hom(b, a)  # noqa: E731
        after = lambda g, f: cat.comp_or_none(f, g)  # noqa: E731
    else:
        hom, after = cat.hom, cat.comp_or_none
    failures = []

    def fail(error, rule, where, detail):
        failures.append((error, Violation(f"extension-{rule}", (where,), detail)))

    finals = {}
    for b in base.objects:
        idb = base.identity.get(b)
        objs = sorted(x for x, (bb, _) in t.object_decoding.items() if bb == b)
        for cand in objs:
            if all([over.get(u) for u in hom(y, cand)].count(idb) == 1 for y in objs):
                finals[b] = cand
                break
        else:
            fail(ExtremumError(b, side.final), f"no-{side.final}", b, f"fiber has no {side.final} object")
    base_of = {x: b for x, (b, _) in t.object_decoding.items()}
    obj_map = {x: finals[base_of[x]] for x in cat.objects if base_of[x] in finals}
    units = {}
    for x, top in obj_map.items():
        arrows = [u for u in hom(x, top) if over.get(u) == base.identity.get(base_of[x])]
        if len(arrows) == 1:
            units[x] = arrows[0]
        else:
            fail(
                LiftError(f"{side.unit} at {x}", len(arrows)),
                f"{side.unit}-count",
                x,
                f"{len(arrows)} in-fiber arrows {side.to} the {side.final} object",
            )
    mor_map = {}
    for u, m in cat.morphisms.items():
        a, b = (m.dst, m.src) if side.flip else (m.src, m.dst)
        if a not in units or b not in units:
            continue
        target_side = after(units[b], u)
        lifts = [v for v in hom(obj_map[a], obj_map[b]) if after(v, units[a]) == target_side]
        if len(lifts) == 1:
            mor_map[u] = lifts[0]
        else:
            fail(
                LiftError(u, len(lifts)),
                f"{side.final}-lift",
                u,
                f"{len(lifts)} lifts between the fiber {side.top}s",
            )
    return obj_map, units, mor_map, failures


def linear_extension_by_rescan(p):
    """The reference order of ``FiberPoset.linear_extension``: each step
    rescans the remaining elements for the least one with no other
    remaining element below it, and takes the least remaining one when a
    cycle leaves none."""
    remaining = set(p.elements)
    out = []
    while remaining:
        ready = sorted(x for x in remaining if p.down[x] & remaining <= {x})
        if not ready:
            ready = sorted(remaining)[:1]
        out.append(ready[0])
        remaining.remove(ready[0])
    return out


# ---------------------------------------------------------------------------
# the name-level functor tables that the id tables replaced


def projection_by_names(s) -> dict[str, str]:
    """The projection of ``s``'s total category as a dict by names: each
    lift ``f|k|k2`` of a base arrow ``f``, for ``k2`` above ``act_f(k)``,
    to ``f``."""
    return {
        f"{f}|{k}|{k2}": f
        for f, m in s.base.morphisms.items()
        for k in s.fibers[m.src].elements
        for k2 in s.fibers[m.dst].up[s.actions[f][k]]
    }


def chained_by_names(keys, maps) -> dict[str, str]:
    """The composite of the name tables ``maps``, the first applied first,
    on ``keys``: the plain dict lookups of the composite builder."""
    images = keys
    for m in maps:
        images = map(m.__getitem__, images)
    return dict(zip(keys, images))


def functor_table_by_names(builder: str, F: Functor, scope: dict, refs: dict) -> dict:
    """The morphism table, as a dict by names, that the package function
    ``builder`` gave the functor ``F`` when functors were name-keyed dicts.
    ``scope`` holds the builder's arguments and ``refs`` the tables already
    found for other functors, by ``id``."""

    def table(G):
        return refs[id(G)] if id(G) in refs else dict(G.mor_map)

    if builder in ("identity_functor", "full_subcategory"):
        return {m: m for m in F.source.morphisms}
    if builder == "relabeled_opposite_equivalence":
        if F.name == "relabel":
            return {m: m + "~" for m in F.source.morphisms}
        return {m: m[:-1] for m in F.source.morphisms}
    if builder == "composite":
        return chained_by_names(list(F.source.morphisms), [table(G) for G in scope["chain"]])
    if builder == "fixed_subcategory":
        return table(scope["d"].functor)  # the datum's own dict
    if builder == "build_total_category":
        return projection_by_names(scope["s"])
    if builder == "_build":
        return collapse_by_names(scope["t"], scope["side"])[2]
    raise AssertionError(f"no name-level table for the functors {builder} builds")
