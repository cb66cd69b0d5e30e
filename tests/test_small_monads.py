"""Every (T, eta) on nine small categories, as an oracle for the laws stage.

On each category the test lists every endofunctor that passes
``validate_functor`` and, on each side, every unit (counit) that passes
``validate_nat``, then runs ``check_idempotent`` on every pair.  Idempotent
monads are reflective subcategories (Mac Lane, *CWM* IV.3 and VI), so the
counts are known by hand: a chain of n has 2^(n-1) reflective object sets,
the span and the cospan swap under duality, and on a ~= b every unit is
invertible.  Each pair that passes goes on through ``fixed_subcategory`` and
``verify_reflection``, so those sweeps also meet isomorphisms that are no
identities.
"""

from itertools import product

import pytest
from helpers import idem_endo, isomorphic_pair, parallel_pair

from catmn import (
    COMONAD,
    MONAD,
    Category,
    Functor,
    MonadDatum,
    Mor,
    NaturalTransformation,
    check_idempotent,
    fixed_subcategory,
    identity_functor,
    validate_functor,
    validate_nat,
    verify_reflection,
)


def poset(name: str, objects: list[str], covers: list[tuple[str, str]]) -> Category:
    """The thin category of the order on ``objects`` generated by
    ``covers``: one morphism ``x<y`` for each x <= y, an identity ``id_x``
    when x = y."""
    leq = {(x, x) for x in objects} | set(covers)
    while True:
        more = {(x, z) for x, y in leq for y2, z in leq if y == y2} - leq
        if not more:
            break
        leq |= more

    def arrow(x, y):
        return f"id_{x}" if x == y else f"{x}<{y}"

    return Category(
        name,
        objects,
        [Mor(arrow(x, y), x, y) for x, y in sorted(leq)],
        {x: arrow(x, x) for x in objects},
        {(arrow(y, z), arrow(x, y)): arrow(x, z) for x, y in leq for y2, z in leq if y == y2},
    )


def chain(n: int) -> Category:
    objects = [f"x{i}" for i in range(n)]
    return poset(f"chain-{n}", objects, list(zip(objects, objects[1:])))


def idempotent_monoid() -> Category:
    """One object and one non-identity arrow e with e after e = e."""
    return Category(
        "idempotent-monoid",
        ["o"],
        [Mor("id_o", "o", "o"), Mor("e", "o", "o")],
        {"o": "id_o"},
        {("id_o", "id_o"): "id_o", ("e", "id_o"): "e", ("id_o", "e"): "e", ("e", "e"): "e"},
    )


def split_idempotent() -> Category:
    """The idempotent e = s after r on b, split through a: r after s = id_a."""
    ids = {"a": "id_a", "b": "id_b"}
    return Category(
        "split-idempotent",
        ["a", "b"],
        [
            Mor("id_a", "a", "a"),
            Mor("id_b", "b", "b"),
            Mor("s", "a", "b"),
            Mor("r", "b", "a"),
            Mor("e", "b", "b"),
        ],
        ids,
        {(m, m): m for m in ids.values()}
        | {("s", "id_a"): "s", ("id_b", "s"): "s", ("r", "id_b"): "r", ("id_a", "r"): "r"}
        | {("e", "id_b"): "e", ("id_b", "e"): "e", ("e", "e"): "e"}
        | {("r", "s"): "id_a", ("s", "r"): "e", ("e", "s"): "s", ("r", "e"): "r"},
    )


# per category, on the monad side: endofunctors, natural units, idempotent
# pairs and distinct fixed object sets among them; the comonad side is the
# same but for the span and the cospan, which swap
CASES = {
    "chain-2": (lambda: chain(2), (3, 2, 2, 2)),
    "chain-3": (lambda: chain(3), (10, 5, 4, 4)),
    "chain-4": (lambda: chain(4), (35, 14, 8, 8)),
    "span": (lambda: poset("span", ["a", "b", "c"], [("c", "a"), ("c", "b")]), (11, 1, 1, 1)),
    "cospan": (lambda: poset("cospan", ["a", "b", "c"], [("a", "c"), ("b", "c")]), (11, 4, 4, 4)),
    "parallel-pair": (parallel_pair, (6, 1, 1, 1)),
    "isomorphic-pair": (isomorphic_pair, (4, 4, 4, 1)),
    "idempotent-monoid": (idempotent_monoid, (2, 3, 1, 1)),
    "split-idempotent": (split_idempotent, (3, 4, 2, 2)),
}
DUAL = {"span": "cospan", "cospan": "span"}


def endofunctors(c: Category):
    """Every endofunctor of ``c`` that passes ``validate_functor``."""
    for images in product(c.objects, repeat=len(c.objects)):
        obj_map = dict(zip(c.objects, images))
        choices = [c.hom(obj_map[m.src], obj_map[m.dst]) for m in c.morphisms.values()]
        for mors in product(*choices):
            F = Functor(c, c, obj_map, dict(zip(c.morphisms, mors)))
            if validate_functor(F).ok:
                yield F


def units(T: Functor, side):
    """Every unit 1 => T (counit T => 1 on the comonad side) that passes
    ``validate_nat``."""
    c = T.source
    ends = side.orient(identity_functor(c), T)
    for comps in product(*(c.hom(*side.orient(x, T.obj_map[x])) for x in c.objects)):
        eta = NaturalTransformation(*ends, dict(zip(c.objects, comps)))
        if validate_nat(eta).ok:
            yield eta


def census(c: Category, side):
    """The counts of :data:`CASES` for ``c`` on ``side``, and the rules
    under which the rejected pairs fail."""
    functors = list(endofunctors(c))
    pairs = [MonadDatum(T, eta, side) for T in functors for eta in units(T, side)]
    accepted, fixed_sets, rejected_rules = 0, set(), []
    for d in pairs:
        report = check_idempotent(d)
        if not report.ok:
            rejected_rules.append({v.rule for v in report.violations})
            continue
        accepted += 1
        p = fixed_subcategory(d)
        assert verify_reflection(p).ok, (c.name, d.functor.obj_map, d.unit.components)
        fixed_sets.add(frozenset(p.subcategory.objects))
    return (len(functors), len(pairs), accepted, len(fixed_sets)), rejected_rules


@pytest.mark.parametrize("side", [MONAD, COMONAD], ids=lambda s: s.monad)
@pytest.mark.parametrize("name", list(CASES))
def test_every_pair_on_a_small_category(name, side):
    build, _ = CASES[name]
    want = CASES[DUAL.get(name, name) if side.flip else name][1]
    got, rejected = census(build(), side)
    assert got == want
    assert all(rules == {f"{side.monad}-idempotence"} for rules in rejected)


@pytest.mark.parametrize("side", [MONAD, COMONAD], ids=lambda s: s.monad)
def test_eleven_of_the_thirty_eight_units_are_rejected(side):
    counts = [census(build(), side)[0] for build, _ in CASES.values()]
    assert sum(made for _, made, _, _ in counts) == 38
    assert sum(made - accepted for _, made, accepted, _ in counts) == 11


def test_a_unit_whiskered_invertible_on_one_side_only_is_rejected():
    """On the idempotent e absorbing f: a -> b, send everything to b and f
    to e, with units f and id_b.  The unit at each image is id_b, but the
    image of the unit at a is e, so only the functor-of-unit whiskering
    rejects the pair.  The nine categories above have no such pair."""
    c = idem_endo()
    T = Functor(c, c, {"a": "b", "b": "b"}, {"id_a": "id_b", "id_b": "id_b", "f": "e", "e": "e"})
    eta = NaturalTransformation(identity_functor(c), T, {"a": "f", "b": "id_b"})
    assert validate_functor(T).ok and validate_nat(eta).ok
    assert check_idempotent(MonadDatum(T, eta, MONAD)).render().splitlines() == [
        "monad-idempotence [functor-of-unit, a]: whiskered component 'e' is not invertible"
    ]
