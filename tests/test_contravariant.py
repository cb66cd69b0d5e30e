"""Differential test: a contravariant functor checked on the flipped view of
its source against the covariant check on the real opposite category.

:func:`validate_contravariant` reads the presented source backwards and
builds no opposite.  Its oracle is :func:`validate_functor` on a functor out
of ``opposite(source)`` with the same tables; the two must render
the same report, subjects and details included, on valid maps and on maps
corrupted in each way the functor laws can fail.
"""

import pytest

from catmn import (
    Functor,
    build_total_category,
    canonical_c2,
    opposite,
    powerset_duality_demo,
    random_spec,
    relabeled_opposite_equivalence,
    validate_contravariant,
    validate_functor,
)
from helpers import orbit


def _duals():
    """Both directions of each duality: canonical_c2's total, the orbit, the
    powerset demo and the totals of random_spec seeds 0-49."""
    cats = [("canonical_c2", build_total_category(canonical_c2()).total), ("orbit", orbit())]
    cats += [(f"seed{seed}", build_total_category(random_spec(seed)).total) for seed in range(50)]
    for label, c in cats:
        e = relabeled_opposite_equivalence(c)
        yield label, e.forward
        yield label, e.backward
    e = powerset_duality_demo()
    yield "powerset", e.forward
    yield "powerset", e.backward


def _non_identities(c):
    ids = set(c.identity.values())
    return [f for f in c.morphisms if f not in ids]


def _composition(F):
    """Give a non-identity morphism the image of another, parallel to it
    when the source has such a pair."""
    src = F.source
    mors = _non_identities(src)
    parallel = [
        (f, g)
        for f in mors
        for g in src.hom(src.morphisms[f].src, src.morphisms[f].dst)
        if g != f and g in mors
    ]
    pairs = parallel or list(zip(mors, mors[1:]))
    if not pairs:
        return None
    f, g = pairs[0]
    return F.obj_map, {**F.mor_map, f: F.mor_map[g]}


def _endpoints(F):
    """Send the first object to another target object."""
    x = F.source.objects[0]
    others = [y for y in F.target.objects if y != F.obj_map[x]]
    if not others:
        return None
    return {**F.obj_map, x: others[-1]}, F.mor_map


def _identity(F):
    """Send an identity to another morphism, an endomorphism of its object's
    image when there is one."""
    x = F.source.objects[-1]
    idx, Fx = F.source.identity[x], F.obj_map[x]
    candidates = [m for m in F.target.hom(Fx, Fx) if m != F.mor_map[idx]]
    candidates += [m for m in F.target.morphisms if m != F.mor_map[idx]]
    if not candidates:
        return None
    return F.obj_map, {**F.mor_map, idx: candidates[0]}


def _missing(F):
    """Drop the image of the first object and of the last morphism."""
    x, f = F.source.objects[0], list(F.source.morphisms)[-1]
    return (
        {y: v for y, v in F.obj_map.items() if y != x},
        {g: v for g, v in F.mor_map.items() if g != f},
    )


def _extra(F):
    """Give images to an object and a morphism the source does not have."""
    some_obj, some_mor = F.target.objects[0], next(iter(F.target.morphisms))
    return {**F.obj_map, "zz-extra": some_obj}, {**F.mor_map, "zz-extra": some_mor}


CORRUPTIONS = {
    "composition": _composition,
    "endpoints": _endpoints,
    "identity": _identity,
    "missing": _missing,
    "extra": _extra,
}


def _oracle(F: Functor):
    op = opposite(F.source)
    return validate_functor(Functor(op, F.target, F.obj_map, F.mor_map, name=F.name))


@pytest.fixture(scope="module")
def duals():
    return list(_duals())


def test_valid_maps_agree_with_the_opposite(duals):
    for label, F in duals:
        got = validate_contravariant(F)
        assert got.ok, (label, F.name, got.render())
        assert got == _oracle(F)


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupted_maps_agree_with_the_opposite(duals, kind):
    rules = set()
    for label, F in duals:
        tables = CORRUPTIONS[kind](F)
        if tables is None:
            continue
        crooked = Functor(F.source, F.target, *tables, name=F.name)
        got = validate_contravariant(crooked)
        assert not got.ok, (label, F.name)
        assert got.render() == _oracle(crooked).render(), (label, F.name)
        rules |= {v.rule for v in got.violations}
    expected = {
        "composition": {"functor-composition"},
        "endpoints": {"functor-endpoints"},
        "identity": {"functor-identity"},
        "missing": {"functor-object-missing", "functor-morphism-missing"},
        "extra": {"functor-object-extra", "functor-morphism-extra"},
    }[kind]
    assert expected <= rules
