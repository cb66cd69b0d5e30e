"""Functors and natural transformations between finite categories.

A contravariant functor keeps the same tables as a covariant one; its laws
are the covariant ones read on a flipped view of its source
(:func:`catmn.core.oriented`), so one set of law checks covers both
variances without building the opposite category.
Whiskering on either side is provided because the monad/comonad machinery
needs all four composites (unit/counit against their own endofunctors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

from .core import NO_ROW, Category, inverse_of, oriented
from .errors import (
    InvalidArtifactError,
    MismatchError,
    UnknownMorphismError,
    UnknownObjectError,
)
from .report import ValidationReport, Violation


@dataclass(frozen=True)
class Functor:
    """A functor as explicit object and morphism tables."""

    source: Category
    target: Category
    obj_map: dict[str, str]
    mor_map: dict[str, str]
    name: str = field(default="", compare=False)

    def on_obj(self, x: str) -> str:
        try:
            return self.obj_map[x]
        except KeyError:
            raise UnknownObjectError(
                f"functor {self.name!r} is undefined on object {x!r}"
            ) from None

    def on_mor(self, f: str) -> str:
        try:
            return self.mor_map[f]
        except KeyError:
            raise UnknownMorphismError(
                f"functor {self.name!r} is undefined on morphism {f!r}"
            ) from None


def identity_functor(c: Category) -> Functor:
    return Functor(
        c,
        c,
        {x: x for x in c.objects},
        {m: m for m in c.morphisms},
        name=f"1[{c.name}]",
    )


def validate_functor(F: Functor) -> ValidationReport:
    """Check totality, typing, identity and composition preservation."""
    return _functor_report(F.source, F.target, F.obj_map, F.mor_map)


def _functor_report(
    src: Category,
    tgt: Category,
    obj_map: dict[str, str],
    mor_map: dict[str, str],
    flip: bool = False,
) -> ValidationReport:
    """:func:`validate_functor` on tables from ``src`` to ``tgt``, with
    ``flip`` reading ``src`` as its opposite: endpoints swapped and each
    entry ``g after f`` read as ``f after g``.  The subjects are the ones a
    check on the real opposite gives."""
    violations: list[Violation] = []
    src_objects, tgt_objects = set(src.objects), set(tgt.objects)
    ends = oriented(src, flip).ends

    for x in src.objects:
        if x not in obj_map:
            violations.append(Violation("functor-object-missing", (x,), "no image assigned"))
        elif obj_map[x] not in tgt_objects:
            violations.append(
                Violation("functor-object-image", (x,), f"image {obj_map[x]!r} is not a target object")
            )
    for x in obj_map:
        if x not in src_objects:
            violations.append(
                Violation("functor-object-extra", (x,), "image assigned to a non-object")
            )

    for f, mf in src.morphisms.items():
        if f not in mor_map:
            violations.append(Violation("functor-morphism-missing", (f,), "no image assigned"))
            continue
        Ff = mor_map[f]
        if Ff not in tgt.morphisms:
            violations.append(
                Violation("functor-morphism-image", (f,), f"image {Ff!r} is not a target morphism")
            )
            continue
        mFf = tgt.morphisms[Ff]
        a, b = ends(mf)
        want_src = obj_map.get(a)
        want_dst = obj_map.get(b)
        if want_src is None or want_dst is None:
            # an endpoint with no image is reported once: as
            # functor-object-missing when it is a source object, here if not
            for end, x, want in (("source", a, want_src), ("target", b, want_dst)):
                if want is None and x not in src_objects:
                    violations.append(
                        Violation(
                            "functor-endpoints",
                            (f,),
                            f"{end} {x!r} is not a source object, so its image is unchecked",
                        )
                    )
        if want_src is not None and mFf.src != want_src:
            violations.append(
                Violation(
                    "functor-endpoints",
                    (f,),
                    f"image source is {mFf.src!r}, expected {want_src!r}",
                )
            )
        if want_dst is not None and mFf.dst != want_dst:
            violations.append(
                Violation(
                    "functor-endpoints",
                    (f,),
                    f"image target is {mFf.dst!r}, expected {want_dst!r}",
                )
            )
    for f in mor_map:
        if f not in src.morphisms:
            violations.append(
                Violation("functor-morphism-extra", (f,), "image assigned to a non-morphism")
            )

    for x in src.objects:
        idx = src.identity.get(x)
        if idx is None or idx not in mor_map or x not in obj_map:
            continue
        want = tgt.identity.get(obj_map[x])
        if mor_map[idx] != want:
            violations.append(
                Violation(
                    "functor-identity",
                    (x,),
                    f"identity of {x!r} maps to {mor_map[idx]!r}, expected {want!r}",
                )
            )

    # each table entry yields at most one violation and the report sorts its
    # violations, so the rows are walked in their own order; entry g o f = h
    # of the source, read flipped, is f o g = h in the opposite
    image = mor_map.get
    tgt_rows = tgt.rows
    for f, row in src.rows.items():
        Ff = image(f)
        if Ff is None:
            continue
        after_Ff = tgt_rows.get(Ff, NO_ROW)
        for g, h in row.items():
            Fg, Fh = image(g), image(h)
            if Fg is None or Fh is None:
                continue
            got = tgt_rows.get(Fg, NO_ROW).get(Ff) if flip else after_Ff.get(Fg)
            if got != Fh:
                violations.append(
                    Violation(
                        "functor-composition",
                        (f, g) if flip else (g, f),
                        f"image of composite is {Fh!r} but composite of images is {got!r}",
                    )
                )

    return ValidationReport(violations)


def composite_tables(source: Category, *chain) -> tuple[dict[str, str], dict[str, str]]:
    """The object and morphism tables, on ``source``, of the functors in
    ``chain`` applied in turn (the first one first), read by plain dict
    lookups.  A missing image raises the error that applying the functors'
    ``on_obj``/``on_mor`` one element at a time would raise."""
    try:
        return (
            _chained(source.objects, [F.obj_map for F in chain]),
            _chained(source.morphisms, [F.mor_map for F in chain]),
        )
    except KeyError:
        pass
    # rare: redo it call by call, so the first miss names its functor
    return (
        {x: reduce(lambda y, F: F.on_obj(y), chain, x) for x in source.objects},
        {f: reduce(lambda g, F: F.on_mor(g), chain, f) for f in source.morphisms},
    )


def _chained(keys, maps) -> dict[str, str]:
    images = keys
    for m in maps:
        images = map(m.__getitem__, images)
    return dict(zip(keys, images))


def compose_functors(G: Functor, F: Functor) -> Functor:
    """``G`` after ``F``.  The middle categories must agree."""
    if F.target != G.source:
        raise MismatchError(
            f"cannot compose {G.name!r} after {F.name!r}: middle categories differ"
        )
    return Functor(F.source, G.target, *composite_tables(F.source, F, G), name=f"{G.name}.{F.name}")


@dataclass(frozen=True)
class ContravariantFunctor:
    """A contravariant functor from ``presented_source`` to ``target``.

    The tables are direction-agnostic: ``mor_map`` sends a morphism
    ``f: a -> b`` to one going from the image of ``b`` to the image of
    ``a``.  :func:`validate_contravariant` checks that on a flipped reading
    of ``presented_source``; no opposite category is built.
    """

    presented_source: Category
    target: Category
    obj_map: dict[str, str]
    mor_map: dict[str, str]
    name: str = field(default="", compare=False)

    on_obj = Functor.on_obj
    on_mor = Functor.on_mor


def contravariant_functor(
    source: Category,
    target: Category,
    obj_map: dict[str, str],
    mor_map: dict[str, str],
    name: str = "",
) -> ContravariantFunctor:
    return ContravariantFunctor(source, target, dict(obj_map), dict(mor_map), name=name)


def validate_contravariant(F: ContravariantFunctor) -> ValidationReport:
    """:func:`validate_functor` on the opposite of the presented source, read
    off the presented source itself: the same violations, subjects and
    details a check against ``opposite(F.presented_source)`` reports."""
    return _functor_report(F.presented_source, F.target, F.obj_map, F.mor_map, flip=True)


@dataclass(frozen=True)
class NaturalTransformation:
    """A transformation between two parallel functors, one component per
    source object."""

    source_functor: Functor
    target_functor: Functor
    components: dict[str, str]
    name: str = field(default="", compare=False)


def identity_nat(F: Functor) -> NaturalTransformation:
    return NaturalTransformation(
        F,
        F,
        {x: F.target.id_of(F.on_obj(x)) for x in F.source.objects},
        name=f"id[{F.name}]",
    )


def validate_nat(alpha: NaturalTransformation) -> ValidationReport:
    """Check components are typed correctly and every naturality square
    commutes.  Assumes the two functors themselves are valid."""
    violations: list[Violation] = []
    F, G = alpha.source_functor, alpha.target_functor
    if F.source != G.source or F.target != G.target:
        violations.append(
            Violation("nat-parallel", (alpha.name or "<nat>",), "functors are not parallel")
        )
        return ValidationReport(violations)
    dom, cod = F.source, F.target

    bad_at: set[str] = set()
    for x in dom.objects:
        comp = alpha.components.get(x)
        if comp is None:
            violations.append(Violation("component-missing", (x,), "no component assigned"))
            bad_at.add(x)
            continue
        if comp not in cod.morphisms:
            violations.append(
                Violation("component-unknown", (x,), f"component {comp!r} is not a morphism")
            )
            bad_at.add(x)
            continue
        m = cod.morphisms[comp]
        want_src = F.obj_map.get(x)
        want_dst = G.obj_map.get(x)
        if m.src != want_src or m.dst != want_dst:
            violations.append(
                Violation(
                    "component-typing",
                    (x,),
                    f"component {comp!r} goes {m.src!r} -> {m.dst!r}, "
                    f"expected {want_src!r} -> {want_dst!r}",
                )
            )
            bad_at.add(x)
    dom_objects = set(dom.objects)
    for x in alpha.components:
        if x not in dom_objects:
            violations.append(
                Violation("component-extra", (x,), "component assigned to a non-object")
            )

    components = alpha.components
    # a square is checked only between good components; an end that is no
    # object has none, and validate_category reports it as morphism-endpoints
    good = components.keys() - bad_at
    cod_rows = cod.rows
    for f, mf in dom.morphisms.items():
        if mf.src not in good or mf.dst not in good:
            continue
        Ff, Gf = F.mor_map.get(f), G.mor_map.get(f)
        if Ff is None or Gf is None:
            continue
        left = cod_rows.get(Ff, NO_ROW).get(components[mf.dst])
        right = cod_rows.get(components[mf.src], NO_ROW).get(Gf)
        if left != right or left is None:
            violations.append(
                Violation(
                    "naturality-square",
                    (f,),
                    f"square does not commute: component-after-image is {left!r}, "
                    f"image-after-component is {right!r}",
                )
            )

    return ValidationReport(violations)


def iso_violations(alpha: NaturalTransformation, rule: str, label: str) -> list[Violation]:
    """Why ``alpha`` is not a natural isomorphism: its own violations, or
    when it is valid one under ``rule`` for each component without an
    inverse, with subject ``(label, object)``."""
    report = validate_nat(alpha)
    if not report.ok:
        return list(report.violations)
    cod = alpha.source_functor.target
    return [
        Violation(rule, (label, x), f"component {alpha.components[x]!r} is not invertible")
        for x in alpha.source_functor.source.objects
        if inverse_of(cod, alpha.components[x]) is None
    ]


def is_natural_iso(alpha: NaturalTransformation) -> bool:
    """True iff ``alpha`` is valid and every component has a two-sided
    inverse; raises on an invalid transformation."""
    report = validate_nat(alpha)
    if not report.ok:
        raise InvalidArtifactError("invalid natural transformation", report)
    cod = alpha.source_functor.target
    return all(
        inverse_of(cod, alpha.components[x]) is not None
        for x in alpha.source_functor.source.objects
    )


def inverse_nat(alpha: NaturalTransformation) -> NaturalTransformation:
    """Componentwise inverse; requires a natural isomorphism."""
    if not is_natural_iso(alpha):
        raise InvalidArtifactError(
            f"transformation {alpha.name!r} is not a natural isomorphism"
        )
    cod = alpha.source_functor.target
    return NaturalTransformation(
        alpha.target_functor,
        alpha.source_functor,
        {x: inverse_of(cod, m) for x, m in alpha.components.items()},
        name=f"inv[{alpha.name}]",
    )


def vertical_compose(
    beta: NaturalTransformation, alpha: NaturalTransformation
) -> NaturalTransformation:
    """``beta`` after ``alpha`` (componentwise composition)."""
    if alpha.target_functor != beta.source_functor:
        raise MismatchError("vertical composition: middle functors differ")
    cod = alpha.source_functor.target
    return NaturalTransformation(
        alpha.source_functor,
        beta.target_functor,
        {
            x: cod.comp(beta.components[x], alpha.components[x])
            for x in alpha.source_functor.source.objects
        },
        name=f"{beta.name}.{alpha.name}",
    )


def whisker_left(F: Functor, alpha: NaturalTransformation) -> NaturalTransformation:
    """Post-compose with a functor: component at x is ``F(alpha_x)``."""
    if alpha.source_functor.target != F.source:
        raise MismatchError("whisker_left: functor does not start where the transformation lands")
    return NaturalTransformation(
        compose_functors(F, alpha.source_functor),
        compose_functors(F, alpha.target_functor),
        {x: F.on_mor(m) for x, m in alpha.components.items()},
        name=f"{F.name}.{alpha.name}",
    )


def whisker_right(alpha: NaturalTransformation, F: Functor) -> NaturalTransformation:
    """Pre-compose with a functor: component at x is ``alpha_{F(x)}``."""
    if F.target != alpha.source_functor.source:
        raise MismatchError("whisker_right: functor does not land where the transformation starts")
    return NaturalTransformation(
        compose_functors(alpha.source_functor, F),
        compose_functors(alpha.target_functor, F),
        {x: alpha.components[F.on_obj(x)] for x in F.source.objects},
        name=f"{alpha.name}.{F.name}",
    )
