"""Functors and natural transformations between finite categories.

A contravariant functor keeps the same tables as a covariant one; its laws
are the covariant ones read on a flipped view of its source
(:func:`catmn.core.oriented`), so one set of law checks covers both
variances without building the opposite category.
Whiskering on either side builds the whole whiskered transformation, with
both composite functors.  The monad/comonad checks take only its components
(:func:`left_components`, :func:`right_components`), and the tests sweep the
full whiskerings as the reference for that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import attrgetter

from .core import Category, _gather, inverse_of
from .errors import (
    InvalidArtifactError,
    MismatchError,
    UnknownMorphismError,
    UnknownObjectError,
)
from .report import ValidationReport, Violation


def _images_field():
    """The private field a functor keeps its morphism table over ids in; see
    :func:`_mor_images`.  Like a remembered report, it assumes the tables are
    not edited in place once used."""
    return field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class Functor:
    """A functor as explicit object and morphism tables."""

    source: Category
    target: Category
    obj_map: dict[str, str]
    mor_map: dict[str, str]
    name: str = field(default="", compare=False)
    _images: list | None = _images_field()

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
    """The identity functor of ``c``.  Its tables are made once per category
    and shared, so identity functors of one category compare equal at once."""
    maps = c._identity_maps
    if maps is None:
        maps = c._identity_maps = (
            {x: x for x in c.objects},
            {m: m for m in c.morphisms},
            list(c.mor_id.values()),
        )
    F = Functor(c, c, maps[0], maps[1], name=f"1[{c.name}]")
    object.__setattr__(F, "_images", maps[2])
    return F


def _mor_images(F, source: Category) -> list:
    """``F``'s morphism table over the ids of ``source``: the target id of
    each image, the image's name where it is no target morphism, None where
    there is none.  Made on first use and kept on ``F``."""
    images = F._images
    if images is None:
        tid = F.target.mor_id
        images = [tid.get(m, m) for m in map(F.mor_map.get, source.names)]
        object.__setattr__(F, "_images", images)
    return images


def validate_functor(F: Functor) -> ValidationReport:
    """Check totality, typing, identity and composition preservation."""
    return _functor_report(F.source, F.target, F.obj_map, F.mor_map, _mor_images(F, F.source))


def _functor_report(
    src: Category,
    tgt: Category,
    obj_map: dict[str, str],
    mor_map: dict[str, str],
    img: list,
    flip: bool = False,
) -> ValidationReport:
    """:func:`validate_functor` on tables from ``src`` to ``tgt``, with
    ``flip`` reading ``src`` as its opposite: endpoints swapped and each
    entry ``g after f`` read as ``f after g``; ``img`` is ``mor_map`` over
    the ids (:func:`_mor_images`).  The subjects are the ones a check on the
    real opposite gives."""
    violations: list[Violation] = []
    src_objects, tgt_objects = set(src.objects), set(tgt.objects)
    ends = attrgetter("dst", "src") if flip else attrgetter("src", "dst")

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

    # the target vertex of each source vertex's image: a morphism whose image
    # is a target morphism going between the images of its ends has nothing
    # to report here
    at = list(map(tgt.vid.get, map(obj_map.get, src.vertices)))
    a_ends, b_ends = (src.dst, src.src) if flip else (src.src, src.dst)
    for (f, mf), image, a, b in zip(src.morphisms.items(), img, a_ends, b_ends):
        if type(image) is int and tgt.src[image] == at[a] and tgt.dst[image] == at[b]:
            continue
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

    violations.extend(_composition_sweep(src, tgt, mor_map, img, flip))
    return ValidationReport(violations)


def _composition_sweep(
    src: Category, tgt: Category, mor_map: dict[str, str], img: list, flip: bool
) -> list[Violation]:
    """The functor-composition violations of :func:`_functor_report`.

    Every entry ``g o f = h`` of the source table is checked against ``Fg o
    Ff`` in the target or, read flipped, against ``Ff o Fg`` (the entry is
    ``f o g = h`` in the opposite).  ``img`` holds the images by source id:
    target ids, or names where they are no target morphism.

    The rows are walked grouped by the vertex ``x`` they end at.  When the
    images of the morphisms leaving ``x`` all start at one target vertex
    ``t`` (flipped: end at it), as they do for a functor, the composites of
    any ``Ff`` ending at ``t`` (flipped: starting at it) with all of them
    are one tuple: the target row of ``Ff`` read at their slots, or
    flipped, the column of ``Ff`` in their target rows.  A row equal to the
    images of its entries holds nothing to report; any other row is checked
    entry by entry.
    """
    after, name_of = tgt.after, tgt.name_of
    found: list[Violation] = []

    def check(f, g, Ff, Fg, Fh) -> None:
        if Ff is None or Fg is None or Fh is None:
            return
        got = after(Ff, Fg) if flip else after(Fg, Ff)
        if got != Fh:
            f, g = src.name_of(f), src.name_of(g)
            found.append(
                Violation(
                    "functor-composition",
                    (f, g) if flip else (g, f),
                    f"image of composite is {name_of(Fh)!r} but composite of images is "
                    f"{name_of(got)!r}",
                )
            )

    t_start, t_end = (tgt.dst, tgt.src) if flip else (tgt.src, tgt.dst)
    tpos, trows, src_out, src_rows = tgt.pos, tgt.rows, src.out, src.rows
    for x, entering in enumerate(src.into):
        leaving = src_out[x]
        if not leaving:
            continue  # every row into x is empty
        t = columns = at_slots = None
        try:
            images = _gather(leaving)(img)
            starts = set(_gather(images)(t_start))
            if len(starts) == 1:
                (t,) = starts
                if flip:
                    columns = list(zip(*_gather(images)(trows)))
                else:
                    at_slots = _gather(_gather(images)(tpos))
        except TypeError:  # an image missing, or no target morphism
            t = None
        for f in entering:
            Ff, row = img[f], src_rows[f]
            if Ff is None or not row:
                continue
            if t is not None and type(Ff) is int and t_end[Ff] == t:
                try:
                    got = columns[tpos[Ff]] if flip else at_slots(trows[Ff])
                    if got == _gather(row)(img):
                        continue
                except TypeError:  # a hole in the row
                    pass
            for g, h in zip(leaving, row):
                if h is not None:
                    check(f, g, Ff, img[g], img[h])

    # a stray entry's ends that are no source morphism have images by name
    tid = tgt.mor_id
    for g, f, h in src.stray_ids():
        Ff, Fg, Fh = (
            img[m] if type(m) is int else tid.get(mor_map.get(m), mor_map.get(m))
            for m in (f, g, h)
        )
        check(f, g, Ff, Fg, Fh)
    return found


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
    _images: list | None = _images_field()

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
    images = _mor_images(F, F.presented_source)
    return _functor_report(F.presented_source, F.target, F.obj_map, F.mor_map, images, flip=True)


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

    # a square is checked only between good components; an end that is no
    # object has none, and validate_category reports it as morphism-endpoints
    good = alpha.components.keys() - bad_at
    cid = cod.mor_id
    component = [
        cid.get(alpha.components[x], alpha.components[x]) if x in good else None
        for x in dom.vertices
    ]
    image_F, image_G = _mor_images(F, dom), _mor_images(G, dom)
    after, name_of = cod.after, cod.name_of
    rows, pos, cod_src, cod_dst = cod.rows, cod.pos, cod.src, cod.dst
    for f, (s, d) in enumerate(zip(dom.src, dom.dst)):
        at_s, at_d = component[s], component[d]
        Ff, Gf = image_F[f], image_G[f]
        if at_s is None or at_d is None or Ff is None or Gf is None:
            continue
        # both sides read straight off the rows where their pairs are typed
        # ids; after() settles every square where that gives no match
        if (
            type(Ff) is int
            and type(Gf) is int
            and cod_src[at_d] == cod_dst[Ff]
            and cod_src[Gf] == cod_dst[at_s]
        ):
            left = rows[Ff][pos[at_d]]
            if left is not None and left == rows[at_s][pos[Gf]]:
                continue
        left = after(at_d, Ff)
        right = after(Gf, at_s)
        if left != right or left is None:
            violations.append(
                Violation(
                    "naturality-square",
                    (dom.names[f],),
                    f"square does not commute: component-after-image is {name_of(left)!r}, "
                    f"image-after-component is {name_of(right)!r}",
                )
            )

    return ValidationReport(violations)


def iso_report(alpha: NaturalTransformation, rule: str, label: str) -> ValidationReport:
    """Why ``alpha`` is not a natural isomorphism: its own report, or when
    it is valid one violation under ``rule`` for each component without an
    inverse, with subject ``(label, object)``."""
    report = validate_nat(alpha)
    if not report.ok:
        return report
    cod = alpha.source_functor.target
    return ValidationReport(
        Violation(rule, (label, x), f"component {alpha.components[x]!r} is not invertible")
        for x in alpha.source_functor.source.objects
        if inverse_of(cod, alpha.components[x]) is None
    )


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


def left_components(F: Functor, alpha: NaturalTransformation) -> dict[str, str]:
    """The components ``F(alpha_x)`` of :func:`whisker_left`, without its
    composite functors."""
    if alpha.source_functor.target != F.source:
        raise MismatchError("whisker_left: functor does not start where the transformation lands")
    return {x: F.on_mor(m) for x, m in alpha.components.items()}


def right_components(alpha: NaturalTransformation, F: Functor) -> dict[str, str]:
    """The components ``alpha_{F(x)}`` of :func:`whisker_right`, without its
    composite functors."""
    if F.target != alpha.source_functor.source:
        raise MismatchError("whisker_right: functor does not land where the transformation starts")
    return {x: alpha.components[F.on_obj(x)] for x in F.source.objects}


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
