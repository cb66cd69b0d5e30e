"""Functors and natural transformations between finite categories.

A functor holds its morphism table on the ids of its source
(:class:`Functor`): ``images[f]`` is the target id of the image of source
morphism ``f``.  Every builder gathers such tables from ids; a table given
by names is turned into ids once, at construction, and ``mor_map`` is a
read-only view keyed by names, like :attr:`catmn.core.Category.compose`.
A contravariant functor keeps the same tables as a covariant one; its laws
are the covariant ones read on a flipped view of its source
(:func:`catmn.core.oriented`), so one set of law checks covers both
variances without building the opposite category.
Whiskering is taken by its components only (:func:`left_components`,
:func:`right_components`), which is all the monad/comonad checks read; the
tests build the full whiskered transformations, with both composite
functors, as the reference for that.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import reduce
from operator import attrgetter

from .core import Category, _gather, inverse_of
from .errors import (
    MismatchError,
    UnknownMorphismError,
    UnknownObjectError,
)
from .report import ValidationReport, Violation


class MorphismView(Mapping):
    """A functor's morphism table keyed by names: ``view[f]`` is the name of
    the image of ``f``.  Read-only; it acts as the equivalent dict would, and
    equals one with the same entries."""

    __slots__ = ("_F",)

    def __init__(self, F: "Functor"):
        self._F = F

    def __getitem__(self, f):
        try:
            return self._F.on_mor(f)
        except UnknownMorphismError:
            raise KeyError(f) from None

    def __iter__(self):
        F = self._F
        for f, m in zip(F.source.names, F.images):
            if m is not None:
                yield f
        yield from F.stray

    def __len__(self):
        F = self._F
        return len(F.images) - F.images.count(None) + len(F.stray)


class Functor:
    """A functor as explicit object and morphism tables.  A contravariant
    one has the same shape, sending ``f: a -> b`` to a morphism from the
    image of ``b`` to the image of ``a``; which laws hold is up to the
    validator (:func:`validate_contravariant`).

    The morphism table is ``images``, over the source's ids: the target id
    of each image, the image's name where it is no target morphism, None
    where there is none (a name mapped to None has none).  An entry for a
    name that is no source morphism, which no slot can hold, is kept by name
    in ``stray``; only an invalid functor has any.  The table is given by
    names as ``mor_map`` or, by builders, as ``images``, which is kept as it
    is when it is a tuple.  Like a remembered report, it assumes the tables
    are not edited in place once made.
    """

    __slots__ = ("source", "target", "obj_map", "images", "stray", "name")

    def __init__(
        self,
        source: Category,
        target: Category,
        obj_map: dict[str, str],
        mor_map: Mapping[str, str] | None = None,
        name: str = "",
        *,
        images: Sequence | None = None,
    ):
        self.source, self.target, self.obj_map, self.name = source, target, obj_map, name
        self.stray: dict = {}
        if images is None:
            sid, tid = source.mor_id, target.mor_id
            table = [None] * len(source.names)
            for f, m in (mor_map or {}).items():
                i = sid.get(f)
                if i is None:
                    self.stray[f] = m
                elif m is not None:
                    table[i] = tid.get(m, m)
            images = tuple(table)
        self.images = images if type(images) is tuple else tuple(images)

    @property
    def mor_map(self) -> MorphismView:
        """The morphism table keyed by names: ``mor_map[f]``."""
        return MorphismView(self)

    def on_obj(self, x: str) -> str:
        try:
            return self.obj_map[x]
        except KeyError:
            raise UnknownObjectError(
                f"functor {self.name!r} is undefined on object {x!r}"
            ) from None

    def on_mor(self, f: str) -> str:
        i = self.source.mor_id.get(f)
        if i is not None:
            m = self.images[i]
            if type(m) is int:
                return self.target.names[m]
            if m is not None:
                return m
        elif f in self.stray:
            return self.stray[f]
        raise UnknownMorphismError(f"functor {self.name!r} is undefined on morphism {f!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Functor):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.obj_map == other.obj_map
            and self.images == other.images
            and self.stray == other.stray
        )

    __hash__ = None

    def __repr__(self):
        return f"Functor({self.name!r}, {self.source.name!r} -> {self.target.name!r})"


def identity_functor(c: Category) -> Functor:
    """The identity functor of ``c``.  Its tables are made once per category
    and shared, so identity functors of one category compare equal at once."""
    maps = c._identity_maps
    if maps is None:
        maps = c._identity_maps = ({x: x for x in c.objects}, tuple(c.mor_id.values()))
    return Functor(c, c, maps[0], name=f"1[{c.name}]", images=maps[1])


def validate_functor(F: Functor) -> ValidationReport:
    """Check totality, typing, identity and composition preservation."""
    return _functor_report(F, flip=False)


def _functor_report(F: Functor, flip: bool) -> ValidationReport:
    """:func:`validate_functor` on ``F``, with ``flip`` reading its source as
    the opposite: endpoints swapped and each entry ``g after f`` read as
    ``f after g``.  The subjects are the ones a check on the real opposite
    gives."""
    src, tgt, obj_map, img, stray = F.source, F.target, F.obj_map, F.images, F.stray
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
        if image is None:
            violations.append(Violation("functor-morphism-missing", (f,), "no image assigned"))
            continue
        if type(image) is not int:
            violations.append(
                Violation("functor-morphism-image", (f,), f"image {image!r} is not a target morphism")
            )
            continue
        mFf = tgt.morphisms[tgt.names[image]]
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
    for f in stray:
        violations.append(
            Violation("functor-morphism-extra", (f,), "image assigned to a non-morphism")
        )

    # each object's identity is its id or, when that is no morphism, its
    # name; the objects are the first vertices
    for x, i in zip(src.objects, src.ident):
        Fi = tgt.name_of(img[i]) if type(i) is int else stray.get(i)
        if Fi is None or x not in obj_map:
            continue
        want = tgt.identity.get(obj_map[x])
        if Fi != want:
            violations.append(
                Violation(
                    "functor-identity",
                    (x,),
                    f"identity of {x!r} maps to {Fi!r}, expected {want!r}",
                )
            )

    violations.extend(_composition_sweep(src, tgt, stray, img, flip))
    return ValidationReport(violations)


def _composition_sweep(
    src: Category, tgt: Category, stray: dict[str, str], img: Sequence, flip: bool
) -> list[Violation]:
    """The functor-composition violations of :func:`_functor_report`.

    Every entry ``g o f = h`` of the source table is checked against ``Fg o
    Ff`` in the target or, read flipped, against ``Ff o Fg`` (the entry is
    ``f o g = h`` in the opposite).  ``img`` holds the images by source id:
    target ids, or names where they are no target morphism; ``stray`` the
    images of the names that are no source morphism.

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
            img[m] if type(m) is int else tid.get(stray.get(m), stray.get(m))
            for m in (f, g, h)
        )
        check(f, g, Ff, Fg, Fh)
    return found


def composite(name: str, *chain: Functor) -> Functor:
    """The functors in ``chain`` applied in turn (the first one first), as
    one functor called ``name``: each table is gathered through the next one
    on ids.  A missing image raises the error that applying the functors'
    ``on_obj``/``on_mor`` one element at a time would raise."""
    source, target = chain[0].source, chain[-1].target
    try:
        objects, images = source.objects, chain[0].images
        for F in chain:
            objects = list(map(F.obj_map.__getitem__, objects))
        for F in chain[1:]:
            images = _gather(images)(F.images) if images else images
        if None not in images:
            obj_map = dict(zip(source.objects, objects))
            return Functor(source, target, obj_map, name=name, images=images)
    except (KeyError, TypeError, IndexError):  # an image missing, or by name
        pass
    # rare: redo it call by call, so the first miss names its functor
    return Functor(
        source,
        target,
        {x: reduce(lambda y, F: F.on_obj(y), chain, x) for x in source.objects},
        {f: reduce(lambda g, F: F.on_mor(g), chain, f) for f in source.names},
        name,
    )


def compose_functors(G: Functor, F: Functor) -> Functor:
    """``G`` after ``F``.  The middle categories must agree."""
    if F.target != G.source:
        raise MismatchError(
            f"cannot compose {G.name!r} after {F.name!r}: middle categories differ"
        )
    return composite(f"{G.name}.{F.name}", F, G)


def validate_contravariant(F: Functor) -> ValidationReport:
    """:func:`validate_functor` for ``F`` read as a contravariant functor, each
    morphism ``f: a -> b`` sent to one from the image of ``b`` to the image
    of ``a``: the same violations, subjects and details a check against
    ``opposite(F.source)`` reports, read off ``F.source`` itself."""
    return _functor_report(F, flip=True)


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

    # a square is checked only between good components, each kept here at
    # its object's vertex; an end that is no object has none, and
    # validate_category reports it as morphism-endpoints
    component: list = [None] * len(dom.vertices)
    cid = cod.mor_id
    for v, x in enumerate(dom.objects):  # the objects are the first vertices
        comp = alpha.components.get(x)
        if comp is None:
            violations.append(Violation("component-missing", (x,), "no component assigned"))
            continue
        if comp not in cod.morphisms:
            violations.append(
                Violation("component-unknown", (x,), f"component {comp!r} is not a morphism")
            )
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
            continue
        component[v] = cid[comp]
    dom_objects = set(dom.objects)
    for x in alpha.components:
        if x not in dom_objects:
            violations.append(
                Violation("component-extra", (x,), "component assigned to a non-object")
            )

    image_F, image_G = F.images, G.images
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


def non_invertible(rule: str, cat: Category, labelled, word: str) -> list[Violation]:
    """One violation under ``rule``, with subject ``(label, object)``, for
    each component without an inverse in ``cat``: ``labelled`` holds
    ``(label, components)`` pairs, and ``word`` names a component in the
    detail.  Naturality is the caller's to establish."""
    return [
        Violation(rule, (label, x), f"{word} {m!r} is not invertible")
        for label, components in labelled
        for x, m in components.items()
        if inverse_of(cat, m) is None
    ]


def iso_report(alpha: NaturalTransformation, rule: str, label: str) -> ValidationReport:
    """Why ``alpha`` is not a natural isomorphism: its own report, or when
    it is valid one violation under ``rule`` for each component without an
    inverse, with subject ``(label, object)``."""
    report = validate_nat(alpha)
    if not report.ok:
        return report
    cod = alpha.source_functor.target
    return ValidationReport(non_invertible(rule, cod, ((label, alpha.components),), "component"))


def left_components(F: Functor, alpha: NaturalTransformation) -> dict[str, str]:
    """The components ``F(alpha_x)`` of the left whiskering ``F alpha``,
    without its composite functors."""
    if alpha.source_functor.target != F.source:
        raise MismatchError("whisker_left: functor does not start where the transformation lands")
    return {x: F.on_mor(m) for x, m in alpha.components.items()}


def right_components(alpha: NaturalTransformation, F: Functor) -> dict[str, str]:
    """The components ``alpha_{F(x)}`` of the right whiskering ``alpha F``,
    without its composite functors."""
    if F.target != alpha.source_functor.source:
        raise MismatchError("whisker_right: functor does not land where the transformation starts")
    return {x: alpha.components[F.on_obj(x)] for x in F.source.objects}
