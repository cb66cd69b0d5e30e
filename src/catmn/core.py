"""Finite categories presented by explicit composition tables.

A category here is completely concrete: a finite set of object labels, a
finite set of named morphisms with stated endpoints, an identity assignment,
and a composition table ``compose[(g, f)] = g after f`` meant to be defined
on exactly the composable pairs (``src(g) == dst(f)``).  Everything is small
enough to check by exhaustion, and :func:`validate_category` does exactly
that, reporting every violated axiom instance instead of raising.

Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Mapping, NamedTuple

from .config import morphism_limit
from .errors import (
    InvalidArtifactError,
    MismatchError,
    SizeLimitError,
    UnknownMorphismError,
    UnknownObjectError,
)
from .report import ValidationReport, Violation


@dataclass(frozen=True, order=True)
class Mor:
    """A named morphism with explicit source and target objects."""

    name: str
    src: str
    dst: str


class Category:
    """A finite category given by a total composition table.

    Construction checks only what later code cannot survive without: unique
    names and the configurable size guardrail.  The categorical axioms are
    the job of :func:`validate_category`.
    """

    __slots__ = ("name", "objects", "morphisms", "identity", "compose", "_hom")

    def __init__(
        self,
        name: str,
        objects: Iterable[str],
        morphisms: Iterable[Mor],
        identity: Mapping[str, str],
        compose: Mapping[tuple[str, str], str],
    ):
        self.name = str(name)
        objs = tuple(sorted(objects))
        if len(set(objs)) != len(objs):
            raise InvalidArtifactError(
                f"category {self.name!r} has duplicate object names"
            )
        self.objects = objs
        mors: dict[str, Mor] = {}
        for m in morphisms:
            if m.name in mors:
                raise InvalidArtifactError(
                    f"category {self.name!r} has duplicate morphism name {m.name!r}"
                )
            mors[m.name] = m
        limit = morphism_limit()
        if len(mors) > limit:
            raise SizeLimitError(
                f"category {self.name!r} has {len(mors)} morphisms, over the "
                f"limit of {limit} (set CATMN_MAX_MORPHISMS to override)"
            )
        self.morphisms = {k: mors[k] for k in sorted(mors)}
        self.identity = {k: identity[k] for k in sorted(identity)}
        self.compose = dict(compose)
        hom: dict[tuple[str, str], list[str]] = {}
        for m in self.morphisms.values():
            hom.setdefault((m.src, m.dst), []).append(m.name)
        self._hom = {pair: tuple(sorted(names)) for pair, names in hom.items()}

    # ---- lookups ----

    def require_object(self, x: str) -> None:
        # objects is a small sorted tuple; a linear scan is fine at this scale
        if x not in self.objects:
            raise UnknownObjectError(
                f"category {self.name!r} has no object {x!r}"
            )

    def mor(self, name: str) -> Mor:
        try:
            return self.morphisms[name]
        except KeyError:
            raise UnknownMorphismError(
                f"category {self.name!r} has no morphism {name!r}"
            ) from None

    def id_of(self, x: str) -> str:
        self.require_object(x)
        try:
            return self.identity[x]
        except KeyError:
            raise InvalidArtifactError(
                f"category {self.name!r} assigns no identity to {x!r}"
            ) from None

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        return self._hom.get((a, b), ())

    def comp(self, g: str, f: str) -> str:
        """Name of ``g`` after ``f``; raises if the pair is not composable
        or the table has no entry for it."""
        mg, mf = self.mor(g), self.mor(f)
        if mf.dst != mg.src:
            raise MismatchError(
                f"{g!r} after {f!r} is not composable: {f!r} ends at "
                f"{mf.dst!r} but {g!r} starts at {mg.src!r}"
            )
        try:
            return self.compose[(g, f)]
        except KeyError:
            raise MismatchError(
                f"category {self.name!r} has no table entry for {g!r} after {f!r}"
            ) from None

    def comp_or_none(self, g: str, f: str):
        return self.compose.get((g, f))

    def is_identity_name(self, m: str) -> bool:
        mm = self.morphisms.get(m)
        return (
            mm is not None
            and mm.src == mm.dst
            and self.identity.get(mm.src) == m
        )

    # ---- value semantics ----

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Category):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.identity == other.identity
            and self.compose == other.compose
        )

    __hash__ = None  # content-mutable-looking dicts inside; not hashable

    def __repr__(self):
        return (
            f"Category({self.name!r}, {len(self.objects)} objects, "
            f"{len(self.morphisms)} morphisms)"
        )


def validate_category(c: Category) -> ValidationReport:
    """Exhaustively check the category axioms; empty report iff they all hold.

    Checks endpoints, identity assignment, that the table is defined on
    exactly the composable pairs with correctly typed results, both identity
    laws, and associativity over every composable triple.
    """
    violations: list[Violation] = []
    mors = c.morphisms
    objset = set(c.objects)
    table = c.compose

    for m in mors.values():
        if m.src not in objset:
            violations.append(
                Violation("morphism-endpoints", (m.name,), f"source {m.src!r} is not an object")
            )
        if m.dst not in objset:
            violations.append(
                Violation("morphism-endpoints", (m.name,), f"target {m.dst!r} is not an object")
            )

    for x in c.objects:
        mid = c.identity.get(x)
        if mid is None:
            violations.append(Violation("identity-missing", (x,), "no identity assigned"))
        elif mid not in mors:
            violations.append(
                Violation("identity-unknown", (x,), f"identity {mid!r} is not a morphism")
            )
        else:
            m = mors[mid]
            if not (m.src == x and m.dst == x):
                violations.append(
                    Violation(
                        "identity-endpoints",
                        (x, mid),
                        f"identity of {x!r} has endpoints {m.src!r} -> {m.dst!r}",
                    )
                )
    for x in c.identity:
        if x not in objset:
            violations.append(
                Violation("identity-extra", (x,), "identity assigned to a non-object")
            )

    # each table entry yields at most one violation here and the report sorts
    # its violations, so the table is walked in its own order
    for (g, f), h in table.items():
        if g not in mors or f not in mors:
            violations.append(
                Violation("compose-unknown", (g, f), "table entry for unknown morphism(s)")
            )
            continue
        mg, mf = mors[g], mors[f]
        if mf.dst != mg.src:
            violations.append(
                Violation(
                    "compose-ill-typed-pair",
                    (g, f),
                    f"pair is not composable: {f!r} ends at {mf.dst!r}, {g!r} starts at {mg.src!r}",
                )
            )
            continue
        if h not in mors:
            violations.append(
                Violation("compose-unknown-result", (g, f), f"composite {h!r} is not a morphism")
            )
            continue
        mh = mors[h]
        if not (mh.src == mf.src and mh.dst == mg.dst):
            violations.append(
                Violation(
                    "compose-endpoints",
                    (g, f),
                    f"composite should go {mf.src!r} -> {mg.dst!r} but "
                    f"{h!r} goes {mh.src!r} -> {mh.dst!r}",
                )
            )

    # morphisms are stored in name order, so every out-list comes out sorted
    out_of: dict[str, list[str]] = {x: [] for x in c.objects}
    for m in mors.values():
        if m.src in out_of:
            out_of[m.src].append(m.name)

    for f in mors:
        mf = mors[f]
        for g in out_of.get(mf.dst, ()):
            if (g, f) not in table:
                violations.append(
                    Violation("compose-missing", (g, f), "composable pair has no table entry")
                )

    for f in mors:
        mf = mors[f]
        id_src = c.identity.get(mf.src)
        id_dst = c.identity.get(mf.dst)
        if id_src in mors:
            got = table.get((f, id_src))
            if got != f:
                violations.append(
                    Violation(
                        "identity-law",
                        (f, id_src),
                        f"{f!r} after identity should be {f!r}, got {got!r}",
                    )
                )
        if id_dst in mors:
            got = table.get((id_dst, f))
            if got != f:
                violations.append(
                    Violation(
                        "identity-law",
                        (id_dst, f),
                        f"identity after {f!r} should be {f!r}, got {got!r}",
                    )
                )

    for f, mf in mors.items():
        for g in out_of.get(mf.dst, ()):
            gf = table.get((g, f))
            if gf is None or gf not in mors:
                continue
            for h in out_of.get(mors[g].dst, ()):
                hg = table.get((h, g))
                if hg is None or hg not in mors:
                    continue
                left = table.get((h, gf))
                right = table.get((hg, f))
                if left != right:
                    violations.append(
                        Violation(
                            "associativity",
                            (h, g, f),
                            f"({h!r} after {gf!r}) = {left!r} but "
                            f"({hg!r} after {f!r}) = {right!r}",
                        )
                    )

    return ValidationReport(violations)


def hom_set(c: Category, a: str, b: str) -> list[str]:
    """All morphisms from ``a`` to ``b``, lexicographically sorted."""
    c.require_object(a)
    c.require_object(b)
    return list(c.hom(a, b))


def inverse_of(c: Category, m: str):
    """Name of a two-sided inverse of ``m``, or None.  Exhaustive search."""
    mm = c.mor(m)
    id_src = c.identity.get(mm.src)
    id_dst = c.identity.get(mm.dst)
    for g in c.hom(mm.dst, mm.src):
        if (
            c.comp_or_none(g, m) == id_src
            and c.comp_or_none(m, g) == id_dst
        ):
            return g
    return None


def is_isomorphism(c: Category, m: str) -> bool:
    return inverse_of(c, m) is not None


def is_initial(c: Category, x: str) -> bool:
    """True iff there is exactly one morphism from ``x`` to every object."""
    c.require_object(x)
    return all(len(c.hom(x, y)) == 1 for y in c.objects)


def is_final(c: Category, x: str) -> bool:
    """True iff there is exactly one morphism into ``x`` from every object."""
    c.require_object(x)
    return all(len(c.hom(y, x)) == 1 for y in c.objects)


def opposite(c: Category) -> Category:
    """The opposite category: endpoints swapped, composition transposed.

    Names are preserved, so applying this twice gives back a category equal
    to the original.
    """
    mors = [Mor(m.name, m.dst, m.src) for m in c.morphisms.values()]
    compose = {(g, f): h for (f, g), h in c.compose.items()}
    return Category(f"op({c.name})", c.objects, mors, c.identity, compose)


class View(NamedTuple):
    """How a sweep reads a category: hom-sets, composition (``after(g, f)``
    is g after f, or None) and the endpoints ``(src, dst)`` of a :class:`Mor`."""

    hom: Callable[[str, str], tuple[str, ...]]
    after: Callable[[str, str], str | None]
    ends: Callable[[Mor], tuple[str, str]]


def oriented(c: Category, flip: bool = False) -> View:
    """``c`` as it is, or with ``flip`` read as its opposite.

    The flipped view reads ``c``'s own tables: ``hom(a, b)`` is
    ``c.hom(b, a)``, ``after(g, f)`` is ``c.compose[(f, g)]`` and each
    morphism's endpoints are swapped.  No opposite category is built, and a
    lookup costs one call either way.
    """
    if not flip:
        return View(c.hom, c.comp_or_none, attrgetter("src", "dst"))
    homs, table = c._hom.get, c.compose.get
    return View(
        lambda a, b: homs((b, a), ()),
        lambda g, f: table((f, g)),
        attrgetter("dst", "src"),
    )


def full_subcategory(c: Category, objs: Iterable[str]):
    """The full subcategory on ``objs`` plus its inclusion functor.

    Keeps every morphism whose endpoints both survive; hom-sets between kept
    objects are therefore unchanged.
    """
    from .functors import Functor  # deferred to avoid an import cycle

    keep = sorted(set(objs))
    for x in keep:
        c.require_object(x)
    keepset = set(keep)
    mors = [m for m in c.morphisms.values() if m.src in keepset and m.dst in keepset]
    names = {m.name for m in mors}
    identity = {x: c.identity[x] for x in keep if x in c.identity}
    compose = {
        (g, f): h
        for (g, f), h in c.compose.items()
        if g in names and f in names
    }
    sub = Category(f"full({c.name})", keep, mors, identity, compose)
    inclusion = Functor(
        sub,
        c,
        {x: x for x in keep},
        {m: m for m in names},
        name=f"include({c.name})",
    )
    return sub, inclusion
