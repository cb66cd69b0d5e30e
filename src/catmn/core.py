"""Finite categories presented by explicit composition tables.

A category here is completely concrete: a finite set of object labels, a
finite set of named morphisms with stated endpoints, an identity assignment,
and a composition table meant to be defined on exactly the composable pairs
(``src(g) == dst(f)``).  The table is stored once, as rows keyed by the
morphism applied first: ``rows[f] = {g: g after f}``.  ``compose`` is a
read-only view of the same rows keyed by pairs, ``compose[(g, f)]``; no
pair-keyed dict is kept.  Everything is small enough to check by exhaustion,
and :func:`validate_category` does exactly that, reporting every violated
axiom instance instead of raising.

Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Iterable, NamedTuple

from .config import morphism_limit
from .errors import (
    InvalidArtifactError,
    MismatchError,
    SizeLimitError,
    UnknownMorphismError,
    UnknownObjectError,
)
from .report import ValidationReport, Violation


class Mor(NamedTuple):
    """A named morphism with explicit source and target objects."""

    name: str
    src: str
    dst: str


Rows = dict[str, dict[str, str]]

# the row of a morphism that has none; never written to
NO_ROW: Mapping[str, str] = MappingProxyType({})


class ComposeView(Mapping):
    """A category's composition table keyed by pairs, read off its rows:
    ``view[(g, f)]`` is ``rows[f][g]``.  Read-only; it acts as the
    equivalent dict would, and equals one with the same entries."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Rows):
        self._rows = rows

    def __getitem__(self, pair):
        try:
            g, f = pair
            return self._rows[f][g]
        except (KeyError, TypeError, ValueError):
            raise KeyError(pair) from None

    def __iter__(self):
        for f, row in self._rows.items():
            for g in row:
                yield g, f

    def __len__(self):
        return sum(map(len, self._rows.values()))

    def __eq__(self, other):
        if not isinstance(other, ComposeView):
            return super().__eq__(other)
        theirs = other._rows
        return len(self) == len(other) and all(
            theirs.get(f) == row for f, row in self._rows.items() if row
        )


def _rows_of(pairs: Mapping[tuple[str, str], str]) -> Rows:
    rows: Rows = {}
    for (g, f), h in pairs.items():
        rows.setdefault(f, {})[g] = h
    return rows


class Category:
    """A finite category given by a total composition table.

    The table is given either as a pair mapping ``compose[(g, f)] = g after
    f`` or, by builders that already hold them, as ``rows``; rows are kept
    as they are, not copied, so the caller must not edit them afterwards.
    Construction checks only what later code cannot survive without: unique
    names and the configurable size guardrail.  The categorical axioms are
    the job of :func:`validate_category`.
    """

    __slots__ = ("name", "objects", "morphisms", "identity", "rows", "compose", "_hom")

    def __init__(
        self,
        name: str,
        objects: Iterable[str],
        morphisms: Iterable[Mor],
        identity: Mapping[str, str],
        compose: Mapping[tuple[str, str], str] | None = None,
        *,
        rows: Rows | None = None,
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
        self.rows = rows if rows is not None else _rows_of(compose or {})
        self.compose = ComposeView(self.rows)
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
        h = self.rows.get(f, NO_ROW).get(g)
        if h is None:
            raise MismatchError(
                f"category {self.name!r} has no table entry for {g!r} after {f!r}"
            )
        return h

    def comp_or_none(self, g: str, f: str):
        return self.rows.get(f, NO_ROW).get(g)

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
    rows = c.rows

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
    # its violations, so the rows are walked in their own order
    for f, row in rows.items():
        mf = mors.get(f)
        for g, h in row.items():
            mg = mors.get(g)
            if mf is None or mg is None:
                violations.append(
                    Violation("compose-unknown", (g, f), "table entry for unknown morphism(s)")
                )
                continue
            if mf.dst != mg.src:
                violations.append(
                    Violation(
                        "compose-ill-typed-pair",
                        (g, f),
                        f"pair is not composable: {f!r} ends at {mf.dst!r}, {g!r} starts at {mg.src!r}",
                    )
                )
                continue
            mh = mors.get(h)
            if mh is None:
                violations.append(
                    Violation("compose-unknown-result", (g, f), f"composite {h!r} is not a morphism")
                )
                continue
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

    for f, mf in mors.items():
        after_f = rows.get(f, NO_ROW)
        for g in out_of.get(mf.dst, ()):
            if g not in after_f:
                violations.append(
                    Violation("compose-missing", (g, f), "composable pair has no table entry")
                )

    for f, mf in mors.items():
        id_src = c.identity.get(mf.src)
        id_dst = c.identity.get(mf.dst)
        if id_src in mors:
            got = rows.get(id_src, NO_ROW).get(f)
            if got != f:
                violations.append(
                    Violation(
                        "identity-law",
                        (f, id_src),
                        f"{f!r} after identity should be {f!r}, got {got!r}",
                    )
                )
        if id_dst in mors:
            got = rows.get(f, NO_ROW).get(id_dst)
            if got != f:
                violations.append(
                    Violation(
                        "identity-law",
                        (id_dst, f),
                        f"identity after {f!r} should be {f!r}, got {got!r}",
                    )
                )

    for f, mf in mors.items():
        after_f = rows.get(f, NO_ROW)
        for g in out_of.get(mf.dst, ()):
            gf = after_f.get(g)
            if gf is None or gf not in mors:
                continue
            after_g, after_gf = rows.get(g, NO_ROW), rows.get(gf, NO_ROW)
            for h in out_of.get(mors[g].dst, ()):
                hg = after_g.get(h)
                if hg is None or hg not in mors:
                    continue
                left = after_gf.get(h)
                right = after_f.get(hg)
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
    after_m = c.rows.get(m, NO_ROW)
    for g in c.hom(mm.dst, mm.src):
        if after_m.get(g) == id_src and c.rows.get(g, NO_ROW).get(m) == id_dst:
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
    return Category(f"op({c.name})", c.objects, mors, c.identity, rows=transposed(c.rows))


def transposed(rows: Rows, rename: Callable[[str], str] | None = None) -> Rows:
    """The rows of the opposite table, ``out[g][f] = rows[f][g]``, with every
    name passed through ``rename`` if one is given."""
    name = rename or (lambda x: x)
    out: Rows = {}
    for f, row in rows.items():
        nf = name(f)
        for g, h in row.items():
            ng = name(g)
            into = out.get(ng)
            if into is None:
                into = out[ng] = {}
            into[nf] = name(h)
    return out


class View(NamedTuple):
    """How a sweep reads a category: hom-sets, composition (``after(g, f)``
    is g after f, or None) and the endpoints ``(src, dst)`` of a :class:`Mor`."""

    hom: Callable[[str, str], tuple[str, ...]]
    after: Callable[[str, str], str | None]
    ends: Callable[[Mor], tuple[str, str]]


def oriented(c: Category, flip: bool = False) -> View:
    """``c`` as it is, or with ``flip`` read as its opposite.

    The flipped view reads ``c``'s own tables: ``hom(a, b)`` is
    ``c.hom(b, a)``, ``after(g, f)`` is ``c.rows[g][f]`` (``f`` after
    ``g`` in ``c``) and each morphism's endpoints are swapped.  No opposite
    category is built, and a lookup costs one call either way.
    """
    if not flip:
        return View(c.hom, c.comp_or_none, attrgetter("src", "dst"))
    homs, rows = c._hom.get, c.rows.get
    return View(
        lambda a, b: homs((b, a), ()),
        lambda g, f: rows(g, NO_ROW).get(f),
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
    rows = {
        f: {g: h for g, h in row.items() if g in names}
        for f, row in c.rows.items()
        if f in names
    }
    sub = Category(f"full({c.name})", keep, mors, identity, rows=rows)
    inclusion = Functor(
        sub,
        c,
        {x: x for x in keep},
        {m: m for m in names},
        name=f"include({c.name})",
    )
    return sub, inclusion
