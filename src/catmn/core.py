"""Finite categories presented by explicit composition tables.

A category here is completely concrete: a finite set of object labels, a
finite set of named morphisms with stated endpoints, an identity assignment,
and a composition table meant to be defined on exactly the composable pairs
(``src(g) == dst(f)``).  Everything is small enough to check by exhaustion,
and :func:`validate_category` does exactly that, reporting every violated
axiom instance instead of raising.

Names are interned once, at construction.  Morphism ``i`` is the ``i``-th
name in sorted order; vertex ``v`` is the ``v``-th object in sorted order,
and after the objects come the names that some morphism ends at but that are
no object (only an invalid category has those).  The table is stored once,
as rows over these ids: ``out[v]`` lists the morphisms leaving vertex
``v`` in id order (``into[v]``, made on first use, those entering it),
``pos[g]`` is the place of
``g`` in ``out[src g]``, and ``rows[f]`` lists, for each ``g`` of ``out[dst f]``
in turn, the id of ``g after f``, or None where the table has no entry.  An
entry that no row slot can hold (one naming something that is no morphism,
or an ill-typed pair) is kept by name in ``stray``; only an invalid table has
any.  Every table-sized pass reads and writes ids; names are for reports,
rendering and the read-only views: ``objects``, ``morphisms``, ``identity``,
``hom``, ``comp``, ``comp_or_none`` and ``compose``, the table keyed by
pairs of names.

Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, Sequence
from operator import itemgetter
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


# rows[f][i] is the id of out[dst f][i] after f, or None
Rows = Sequence[Sequence]
# entries no row slot can hold: (g, f) -> g after f, all by name
Stray = dict[tuple[str, str], str]


def _gather(indices) -> Callable:
    """A function reading a sequence at each of ``indices`` in turn, as a
    tuple, in one C-level call.  ``indices`` must not be empty."""
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


class ComposeView(Mapping):
    """A category's composition table keyed by pairs of names:
    ``view[(g, f)]`` is the name of ``g`` after ``f``.  Read-only; it acts as
    the equivalent dict would, and equals one with the same entries."""

    __slots__ = ("_c",)

    def __init__(self, c: "Category"):
        self._c = c

    def __getitem__(self, pair):
        c = self._c
        try:
            g, f = pair
            gi, fi = c.mor_id.get(g), c.mor_id.get(f)
            h = c.stray.get((g, f)) if c.stray else None
        except (TypeError, ValueError):  # no pair of names
            raise KeyError(pair) from None
        if gi is not None and fi is not None and c.src[gi] == c.dst[fi]:
            at = c.rows[fi][c.pos[gi]]
            if at is not None:
                h = c.names[at]
        if h is None:
            raise KeyError(pair)
        return h

    def __iter__(self):
        c = self._c
        names = c.names
        for f, (d, row) in enumerate(zip(c.dst, c.rows)):
            fname = names[f]
            for g, h in zip(c.out[d], row):
                if h is not None:
                    yield names[g], fname
        yield from c.stray

    def items(self):
        return _Entries(self)

    def __len__(self):
        c = self._c
        return sum(len(row) - row.count(None) for row in c.rows) + len(c.stray)

    def __eq__(self, other):
        if not isinstance(other, ComposeView):
            return super().__eq__(other)
        mine, theirs = self._c, other._c
        if (mine.names, mine.vertices, mine.src, mine.dst) == (
            theirs.names, theirs.vertices, theirs.src, theirs.dst
        ):
            return mine.rows == theirs.rows and mine.stray == theirs.stray
        return super().__eq__(other)


class _Entries(ItemsView):
    """``compose.items()``, read off the rows without a lookup per entry."""

    def __iter__(self):
        for g, f, h in self._mapping._c.entries():
            yield (g, f), h


class Category:
    """A finite category given by a total composition table.

    The table is given as a pair mapping ``compose[(g, f)] = g after f`` or,
    by builders, as ``fill``: a function that is handed the category with
    its ids in place and returns its ``(rows, stray)``, which are kept as
    they are.  Construction checks only what later code cannot survive
    without: unique names and the configurable size guardrail.  The
    categorical axioms are the job of :func:`validate_category`.  Names are
    strings.
    """

    __slots__ = (
        "name",
        "objects",
        "morphisms",
        "identity",
        "names",
        "mor_id",
        "vertices",
        "vid",
        "src",
        "dst",
        "out",
        "pos",
        "ident",
        "rows",
        "stray",
        "_into",
        "_homs",
        "_identity_maps",
    )

    def __init__(
        self,
        name: str,
        objects: Iterable[str],
        morphisms: Iterable[Mor],
        identity: Mapping[str, str],
        compose: Mapping[tuple[str, str], str] | None = None,
        *,
        fill: Callable[["Category"], tuple[Rows, Stray]] | None = None,
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
        self.morphisms = dict(sorted(mors.items()))
        self.identity = dict(sorted(identity.items()))

        # every id stored anywhere is the one int object made here for it
        self.names = names = tuple(self.morphisms)
        self.mor_id = mor_id = dict(zip(names, range(len(names))))
        ids = list(mor_id.values())
        _, src_names, dst_names = zip(*self.morphisms.values()) if names else ((), (), ())
        ends = set(src_names).union(dst_names).difference(objs)
        self.vertices = vertices = objs + tuple(sorted(ends)) if ends else objs
        self.vid = vid = dict(zip(vertices, range(len(vertices))))
        self.src = src = _gather(src_names)(vid) if names else ()
        self.dst = dst = _gather(dst_names)(vid) if names else ()
        self.out = out = [[] for _ in vertices]
        self.pos = pos = []
        for f, s in zip(ids, src):
            leaving = out[s]
            pos.append(len(leaving))
            leaving.append(f)
        self._into = self._homs = self._identity_maps = None
        self.ident = [
            None if m is None else mor_id.get(m, m) for m in map(self.identity.get, vertices)
        ]

        rows, self.stray = fill(self) if fill is not None else self.table_of(compose or {})
        # tuples of ints: the collector stops tracking them, so no full
        # collection walks the table.  (No tuple here, or in any sweep, is
        # made from an iterator of unknown length: CPython sizes those by
        # guess and shrinks them, so each one freed lands in the free list
        # of another size, and those lists fill up.)
        self.rows = list(map(tuple, rows))

    def table_of(self, pairs: Mapping[tuple[str, str], str]) -> tuple[Rows, Stray]:
        """``pairs`` as rows (lists, which a ``fill`` may complete) and stray
        entries over this category's ids."""
        mor_id, src, dst, pos = self.mor_id, self.src, self.dst, self.pos
        rows: Rows = [[None] * len(self.out[d]) for d in dst]
        stray: Stray = {}
        for (g, f), h in pairs.items():
            try:
                fi, gi, hi = mor_id[f], mor_id[g], mor_id[h]
                if src[gi] == dst[fi]:
                    rows[fi][pos[gi]] = hi
                    continue
            except (KeyError, TypeError):  # a name of no morphism
                pass
            stray[(g, f)] = h
        return rows, stray

    def entries(self):
        """Every table entry as names ``(g, f, g after f)``: the rows in id
        order, then the stray entries."""
        names = self.names
        for f, (d, row) in enumerate(zip(self.dst, self.rows)):
            fname = names[f]
            for g, h in zip(self.out[d], row):
                if h is not None:
                    yield names[g], fname, names[h]
        for (g, f), h in self.stray.items():
            yield g, f, h

    def stray_ids(self):
        """The stray entries as ``(g, f, g after f)``, each the morphism id
        or, for something that is no morphism, its name: the one place the
        id passes turn them from names."""
        mor_id = self.mor_id
        for (g, f), h in self.stray.items():
            yield mor_id.get(g, g), mor_id.get(f, f), mor_id.get(h, h)

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

    @property
    def compose(self) -> ComposeView:
        """The table keyed by pairs of names: ``compose[(g, f)]``."""
        return ComposeView(self)

    @property
    def into(self) -> list[list[int]]:
        """``into[v]``: the ids of the morphisms entering vertex ``v``, in id
        order.  Made on first use."""
        if self._into is None:
            into: list[list[int]] = [[] for _ in self.vertices]
            for f, d in zip(self.mor_id.values(), self.dst):
                into[d].append(f)
            self._into = into
        return self._into

    @property
    def homs(self) -> dict[int, list[int]]:
        """The hom-sets over ids: ``homs[a * len(vertices) + b]`` lists the
        morphisms from vertex ``a`` to vertex ``b`` in id order.  Made on
        first use."""
        if self._homs is None:
            homs: dict[int, list[int]] = {}
            n_vertices = len(self.vertices)
            for f, s, d in zip(self.mor_id.values(), self.src, self.dst):
                key = s * n_vertices + d
                if key in homs:
                    homs[key].append(f)
                else:
                    homs[key] = [f]
            self._homs = homs
        return self._homs

    def hom_ids(self, a: int, b: int) -> Sequence[int]:
        """The ids of the morphisms from vertex ``a`` to vertex ``b``."""
        homs = self._homs
        if homs is None:
            homs = self.homs
        return homs.get(a * len(self.vertices) + b, ())

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        va, vb = self.vid.get(a), self.vid.get(b)
        if va is None or vb is None:
            return ()
        ids = self.hom_ids(va, vb)
        return _gather(ids)(self.names) if ids else ()

    def after(self, g, f):
        """``g`` after ``f``, or None.  Each of ``g`` and ``f`` is a morphism
        id or, for something that is no morphism, its name; so is the
        answer."""
        if type(g) is int and type(f) is int and self.src[g] == self.dst[f]:
            h = self.rows[f][self.pos[g]]
            if h is not None or not self.stray:
                return h
        elif not self.stray:
            return None
        h = self.stray.get((self.name_of(g), self.name_of(f)))
        return h if h is None else self.mor_id.get(h, h)

    def name_of(self, m):
        """The name of a morphism id; anything else as it is."""
        return self.names[m] if type(m) is int else m

    def comp(self, g: str, f: str) -> str:
        """Name of ``g`` after ``f``; raises if the pair is not composable
        or the table has no entry for it."""
        mg, mf = self.mor(g), self.mor(f)
        if mf.dst != mg.src:
            raise MismatchError(
                f"{g!r} after {f!r} is not composable: {f!r} ends at "
                f"{mf.dst!r} but {g!r} starts at {mg.src!r}"
            )
        h = self.comp_or_none(g, f)
        if h is None:
            raise MismatchError(
                f"category {self.name!r} has no table entry for {g!r} after {f!r}"
            )
        return h

    def comp_or_none(self, g: str, f: str):
        ids = self.mor_id
        gi, fi = ids.get(g, g), ids.get(f, f)
        if type(gi) is int and type(fi) is int and self.src[gi] == self.dst[fi]:
            h = self.rows[fi][self.pos[gi]]
            if h is not None:
                return self.names[h]
        return self.name_of(self.after(gi, fi))

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

    # each table entry yields at most one violation here and the report
    # sorts its violations, so the entries are walked in id order; a stray
    # entry names something that is no morphism or pairs two that do not
    # compose
    names, vertices, name_of = c.names, c.vertices, c.name_of
    src, dst, out, pos, rows, after = c.src, c.dst, c.out, c.pos, c.rows, c.after
    for g, f, h in c.stray_ids():
        subject = (name_of(g), name_of(f))
        if type(g) is not int or type(f) is not int:
            violations.append(
                Violation("compose-unknown", subject, "table entry for unknown morphism(s)")
            )
        elif dst[f] != src[g]:
            violations.append(
                Violation(
                    "compose-ill-typed-pair",
                    subject,
                    f"pair is not composable: {names[f]!r} ends at {vertices[dst[f]]!r}, "
                    f"{names[g]!r} starts at {vertices[src[g]]!r}",
                )
            )
        else:
            violations.append(
                Violation("compose-unknown-result", subject, f"composite {h!r} is not a morphism")
            )

    n_objects = len(c.objects)
    for f, (s, x, row) in enumerate(zip(src, dst, rows)):
        for g, h in zip(out[x], row):
            if h is None:
                # missing unless a stray entry names an unknown composite for
                # it; only pairs meeting at an object are composable
                if x < n_objects and after(g, f) is None:
                    violations.append(
                        Violation(
                            "compose-missing",
                            (names[g], names[f]),
                            "composable pair has no table entry",
                        )
                    )
            elif src[h] != s or dst[h] != dst[g]:
                violations.append(
                    Violation(
                        "compose-endpoints",
                        (names[g], names[f]),
                        f"composite should go {vertices[s]!r} -> {vertices[dst[g]]!r} but "
                        f"{names[h]!r} goes {vertices[src[h]]!r} -> {vertices[dst[h]]!r}",
                    )
                )

    ident = c.ident
    for f, (s, d) in enumerate(zip(src, dst)):
        i = ident[s]
        if type(i) is int:
            got = after(f, i)
            if got != f:
                violations.append(
                    Violation(
                        "identity-law",
                        (names[f], names[i]),
                        f"{names[f]!r} after identity should be {names[f]!r}, "
                        f"got {name_of(got)!r}",
                    )
                )
        j = ident[d]
        if type(j) is int:
            got = after(j, f)
            if got != f:
                violations.append(
                    Violation(
                        "identity-law",
                        (names[j], names[f]),
                        f"identity after {names[f]!r} should be {names[f]!r}, "
                        f"got {name_of(got)!r}",
                    )
                )

    # h after (g after f) against (h after g) after f over every composable
    # triple meeting at objects.  Each side is read straight off a row where
    # its pair is typed; after() settles any triple where that gives no
    # equal pair of entries
    for f, (x, row_f) in enumerate(zip(dst, rows)):
        if x >= n_objects:
            continue
        for g, gf in zip(out[x], row_f):
            y = dst[g]
            if gf is None or y >= n_objects:
                continue
            row_gf = rows[gf] if dst[gf] == y else None
            for h, hg in zip(out[y], rows[g]):
                if hg is None:
                    continue
                left = row_gf[pos[h]] if row_gf is not None else None
                right = row_f[pos[hg]] if src[hg] == x else None
                if left is not None and left == right:
                    continue
                left, right = after(h, gf), after(hg, f)
                if left != right:
                    violations.append(
                        Violation(
                            "associativity",
                            (names[h], names[g], names[f]),
                            f"({names[h]!r} after {names[gf]!r}) = {name_of(left)!r} but "
                            f"({names[hg]!r} after {names[f]!r}) = {name_of(right)!r}",
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
    f = c.mor_id.get(m)
    if f is None:
        c.mor(m)  # raises
    s, d = c.src[f], c.dst[f]
    id_src, id_dst = c.ident[s], c.ident[d]
    rows, pos = c.rows, c.pos
    row_f, at_f = rows[f], pos[f]
    for g in c.hom_ids(d, s):
        # g starts where f ends and ends where f starts: both slots exist
        gf, fg = row_f[pos[g]], rows[g][at_f]
        if c.stray and (gf is None or fg is None):
            gf, fg = c.after(g, f), c.after(f, g)
        if gf == id_src and fg == id_dst:
            return c.names[g]
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
    return Category(f"op({c.name})", c.objects, mors, c.identity, fill=transposing(c))


def transposing(c: Category, suffix: str = ""):
    """A ``fill`` for the opposite of ``c`` with ``suffix`` added to every
    name: ``g after f`` in ``c`` is ``f after g`` there.  Its rows are
    ``c``'s columns, carried through one permutation of the morphism ids."""

    def fill(d: Category) -> tuple[Rows, Stray]:
        perm = [d.mor_id[m + suffix] for m in c.names]
        back = [0] * len(perm)
        for i, j in zip(c.mor_id.values(), perm):
            back[j] = i
        rows: Rows = [None] * len(perm)
        c_rows, pos = c.rows, c.pos
        for x, leaving in zip(c.vertices, c.out):
            # d's rows leaving x are c's columns entering x, in d's order of
            # the morphisms into x
            entering = [c_rows[back[f]] for f in d.out[d.vid[x + suffix]]]
            for g in leaving:
                p = pos[g]
                column = [row[p] for row in entering]
                try:
                    rows[perm[g]] = _gather(column)(perm) if column else ()
                except TypeError:  # a hole
                    rows[perm[g]] = [None if h is None else perm[h] for h in column]
        stray = {(f + suffix, g + suffix): h + suffix for (g, f), h in c.stray.items()}
        return rows, stray

    return fill


class View(NamedTuple):
    """How a sweep reads a category, on ids: hom-sets between vertices,
    composition (``after(g, f)`` is g after f, or None) and the endpoint
    lists ``src`` and ``dst``."""

    hom: Callable[[int, int], Sequence[int]]
    after: Callable[[int, int], int | None]
    src: Sequence[int]
    dst: Sequence[int]


def oriented(c: Category, flip: bool = False) -> View:
    """``c`` as it is, or with ``flip`` read as its opposite.

    The flipped view reads ``c``'s own tables: ``hom(a, b)`` is
    ``c.hom_ids(b, a)``, ``after(g, f)`` is ``c.after(f, g)`` and the
    endpoint lists are swapped.  No opposite category is built.
    """
    if not flip:
        return View(c.hom_ids, c.after, c.src, c.dst)
    hom, after = c.hom_ids, c.after
    return View(lambda a, b: hom(b, a), lambda g, f: after(f, g), c.dst, c.src)


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
    names = [m.name for m in mors]
    identity = {x: c.identity[x] for x in keep if x in c.identity}

    def fill(sub: Category) -> tuple[Rows, Stray]:
        # kept ids keep their order, so a kept row is c's row at the kept
        # slots; an entry whose composite was dropped is no morphism here
        new = [None] * len(c.names)
        for i, name in zip(map(c.mor_id.__getitem__, names), sub.names):
            new[i] = sub.mor_id[name]
        rows: Rows = []
        stray: Stray = {}
        for f in map(c.mor_id.__getitem__, names):
            row = []
            for g, h in zip(c.out[c.dst[f]], c.rows[f]):
                if new[g] is not None:
                    if h is not None and new[h] is None:
                        stray[(c.names[g], c.names[f])] = c.names[h]
                        h = None
                    row.append(h if h is None else new[h])
            rows.append(row)
        for (g, f), h in c.stray.items():
            if g in sub.mor_id and f in sub.mor_id:
                stray[(g, f)] = h
        return rows, stray

    sub = Category(f"full({c.name})", keep, mors, identity, fill=fill)
    inclusion = Functor(
        sub,
        c,
        {x: x for x in keep},
        {m: m for m in names},
        name=f"include({c.name})",
    )
    return sub, inclusion
