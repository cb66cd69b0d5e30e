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
no object (only an invalid category has those).  A category made by
:func:`transposed` (the opposite, and the relabeled dual of
:mod:`catmn.transport`) has its source's ids instead, which need not follow
its own names once they are suffixed.  The table is stored once,
as rows over these ids: ``out[v]`` lists the morphisms leaving vertex
``v`` in id order (``into[v]``, made on first use, those entering it),
``pos[g]`` is the place of
``g`` in ``out[src g]``, and ``rows[f]`` lists, for each ``g`` of ``out[dst f]``
in turn, the id of ``g after f``, or None where the table has no entry.  An
entry that no row slot can hold (one naming something that is no morphism,
or an ill-typed pair) is kept by name in ``stray``; only an invalid table has
any.  Hom-sets are read off ``out`` and the rows (:meth:`Category.hom_ids`
scans ``out[a]``); no index keyed by hom-set is kept.  Every table-sized
pass reads and writes ids; names are for reports,
rendering and the read-only views: ``objects``, ``morphisms``, ``identity``,
``hom``, ``comp``, ``comp_or_none`` and ``compose``, the table keyed by
pairs of names.

Values are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import partial
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
# the most row slots (composable pairs) per morphism of the limit
SLOTS_PER_LIMIT = 64


def _gather(indices) -> Callable:
    """A function reading a sequence at each of ``indices`` in turn, as a
    tuple, in one C-level call.  ``indices`` must not be empty."""
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


class ComposeView(Mapping):
    """A category's composition table keyed by pairs of names, read by
    :meth:`Category.after` in the order of :meth:`Category.entries`:
    ``view[(g, f)]`` is the name of ``g`` after ``f``.  Read-only; it acts
    as the equivalent dict would, and equals one with the same entries."""

    __slots__ = ("_c",)

    def __init__(self, c: "Category"):
        self._c = c

    def __getitem__(self, pair):
        c = self._c
        try:
            g, f = pair
            if type(g) is int or type(f) is int:  # an id, which is no name
                raise KeyError(pair)
            h = c.after(c.mor_id.get(g, g), c.mor_id.get(f, f))
        except (TypeError, ValueError):  # no pair of names
            raise KeyError(pair) from None
        if h is None:
            raise KeyError(pair)
        return c.name_of(h)

    def __iter__(self):
        for g, f, _ in self._c.entries():
            yield g, f

    def __len__(self):
        c = self._c
        return sum(len(row) - row.count(None) for row in c.rows) + len(c.stray)


class Category:
    """A finite category given by a total composition table.

    The table is given as a pair mapping ``compose[(g, f)] = g after f`` or,
    by builders, as ``fill``: a function that is handed the category with
    its ids in place and returns its ``(rows, stray)``, which are kept as
    they are.  Construction checks only what later code cannot survive
    without: unique names and the size guardrails on morphisms and slots.  The
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
        given = list(morphisms)
        mors = dict(zip(map(itemgetter(0), given), given))
        if len(mors) != len(given):
            seen: set[str] = set()
            for m in given:
                if m.name in seen:
                    raise InvalidArtifactError(
                        f"category {self.name!r} has duplicate morphism name {m.name!r}"
                    )
                seen.add(m.name)
        limit = morphism_limit()
        if len(mors) > limit:
            raise SizeLimitError(
                f"category {self.name!r} has {len(mors)} morphisms, over the "
                f"limit of {limit} (set CATMN_MAX_MORPHISMS to override)"
            )
        # the names alone are sorted, so the sort compares only strings
        self.names = names = tuple(sorted(mors))
        self.morphisms = dict(zip(names, map(mors.__getitem__, names)))
        keys = sorted(identity)
        self.identity = dict(zip(keys, map(identity.__getitem__, keys)))

        # every id stored anywhere is the one int object made here for it
        self.mor_id = mor_id = dict(zip(names, range(len(names))))
        ids = list(mor_id.values())
        src_names = list(map(itemgetter(1), self.morphisms.values()))
        dst_names = list(map(itemgetter(2), self.morphisms.values()))
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
        # one slot per composable pair, counted before any row exists
        slots = sum(map(len, map(out.__getitem__, dst)))
        if slots > SLOTS_PER_LIMIT * limit:
            raise SizeLimitError(
                f"category {self.name!r} has {slots} composable pairs, over the "
                f"limit of {SLOTS_PER_LIMIT * limit} ({SLOTS_PER_LIMIT} times the "
                f"morphism limit; set CATMN_MAX_MORPHISMS to override)"
            )
        self._into = self._identity_maps = None
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

    def table_of(self, pairs: Mapping, rows: Rows | None = None) -> tuple[Rows, Stray]:
        """``pairs`` written over ``rows`` (lists, by default empty ones) and
        the stray entries, over this category's ids.  A slot whose entry
        names a composite that is no morphism is left empty."""
        mor_id, src, dst, pos = self.mor_id, self.src, self.dst, self.pos
        if rows is None:
            rows = [[None] * len(self.out[d]) for d in dst]
        stray: Stray = {}
        for (g, f), h in pairs.items():
            try:
                fi, gi = mor_id[f], mor_id[g]
                if src[gi] == dst[fi]:
                    rows[fi][pos[gi]] = hi = mor_id.get(h)
                    if hi is not None:
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
        # the objects are the first vertices; a later one is a morphism end
        # that is no object
        v = self.vid.get(x)
        if v is None or v >= len(self.objects):
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

    def hom_ids(self, a: int, b: int) -> list[int]:
        """The ids of the morphisms from vertex ``a`` to vertex ``b``, in id
        order: a scan of ``out[a]``."""
        dst = self.dst
        return [f for f in self.out[a] if dst[f] == b]

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
            self.names == other.names
            and self.objects == other.objects
            and self.morphisms == other.morphisms
            and self.identity == other.identity
            and self.rows == other.rows
            and self.stray == other.stray
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
    # typed[f]: every slot of f's row holds a composite with the right ends
    typed = []
    for f, (s, x, row) in enumerate(zip(src, dst, rows)):
        found = len(violations)
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
        typed.append(len(violations) == found and None not in row)

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
    # triple meeting at objects.  Where the rows of f and g are typed, all
    # triples of the pair (f, g) are compared at once (Light's test): the
    # row of g after f against f's row read at the slots of the h after g.
    # Any other pair, or one whose rows differ, is checked a triple at a
    # time through after()
    readers: list = [None] * len(names)
    for f, (x, row_f) in enumerate(zip(dst, rows)):
        if x >= n_objects:
            continue
        typed_f = typed[f]
        for g, gf in zip(out[x], row_f):
            y, row_g = dst[g], rows[g]
            if gf is None or y >= n_objects or not row_g:  # no triple
                continue
            if typed_f and typed[g]:
                read = readers[g]
                if read is None:
                    read = readers[g] = _gather(_gather(row_g)(pos))
                if read(row_f) == rows[gf]:
                    continue
            for h, hg in zip(out[y], row_g):
                if hg is None:
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


def inverse_of(c: Category, m: str):
    """Name of a two-sided inverse of ``m``, or None.  Exhaustive search.

    A morphism with no identity at an end has no inverse.  For ``f: a ->
    b`` the candidates are the slots of ``f``'s row that hold the identity
    of ``a``; the first, in id order, whose own row sends ``f`` to the
    identity of ``b`` is the answer."""
    f = c.mor_id.get(m)
    if f is None:
        c.mor(m)  # raises
    s, d = c.src[f], c.dst[f]
    id_src, id_dst = c.ident[s], c.ident[d]
    if id_src is None or id_dst is None:
        return None
    rows, dst, at_f, leaving = c.rows, c.dst, c.pos[f], c.out[d]
    if c.stray:
        # a stray entry may settle an empty slot
        after = c.after
        for g in leaving:
            if dst[g] == s and after(g, f) == id_src and after(f, g) == id_dst:
                return c.names[g]
        return None
    row_f, i = rows[f], -1
    while True:
        try:
            i = row_f.index(id_src, i + 1)
        except ValueError:  # no slot left holds it
            return None
        g = leaving[i]
        if dst[g] == s and rows[g][at_f] == id_dst:
            return c.names[g]


def opposite(c: Category) -> Category:
    """The opposite category: endpoints swapped, composition transposed.

    Names are preserved, so applying this twice gives back a category equal
    to the original.
    """
    return transposed(c, f"op({c.name})", "")


def transposed(c: Category, name: str, suffix: str) -> Category:
    """The opposite of ``c`` on ``c``'s own ids, with ``suffix`` added to
    every name: ``g after f`` in ``c`` is ``f after g`` here.

    Nothing is sorted or permuted.  The endpoint, adjacency and identity
    lists are ``c``'s, swapped where the direction turns, and each row is a
    column of ``c``, made by one transpose per vertex.  With a suffix the
    ids need not follow name order: ``b0|v1~`` sorts after ``b0|v10~``.
    Every name in ``c``'s tables must be one of its objects or morphisms
    when there is a suffix; the caller checks that.
    """
    d = Category.__new__(Category)
    names = c.names if not suffix else tuple([m + suffix for m in c.names])
    vertices = c.vertices if not suffix else tuple([v + suffix for v in c.vertices])
    d.name, d.names, d.vertices = name, names, vertices
    d.objects = vertices[: len(c.objects)]
    # the Mor values read off the endpoint lists, their ends swapped
    ends = (_gather(c.dst)(vertices), _gather(c.src)(vertices)) if names else ((), ())
    d.morphisms = dict(zip(names, map(partial(tuple.__new__, Mor), zip(names, *ends))))
    d.identity = {x + suffix: m + suffix for x, m in c.identity.items()}
    d.mor_id = dict(zip(names, c.mor_id.values()))
    d.vid = dict(zip(vertices, c.vid.values()))
    d.src, d.dst, d.out, d._into, d.ident = c.dst, c.src, c.into, c.out, c.ident
    d._identity_maps = None
    # pos[g]: the place of g among the morphisms entering its target in c
    d.pos = pos = [0] * len(names)
    rows: list = [()] * len(names)
    c_rows = c.rows
    for leaving, entering in zip(c.out, d.out):
        for i, g in enumerate(entering):
            pos[g] = i
        if entering:
            # the rows leaving x here are c's columns entering x
            for g, column in zip(leaving, zip(*_gather(entering)(c_rows))):
                rows[g] = column
    d.rows = rows
    d.stray = {(f + suffix, g + suffix): h + suffix for (g, f), h in c.stray.items()}
    return d


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
    identity = {x: c.identity[x] for x in keep if x in c.identity}
    # old[i]: c's id of the kept morphism with id i
    old: tuple = ()

    def fill(sub: Category) -> tuple[Rows, Stray]:
        # a kept row is c's row read at the slots of the kept morphisms, in
        # sub's order; an entry whose composite was dropped is no morphism
        # here
        nonlocal old
        old = _gather(sub.names)(c.mor_id) if sub.names else ()
        new = [None] * len(c.names)
        for i, j in zip(sub.mor_id.values(), old):
            new[j] = i
        pos, c_rows = c.pos, c.rows
        rows: Rows = []
        stray: Stray = {}
        for f, (j, d) in enumerate(zip(old, sub.dst)):
            row, c_row = [], c_rows[j]
            for g in sub.out[d]:
                h = c_row[pos[old[g]]]
                if h is not None and new[h] is None:
                    stray[(sub.names[g], sub.names[f])] = c.names[h]
                    h = None
                row.append(h if h is None else new[h])
            rows.append(row)
        for (g, f), h in c.stray.items():
            if g in sub.mor_id and f in sub.mor_id:
                stray[(g, f)] = h
        return rows, stray

    sub = Category(f"full({c.name})", keep, mors, identity, fill=fill)
    inclusion = Functor(
        sub, c, {x: x for x in keep}, name=f"include({c.name})", images=old
    )
    return sub, inclusion
