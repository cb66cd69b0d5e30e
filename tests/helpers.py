"""Hand-built gadget categories and (co)monads the test modules share, the
spec mutants whose actions break bottoms, the name-level lift and collapse
searches the builders are compared with, the rescanning linear extension
that ``FiberPoset.linear_extension`` is, the name-level tables that each
functor builder gave before functors held ids, and the slot-at-a-time
completion, triple-at-a-time associativity check and line-at-a-time parser
that the loader and validator did before they worked by rows.

Each is small enough to check by eye; the composition tables are written
out in full so the tests do not depend on the loader's completion rules.
"""

import sys

from catmn import (
    COMONAD,
    MONAD,
    Category,
    ExtremumError,
    FiberedSpec,
    Functor,
    LiftError,
    MonadDatum,
    Mor,
    NaturalTransformation,
    ParseError,
    ValidationReport,
    Violation,
    collapse,
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


def isomorphic_pair() -> Category:
    """Two objects and an isomorphism between them: i: a -> b with inverse
    j: b -> a."""
    ids = {"a": "id_a", "b": "id_b"}
    return Category(
        "isomorphic-pair",
        ["a", "b"],
        [Mor("id_a", "a", "a"), Mor("id_b", "b", "b"), Mor("i", "a", "b"), Mor("j", "b", "a")],
        ids,
        {(m, m): m for m in ids.values()}
        | {("i", "id_a"): "i", ("id_b", "i"): "i", ("j", "id_b"): "j", ("id_a", "j"): "j"}
        | {("j", "i"): "id_a", ("i", "j"): "id_b"},
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


def isolated_arrows(spec) -> list[str]:
    """The non-identity base arrows of ``spec`` that no composite of two
    non-identities passes through, whose target fiber has more than one
    element, in name order."""
    base = spec.base
    ident = set(base.identity.values())
    touched = set()
    for (g, f), h in base.compose.items():
        if g not in ident and f not in ident:
            touched.update((g, f, h))
    return [
        name
        for name, m in sorted(base.morphisms.items())
        if name not in ident and name not in touched and len(spec.fibers[m.dst].elements) > 1
    ]


def break_bottom(spec, arrow: str, k: str):
    """``spec`` with the action of the isolated base arrow ``arrow`` made
    constant at ``k``, an element of its target fiber other than the bottom.

    The action stays monotone and functorial, but no longer keeps bottoms,
    so the fiber-bottom comonad has no lift along ``arrow``."""
    actions = {f: dict(a) for f, a in spec.actions.items()}
    actions[arrow] = dict.fromkeys(actions[arrow], k)
    return FiberedSpec(f"{spec.name}-mutant", spec.base, spec.fibers, actions)


def collapsed(t, side) -> MonadDatum:
    """The datum of the :func:`catmn.collapse` walk of ``side`` on the total
    category ``t``, or the walk's first error raised, as a build stage
    shows it."""
    datum, failures = collapse(t, side)
    if failures:
        raise failures[0][0]
    return datum


def extension_report(t) -> ValidationReport:
    """Every violation of the collapse walks of both sides of ``t``, the
    monad side first: the diagnosis a failed build stage shows."""
    return ValidationReport([v for side in (MONAD, COMONAD) for _, v in collapse(t, side)[1]])


def _view_by_names(cat, side):
    """``cat``'s hom-sets by name and composites by ``comp_or_none``, both
    read flipped on the comonad side."""
    if side.flip:
        return (lambda a, b: cat.hom(b, a)), (lambda g, f: cat.comp_or_none(f, g))
    return cat.hom, cat.comp_or_none


def lifts_by_names(cat, side, units):
    """The name-level lift search from ``units`` (a unit name per object
    name, on any category): each morphism u: a -> b, as the view reads it,
    between objects with units, goes to the one v with v after units[a] =
    units[b] after u.

    Returns the morphism map, and each ``(morphism, number of lifts)`` that
    is not one, in name order.
    """
    hom, after = _view_by_names(cat, side)
    # where each unit ends, as the view reads it
    ends = {x: getattr(cat.morphisms[e], "src" if side.flip else "dst") for x, e in units.items()}
    mor_map, failures = {}, []
    for u, m in cat.morphisms.items():
        a, b = (m.dst, m.src) if side.flip else (m.src, m.dst)
        if a not in units or b not in units:
            continue
        target_side = after(units[b], u)
        lifts = [v for v in hom(ends[a], ends[b]) if after(v, units[a]) == target_side]
        if len(lifts) == 1:
            mor_map[u] = lifts[0]
        else:
            failures.append((u, len(lifts)))
    return mor_map, failures


def collapse_by_names(t, side):
    """The collapse of every fiber of the total category ``t`` onto its
    ``side.final`` object, found by the name-level search: hom-sets by name
    and composites by ``comp_or_none``, both read flipped for the comonad,
    and the lifts by :func:`lifts_by_names`.

    Returns the object map, the units, the morphism map, and each failure
    as ``(error, violation)`` in the order the search meets them: the error
    a builder raises first, and the violation the extension check records.
    """
    cat, base = t.total, t.projection.target
    over = dict(t.projection.mor_map)
    hom, _ = _view_by_names(cat, side)
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
    mor_map, lift_failures = lifts_by_names(cat, side, units)
    for u, n in lift_failures:
        fail(LiftError(u, n), f"{side.final}-lift", u, f"{n} lifts between the fiber {side.top}s")
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
    if builder == "from_units":
        cat, eta = scope["cat"], scope["eta"]
        units = {x: cat.names[u] for x, u in zip(cat.objects, eta) if u is not None}
        return lifts_by_names(cat, scope["side"], units)[0]
    raise AssertionError(f"no name-level table for the functors {builder} builds")


# ---------------------------------------------------------------------------
# the slot-at-a-time completion rules and the triple-at-a-time associativity
# check that the row passes replaced


def _derivation(c: Category):
    """The completion rules on ``c``'s ids: ``derive(g, f)`` is what they
    give for ``g`` after ``f`` (identity laws first, then unique-choice
    hom-sets), or None.  Each of ``g`` and ``f`` is a morphism id or, for
    something that is no morphism, its name."""
    src, dst, ident = c.src, c.dst, c.ident
    n_vertices = len(c.vertices)
    # per morphism id: whether it is the identity of its source, which it
    # also ends at
    is_identity = [s == d and ident[s] == f for f, (s, d) in enumerate(zip(src, dst))]
    # per pair of vertices (a * n_vertices + b) with a morphism between them:
    # the one morphism from a to b, or None when there are more.  Held only
    # as long as ``derive`` is
    sole: dict[int, int | None] = {}
    for f, a, b in zip(c.mor_id.values(), src, dst):
        key = a * n_vertices + b
        sole[key] = None if key in sole else f

    def derive(g, f):
        if type(f) is int:
            if is_identity[f]:
                return g
            if type(g) is int:
                if is_identity[g]:
                    return f
                return sole.get(src[f] * n_vertices + dst[g])
        return f if type(g) is int and is_identity[g] else None

    return derive


def completing_by_slots(entries: dict[tuple[str, str], str]):
    """A ``fill`` holding ``entries`` plus what :func:`_derivation` gives
    for each empty slot that no stray entry names."""

    def fill(c: Category):
        rows, stray = c.table_of(entries)
        derive, names = _derivation(c), c.names
        for f, d, row in zip(c.mor_id.values(), c.dst, rows):
            for i, (g, h) in enumerate(zip(c.out[d], row)):
                if h is None and not (stray and (names[g], names[f]) in stray):
                    row[i] = derive(g, f)
        return rows, stray

    return fill


def nonderivable_by_slots(c: Category) -> list[tuple[str, str, str]]:
    """The compose entries that :func:`_derivation` cannot reconstruct, and
    every stray entry, since the loader completes row slots only; sorted,
    one entry at a time."""
    derive, name_of = _derivation(c), c.name_of
    keep = [
        (g, f, h)
        for f, (d, row) in enumerate(zip(c.dst, c.rows))
        for g, h in zip(c.out[d], row)
        if h is not None and h != derive(g, f)
    ]
    keep += c.stray_ids()
    return sorted((name_of(g), name_of(f), name_of(h)) for g, f, h in keep)


def associativity_by_names(c: Category) -> list[Violation]:
    """Every associativity violation of ``c``: each triple h, g, f of
    morphisms meeting at objects, where g after f and h after g are
    morphisms, read through the ``compose`` view."""
    comp, mors, objects = c.compose, c.morphisms, set(c.objects)
    leaving: dict[str, list[str]] = {}
    for m in mors.values():
        leaving.setdefault(m.src, []).append(m.name)
    found = []
    for f, mf in mors.items():
        if mf.dst not in objects:
            continue
        for g in leaving.get(mf.dst, ()):
            gf, y = comp.get((g, f)), mors[g].dst
            if gf not in mors or y not in objects:
                continue
            for h in leaving.get(y, ()):
                hg = comp.get((h, g))
                if hg not in mors:
                    continue
                left, right = comp.get((h, gf)), comp.get((hg, f))
                if left != right:
                    found.append(
                        Violation(
                            "associativity",
                            (h, g, f),
                            f"({h!r} after {gf!r}) = {left!r} but "
                            f"({hg!r} after {f!r}) = {right!r}",
                        )
                    )
    return found


# ---------------------------------------------------------------------------
# the line-at-a-time parser that the token readers replaced


def parse_blocks_by_lines(text: str, filename: str = "<input>") -> list[tuple[int, dict]]:
    """Each block's document, with the line number of its header, as the
    parser that read every line through ``peek``/``next`` gave them."""
    return _parse_blocks(_Cursor(text, filename))


class _Cursor:
    def __init__(self, text: str, filename: str):
        self.filename = filename
        self.lines: list[tuple[int, str]] = []
        for i, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                self.lines.append((i, stripped))
        self.pos = 0

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next(self):
        item = self.peek()
        if item is None:
            raise ParseError("unexpected end of file", self.filename, self._eof_line())
        self.pos += 1
        return item

    def _eof_line(self) -> int:
        return self.lines[-1][0] if self.lines else 1

    def error(self, message: str, line: int) -> ParseError:
        return ParseError(message, self.filename, line)


def _split_arrow(text: str, sep: str, lineno: int, cur: _Cursor) -> tuple[str, str]:
    parts = text.split(sep)
    if len(parts) != 2:
        raise cur.error(f"expected exactly one {sep!r}", lineno)
    a, b = parts[0].strip(), parts[1].strip()
    if not a or " " in a or not b or " " in b:
        raise cur.error(f"malformed {sep!r} entry", lineno)
    return a, b


def _split_colon(text: str, lineno: int, cur: _Cursor) -> tuple[str, str]:
    head, sep, tail = text.partition(":")
    if not sep:
        raise cur.error("expected ':'", lineno)
    return head.strip(), tail.strip()


_SECTIONS = ("OBJECTS", "MORPHISMS", "IDENTITIES", "COMPOSE")


def _parse_category_sections(cur: _Cursor, terminators: set[str]) -> dict:
    objects: list[str] = []
    morphisms: list[dict] = []
    identities: dict[str, str] = {}
    compose: list[list[str]] = []
    section = None
    while True:
        item = cur.peek()
        if item is None:
            break
        lineno, line = item
        word = line.split()[0]
        if word in terminators:
            break
        if word in _SECTIONS and line == word:
            section = word
            cur.next()
            continue
        cur.next()
        if section == "OBJECTS":
            objects.extend(line.split())
        elif section == "MORPHISMS":
            name, rest = _split_colon(line, lineno, cur)
            src, dst = _split_arrow(rest, "->", lineno, cur)
            if not name or " " in name:
                raise cur.error("malformed morphism name", lineno)
            morphisms.append({"name": name, "src": src, "dst": dst})
        elif section == "IDENTITIES":
            obj, mor = _split_colon(line, lineno, cur)
            if not obj or " " in obj or not mor or " " in mor:
                raise cur.error("malformed identity entry", lineno)
            identities[obj] = mor
        elif section == "COMPOSE":
            tokens = line.split()
            if len(tokens) != 5 or tokens[1] != "o" or tokens[3] != "=":
                raise cur.error("expected 'g o f = h'", lineno)
            compose.append([tokens[0], tokens[2], tokens[4]])
        else:
            raise cur.error(f"unexpected line {line!r}", lineno)
    return {
        "objects": objects,
        "morphisms": morphisms,
        "identities": identities,
        "compose": compose,
    }


def _block_lines(cur: _Cursor, block: str, lineno: int):
    """The numbered lines of a FIBER or ACTION block opened at ``lineno``,
    up to the next FIBER, ACTION or END line, which is left unread."""
    while True:
        item = cur.peek()
        if item is None:
            raise cur.error(f"unterminated {block} block", lineno)
        if item[1].split()[0] in ("FIBER", "ACTION", "END"):
            return
        yield cur.next()


def _parse_spec_tail(cur: _Cursor) -> tuple[dict, dict]:
    fibers: dict[str, dict] = {}
    actions: dict[str, dict[str, str]] = {}
    while True:
        lineno, line = cur.next()
        tokens = line.split()
        if tokens[0] == "END":
            return fibers, actions
        if tokens[0] == "FIBER":
            if len(tokens) != 2:
                raise cur.error("expected 'FIBER <base object>'", lineno)
            b = tokens[1]
            if b in fibers:
                raise cur.error(f"duplicate FIBER block for {b!r}", lineno)
            fib = {"elements": [], "bottom": None, "top": None, "leq": []}
            for dlineno, dline in _block_lines(cur, "FIBER", lineno):
                dtok = dline.split()
                if dtok[0] == "ELEMENTS":
                    fib["elements"].extend(dtok[1:])
                elif dtok[0] == "BOTTOM" and len(dtok) == 2:
                    fib["bottom"] = dtok[1]
                elif dtok[0] == "TOP" and len(dtok) == 2:
                    fib["top"] = dtok[1]
                elif dtok[0] == "LEQ" and len(dtok) == 3:
                    fib["leq"].append([dtok[1], dtok[2]])
                else:
                    raise cur.error(f"unknown fiber directive {dline!r}", dlineno)
            for req in ("bottom", "top"):
                if fib[req] is None:
                    raise cur.error(f"fiber {b!r} lacks a {req.upper()} directive", lineno)
            fibers[b] = fib
        elif tokens[0] == "ACTION":
            if len(tokens) != 2:
                raise cur.error("expected 'ACTION <morphism>'", lineno)
            f = tokens[1]
            if f in actions:
                raise cur.error(f"duplicate ACTION block for {f!r}", lineno)
            mapping: dict[str, str] = {}
            for alineno, aline in _block_lines(cur, "ACTION", lineno):
                k, k2 = _split_arrow(aline, "->", alineno, cur)
                mapping[k] = k2
            actions[f] = mapping
        else:
            raise cur.error(f"expected FIBER, ACTION, or END, got {line!r}", lineno)


def _parse_blocks(cur: _Cursor) -> list[tuple[int, dict]]:
    """Each block's document, with the line number of its header."""
    docs: list[tuple[int, dict]] = []
    while True:
        item = cur.peek()
        if item is None:
            return docs
        lineno, line = cur.next()
        tokens = line.split()
        head = tokens[0]
        if head == "CATEGORY":
            if len(tokens) != 2:
                raise cur.error("expected 'CATEGORY <name>'", lineno)
            doc = {"kind": "category", "name": tokens[1]}
            doc.update(_parse_category_sections(cur, {"END"}))
            endline, end = cur.next()
            if end != "END":
                raise cur.error("expected END", endline)
            docs.append((lineno, doc))
        elif head == "SPEC":
            if len(tokens) != 2:
                raise cur.error("expected 'SPEC <name>'", lineno)
            blineno, bline = cur.next()
            if bline != "BASE":
                raise cur.error("a SPEC block must start with BASE", blineno)
            base = _parse_category_sections(cur, {"FIBER", "ACTION", "END"})
            fibers, actions = _parse_spec_tail(cur)
            docs.append(
                (lineno, {
                    "kind": "spec",
                    "name": tokens[1],
                    "base": base,
                    "fibers": fibers,
                    "actions": actions,
                })
            )
        elif head == "FUNCTOR":
            name, rest = _split_colon(line[len("FUNCTOR") :].strip(), lineno, cur)
            src, dst = _split_arrow(rest, "->", lineno, cur)
            if not name or " " in name:
                raise cur.error("malformed functor name", lineno)
            objmap: dict[str, str] = {}
            mormap: dict[str, str] = {}
            section = None
            while True:
                elineno, eline = cur.next()
                if eline == "END":
                    break
                if eline in ("OBJMAP", "MORMAP"):
                    section = eline
                    continue
                if section is None:
                    raise cur.error("expected OBJMAP or MORMAP", elineno)
                a, b = _split_arrow(eline, "->", elineno, cur)
                (objmap if section == "OBJMAP" else mormap)[a] = b
            docs.append(
                (lineno, {
                    "kind": "functor",
                    "name": name,
                    "source": src,
                    "target": dst,
                    "objmap": objmap,
                    "mormap": mormap,
                })
            )
        elif head == "NAT":
            name, rest = _split_colon(line[len("NAT") :].strip(), lineno, cur)
            src, dst = _split_arrow(rest, "=>", lineno, cur)
            if not name or " " in name:
                raise cur.error("malformed transformation name", lineno)
            components: dict[str, str] = {}
            seen_section = False
            while True:
                elineno, eline = cur.next()
                if eline == "END":
                    break
                if eline == "COMPONENTS":
                    seen_section = True
                    continue
                if not seen_section:
                    raise cur.error("expected COMPONENTS", elineno)
                x, m = _split_colon(eline, elineno, cur)
                if not x or " " in x or not m or " " in m:
                    raise cur.error("malformed component entry", elineno)
                components[x] = m
            docs.append(
                (lineno, {
                    "kind": "nat",
                    "name": name,
                    "source": src,
                    "target": dst,
                    "components": components,
                })
            )
        else:
            raise cur.error(
                f"expected CATEGORY, SPEC, FUNCTOR, or NAT, got {line!r}", lineno
            )
