"""Fibered total categories with bounded poset fibers.

A fibered spec is a finite base category, a finite poset with designated
bottom and top over every base object (closed from generating pairs by one
depth-first walk per element), and a monotone action of every base
morphism on the fibers, functorial in the base.  The total category has
objects (b, k) and a unique morphism (b, k) -> (b', k') over f exactly when
action(f)(k) <= k', so each fiber (the morphisms over an identity) is the
thin category of its poset.

Collapsing every fiber onto its top gives an idempotent monad whose unit is
the in-fiber morphism up to the top; collapsing onto bottoms gives the dual
comonad, built by the same code reading the total category flipped.  This
module only chooses those units; :func:`monads.from_units`, which takes
units from any source, extends them to functors by unique lifts, and
:func:`check_extension_property` reports every failure of the choice and
the extension.  :func:`random_spec` produces seeded random instances inside
configurable size limits, none of which may exceed the morphism limit.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

from .config import morphism_limit
from .errors import (
    ExtremumError,
    InvalidArtifactError,
    LiftError,
    SizeLimitError,
)
from .core import Category, Mor, Rows, _gather, validate_category
from .functors import Functor
from .monads import COMONAD, MONAD, MonadDatum, Side, from_units
from .report import ValidationReport, Violation, remembered, report_field


# ---------------------------------------------------------------------------
# fiber posets


@dataclass(frozen=True)
class FiberPoset:
    """A finite poset with designated bottom and top.

    ``leq`` is the full order relation (reflexive and transitive) as a set
    of pairs.  Use :func:`poset_from_pairs` to build one from generators.

    ``up[a]`` is ``{b : (a, b) in leq}`` and ``down[b]`` is ``{a : (a, b)
    in leq}``, both keyed by every element and every name ``leq`` mentions,
    and derived from ``leq``, so a ``dataclasses.replace`` copy derives its
    own.
    """

    elements: tuple[str, ...]
    leq: frozenset[tuple[str, str]]
    bottom: str
    top: str
    up: dict[str, frozenset[str]] = field(init=False, compare=False, repr=False)
    down: dict[str, frozenset[str]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        names = dict.fromkeys(chain(self.elements, chain.from_iterable(self.leq)))
        above: dict[str, set[str]] = {x: set() for x in names}
        below: dict[str, set[str]] = {x: set() for x in names}
        for a, b in self.leq:
            above[a].add(b)
            below[b].add(a)
        object.__setattr__(self, "up", {a: frozenset(bs) for a, bs in above.items()})
        object.__setattr__(self, "down", {b: frozenset(a) for b, a in below.items()})

    def linear_extension(self) -> list[str]:
        """Elements in an order compatible with ``leq``: each step takes the
        least name with no remaining element below it, or the least
        remaining name when a cycle, which validation reports, leaves none.
        Kahn's algorithm over a heap of the names that are ready."""
        remaining = set(self.elements)
        below = {x: len(self.down[x] & remaining) - (x in self.down[x]) for x in remaining}
        ready = [x for x, n in below.items() if not n]
        heapq.heapify(ready)
        least = iter(sorted(remaining))
        out: list[str] = []
        while remaining:
            x = heapq.heappop(ready) if ready else next(y for y in least if y in remaining)
            out.append(x)
            remaining.remove(x)
            for y in self.up[x] & remaining:
                below[y] -= 1
                if not below[y]:
                    heapq.heappush(ready, y)
        return out


def poset_from_pairs(elements, pairs, bottom, top) -> FiberPoset:
    """Build a fiber poset from generating pairs, closing under
    reflexivity and transitivity by one depth-first walk per element;
    pairs naming a non-element are dropped.  A cycle closes like anything
    else; validation reports it."""
    elems = tuple(sorted(set(elements)))
    adj: dict[str, set[str]] = {x: set() for x in elems}
    for a, b in pairs:
        if a in adj and b in adj:
            adj[a].add(b)
    reach: dict[str, set[str]] = {}
    for root in elems:
        reach[root] = seen = {root}
        todo = [root]
        while todo:
            for y in adj[todo.pop()]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
    leq = frozenset((a, b) for a in elems for b in reach[a])
    return FiberPoset(elems, leq, bottom, top)


def chain_poset(names) -> FiberPoset:
    """The total order bottom-to-top along ``names``."""
    names = list(names)
    pairs = list(zip(names, names[1:]))
    return poset_from_pairs(names, pairs, names[0], names[-1])


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class FiberedSpec:
    """Base category + fibers + monotone actions."""

    name: str
    base: Category
    fibers: dict[str, FiberPoset]
    actions: dict[str, dict[str, str]]
    _report: ValidationReport | None = report_field()


def _validate_fiber(label: str, p: FiberPoset) -> list[Violation]:
    violations: list[Violation] = []
    elems = set(p.elements)
    for who, val in (("bottom", p.bottom), ("top", p.top)):
        if val not in elems:
            violations.append(
                Violation(
                    "fiber-extremum-unknown",
                    (label, val),
                    f"designated {who} is not an element",
                )
            )
    up, down = p.up, p.down
    for a, above in up.items():
        for b in above if a not in elems else above - elems:
            violations.append(
                Violation("fiber-order-domain", (label, a, b), "order pair outside the elements")
            )
    for x in p.elements:
        if x not in up[x]:
            violations.append(
                Violation("fiber-order-reflexive", (label, x), "missing reflexive pair")
            )
    # a <= b <= c must give a <= c for every element c, and a <= b <= a only
    # when a == b
    for a, above in up.items():
        for b in above:
            for c in up[b] - above:
                if c in elems:
                    violations.append(
                        Violation(
                            "fiber-order-transitive",
                            (label, a, b, c),
                            "relation is not transitively closed",
                        )
                    )
        for b in above & down[a]:
            if b != a:
                violations.append(
                    Violation(
                        "fiber-order-cycle",
                        (label, a, b),
                        f"{a!r} and {b!r} are below each other",
                    )
                )
    for who, val, where, reached in (
        ("bottom", p.bottom, "below", up),
        ("top", p.top, "above", down),
    ):
        if val in elems:
            for x in elems - reached[val]:
                violations.append(
                    Violation(
                        f"fiber-{who}",
                        (label, x),
                        f"designated {who} {val!r} is not {where} {x!r}",
                    )
                )
    return violations


@remembered
def validate_spec(s: FiberedSpec) -> ValidationReport:
    """Check the base axioms, every fiber poset, and every action: totality,
    monotonicity, identities acting as identities, and functoriality along
    the base composition table.  Computed once per spec."""
    report = validate_category(s.base)
    violations: list[Violation] = list(report.violations)

    baseobjs = set(s.base.objects)
    for b in sorted(s.fibers):
        if b not in baseobjs:
            violations.append(
                Violation("fiber-unknown-base", (b,), "fiber over a non-object")
            )
    for b in s.base.objects:
        if b not in s.fibers:
            violations.append(Violation("fiber-missing", (b,), "no fiber assigned"))
            continue
        violations.extend(_validate_fiber(b, s.fibers[b]))

    basemors = s.base.morphisms
    for fname in sorted(s.actions):
        if fname not in basemors:
            violations.append(
                Violation("action-unknown-morphism", (fname,), "action for a non-morphism")
            )
    for fname in sorted(basemors):
        m = basemors[fname]
        if fname not in s.actions:
            violations.append(Violation("action-missing", (fname,), "no action assigned"))
            continue
        if m.src not in s.fibers or m.dst not in s.fibers:
            continue
        act = s.actions[fname]
        src_fiber, dst_fiber = s.fibers[m.src], s.fibers[m.dst]
        src_elems, dst_elems = set(src_fiber.elements), set(dst_fiber.elements)
        for k in sorted(src_elems):
            if k not in act:
                violations.append(
                    Violation("action-partial", (fname, k), "no image for a fiber element")
                )
            elif act[k] not in dst_elems:
                violations.append(
                    Violation(
                        "action-image",
                        (fname, k),
                        f"image {act[k]!r} is not in the target fiber",
                    )
                )
        for k in sorted(act):
            if k not in src_elems:
                violations.append(
                    Violation("action-extra", (fname, k), "image assigned for a non-element")
                )
        ok_typing = all(k in act and act[k] in dst_elems for k in src_elems)
        if not ok_typing:
            continue
        if s.base.identity.get(m.src) == fname:
            for k in sorted(src_elems):
                if act[k] != k:
                    violations.append(
                        Violation(
                            "action-identity",
                            (fname, k),
                            f"identity action moves {k!r} to {act[k]!r}",
                        )
                    )
        for a, above in src_fiber.up.items():
            if a not in act:
                continue  # stray order pairs are already reported above
            image_above = dst_fiber.up.get(act[a], ())
            for b in above:
                if b != a and b in act and act[b] not in image_above:
                    violations.append(
                        Violation(
                            "action-monotone",
                            (fname, a, b),
                            f"{a!r} <= {b!r} but {act[a]!r} <= {act[b]!r} fails",
                        )
                    )

    # the report sorts its violations, so the entries are walked in their order
    for g, f, h in s.base.entries():
        mf = basemors.get(f)
        if f not in s.actions or mf is None or mf.src not in s.fibers:
            continue
        if g not in s.actions or h not in s.actions:
            continue
        act_f, act_g, act_h = s.actions[f], s.actions[g], s.actions[h]
        for k in s.fibers[mf.src].elements:
            if k not in act_f or act_f[k] not in act_g or k not in act_h:
                continue
            if act_g[act_f[k]] != act_h[k]:
                violations.append(
                    Violation(
                        "action-functorial",
                        (g, f, k),
                        f"acting by the composite gives {act_h[k]!r} but acting in "
                        f"stages gives {act_g[act_f[k]]!r}",
                    )
                )

    return ValidationReport(violations, omitted=report.omitted)


# ---------------------------------------------------------------------------
# total category


@dataclass
class TotalCategory:
    """The total category of a fibered spec, its projection to the base,
    and the decoding of each total object back to its (base, fiber) pair."""

    total: Category
    projection: Functor
    object_decoding: dict[str, tuple[str, str]]


def _obj_name(b: str, k: str) -> str:
    return f"{b}|{k}"


def _mor_name(f: str, k: str, k2: str) -> str:
    return f"{f}|{k}|{k2}"


def build_total_category(s: FiberedSpec) -> TotalCategory:
    """Materialize the total category.  Raises on an invalid spec, on name
    collisions, and on exceeding the morphism-count guardrail (counted
    before building anything)."""
    report = validate_spec(s)
    if not report.ok:
        raise InvalidArtifactError(f"invalid fibered spec {s.name!r}", report)

    base = s.base
    # per base object and element k: the up-set of k in element order, as
    # elements and as their ranks (places in the fiber's elements).  The
    # lifts of (f, k) to b end at above[b][act_f(k)], in morphism order
    above: dict[str, dict[str, list[str]]] = {}
    above_ranks: dict[str, dict[str, list[int]]] = {}
    for b in base.objects:
        p = s.fibers[b]
        ranked = dict(zip(p.elements, range(len(p.elements))))
        above[b], above_ranks[b] = {}, {}
        for k, up in p.up.items():
            at = above_ranks[b][k] = sorted(map(ranked.__getitem__, up))
            above[b][k] = list(map(p.elements.__getitem__, at))
    count = 0
    for fname, m in base.morphisms.items():
        act, ends = s.actions[fname], above[m.dst]
        for k in s.fibers[m.src].elements:
            count += len(ends[act[k]])
    limit = morphism_limit()
    if count > limit:
        raise SizeLimitError(
            f"total category of {s.name!r} would have {count} morphisms, over "
            f"the limit of {limit} (set CATMN_MAX_MORPHISMS to override)"
        )

    objects = []
    decoding: dict[str, tuple[str, str]] = {}
    obj_names: dict[str, dict[str, str]] = {}
    for b in base.objects:
        named = obj_names[b] = {}
        for k in s.fibers[b].elements:
            name = named[k] = _obj_name(b, k)
            if name in decoding:
                raise InvalidArtifactError(
                    f"total object name collision at {name!r}; pick base/fiber "
                    "labels that do not collide when joined with '|'"
                )
            decoding[name] = (b, k)
            objects.append(name)

    # the morphisms come in blocks, one per (base arrow f, element k): the
    # lifts (f, k, k2) for k2 in above[dst f][act_f(k)], kept with f's id
    # and the ranks of the k2
    blocks: list[tuple[int, str, list[str], list[str], list[int]]] = []
    mors: list[Mor] = []
    seen: set[str] = set()
    # (tuple.__new__ makes each Mor as Mor(...) does, without a Python-level
    # call per morphism)
    make = partial(tuple.__new__, Mor)
    for f, (fname, m) in enumerate(base.morphisms.items()):
        act, starts, ends_at = s.actions[fname], obj_names[m.src], obj_names[m.dst]
        ends, ranks = above[m.dst], above_ranks[m.dst]
        for k in s.fibers[m.src].elements:
            k2s = ends[act[k]]
            prefix, src = f"{fname}|{k}|", starts[k]
            names = [prefix + k2 for k2 in k2s]
            for name, k2 in zip(names, k2s):
                if name in seen:
                    raise InvalidArtifactError(f"total morphism name collision at {name!r}")
                seen.add(name)
                mors.append(make((name, src, ends_at[k2])))
            blocks.append((f, k, names, k2s, ranks[act[k]]))

    # over[u]: the id of the base arrow that total morphism u lies over,
    # written by the fill
    over: list = [None] * len(mors)

    def missing(key):
        return InvalidArtifactError(
            f"total category of {s.name!r} has no morphism for the identity "
            f"or composite {key!r}"
        )

    # the block (idb, k) exists when idb is a morphism from b, and holds the
    # identity lift when k is among its k2
    identity: dict[str, str] = {}
    for b in base.objects:
        idb = base.identity.get(b)
        m = base.morphisms.get(idb)
        for k in s.fibers[b].elements:
            if m is None or k not in above[m.src] or k not in above[m.dst][s.actions[idb][k]]:
                raise missing((idb, k, k))
            identity[obj_names[b][k]] = _mor_name(idb, k, k)

    def fill(total: Category):
        # (g, k1, k2) after (f, k, k1) is (g o f, k, k2).  The row of
        # (f, k, k1) reads one table of the block (f, k): for each base
        # arrow g leaving dst f, in base slot order, the lifts of g o f at k
        # by the rank of their k2 in the fiber over dst g, None where there
        # is no lift.  A slot (g, k1, k2) of any row sits at the start of
        # g's part of that table plus the rank of k2, so one reader per
        # total vertex reads all its slots
        ids = total.mor_id
        bout, brows, bdst = base.out, base.rows, base.dst
        width = [len(s.fibers[b].elements) for b in base.vertices]
        start = [0] * len(base.names)
        for leaving in bout:
            place = 0
            for g in leaving:
                start[g], place = place, place + width[bdst[g]]
        # lifts[h][k]: the ids of the block (h, k) by the rank of their k2;
        # offset[u]: where u sits in the tables, as a slot
        lifts: list[dict[str, list]] = [{} for _ in base.names]
        offset = [0] * len(total.names)
        base_ids = list(base.mor_id.values())
        block_ids = []
        for f, k, names, _, at in blocks:
            got = list(map(ids.__getitem__, names))
            block_ids.append(got)
            table = lifts[f][k] = [None] * width[bdst[f]]
            first, bf = start[f], base_ids[f]
            for u, r in zip(got, at):
                table[r] = u
                offset[u] = first + r
                over[u] = bf
        readers = [_gather(list(map(offset.__getitem__, leaving))) for leaving in total.out]
        dst = total.dst
        rows: Rows = [None] * len(total.names)
        # per base arrow f: the lift tables of each g o f and the table of
        # no lifts, in the slot order of f's row
        nothing = [[None] * w for w in width]
        parts = [
            [({} if h is None else lifts[h], nothing[bdst[g]]) for g, h in zip(bout[d], row)]
            for d, row in zip(bdst, brows)
        ]
        for (f, k, *_), got in zip(blocks, block_ids):
            table = []
            for lifted, none in parts[f]:
                table += lifted.get(k) or none
            for u in got:
                rows[u] = readers[dst[u]](table)
        try:
            sum(map(sum, rows))  # a hole, only on a spec that fails validate_spec
        except TypeError:
            raise _hole(total, rows, blocks, block_ids, base, missing) from None
        return rows, {}

    total = Category(f"total({s.name})", objects, mors, identity, fill=fill)
    projection = Functor(
        total,
        base,
        {x: decoding[x][0] for x in total.objects},
        name=f"project({s.name})",
        images=over,
    )
    return TotalCategory(total, projection, decoding)


def _hole(total: Category, rows: Rows, blocks, block_ids, base: Category, missing):
    """The error for the first slot, in id order, that the fill found no
    lift for: the base composite is missing, or its lift is."""
    lifted = [None] * len(total.names)
    for (f, k, _, k2s, _), got in zip(blocks, block_ids):
        for u, k2 in zip(got, k2s):
            lifted[u] = (base.names[f], k, k2)
    for u, row in enumerate(rows):
        for v, h in zip(total.out[total.dst[u]], row):
            if h is None:
                f, k, _ = lifted[u]
                g, _, k2 = lifted[v]
                gf = base.after(base.mor_id[g], base.mor_id[f])
                return missing((g, f) if gf is None else (base.names[gf], k, k2))
    raise AssertionError("no hole found")


def fiber_objects(t: TotalCategory, b: str) -> list[str]:
    return sorted(x for x, (bb, _) in t.object_decoding.items() if bb == b)


def _collapse(t: TotalCategory, side: Side):
    """Collapse every fiber onto its ``side.final`` object, reading the total
    category flipped for the comonad: each object's unit is the in-fiber
    arrow the scan for that object counted, and :func:`monads.from_units`
    extends the units by unique lifts.

    Returns that datum, or None, and every failure of the one walk as
    ``(error, violation)``: each fiber without the object, in base order,
    then each morphism without exactly one lift, in id order.  A builder
    raises the first error; :func:`check_extension_property` reports every
    violation.
    """
    cat, base = t.total, t.projection.target
    # the morphisms entering each vertex as the view reads them, and their starts
    entering, src = (cat.out, cat.dst) if side.flip else (cat.into, cat.src)
    over, names, vid = t.projection.images, cat.names, cat.vid
    failures = []
    # per vertex id: the unit there, set at the objects alone (the first
    # vertices), as the object map covers only those
    eta = [None] * len(cat.vertices)
    for b in base.objects:
        objs = [vid[x] for x in fiber_objects(t, b)]
        idb, inside = base.ident[base.vid[b]], set(objs)
        # the extremum is the first object that each of objs reaches by
        # exactly one in-fiber arrow, and those arrows are the units
        for cand in objs:
            arrows = [u for u in entering[cand] if over[u] == idb and src[u] in inside]
            if len(arrows) == len(objs) == len(set(map(src.__getitem__, arrows))):
                break
        else:
            detail = f"fiber has no {side.final} object"
            failures.append(
                (ExtremumError(b, side.final), Violation(f"extension-no-{side.final}", (b,), detail))
            )
            continue
        for u in arrows:
            if src[u] < len(cat.objects):
                eta[src[u]] = u
    name = f"fiber-{side.top}-{side.monad}"
    datum, lifts = from_units(cat, side, eta, name, f"{side.unit}-{side.to}-{side.top}")
    for u, n in lifts:
        detail = f"{n} lifts between the fiber {side.top}s"
        failures.append(
            (LiftError(names[u], n), Violation(f"extension-{side.final}-lift", (names[u],), detail))
        )
    return datum, failures


def _build(t: TotalCategory, side: Side) -> MonadDatum:
    datum, failures = _collapse(t, side)
    if failures:
        raise failures[0][0]
    return datum


def build_final_monad(t: TotalCategory) -> MonadDatum:
    """The monad collapsing each fiber onto its final object.

    eta at (b, k) is the unique in-fiber morphism up to the final object;
    the functor acts on a morphism u by the unique v between the collapsed
    objects making the naturality square commute.  Raises the first failure
    of the walk: :class:`ExtremumError` for a fiber with no final object,
    before any :class:`LiftError` for a lift that is missing or ambiguous
    (:func:`check_extension_property` lists them all).
    """
    return _build(t, MONAD)


def build_initial_comonad(t: TotalCategory) -> MonadDatum:
    """:func:`build_final_monad` on the flipped view of the total category:
    collapse fibers onto their initial objects, counit the unique in-fiber
    morphism from the initial object."""
    return _build(t, COMONAD)


def check_extension_property(t: TotalCategory) -> ValidationReport:
    """Diagnostic behind the two builders: every failure of their walk on
    both sides, which the builders raise the first of.  Reports every fiber
    lacking an extremal object (``extension-no-{final,initial}``) and every
    morphism whose lift is missing or ambiguous
    (``extension-{final,initial}-lift``).  An extremal object is one each
    fiber object reaches by exactly one in-fiber arrow, so every object of a
    fiber that has one has its unit."""
    return ValidationReport([v for side in (MONAD, COMONAD) for _, v in _collapse(t, side)[1]])


# ---------------------------------------------------------------------------
# instances


def canonical_c2() -> FiberedSpec:
    """The standing example: a two-object base with one arrow, a 3-chain
    fiber over the source, a 2-chain over the target, and an action that
    collapses the middle level.  Total category: 5 objects, 14 morphisms."""
    base = Category(
        "c2-base",
        ["b0", "b1"],
        [Mor("id_b0", "b0", "b0"), Mor("id_b1", "b1", "b1"), Mor("f", "b0", "b1")],
        {"b0": "id_b0", "b1": "id_b1"},
        {
            ("id_b0", "id_b0"): "id_b0",
            ("id_b1", "id_b1"): "id_b1",
            ("f", "id_b0"): "f",
            ("id_b1", "f"): "f",
        },
    )
    fibers = {
        "b0": chain_poset(["bot0", "mid0", "top0"]),
        "b1": chain_poset(["bot1", "top1"]),
    }
    actions = {
        "id_b0": {k: k for k in ("bot0", "mid0", "top0")},
        "id_b1": {k: k for k in ("bot1", "top1")},
        "f": {"bot0": "bot1", "mid0": "bot1", "top0": "top1"},
    }
    return FiberedSpec("canonical_c2", base, fibers, actions)


def terminal_spec() -> FiberedSpec:
    """One base object, one fiber element: the total category is terminal."""
    base = Category(
        "point",
        ["b0"],
        [Mor("id_b0", "b0", "b0")],
        {"b0": "id_b0"},
        {("id_b0", "id_b0"): "id_b0"},
    )
    fiber = poset_from_pairs(["k0"], [], "k0", "k0")
    return FiberedSpec(
        "terminal", base, {"b0": fiber}, {"id_b0": {"k0": "k0"}}
    )


@dataclass(frozen=True)
class SizeLimits:
    """Caps for :func:`random_spec`.  ``max_base_morphisms`` counts
    non-identity base morphisms."""

    max_base_objects: int = 4
    max_base_morphisms: int = 6
    max_fiber_elements: int = 5


def _sample(rng: random.Random, seq, k: int) -> list:
    """Deterministic partial Fisher-Yates built on randrange only, so the
    draw sequence does not depend on stdlib sampling internals."""
    pool = list(seq)
    out = []
    for _ in range(k):
        out.append(pool.pop(rng.randrange(len(pool))))
    return out


def _random_bounded_poset(rng: random.Random, max_elements: int, tag: str) -> FiberPoset:
    """A random order-closed selection from a small powerset lattice with the
    empty and full sets forced, so bottom and top always exist."""
    m = rng.randint(1, max_elements)
    if m == 1:
        return poset_from_pairs([f"{tag}0"], [], f"{tag}0", f"{tag}0")
    bits = 1
    while (1 << bits) < m:
        bits += 1
    full = (1 << bits) - 1
    middle = [v for v in range(1, full)]
    chosen = {0, full} | set(_sample(rng, middle, m - 2))
    names = {v: f"{tag}{v}" for v in chosen}
    elems = [names[v] for v in sorted(chosen)]
    pairs = [
        (names[a], names[b])
        for a in sorted(chosen)
        for b in sorted(chosen)
        if a & b == a
    ]
    # the subset order is already reflexive and transitive, so it is the
    # full relation as it stands: poset_from_pairs would only walk it again
    return FiberPoset(tuple(sorted(elems)), frozenset(pairs), names[0], names[full])


def _random_monotone(rng: random.Random, src: FiberPoset, dst: FiberPoset) -> dict[str, str]:
    """A random monotone map pinned to send bottom to bottom.

    Images are chosen in a linear extension of the source, each restricted
    to upper bounds of the images already forced below it; the top of the
    target is always available, so the choice set is never empty.  Bottom
    preservation is what makes the initial-object comonad exist on the
    total category.
    """
    img: dict[str, str] = {src.bottom: dst.bottom}
    for k in src.linear_extension():
        if k in img:
            continue
        lower_imgs = [img[a] for a in src.down[k] if a != k and a in img]
        cands = sorted(set(dst.elements).intersection(*(dst.up[v] for v in lower_imgs)))
        img[k] = cands[rng.randrange(len(cands))]
    return img


def random_spec(seed: int, limits: SizeLimits = SizeLimits()) -> FiberedSpec:
    """Deterministic random fibered spec within ``limits``.

    The base is a thin category from a random forest-shaped poset (unique
    cover paths make the actions functorial by construction); fibers are
    random bounded posets; cover actions are random monotone bottom-
    preserving maps and composite actions are composites of cover actions.
    Limits below 1 (0 for base morphisms), or an object or fiber cap above
    :func:`~catmn.config.morphism_limit`, raise :class:`SizeLimitError`.
    """
    if (
        limits.max_base_objects < 1
        or limits.max_base_morphisms < 0
        or limits.max_fiber_elements < 1
    ):
        raise SizeLimitError(f"unsatisfiable size limits: {limits}")
    # n base objects make n morphisms or more, and m fiber elements m or
    # more in the total: a cap past the limit is refused before any draw
    limit = morphism_limit()
    if max(limits.max_base_objects, limits.max_fiber_elements) > limit:
        raise SizeLimitError(
            f"size limits {limits} exceed the limit of {limit} morphisms "
            "(set CATMN_MAX_MORPHISMS to override)"
        )
    rng = random.Random(seed)

    n = rng.randint(1, limits.max_base_objects)
    obj = [f"b{i}" for i in range(n)]
    parent: dict[int, int] = {}
    ancestors: dict[int, list[int]] = {0: []}
    used = 0
    for i in range(1, n):
        ancestors[i] = []
        if rng.random() < 0.75:
            j = rng.randrange(i)
            cost = 1 + len(ancestors[j])
            if used + cost <= limits.max_base_morphisms:
                parent[i] = j
                ancestors[i] = [j] + ancestors[j]
                used += cost

    mors = [Mor(f"id_{x}", x, x) for x in obj]
    identity = {x: f"id_{x}" for x in obj}
    arrow: dict[tuple[int, int], str] = {}
    for i in range(n):
        for a in ancestors[i]:
            name = f"{obj[i]}>{obj[a]}"
            arrow[(i, a)] = name
            mors.append(Mor(name, obj[i], obj[a]))

    def arrow_name(i: int, j: int) -> str:
        if i == j:
            return identity[obj[i]]
        return arrow[(i, j)]

    reachable = {i: [i] + ancestors[i] for i in range(n)}
    compose: dict[tuple[str, str], str] = {}
    for i in range(n):
        for j in reachable[i]:
            for k in reachable[j]:
                compose[(arrow_name(j, k), arrow_name(i, j))] = arrow_name(i, k)
    base = Category(f"random-base-{seed}", obj, mors, identity, compose)

    fibers = {x: _random_bounded_poset(rng, limits.max_fiber_elements, "v") for x in obj}

    cover_action: dict[int, dict[str, str]] = {}
    for i in sorted(parent):
        cover_action[i] = _random_monotone(rng, fibers[obj[i]], fibers[obj[parent[i]]])

    actions: dict[str, dict[str, str]] = {}
    for x in obj:
        actions[identity[x]] = {k: k for k in fibers[x].elements}
    for i in range(n):
        acc = {k: k for k in fibers[obj[i]].elements}
        cur = i
        for a in ancestors[i]:
            step = cover_action[cur]
            acc = {k: step[v] for k, v in acc.items()}
            actions[arrow_name(i, a)] = dict(acc)
            cur = a
    return FiberedSpec(f"random-{seed}", base, fibers, actions)
