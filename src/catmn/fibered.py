"""Fibered total categories with bounded poset fibers.

A fibered spec is a finite base category, a finite poset with designated
bottom and top over every base object, and a monotone action of every base
morphism on the fibers, functorial in the base.  The total category has
objects (b, k) and a unique morphism (b, k) -> (b', k') over f exactly when
action(f)(k) <= k', so each fiber (the morphisms over an identity) is the
thin category of its poset.

Collapsing every fiber onto its top gives an idempotent monad whose unit is
the in-fiber morphism up to the top; collapsing onto bottoms gives the dual
comonad, built by the same code reading the total category flipped.  Both
functors are defined on morphisms by a unique-lift search, and
:func:`check_extension_property` is the diagnostic that explains any
failure of those searches.  :func:`random_spec` produces seeded random
instances inside configurable size limits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain

from .config import morphism_limit
from .errors import (
    ExtremumError,
    InvalidArtifactError,
    LiftError,
    SizeLimitError,
)
from .core import Category, Mor, Rows, _gather, oriented, validate_category
from .functors import Functor, NaturalTransformation, identity_functor
from .monads import COMONAD, MONAD, ComonadDatum, MonadDatum, Side
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

    def le(self, a: str, b: str) -> bool:
        return (a, b) in self.leq

    def linear_extension(self) -> list[str]:
        """Elements in an order compatible with ``leq``; lexicographic
        tie-break, so deterministic."""
        remaining = set(self.elements)
        out: list[str] = []
        while remaining:
            ready = sorted(
                x for x in remaining if self.down[x] & remaining <= {x}
            )
            if not ready:
                # cyclic relation; validation reports it, but stay total here
                ready = sorted(remaining)[:1]
            out.append(ready[0])
            remaining.remove(ready[0])
        return out


def poset_from_pairs(elements, pairs, bottom, top) -> FiberPoset:
    """Build a fiber poset from generating pairs, closing under
    reflexivity and transitivity; pairs naming a non-element are dropped."""
    elems = tuple(sorted(set(elements)))
    adj: dict[str, set[str]] = {x: set() for x in elems}
    for a, b in pairs:
        if a in adj and b in adj:
            adj[a].add(b)
    reach = _reachable(elems, adj)
    leq = frozenset((a, b) for a in elems for b in reach[a])
    return FiberPoset(elems, leq, bottom, top)


def _reachable(elems, adj: dict[str, set[str]]) -> dict[str, set[str]]:
    """Everything each element reaches along ``adj``, itself included.

    Nuutila's algorithm: Tarjan's search finds the strongly connected
    components, each completed after every component it reaches, and the
    members of a component share one set, the union of what its members'
    successors reach.  A successor already in that set adds nothing, so
    each shared upper part is walked once, not once per element below it.
    A cycle closes like anything else; validation reports it.
    """
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    reach: dict[str, set[str]] = {}
    for root in elems:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            x, successors = work[-1]
            for y in successors:
                if y not in index:
                    index[y] = low[y] = len(index)
                    stack.append(y)
                    work.append((y, iter(adj[y])))
                    break
                if y not in reach and index[y] < low[x]:  # on the stack
                    low[x] = index[y]
            else:
                work.pop()
                if work and low[x] < low[work[-1][0]]:
                    low[work[-1][0]] = low[x]
                if low[x] != index[x]:
                    continue
                if stack[-1] == x:  # a component of one element
                    stack.pop()
                    members = (x,)
                else:
                    at = stack.index(x)
                    members = tuple(stack[at:])
                    del stack[at:]
                shared = set(members)
                for m in members:
                    for y in adj[m]:
                        if y not in shared:
                            shared |= reach[y]
                for m in members:
                    reach[m] = shared
    return reach


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
    # above[b][k] is the up-set of k in the fiber over b, in element order:
    # the lifts of (f, k) to b end at above[b][act_f(k)], in morphism order
    above: dict[str, dict[str, list[str]]] = {}
    for b in base.objects:
        p = s.fibers[b]
        rank = {k: i for i, k in enumerate(p.elements)}.__getitem__
        above[b] = {k: sorted(up, key=rank) for k, up in p.up.items()}
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
    for b in base.objects:
        for k in s.fibers[b].elements:
            name = _obj_name(b, k)
            if name in decoding:
                raise InvalidArtifactError(
                    f"total object name collision at {name!r}; pick base/fiber "
                    "labels that do not collide when joined with '|'"
                )
            decoding[name] = (b, k)
            objects.append(name)

    # every table below holds the one name string made here per morphism;
    # lifts[f, k] maps k2 to the name of (f, k, k2)
    mors: list[Mor] = []
    mor_proj: dict[str, str] = {}
    mor_data: dict[str, tuple[str, str, str]] = {}
    lifts: dict[tuple[str, str], dict[str, str]] = {}
    for fname, m in base.morphisms.items():
        act, ends = s.actions[fname], above[m.dst]
        for k in s.fibers[m.src].elements:
            src = _obj_name(m.src, k)
            lifted = lifts[fname, k] = {}
            for k2 in ends[act[k]]:
                name = _mor_name(fname, k, k2)
                if name in mor_data:
                    raise InvalidArtifactError(f"total morphism name collision at {name!r}")
                mors.append(Mor(name, src, _obj_name(m.dst, k2)))
                mor_proj[name] = fname
                mor_data[name] = (fname, k, k2)
                lifted[k2] = name

    def missing(key):
        return InvalidArtifactError(
            f"total category of {s.name!r} has no morphism for the identity "
            f"or composite {key!r}"
        )

    identity: dict[str, str] = {}
    for b in base.objects:
        idb = base.identity.get(b)
        for k in s.fibers[b].elements:
            name = lifts.get((idb, k), {}).get(k)
            if name is None:
                raise missing((idb, k, k))
            identity[_obj_name(b, k)] = name

    # after[f][g] is g o f in the base; tables keyed in two steps, so no
    # per-entry lookup below builds a key
    after: dict[str, dict[str, str]] = {}
    for g, f, h in base.entries():
        after.setdefault(f, {})[g] = h

    def fill(total: Category):
        # (g, k1, k2) after (f, k, k1) is (g o f, k, k2): the row of
        # (f, k, k1) reads, for each base arrow g leaving k1's base object,
        # the lifts of the base composite g o f at k that end at the k2 of
        # g's slots; lift_ids[f][k] maps k2 to the id of (f, k, k2)
        ids = total.mor_id
        lift_ids: dict[str, dict[str, dict[str, int]]] = {}
        for (f, k), lifted in lifts.items():
            lift_ids.setdefault(f, {})[k] = {k2: ids[name] for k2, name in lifted.items()}
        # per total vertex: its slots in runs of one base arrow g, each with
        # the k2 of its slots and a reader of a lift table at them
        runs = []
        for leaving in total.out:
            here: list[tuple[str, list[str]]] = []
            for g, _, k2 in map(mor_data.__getitem__, map(total.names.__getitem__, leaving)):
                if here and here[-1][0] == g:
                    here[-1][1].append(k2)
                else:
                    here.append((g, [k2]))
            runs.append([(g, k2s, _gather(k2s)) for g, k2s in here])
        rows: Rows = []
        for u, x in zip(total.names, total.dst):
            f, k, _ = mor_data[u]
            after_f = after.get(f, {})
            row: list[int] = []
            try:
                for g, _, read in runs[x]:
                    row += read(lift_ids[after_f[g]][k])
            except KeyError:  # only on a spec that fails validate_spec
                for g, k2s, _ in runs[x]:
                    if g not in after_f:
                        raise missing((g, f)) from None
                    for k2 in k2s:
                        if k2 not in lift_ids.get(after_f[g], {}).get(k, {}):
                            raise missing((after_f[g], k, k2)) from None
            rows.append(row)
        return rows, {}

    total = Category(f"total({s.name})", objects, mors, identity, fill=fill)
    projection = Functor(
        total,
        base,
        {x: decoding[x][0] for x in total.objects},
        mor_proj,
        name=f"project({s.name})",
    )
    return TotalCategory(total, projection, decoding)


def fiber_objects(t: TotalCategory, b: str) -> list[str]:
    return sorted(x for x, (bb, _) in t.object_decoding.items() if bb == b)


def _over(t: TotalCategory) -> list:
    """Per morphism id of the total category, the base morphism it lies over."""
    return list(map(t.projection.mor_map.get, t.total.names))


def _fiber_extremum(t: TotalCategory, b: str, hom, over: list):
    """The fiber object over ``b`` that every fiber object reaches by exactly
    one in-fiber morphism of ``hom`` (on vertex ids), or None."""
    idb = t.projection.target.identity.get(b)
    vid = t.total.vid
    objs = [vid[x] for x in fiber_objects(t, b)]
    for cand in objs:
        if all(list(map(over.__getitem__, hom(y, cand))).count(idb) == 1 for y in objs):
            return t.total.vertices[cand]
    return None


def fiber_final(t: TotalCategory, b: str):
    """The object of the fiber over b that every fiber object reaches by
    exactly one in-fiber morphism, or None.  Ties broken lexicographically
    (impossible for genuine posets)."""
    return _fiber_extremum(t, b, t.total.hom_ids, _over(t))


def fiber_initial(t: TotalCategory, b: str):
    """:func:`fiber_final` on the flipped view of the total category: the
    object reaching every fiber object by exactly one in-fiber morphism."""
    return _fiber_extremum(t, b, oriented(t.total, flip=True).hom, _over(t))


def _collapse(t: TotalCategory, side: Side, found: list[Violation] | None = None):
    """Collapse every fiber onto its ``side.final`` object, reading the total
    category flipped for the comonad.

    Returns the object map, the unit (the unique in-fiber arrow to the final
    object) and the morphism map (the unique lift making the naturality
    square commute).  Without ``found`` the first failure raises; with it,
    each failure is appended as a violation and whatever depends on it is
    skipped.  The searches run on ids.
    """
    cat = t.total
    base = t.projection.target
    hom, after, src, dst = oriented(cat, side.flip)
    over = _over(t)
    names, vid = cat.names, cat.vid

    def fail(error: Exception, rule: str, where: str, detail: str) -> None:
        if found is None:
            raise error
        found.append(Violation(f"extension-{rule}", (where,), detail))

    finals: dict[str, str] = {}
    for b in base.objects:
        cand = _fiber_extremum(t, b, hom, over)
        if cand is None:
            fail(
                ExtremumError(b, side.final),
                f"no-{side.final}",
                b,
                f"fiber has no {side.final} object",
            )
        else:
            finals[b] = cand
    base_of = {x: b for x, (b, _) in t.object_decoding.items()}
    obj_map = {x: finals[base_of[x]] for x in cat.objects if base_of[x] in finals}

    # per vertex id: the unit there and the vertex it collapses to
    eta = [None] * len(cat.vertices)
    image = [None] * len(cat.vertices)
    for x, top in obj_map.items():
        idb = base.identity.get(base_of[x])
        arrows = [u for u in hom(vid[x], vid[top]) if over[u] == idb]
        if len(arrows) == 1:
            eta[vid[x]], image[vid[x]] = arrows[0], vid[top]
        else:
            fail(
                LiftError(f"{side.unit} at {x}", len(arrows)),
                f"{side.unit}-count",
                x,
                f"{len(arrows)} in-fiber arrows {side.to} the {side.final} object",
            )

    mor_map: dict[str, str] = {}
    for u, (a, b) in enumerate(zip(src, dst)):  # ids follow name order
        eta_a, eta_b = eta[a], eta[b]
        if eta_a is None or eta_b is None:
            continue
        target_side = after(eta_b, u)
        lifts = [v for v in hom(image[a], image[b]) if after(v, eta_a) == target_side]
        if len(lifts) == 1:
            mor_map[names[u]] = names[lifts[0]]
        else:
            fail(
                LiftError(names[u], len(lifts)),
                f"{side.final}-lift",
                names[u],
                f"{len(lifts)} lifts between the fiber {side.top}s",
            )
    units = {x: names[eta[vid[x]]] for x in obj_map if eta[vid[x]] is not None}
    return obj_map, units, mor_map


def _build(t: TotalCategory, side: Side):
    obj_map, eta, mor_map = _collapse(t, side)
    cat = t.total
    name = f"fiber-{side.top}-{side.monad}"
    functor = Functor(cat, cat, obj_map, mor_map, name=name)
    unit = NaturalTransformation(
        *side.orient(identity_functor(cat), functor),
        eta,
        name=f"{side.unit}-{side.to}-{side.top}",
    )
    return side.datum(functor, unit, name=name)


def build_final_monad(t: TotalCategory) -> MonadDatum:
    """The monad collapsing each fiber onto its final object.

    eta at (b, k) is the unique in-fiber morphism up to the final object;
    the functor acts on a morphism u by the unique v between the collapsed
    objects making the naturality square commute.  Raises
    :class:`ExtremumError` when a fiber has no final object and
    :class:`LiftError` when a lift is missing or ambiguous
    (:func:`check_extension_property` pinpoints why).
    """
    return _build(t, MONAD)


def build_initial_comonad(t: TotalCategory) -> ComonadDatum:
    """:func:`build_final_monad` on the flipped view of the total category:
    collapse fibers onto their initial objects, counit the unique in-fiber
    morphism from the initial object."""
    return _build(t, COMONAD)


def check_extension_property(t: TotalCategory) -> ValidationReport:
    """Diagnostic behind the two builders: their walk on both sides, with
    every failure recorded instead of raised.  Reports every fiber lacking an
    extremal object, every object without a unique in-fiber arrow to/from
    it, and every morphism whose lift is missing or ambiguous."""
    found: list[Violation] = []
    for side in (MONAD, COMONAD):
        _collapse(t, side, found)
    return ValidationReport(found)


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
    return poset_from_pairs(elems, pairs, names[0], names[full])


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
    """
    if (
        limits.max_base_objects < 1
        or limits.max_base_morphisms < 0
        or limits.max_fiber_elements < 1
    ):
        raise SizeLimitError(f"unsatisfiable size limits: {limits}")
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
