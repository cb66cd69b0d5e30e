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

from .config import morphism_limit
from .errors import (
    ExtremumError,
    InvalidArtifactError,
    LiftError,
    SizeLimitError,
)
from .core import Category, Mor, oriented, validate_category
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
    """

    elements: tuple[str, ...]
    leq: frozenset[tuple[str, str]]
    bottom: str
    top: str

    def le(self, a: str, b: str) -> bool:
        return (a, b) in self.leq

    def linear_extension(self) -> list[str]:
        """Elements in an order compatible with ``leq``; lexicographic
        tie-break, so deterministic."""
        remaining = set(self.elements)
        out: list[str] = []
        while remaining:
            ready = sorted(
                x
                for x in remaining
                if all(y == x or (y, x) not in self.leq for y in remaining)
            )
            if not ready:
                # cyclic relation; validation reports it, but stay total here
                ready = sorted(remaining)[:1]
            out.append(ready[0])
            remaining.remove(ready[0])
        return out


def poset_from_pairs(elements, pairs, bottom, top) -> FiberPoset:
    """Build a fiber poset from generating pairs, closing under
    reflexivity and transitivity."""
    elems = tuple(sorted(set(elements)))
    reach: dict[str, set[str]] = {x: {x} for x in elems}
    adj: dict[str, set[str]] = {x: set() for x in elems}
    for a, b in pairs:
        if a in adj:
            adj[a].add(b)
    for x in elems:
        stack = [x]
        seen = reach[x]
        while stack:
            cur = stack.pop()
            for nxt in adj.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    elemset = set(elems)
    leq = frozenset((a, b) for a in elems for b in reach[a] if b in elemset)
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
    for a, b in p.leq:
        if a not in elems or b not in elems:
            violations.append(
                Violation("fiber-order-domain", (label, a, b), "order pair outside the elements")
            )
    for x in p.elements:
        if (x, x) not in p.leq:
            violations.append(
                Violation("fiber-order-reflexive", (label, x), "missing reflexive pair")
            )
    for a, b in sorted(p.leq):
        for c in p.elements:
            if (b, c) in p.leq and (a, c) not in p.leq:
                violations.append(
                    Violation(
                        "fiber-order-transitive",
                        (label, a, b, c),
                        "relation is not transitively closed",
                    )
                )
    for a, b in sorted(p.leq):
        if a != b and (b, a) in p.leq:
            violations.append(
                Violation(
                    "fiber-order-cycle",
                    (label, a, b),
                    f"{a!r} and {b!r} are below each other",
                )
            )
    for who, val, where in (("bottom", p.bottom, "below"), ("top", p.top, "above")):
        if val in elems:
            for x in sorted(elems):
                if ((val, x) if who == "bottom" else (x, val)) not in p.leq:
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
        for a, b in sorted(src_fiber.leq):
            if a not in act or b not in act:
                continue  # stray order pairs are already reported above
            if a != b and not dst_fiber.le(act[a], act[b]):
                violations.append(
                    Violation(
                        "action-monotone",
                        (fname, a, b),
                        f"{a!r} <= {b!r} but {act[a]!r} <= {act[b]!r} fails",
                    )
                )

    for (g, f), h in sorted(s.base.compose.items()):
        if g not in s.actions or f not in s.actions or h not in s.actions:
            continue
        mf = basemors.get(f)
        if mf is None or mf.src not in s.fibers:
            continue
        act_g, act_f, act_h = s.actions[g], s.actions[f], s.actions[h]
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

    return ValidationReport(violations)


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
    count = 0
    for fname, m in base.morphisms.items():
        act = s.actions[fname]
        dst_fiber = s.fibers[m.dst]
        for k in s.fibers[m.src].elements:
            for k2 in dst_fiber.elements:
                if dst_fiber.le(act[k], k2):
                    count += 1
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

    # every table below holds the one name string made here per morphism
    mors: list[Mor] = []
    mor_proj: dict[str, str] = {}
    mor_data: dict[str, tuple[str, str, str]] = {}
    named: dict[tuple[str, str, str], str] = {}
    for fname, m in base.morphisms.items():
        act = s.actions[fname]
        dst_fiber = s.fibers[m.dst]
        for k in s.fibers[m.src].elements:
            for k2 in dst_fiber.elements:
                if dst_fiber.le(act[k], k2):
                    name = _mor_name(fname, k, k2)
                    if name in mor_data:
                        raise InvalidArtifactError(
                            f"total morphism name collision at {name!r}"
                        )
                    mors.append(Mor(name, _obj_name(m.src, k), _obj_name(m.dst, k2)))
                    mor_proj[name] = fname
                    mor_data[name] = key = (fname, k, k2)
                    named[key] = name

    by_src: dict[str, list[str]] = {}
    for m in mors:
        by_src.setdefault(m.src, []).append(m.name)
    identity: dict[str, str] = {}
    compose: dict[tuple[str, str], str] = {}
    try:
        for b in base.objects:
            idb = base.identity[b]
            for k in s.fibers[b].elements:
                identity[_obj_name(b, k)] = named[idb, k, k]
        for u in mors:
            f, k, k1 = mor_data[u.name]
            for vname in by_src.get(u.dst, ()):
                g, _, k2 = mor_data[vname]
                compose[(vname, u.name)] = named[base.compose[(g, f)], k, k2]
    except KeyError as exc:
        raise InvalidArtifactError(
            f"total category of {s.name!r} has no morphism for the identity "
            f"or composite {exc.args[0]!r}"
        ) from None

    total = Category(f"total({s.name})", objects, mors, identity, compose)
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


def _in_fiber_hom(t: TotalCategory, hom, x: str, y: str, idb: str) -> list[str]:
    return [u for u in hom(x, y) if t.projection.mor_map.get(u) == idb]


def _fiber_extremum(t: TotalCategory, b: str, hom):
    idb = t.projection.target.identity.get(b)
    objs = fiber_objects(t, b)
    for cand in objs:
        if all(len(_in_fiber_hom(t, hom, y, cand, idb)) == 1 for y in objs):
            return cand
    return None


def fiber_final(t: TotalCategory, b: str):
    """The object of the fiber over b that every fiber object reaches by
    exactly one in-fiber morphism, or None.  Ties broken lexicographically
    (impossible for genuine posets)."""
    return _fiber_extremum(t, b, t.total.hom)


def fiber_initial(t: TotalCategory, b: str):
    """:func:`fiber_final` on the flipped view of the total category: the
    object reaching every fiber object by exactly one in-fiber morphism."""
    return _fiber_extremum(t, b, oriented(t.total, flip=True).hom)


def _collapse(t: TotalCategory, side: Side, found: list[Violation] | None = None):
    """Collapse every fiber onto its ``side.final`` object, reading the total
    category flipped for the comonad.

    Returns the object map, the unit (the unique in-fiber arrow to the final
    object) and the morphism map (the unique lift making the naturality
    square commute).  Without ``found`` the first failure raises; with it,
    each failure is appended as a violation and whatever depends on it is
    skipped.
    """
    cat = t.total
    base = t.projection.target
    hom, after, ends = oriented(cat, side.flip)
    over = {x: b for x, (b, _) in t.object_decoding.items()}

    def fail(error: Exception, rule: str, where: str, detail: str) -> None:
        if found is None:
            raise error
        found.append(Violation(f"extension-{rule}", (where,), detail))

    finals: dict[str, str] = {}
    for b in base.objects:
        cand = _fiber_extremum(t, b, hom)
        if cand is None:
            fail(
                ExtremumError(b, side.final),
                f"no-{side.final}",
                b,
                f"fiber has no {side.final} object",
            )
        else:
            finals[b] = cand
    obj_map = {x: finals[over[x]] for x in cat.objects if over[x] in finals}

    eta: dict[str, str] = {}
    for x, top in obj_map.items():
        arrows = _in_fiber_hom(t, hom, x, top, base.identity.get(over[x]))
        if len(arrows) == 1:
            eta[x] = arrows[0]
        else:
            fail(
                LiftError(f"{side.unit} at {x}", len(arrows)),
                f"{side.unit}-count",
                x,
                f"{len(arrows)} in-fiber arrows {side.to} the {side.final} object",
            )

    mor_map: dict[str, str] = {}
    for u, m in cat.morphisms.items():  # stored in name order
        src, dst = ends(m)
        if src not in eta or dst not in eta:
            continue
        target_side = after(eta[dst], u)
        lifts = [
            v
            for v in hom(obj_map[src], obj_map[dst])
            if after(v, eta[src]) == target_side
        ]
        if len(lifts) == 1:
            mor_map[u] = lifts[0]
        else:
            fail(
                LiftError(u, len(lifts)),
                f"{side.final}-lift",
                u,
                f"{len(lifts)} lifts between the fiber {side.top}s",
            )
    return obj_map, eta, mor_map


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
        lower_imgs = [img[a] for a in src.elements if a != k and src.le(a, k) and a in img]
        cands = sorted(
            y for y in dst.elements if all(dst.le(v, y) for v in lower_imgs)
        )
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
