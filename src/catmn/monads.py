"""Idempotent monads and comonads, with exhaustively verified reflections.

A datum here is just an endofunctor ``N`` with a unit ``eta: 1 => N`` and
the :class:`Side` it lives on.  An idempotent comonad on C is an idempotent
monad on the opposite of C (Mac Lane, *CWM* IV.3), so one type holds both:
on the :data:`COMONAD` side its ``unit`` is the counit ``N => 1``.
Idempotence means both whiskered transformations ``eta N`` and ``N eta``
are natural isomorphisms, and :func:`check_idempotent` checks it, never
assumes it: their naturality follows from the functor's and the unit's own
sweeps, and every component is searched for an inverse.  The fixed
subcategory (:func:`fixed_subcategory`, the objects whose unit component is
invertible) is full, and the restriction of ``N`` is a reflector onto it,
or a coreflector on the comonad side; :func:`verify_reflection` re-proves
the universal property object by object, including agreement with the
closed-form mediating morphism.  :func:`from_units` builds a datum from a
unit per object, chosen anywhere, by unique lifts.

Each check, builder and sweep is written once, for the monad, and reads its
datum's side.  The comonad side runs the same code on the flipped view of C
(:func:`core.oriented`), which reads C's own tables backwards; its rule tags
and messages come from the :class:`Side` record, never from rewriting
strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Category, _gather, full_subcategory, inverse_of, oriented
from .errors import InvalidArtifactError, MismatchError
from .functors import (
    Functor,
    NaturalTransformation,
    identity_functor,
    left_components,
    non_invertible,
    right_components,
    validate_functor,
    validate_nat,
)
from .report import ValidationReport, Violation, remembered, report_field


@dataclass(frozen=True)
class Side:
    """One side of the monad/comonad duality: whether its code reads the
    category flipped, and the words its rules and messages use."""

    flip: bool
    monad: str  # monad / comonad
    unit: str  # unit / counit
    reflect: str  # reflect / coreflect
    mediator: str  # from / into: how a mediator meets the reflected object
    final: str  # final / initial: the fiber object the unit reaches
    top: str  # top / bottom: that object named in the fiber poset
    to: str  # to / from: how the unit meets that object

    def orient(self, a, b):
        """``(a, b)``, or ``(b, a)`` on the flipped side."""
        return (b, a) if self.flip else (a, b)


MONAD = Side(
    flip=False,
    monad="monad",
    unit="unit",
    reflect="reflect",
    mediator="from",
    final="final",
    top="top",
    to="to",
)
COMONAD = Side(
    flip=True,
    monad="comonad",
    unit="counit",
    reflect="coreflect",
    mediator="into",
    final="initial",
    top="bottom",
    to="from",
)


@dataclass(frozen=True)
class MonadDatum:
    """An endofunctor with a unit ``1 => functor`` on the :data:`MONAD`
    side, or with a counit ``functor => 1``, held in ``unit``, on the
    :data:`COMONAD` side.  The side takes part in equality: the identity
    monad and the identity comonad of a category share functor and unit."""

    functor: Functor
    unit: NaturalTransformation
    side: Side
    name: str = field(default="", compare=False)
    _report: ValidationReport | None = report_field()

    @property
    def category(self) -> Category:
        return self.functor.source


def _expect(d: MonadDatum, side: Side) -> None:
    """Raise unless ``d`` is a datum of ``side``."""
    if d.side != side:
        raise MismatchError(
            f"expected a {side.monad}, got the {d.side.monad} {d.name or d.functor.name!r}"
        )


def from_units(
    cat: Category, side: Side, eta: list, name: str, unit_name: str
) -> tuple[MonadDatum | None, list[tuple[int, int]]]:
    """Extend units to the (co)monad ``name`` of ``side``, with unit
    ``unit_name`` (Mac Lane, *CWM* IV.1 and IV.3).  ``eta`` holds a unit id,
    or None, per vertex of ``cat``, from any source; counits are read on the
    flipped view.  A vertex goes where its unit ends, and u: a -> b to its
    one lift v, with v after eta_a = eta_b after u; a morphism at a vertex
    without a unit has none.  Returns the datum and no failures, or None and
    every ``(morphism id, number of lifts)`` that is not one, in id order."""
    flip = side.flip
    hom, after, src, dst = oriented(cat, flip)
    leaving = cat.into if flip else cat.out
    names, rows, pos = cat.names, cat.rows, cat.pos
    # per vertex a with a unit: the morphisms v leaving dst[eta_a], keyed by
    # v after eta_a read off the unit's row (flipped: off the column of the
    # unit in the rows of the v).  When those keys are distinct and no slot
    # is empty, a morphism u from a has at most one lift, the v keyed by
    # eta_b after u, and it is one when it ends where eta_b ends; otherwise
    # the index is None and the search below settles it with after()
    index = [None] * len(cat.vertices)
    for a, e in enumerate(eta):
        if e is None:
            continue
        cands = leaving[dst[e]]
        by_comp = dict(zip([rows[v][pos[e]] for v in cands] if flip else rows[e], cands))
        if len(by_comp) == len(cands) and None not in by_comp:
            index[a] = by_comp

    images = [None] * len(names)
    failures = []
    for u, (a, b) in enumerate(zip(src, dst)):  # ids follow name order
        eta_a, eta_b = eta[a], eta[b]
        if eta_a is None or eta_b is None:
            continue
        by_comp = index[a]
        if by_comp is not None:
            v = by_comp.get(rows[eta_b][pos[u]] if flip else rows[u][pos[eta_b]])
            lifts = (v,) if v is not None and dst[v] == dst[eta_b] else ()
        else:
            target_side = after(eta_b, u)
            lifts = [v for v in hom(dst[eta_a], dst[eta_b]) if after(v, eta_a) == target_side]
        if len(lifts) == 1:
            images[u] = lifts[0]
        else:
            failures.append((u, len(lifts)))
    if failures:
        return None, failures
    # the objects are the first vertices
    obj_map = {x: cat.vertices[dst[u]] for x, u in zip(cat.objects, eta) if u is not None}
    units = {x: names[u] for x, u in zip(cat.objects, eta) if u is not None}
    # None where a morphism at a vertex that is no object has no image
    functor = Functor(cat, cat, obj_map, name=name, images=images)
    unit = NaturalTransformation(*side.orient(identity_functor(cat), functor), units, name=unit_name)
    return MonadDatum(functor, unit, side, name=name), failures


@dataclass(frozen=True)
class ReflectionPackage:
    """The fixed subcategory of an idempotent (co)monad with its
    (co)reflector: reflective on the :data:`MONAD` side, coreflective on
    the :data:`COMONAD` side.

    ``inclusion`` after ``reflector`` equals the datum's functor on the
    nose, ``unit`` is the datum's (co)unit, and ``unit_inverses`` caches its
    inverse at every subcategory object.
    """

    ambient: Category
    subcategory: Category
    inclusion: Functor
    reflector: Functor
    unit: NaturalTransformation
    unit_inverses: dict[str, str]
    side: Side


@remembered
def check_idempotent(d: MonadDatum) -> ValidationReport:
    """Empty iff the datum is a well-formed idempotent (co)monad of its
    side: valid endofunctor, valid (co)unit between the identity and the
    functor in the side's direction, and both whiskerings of the (co)unit
    against the functor are natural isomorphisms.  Invertibility does not
    depend on the direction, so a comonad is checked on its own tables.
    Computed once per datum."""
    N, unit, side = d.functor, d.unit, d.side
    if N.source != N.target:
        endo = Violation(
            f"{side.monad}-endofunctor", (N.name or "<functor>",), "functor is not an endofunctor"
        )
        return ValidationReport([endo])
    report = validate_functor(N)
    if (unit.source_functor, unit.target_functor) != side.orient(identity_functor(N.source), N):
        ends = side.orient("the identity functor", f"the {side.monad} functor")
        shape = Violation(
            f"{side.monad}-{side.unit}-shape",
            (unit.name or f"<{side.unit}>",),
            f"{side.unit} must go from {ends[0]} to {ends[1]}",
        )
        return report.merged(ValidationReport([shape]))
    report = report.merged(validate_nat(unit))
    if not report.ok:
        return report
    # a functor whiskered with a natural transformation, on either side, is
    # natural (Mac Lane, *CWM* II.5): the sweeps above leave only the
    # components to search for inverses
    labelled = (
        (f"{side.unit}-after-functor", right_components(unit, N)),  # component: eta_{N x}
        (f"functor-of-{side.unit}", left_components(N, unit)),  # component: N(eta_x)
    )
    rule = f"{side.monad}-idempotence"
    return ValidationReport(non_invertible(rule, N.source, labelled, "whiskered component"))


def fixed_objects(d: MonadDatum) -> dict[str, str]:
    """Each object of the datum's category whose (co)unit component is
    invertible, in object order, with that component's inverse.  An object
    without a component is not fixed."""
    cat, components = d.category, d.unit.components
    fixed = {}
    for x in cat.objects:
        if x in components:
            inv = inverse_of(cat, components[x])
            if inv is not None:
                fixed[x] = inv
    return fixed


def fixed_subcategory(d: MonadDatum) -> ReflectionPackage:
    """Build the full subcategory of (co)unit-fixed objects with its
    (co)reflector.

    Raises if the datum fails :func:`check_idempotent` or if its functor
    does not land in its own fixed subcategory (which idempotence
    guarantees).
    """
    side = d.side
    report = check_idempotent(d)
    if not report.ok:
        raise InvalidArtifactError(f"not an idempotent {side.monad}", report)
    cat = d.category
    inverses = fixed_objects(d)
    sub, inclusion = full_subcategory(cat, inverses)
    for x in cat.objects:
        if d.functor.on_obj(x) not in inverses:
            raise InvalidArtifactError(
                f"{side.monad} functor sends {x!r} outside its fixed subcategory"
            )
    # the datum's own tables, its ids read in the subcategory's: a valid
    # functor sends every morphism between images of objects, which are
    # fixed, so each image is kept.  A functor's tables are not edited once
    # made
    to_sub = [None] * len(cat.names)
    for i, j in zip(sub.mor_id.values(), inclusion.images):
        to_sub[j] = i
    images = d.functor.images
    reflector = Functor(
        cat,
        sub,
        d.functor.obj_map,
        name=f"{side.reflect}[{d.functor.name}]",
        images=_gather(images)(to_sub) if images else (),
    )
    return ReflectionPackage(cat, sub, inclusion, reflector, d.unit, inverses, side)


def verify_reflection(p: ReflectionPackage) -> ValidationReport:
    """Sweep the (co)reflector's universal property over every possible
    input.

    On the monad side: for every ambient object x, subcategory object y,
    and f: x -> y there must be exactly one g: Nx -> y with g after unit_x =
    f, and that g must equal inverse(unit_y) after N(f).  The comonad side
    is the same sweep on the flipped view of the ambient category: for x in
    the subcategory, y ambient, f: x -> y, exactly one g: x -> My with
    counit_y after g = f, equal to M(f) after inverse(counit_x); subjects
    still read ``(x, y, f)``.  Zero and multiple mediators are reported
    under distinct rules.
    """
    cat, side, reflector = p.ambient, p.side, p.reflector
    after = oriented(cat, side.flip).after
    # the arrows leaving each vertex as the view reads them, and where each ends
    leaving, end = (cat.into, cat.src) if side.flip else (cat.out, cat.dst)
    tag = f"{side.reflect}ion"
    components, unit_inverses = p.unit.components, p.unit_inverses
    names, mor_id, vid = cat.names, cat.mor_id, cat.vid
    # the reflector's images by ambient id, each as an ambient id where it
    # names one
    images = reflector.images
    ambient_id = [mor_id.get(g, g) for g in reflector.target.names]
    # each subcategory object's vertex with the id of its unit's inverse; an
    # object that is none of cat's has no arrows
    inverse_at = {
        vid[y]: mor_id.get(unit_inverses.get(y), unit_inverses.get(y))
        for y in p.subcategory.objects
        if y in vid
    }

    def sweep(x: str):
        eta_x = components.get(x)
        Nx = reflector.obj_map.get(x)
        if eta_x is None or Nx is None:
            yield Violation(f"{tag}-data", (x,), f"{side.unit} or {side.reflect}or undefined here")
            return
        eta_x = mor_id.get(eta_x, eta_x)
        # the arrows g leaving Nx that end in the subcategory, keyed by g
        # after the unit, each list in id order; an Nx that is no vertex
        # has none
        factors: dict = {}
        vNx = vid.get(Nx)
        for g in leaving[vNx] if vNx is not None else ():
            if end[g] in inverse_at:
                k = after(g, eta_x)
                if k in factors:
                    factors[k].append(g)
                else:
                    factors[k] = [g]
        for f in leaving[vid[x]]:
            vy = end[f]
            if vy not in inverse_at:
                continue
            # an ill-typed table can give f as the composite of a g that
            # ends elsewhere; such a g is no mediator
            mediators = [g for g in factors.get(f, ()) if end[g] == vy]
            subject = (*side.orient(x, cat.vertices[vy]), names[f])
            if len(mediators) == 0:
                yield Violation(
                    f"{tag}-no-mediator",
                    subject,
                    f"no morphism {side.mediator} the {side.reflect}ed object "
                    f"factors f through the {side.unit}",
                )
                continue
            if len(mediators) > 1:
                yield Violation(
                    f"{tag}-ambiguous-mediator",
                    subject,
                    f"{len(mediators)} morphisms factor f through the {side.unit}: "
                    + ", ".join(names[g] for g in mediators),
                )
                continue
            Nf = images[f]
            Nf = ambient_id[Nf] if type(Nf) is int else mor_id.get(Nf, Nf)
            inv_y = inverse_at[vy]
            closed = after(inv_y, Nf) if (inv_y is not None and Nf is not None) else None
            if mediators[0] != closed:
                yield Violation(
                    f"{tag}-closed-form",
                    subject,
                    f"unique mediator is {names[mediators[0]]!r} but the closed form "
                    f"gives {cat.name_of(closed)!r}",
                )

    return ValidationReport([v for x in cat.objects for v in sweep(x)])
