"""Idempotent monads and comonads, with exhaustively verified reflections.

A monad datum here is just an endofunctor ``N`` with a unit ``eta: 1 => N``;
idempotence means both whiskered transformations ``eta N`` and ``N eta`` are
natural isomorphisms, and it is checked, never assumed: their naturality
follows from the functor's and the unit's own sweeps, and every component is
searched for an inverse.  The fixed
subcategory (objects whose unit component is invertible) is full, and the
restriction of ``N`` is a reflector onto it; :func:`verify_reflection`
re-proves the universal property object by object, including agreement with
the closed-form mediating morphism.

An idempotent comonad on C is an idempotent monad on the opposite of C, so
each check, builder and sweep is written once, for the monad.  The comonad
side runs the same code on the flipped view of C (:func:`core.oriented`),
which reads C's own tables backwards; its rule tags and messages come from
the :class:`Side` record, never from rewriting strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Category, full_subcategory, inverse_of, oriented
from .errors import InvalidArtifactError
from .functors import (
    Functor,
    NaturalTransformation,
    identity_functor,
    identity_nat,
    left_components,
    right_components,
    validate_functor,
    validate_nat,
)
from .report import ValidationReport, Violation, remembered, report_field


@dataclass(frozen=True)
class MonadDatum:
    """An endofunctor with a unit ``1 => functor``."""

    functor: Functor
    unit: NaturalTransformation
    name: str = field(default="", compare=False)
    _report: ValidationReport | None = report_field()

    @property
    def category(self) -> Category:
        return self.functor.source


@dataclass(frozen=True)
class ComonadDatum:
    """An endofunctor with a counit ``functor => 1``."""

    functor: Functor
    counit: NaturalTransformation
    name: str = field(default="", compare=False)
    _report: ValidationReport | None = report_field()

    @property
    def category(self) -> Category:
        return self.functor.source


def identity_monad(c: Category) -> MonadDatum:
    one = identity_functor(c)
    return MonadDatum(one, identity_nat(one), name="identity-monad")


def identity_comonad(c: Category) -> ComonadDatum:
    one = identity_functor(c)
    return ComonadDatum(one, identity_nat(one), name="identity-comonad")


@dataclass(frozen=True)
class ReflectionPackage:
    """A reflective subcategory presentation derived from an idempotent monad.

    ``inclusion`` after ``reflector`` equals the monad functor on the nose,
    and ``unit_inverses`` caches the inverse of the unit at every
    subcategory object.
    """

    ambient: Category
    subcategory: Category
    inclusion: Functor
    reflector: Functor
    unit: NaturalTransformation
    unit_inverses: dict[str, str]


@dataclass(frozen=True)
class CoreflectionPackage:
    """A :class:`ReflectionPackage` read on the opposite category: the
    coreflective subcategory of an idempotent comonad."""

    ambient: Category
    subcategory: Category
    inclusion: Functor
    coreflector: Functor
    counit: NaturalTransformation
    counit_inverses: dict[str, str]


@dataclass(frozen=True)
class Side:
    """One side of the monad/comonad duality: whether its code reads the
    category flipped, the words its rules and messages use, and the types
    it builds."""

    flip: bool
    monad: str  # monad / comonad
    unit: str  # unit / counit
    reflect: str  # reflect / coreflect
    mediator: str  # from / into: how a mediator meets the reflected object
    final: str  # final / initial: the fiber object the unit reaches
    top: str  # top / bottom: that object named in the fiber poset
    to: str  # to / from: how the unit meets that object
    datum: type
    package: type

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
    datum=MonadDatum,
    package=ReflectionPackage,
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
    datum=ComonadDatum,
    package=CoreflectionPackage,
)


def _whiskered_iso_violations(
    rule: str, cat: Category, labelled, inverses: dict | None = None
) -> list[Violation]:
    """Why the ``(label, components)`` pairs, the component tables on ``cat``
    of whiskered transformations, are not all natural isomorphisms: every
    component without an inverse, under ``rule``.  The inverse found for
    each component, or None, is kept in ``inverses[label][x]`` when a dict
    is given.

    Naturality is not swept.  A functor whiskered with a natural
    transformation, on either side, is natural (Mac Lane, *CWM* II.5), so
    callers pass only tables whose functor passed its composition sweep and
    whose transformation passed its own squares."""
    violations = []
    for label, components in labelled:
        found = {x: inverse_of(cat, components[x]) for x in cat.objects}
        if inverses is not None:
            inverses[label] = found
        violations.extend(
            Violation(rule, (label, x), f"whiskered component {components[x]!r} is not invertible")
            for x, inv in found.items()
            if inv is None
        )
    return violations


def _check_idempotent(N: Functor, unit: NaturalTransformation, side: Side) -> ValidationReport:
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
    labelled = (
        (f"{side.unit}-after-functor", right_components(unit, N)),  # component: eta_{N x}
        (f"functor-of-{side.unit}", left_components(N, unit)),  # component: N(eta_x)
    )
    return ValidationReport(
        _whiskered_iso_violations(f"{side.monad}-idempotence", N.source, labelled)
    )


@remembered
def check_idempotent_monad(d: MonadDatum) -> ValidationReport:
    """Empty iff the datum is a well-formed idempotent monad: valid
    endofunctor, valid unit, and both whiskerings of the unit against the
    functor are natural isomorphisms.  Computed once per datum."""
    return _check_idempotent(d.functor, d.unit, MONAD)


@remembered
def check_idempotent_comonad(d: ComonadDatum) -> ValidationReport:
    """:func:`check_idempotent_monad` with the counit read as a unit on the
    opposite category.  Invertibility does not depend on the direction, so
    the check runs on the comonad's own tables.  Computed once per datum."""
    return _check_idempotent(d.functor, d.counit, COMONAD)


def _fixed_subcategory(d, unit: NaturalTransformation, report: ValidationReport, side: Side):
    if not report.ok:
        raise InvalidArtifactError(f"not an idempotent {side.monad}", report)
    cat = d.category
    inverses = {}
    fixed = []
    for x in cat.objects:
        inv = inverse_of(cat, unit.components[x])
        if inv is not None:
            fixed.append(x)
            inverses[x] = inv
    sub, inclusion = full_subcategory(cat, fixed)
    fixedset = set(fixed)
    for x in cat.objects:
        if d.functor.on_obj(x) not in fixedset:
            raise InvalidArtifactError(
                f"{side.monad} functor sends {x!r} outside its fixed subcategory"
            )
    reflector = Functor(
        cat,
        sub,
        dict(d.functor.obj_map),
        dict(d.functor.mor_map),
        name=f"{side.reflect}[{d.functor.name}]",
    )
    return side.package(cat, sub, inclusion, reflector, unit, inverses)


def fixed_subcategory_monad(d: MonadDatum) -> ReflectionPackage:
    """Build the full subcategory of unit-fixed objects with its reflector.

    Raises if the datum fails :func:`check_idempotent_monad` or if the monad
    functor does not land in its own fixed subcategory (which idempotence
    guarantees).
    """
    return _fixed_subcategory(d, d.unit, check_idempotent_monad(d), MONAD)


def fixed_subcategory_comonad(d: ComonadDatum) -> CoreflectionPackage:
    """:func:`fixed_subcategory_monad` for the counit: the counit-fixed
    objects with their coreflector."""
    return _fixed_subcategory(d, d.counit, check_idempotent_comonad(d), COMONAD)


def _verify(
    cat: Category,
    sub: Category,
    reflector: Functor,
    unit: NaturalTransformation,
    unit_inverses: dict[str, str],
    side: Side,
) -> ValidationReport:
    hom, after, _, _ = oriented(cat, side.flip)
    tag = f"{side.reflect}ion"
    components = unit.components
    names, mor_id, vid = cat.names, cat.mor_id, cat.vid
    # the subcategory's objects with their vertex ids and the ids of the
    # inverses of their units; an object that is none of cat's has no arrows
    targets = [
        (y, vid[y], mor_id.get(unit_inverses.get(y), unit_inverses.get(y)))
        for y in sub.objects
        if y in vid
    ]

    def sweep(x: str) -> list[Violation]:
        found: list[Violation] = []
        eta_x = components.get(x)
        Nx = reflector.obj_map.get(x)
        if eta_x is None or Nx is None:
            found.append(
                Violation(
                    f"{tag}-data", (x,), f"{side.unit} or {side.reflect}or undefined here"
                )
            )
            return found
        eta_x = mor_id.get(eta_x, eta_x)
        vx, vNx = vid[x], vid.get(Nx)
        for y, vy, inv_y in targets:
            for f in hom(vx, vy):
                mediators = (
                    [g for g in hom(vNx, vy) if after(g, eta_x) == f] if vNx is not None else []
                )
                subject = (*side.orient(x, y), names[f])
                if len(mediators) == 0:
                    found.append(
                        Violation(
                            f"{tag}-no-mediator",
                            subject,
                            f"no morphism {side.mediator} the {side.reflect}ed object "
                            f"factors f through the {side.unit}",
                        )
                    )
                    continue
                if len(mediators) > 1:
                    found.append(
                        Violation(
                            f"{tag}-ambiguous-mediator",
                            subject,
                            f"{len(mediators)} morphisms factor f through the {side.unit}: "
                            + ", ".join(names[g] for g in mediators),
                        )
                    )
                    continue
                Nf = reflector.mor_map.get(names[f])
                closed = (
                    after(inv_y, mor_id.get(Nf, Nf))
                    if (inv_y is not None and Nf is not None)
                    else None
                )
                if mediators[0] != closed:
                    found.append(
                        Violation(
                            f"{tag}-closed-form",
                            subject,
                            f"unique mediator is {names[mediators[0]]!r} but the closed form "
                            f"gives {cat.name_of(closed)!r}",
                        )
                    )
        return found

    return ValidationReport([v for x in cat.objects for v in sweep(x)])


def verify_reflection(p: ReflectionPackage) -> ValidationReport:
    """Sweep the reflector's universal property over every possible input.

    For every ambient object x, subcategory object y, and f: x -> y there
    must be exactly one g: Nx -> y with g after unit_x = f, and that g must
    equal inverse(unit_y) after N(f).  Zero and multiple mediators are
    reported under distinct rules.
    """
    return _verify(p.ambient, p.subcategory, p.reflector, p.unit, p.unit_inverses, MONAD)


def verify_coreflection(p: CoreflectionPackage) -> ValidationReport:
    """:func:`verify_reflection` on the flipped view of the ambient
    category: for x in the subcategory, y ambient, f: x -> y, exactly one
    g: x -> My with counit_y after g = f, equal to M(f) after
    inverse(counit_x).  Subjects read ``(x, y, f)``."""
    return _verify(
        p.ambient, p.subcategory, p.coreflector, p.counit, p.counit_inverses, COMONAD
    )
