"""Idempotent monads and comonads, with exhaustively verified reflections.

A monad datum here is just an endofunctor ``N`` with a unit ``eta: 1 => N``;
idempotence means both whiskered transformations ``eta N`` and ``N eta`` are
natural isomorphisms, and it is checked, never assumed.  The fixed
subcategory (objects whose unit component is invertible) is full, and the
restriction of ``N`` is a reflector onto it; :func:`verify_reflection`
re-proves the universal property object by object, including agreement with
the closed-form mediating morphism.  Comonads are handled dually.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Category, full_subcategory, inverse_of
from .errors import InvalidArtifactError
from .functors import (
    Functor,
    NaturalTransformation,
    identity_functor,
    identity_nat,
    validate_functor,
    validate_nat,
    whisker_left,
    whisker_right,
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


def _check_shape_monad(d: MonadDatum) -> ValidationReport:
    violations: list[Violation] = []
    N = d.functor
    if N.source != N.target:
        violations.append(
            Violation("monad-endofunctor", (N.name or "<functor>",), "functor is not an endofunctor")
        )
        return ValidationReport(violations)
    report = ValidationReport(violations).merged(validate_functor(N))
    unit = d.unit
    if unit.source_functor != identity_functor(N.source) or unit.target_functor != N:
        report = report.merged(
            ValidationReport(
                [
                    Violation(
                        "monad-unit-shape",
                        (unit.name or "<unit>",),
                        "unit must go from the identity functor to the monad functor",
                    )
                ]
            )
        )
        return report
    return report.merged(validate_nat(unit))


@remembered
def check_idempotent_monad(d: MonadDatum) -> ValidationReport:
    """Empty iff the datum is a well-formed idempotent monad: valid
    endofunctor, valid unit, and both whiskerings of the unit against the
    functor are natural isomorphisms.  Computed once per datum."""
    report = _check_shape_monad(d)
    if not report.ok:
        return report
    N, unit = d.functor, d.unit
    cat = N.source
    violations: list[Violation] = []
    for label, whiskered in (
        ("unit-after-functor", whisker_right(unit, N)),  # component: eta_{N x}
        ("functor-of-unit", whisker_left(N, unit)),  # component: N(eta_x)
    ):
        sub = validate_nat(whiskered)
        violations.extend(sub.violations)
        for x in cat.objects:
            m = whiskered.components.get(x)
            if m is not None and inverse_of(cat, m) is None:
                violations.append(
                    Violation(
                        "monad-idempotence",
                        (label, x),
                        f"whiskered component {m!r} is not invertible",
                    )
                )
    return ValidationReport(violations)


def _check_shape_comonad(d: ComonadDatum) -> ValidationReport:
    violations: list[Violation] = []
    M = d.functor
    if M.source != M.target:
        violations.append(
            Violation("comonad-endofunctor", (M.name or "<functor>",), "functor is not an endofunctor")
        )
        return ValidationReport(violations)
    report = ValidationReport(violations).merged(validate_functor(M))
    counit = d.counit
    if counit.source_functor != M or counit.target_functor != identity_functor(M.source):
        report = report.merged(
            ValidationReport(
                [
                    Violation(
                        "comonad-counit-shape",
                        (counit.name or "<counit>",),
                        "counit must go from the comonad functor to the identity functor",
                    )
                ]
            )
        )
        return report
    return report.merged(validate_nat(counit))


@remembered
def check_idempotent_comonad(d: ComonadDatum) -> ValidationReport:
    """Dual of :func:`check_idempotent_monad`.  Computed once per datum."""
    report = _check_shape_comonad(d)
    if not report.ok:
        return report
    M, counit = d.functor, d.counit
    cat = M.source
    violations: list[Violation] = []
    for label, whiskered in (
        ("counit-after-functor", whisker_right(counit, M)),  # component: psi_{M x}
        ("functor-of-counit", whisker_left(M, counit)),  # component: M(psi_x)
    ):
        sub = validate_nat(whiskered)
        violations.extend(sub.violations)
        for x in cat.objects:
            m = whiskered.components.get(x)
            if m is not None and inverse_of(cat, m) is None:
                violations.append(
                    Violation(
                        "comonad-idempotence",
                        (label, x),
                        f"whiskered component {m!r} is not invertible",
                    )
                )
    return ValidationReport(violations)


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
    """Dual of :class:`ReflectionPackage`, derived from an idempotent
    comonad."""

    ambient: Category
    subcategory: Category
    inclusion: Functor
    coreflector: Functor
    counit: NaturalTransformation
    counit_inverses: dict[str, str]


def fixed_subcategory_monad(d: MonadDatum) -> ReflectionPackage:
    """Build the full subcategory of unit-fixed objects with its reflector.

    Raises if the datum fails :func:`check_idempotent_monad` or if the monad
    functor does not land in its own fixed subcategory (which idempotence
    guarantees).
    """
    report = check_idempotent_monad(d)
    if not report.ok:
        raise InvalidArtifactError("not an idempotent monad", report)
    cat = d.category
    unit = d.unit
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
                f"monad functor sends {x!r} outside its fixed subcategory"
            )
    reflector = Functor(
        cat,
        sub,
        dict(d.functor.obj_map),
        dict(d.functor.mor_map),
        name=f"reflect[{d.functor.name}]",
    )
    return ReflectionPackage(cat, sub, inclusion, reflector, unit, inverses)


def fixed_subcategory_comonad(d: ComonadDatum) -> CoreflectionPackage:
    """Dual of :func:`fixed_subcategory_monad`."""
    report = check_idempotent_comonad(d)
    if not report.ok:
        raise InvalidArtifactError("not an idempotent comonad", report)
    cat = d.category
    counit = d.counit
    inverses = {}
    fixed = []
    for x in cat.objects:
        inv = inverse_of(cat, counit.components[x])
        if inv is not None:
            fixed.append(x)
            inverses[x] = inv
    sub, inclusion = full_subcategory(cat, fixed)
    fixedset = set(fixed)
    for x in cat.objects:
        if d.functor.on_obj(x) not in fixedset:
            raise InvalidArtifactError(
                f"comonad functor sends {x!r} outside its fixed subcategory"
            )
    coreflector = Functor(
        cat,
        sub,
        dict(d.functor.obj_map),
        dict(d.functor.mor_map),
        name=f"coreflect[{d.functor.name}]",
    )
    return CoreflectionPackage(cat, sub, inclusion, coreflector, counit, inverses)


def verify_reflection(p: ReflectionPackage) -> ValidationReport:
    """Sweep the reflector's universal property over every possible input.

    For every ambient object x, subcategory object y, and f: x -> y there
    must be exactly one g: Nx -> y with g after unit_x = f, and that g must
    equal inverse(unit_y) after N(f).  Zero and multiple mediators are
    reported under distinct rules.
    """
    cat = p.ambient
    unit = p.unit.components

    def sweep(x: str) -> list[Violation]:
        found: list[Violation] = []
        eta_x = unit.get(x)
        Nx = p.reflector.obj_map.get(x)
        if eta_x is None or Nx is None:
            found.append(
                Violation("reflection-data", (x,), "unit or reflector undefined here")
            )
            return found
        for y in p.subcategory.objects:
            inv_y = p.unit_inverses.get(y)
            for f in cat.hom(x, y):
                mediators = [
                    g for g in cat.hom(Nx, y) if cat.comp_or_none(g, eta_x) == f
                ]
                if len(mediators) == 0:
                    found.append(
                        Violation(
                            "reflection-no-mediator",
                            (x, y, f),
                            "no morphism from the reflected object factors f through the unit",
                        )
                    )
                    continue
                if len(mediators) > 1:
                    found.append(
                        Violation(
                            "reflection-ambiguous-mediator",
                            (x, y, f),
                            f"{len(mediators)} morphisms factor f through the unit: "
                            + ", ".join(mediators),
                        )
                    )
                    continue
                Nf = p.reflector.mor_map.get(f)
                closed = (
                    cat.comp_or_none(inv_y, Nf)
                    if (inv_y is not None and Nf is not None)
                    else None
                )
                if mediators[0] != closed:
                    found.append(
                        Violation(
                            "reflection-closed-form",
                            (x, y, f),
                            f"unique mediator is {mediators[0]!r} but the closed form "
                            f"gives {closed!r}",
                        )
                    )
        return found

    return ValidationReport([v for x in cat.objects for v in sweep(x)])


def verify_coreflection(p: CoreflectionPackage) -> ValidationReport:
    """Dual sweep: for x in the subcategory, y ambient, f: x -> y, exactly
    one g: x -> My with counit_y after g = f, equal to M(f) after
    inverse(counit_x)."""
    cat = p.ambient
    counit = p.counit.components

    def sweep(y: str) -> list[Violation]:
        found: list[Violation] = []
        psi_y = counit.get(y)
        My = p.coreflector.obj_map.get(y)
        if psi_y is None or My is None:
            found.append(
                Violation("coreflection-data", (y,), "counit or coreflector undefined here")
            )
            return found
        for x in p.subcategory.objects:
            inv_x = p.counit_inverses.get(x)
            for f in cat.hom(x, y):
                mediators = [
                    g for g in cat.hom(x, My) if cat.comp_or_none(psi_y, g) == f
                ]
                if len(mediators) == 0:
                    found.append(
                        Violation(
                            "coreflection-no-mediator",
                            (x, y, f),
                            "no morphism into the coreflected object factors f through the counit",
                        )
                    )
                    continue
                if len(mediators) > 1:
                    found.append(
                        Violation(
                            "coreflection-ambiguous-mediator",
                            (x, y, f),
                            f"{len(mediators)} morphisms factor f through the counit: "
                            + ", ".join(mediators),
                        )
                    )
                    continue
                Mf = p.coreflector.mor_map.get(f)
                closed = (
                    cat.comp_or_none(Mf, inv_x)
                    if (inv_x is not None and Mf is not None)
                    else None
                )
                if mediators[0] != closed:
                    found.append(
                        Violation(
                            "coreflection-closed-form",
                            (x, y, f),
                            f"unique mediator is {mediators[0]!r} but the closed form "
                            f"gives {closed!r}",
                        )
                    )
        return found

    return ValidationReport([v for x in cat.objects for v in sweep(x)])
