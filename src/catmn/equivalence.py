"""The equivalence between the two fixed subcategories of a monad/comonad
pair.

Given an idempotent monad (N, eta) and an idempotent comonad (M, psi) on the
same category, when the whiskerings ``N psi`` and ``M eta`` are natural
isomorphisms the composite of the reflector with the comonad-side inclusion
is one half of an adjoint equivalence between the counit-fixed and
unit-fixed subcategories.  Everything is re-proved on the instance: unit,
counit, triangle identities, and the two factorization isomorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .core import Category, inverse_of, oriented
from .errors import (
    InvalidArtifactError,
    MismatchError,
    UnknownMorphismError,
    UnknownObjectError,
)
from .functors import (
    Functor,
    NaturalTransformation,
    compose_functors,
    composite,
    identity_functor,
    iso_report,
    left_components,
    non_invertible,
    validate_nat,
)
from .monads import (
    COMONAD,
    MONAD,
    MonadDatum,
    ReflectionPackage,
    _expect,
    check_idempotent,
    fixed_subcategory,
)
from .report import ValidationReport, Violation, remembered, report_field


@dataclass(frozen=True)
class MNPair:
    """An idempotent monad and comonad on one category, with their derived
    reflection and coreflection packages."""

    monad: MonadDatum
    comonad: MonadDatum
    reflection: ReflectionPackage
    coreflection: ReflectionPackage
    _report: ValidationReport | None = report_field()

    @property
    def category(self) -> Category:
        return self.monad.category


def make_mn_pair(monad: MonadDatum, comonad: MonadDatum) -> MNPair:
    """Pair a monad and comonad on the same category; both idempotence
    checks run inside the package constructors and raise on failure, as
    does a datum of the wrong side."""
    _expect(monad, MONAD)
    _expect(comonad, COMONAD)
    if monad.category != comonad.category:
        raise MismatchError("monad and comonad live on different categories")
    reflection = fixed_subcategory(monad)
    coreflection = fixed_subcategory(comonad)
    return MNPair(monad, comonad, reflection, coreflection)


def mn_hypotheses(monad: MonadDatum, comonad: MonadDatum):
    """The two whiskerings the equivalence rests on, each labelled and with
    a function that builds its component table: ``monad-of-counit`` for
    N(psi_x): NMx -> Nx and ``comonad-of-unit`` for M(eta_x): Mx -> MNx.
    A table is built only when it is asked for."""
    return (
        ("monad-of-counit", partial(left_components, monad.functor, comonad.unit)),
        ("comonad-of-unit", partial(left_components, comonad.functor, monad.unit)),
    )


@remembered
def check_mn_hypotheses(p: MNPair) -> ValidationReport:
    """Empty iff both whiskerings N(psi) and M(eta) are natural isomorphisms.

    They are natural because their factors are (Mac Lane, *CWM* II.5): the
    monad's and comonad's own (remembered) reports are read first, and when
    either fails it is returned as it stands.  Otherwise every component is
    searched for an inverse, and failures name the component object.
    Computed once per pair.
    """
    factors = check_idempotent(p.monad).merged(check_idempotent(p.comonad))
    if not factors.ok:
        return factors
    labelled = [(label, table()) for label, table in mn_hypotheses(p.monad, p.comonad)]
    word = "whiskered component"
    return ValidationReport(non_invertible("mn-hypothesis", p.category, labelled, word))


@dataclass
class EquivalenceResult:
    """The two functors between the fixed subcategories together with the
    unit and counit of the adjunction forward -| backward."""

    forward: Functor
    backward: Functor
    unit: NaturalTransformation
    counit: NaturalTransformation


def build_mn_equivalence(p: MNPair) -> EquivalenceResult:
    """Assemble the equivalence between the comonad-fixed and monad-fixed
    subcategories.

    forward = reflector after inclusion (comonad side to monad side),
    backward dually.  The unit at x is M(eta_x) after inverse(psi_x); the
    counit at y is inverse(eta_y) after N(psi_y).  Raises if the whiskering
    hypotheses fail.
    """
    hyp = check_mn_hypotheses(p)
    if not hyp.ok:
        raise InvalidArtifactError("hypotheses for the equivalence fail", hyp)
    cat = p.category
    N, M = p.monad.functor, p.comonad.functor
    eta, psi = p.monad.unit.components, p.comonad.unit.components

    forward = composite("forward", p.coreflection.inclusion, p.reflection.reflector)
    backward = composite("backward", p.reflection.inclusion, p.coreflection.reflector)

    msub = p.coreflection.subcategory
    nsub = p.reflection.subcategory

    unit_components = {
        x: cat.comp(M.on_mor(eta[x]), p.coreflection.unit_inverses[x])
        for x in msub.objects
    }
    counit_components = {
        y: cat.comp(p.reflection.unit_inverses[y], N.on_mor(psi[y]))
        for y in nsub.objects
    }
    unit = NaturalTransformation(
        identity_functor(msub),
        compose_functors(backward, forward),
        unit_components,
        name="equivalence-unit",
    )
    counit = NaturalTransformation(
        compose_functors(forward, backward),
        identity_functor(nsub),
        counit_components,
        name="equivalence-counit",
    )
    return EquivalenceResult(forward, backward, unit, counit)


def verify_adjoint_equivalence(e: EquivalenceResult) -> ValidationReport:
    """Check the data of an adjoint equivalence: unit/counit are valid
    natural isomorphisms and both triangle identities hold."""
    isos = [
        iso_report(nat, "equivalence-not-iso", label)
        for label, nat in (("unit", e.unit), ("counit", e.counit))
    ]
    violations: list[Violation] = []

    # counit_{Fx} after F(unit_x) = id_{Fx}, and G(counit_y) after unit_{Gy}
    # = id_{Gy}: the same equation read on the flipped view of the target
    for rule, H, outer, inner, flip, text in (
        ("triangle-forward", e.forward, e.counit, e.unit, False, "counit . forward(unit)"),
        ("triangle-backward", e.backward, e.unit, e.counit, True, "backward(counit) . unit"),
    ):
        # on ids: a component that is no morphism stays a name, as after() takes it
        cod = H.target
        mor_id, name_of = cod.mor_id, cod.name_of
        after = oriented(cod, flip).after
        for x in H.source.objects:
            try:
                Hx = H.on_obj(x)
            except UnknownObjectError as exc:
                violations.append(Violation(rule, (x,), str(exc)))
                continue
            try:
                g, f = outer.components[Hx], H.on_mor(inner.components[x])
                got = name_of(after(mor_id.get(g, g), mor_id.get(f, f)))
            except (KeyError, UnknownMorphismError):
                got = None
            want = cod.identity.get(Hx)
            if got != want:
                violations.append(
                    Violation(rule, (x,), f"{text} is {got!r}, expected identity {want!r}")
                )
    return ValidationReport(violations).merged(*isos)


def verify_factorizations(p: MNPair, e: EquivalenceResult) -> ValidationReport:
    """Check the reflector factors through the equivalence and dually, by
    the canonical isomorphisms.

    reflector => forward . coreflector has component the inverse of N(psi_x),
    and coreflector => backward . reflector has component M(eta_x).  Each
    candidate is judged as a natural isomorphism, and every violation is
    reported under its tag.  Once the hypotheses hold, both candidates pass:
    the inverse of a natural isomorphism is natural.
    """
    cat = p.category
    R, Q = p.reflection.reflector, p.coreflection.reflector
    violations: list[Violation] = []
    omitted = 0
    for (label, table), (side, lhs, rhs) in zip(
        mn_hypotheses(p.monad, p.comonad),
        (("reflector", R, (e.forward, Q)), ("coreflector", Q, (e.backward, R))),
    ):
        # the reflector's candidate inverts N(psi_x), which is then its
        # inverse, in hand; a component without an inverse stays, and the
        # candidate fails
        whiskered = table()
        components, lacking = {}, []
        for x in cat.objects:
            inv = inverse_of(cat, whiskered[x])
            if inv is None:
                lacking.append(x)
            components[x] = inv if side == "reflector" and inv is not None else whiskered[x]
        tag = f"factorization-{side}"
        candidate = NaturalTransformation(lhs, compose_functors(*rhs), components, name=tag)
        report = validate_nat(candidate)
        found = report.violations or [
            Violation("not-iso", (label, x), f"component {components[x]!r} is not invertible")
            for x in lacking
        ]
        violations.extend(Violation(f"{tag}-{v.rule}", v.subject, v.detail) for v in found)
        omitted += report.omitted
    return ValidationReport(violations, omitted=omitted)
