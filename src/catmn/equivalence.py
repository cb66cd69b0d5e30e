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

from dataclasses import dataclass, field, replace

from .core import Category, inverse_of
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
    identity_functor,
    iso_report,
    left_components,
    validate_nat,
)
from .monads import (
    ComonadDatum,
    CoreflectionPackage,
    MonadDatum,
    ReflectionPackage,
    check_idempotent_comonad,
    check_idempotent_monad,
    fixed_subcategory_comonad,
    fixed_subcategory_monad,
    _whiskered_iso_violations,
)
from .report import ValidationReport, Violation, remembered, report_field


@dataclass(frozen=True)
class MNPair:
    """An idempotent monad and comonad on one category, with their derived
    reflection and coreflection packages."""

    monad: MonadDatum
    comonad: ComonadDatum
    reflection: ReflectionPackage
    coreflection: CoreflectionPackage
    _report: ValidationReport | None = report_field()
    # the inverses check_mn_hypotheses found, per label and object
    _inverses: dict[str, dict[str, str | None]] | None = report_field()

    @property
    def category(self) -> Category:
        return self.monad.category


def make_mn_pair(monad: MonadDatum, comonad: ComonadDatum) -> MNPair:
    """Pair a monad and comonad on the same category; both idempotence
    checks run inside the package constructors and raise on failure."""
    if monad.category != comonad.category:
        raise MismatchError("monad and comonad live on different categories")
    reflection = fixed_subcategory_monad(monad)
    coreflection = fixed_subcategory_comonad(comonad)
    return MNPair(monad, comonad, reflection, coreflection)


@remembered
def check_mn_hypotheses(p: MNPair) -> ValidationReport:
    """Empty iff both whiskerings N(psi) and M(eta) are natural isomorphisms.

    They are natural because their factors are: the monad's and comonad's
    own (remembered) reports are read first, and when either fails it is
    returned as it stands.  Otherwise every component is searched for an
    inverse, and failures name the component object; the inverses found are
    kept on the pair for :func:`verify_factorizations`.  Computed once per
    pair.
    """
    factors = check_idempotent_monad(p.monad).merged(check_idempotent_comonad(p.comonad))
    if not factors.ok:
        return factors
    N, M = p.monad.functor, p.comonad.functor
    eta, psi = p.monad.unit, p.comonad.counit
    labelled = (
        ("monad-of-counit", left_components(N, psi)),  # N(psi_x): NMx -> Nx
        ("comonad-of-unit", left_components(M, eta)),  # M(eta_x): Mx -> MNx
    )
    inverses: dict[str, dict[str, str | None]] = {}
    violations = _whiskered_iso_violations("mn-hypothesis", p.category, labelled, inverses)
    object.__setattr__(p, "_inverses", inverses)
    return ValidationReport(violations)


@dataclass
class EquivalenceResult:
    """The two functors between the fixed subcategories together with the
    unit and counit of the adjunction forward -| backward."""

    forward: Functor
    backward: Functor
    unit: NaturalTransformation
    counit: NaturalTransformation
    name: str = field(default="", compare=False)


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
    eta, psi = p.monad.unit.components, p.comonad.counit.components

    forward = replace(
        compose_functors(p.reflection.reflector, p.coreflection.inclusion),
        name="forward",
    )
    backward = replace(
        compose_functors(p.coreflection.coreflector, p.reflection.inclusion),
        name="backward",
    )

    msub = p.coreflection.subcategory
    nsub = p.reflection.subcategory

    unit_components = {
        x: cat.comp(M.on_mor(eta[x]), p.coreflection.counit_inverses[x])
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
        cod = H.target
        after = (lambda g, f: cod.comp_or_none(f, g)) if flip else cod.comp_or_none
        for x in H.source.objects:
            try:
                Hx = H.on_obj(x)
            except UnknownObjectError as exc:
                violations.append(Violation(rule, (x,), str(exc)))
                continue
            try:
                got = after(outer.components[Hx], H.on_mor(inner.components[x]))
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
    N, M = p.monad.functor, p.comonad.functor
    eta, psi = p.monad.unit.components, p.comonad.counit.components
    R, Q = p.reflection.reflector, p.coreflection.coreflector
    # the reflector's candidate inverts N(psi_x), which is then its inverse,
    # in hand; a component without an inverse stays, and the candidate fails.
    # The searches check_mn_hypotheses made on these components are read back
    searched = p._inverses or {}

    def inverse(label: str, x: str, m: str):
        known = searched.get(label)
        return known[x] if known is not None else inverse_of(cat, m)

    reflector, lacking = {}, {"reflector": [], "coreflector": []}
    for x in cat.objects:
        m = N.on_mor(psi[x])
        inv = inverse("monad-of-counit", x, m)
        if inv is None:
            lacking["reflector"].append(x)
        reflector[x] = m if inv is None else inv
    coreflector = {x: M.on_mor(eta[x]) for x in cat.objects}
    for x, m in coreflector.items():
        if inverse("comonad-of-unit", x, m) is None:
            lacking["coreflector"].append(x)

    violations: list[Violation] = []
    omitted = 0
    for side, label, lhs, rhs, components in (
        ("reflector", "monad-of-counit", R, (e.forward, Q), reflector),
        ("coreflector", "comonad-of-unit", Q, (e.backward, R), coreflector),
    ):
        tag = f"factorization-{side}"
        candidate = NaturalTransformation(lhs, compose_functors(*rhs), components, name=tag)
        report = validate_nat(candidate)
        found = report.violations or [
            Violation("not-iso", (label, x), f"component {components[x]!r} is not invertible")
            for x in lacking[side]
        ]
        violations.extend(Violation(f"{tag}-{v.rule}", v.subject, v.detail) for v in found)
        omitted += report.omitted
    return ValidationReport(violations, omitted=omitted)
