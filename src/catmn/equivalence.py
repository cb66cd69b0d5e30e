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
    identity_functor,
    iso_violations,
    validate_nat,
    whisker_left,
)
from .monads import (
    ComonadDatum,
    CoreflectionPackage,
    MonadDatum,
    ReflectionPackage,
    fixed_subcategory_comonad,
    fixed_subcategory_monad,
    _whiskered_iso_violations,
)
from .report import ValidationReport, Violation


@dataclass
class MNPair:
    """An idempotent monad and comonad on one category, with their derived
    reflection and coreflection packages."""

    monad: MonadDatum
    comonad: ComonadDatum
    reflection: ReflectionPackage
    coreflection: CoreflectionPackage

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


def check_mn_hypotheses(p: MNPair) -> ValidationReport:
    """Empty iff both whiskerings N(psi) and M(eta) are natural isomorphisms.

    Failures name the component object.
    """
    N, M = p.monad.functor, p.comonad.functor
    eta, psi = p.monad.unit, p.comonad.counit
    labelled = (
        ("monad-of-counit", whisker_left(N, psi)),  # N(psi_x): NMx -> Nx
        ("comonad-of-unit", whisker_left(M, eta)),  # M(eta_x): Mx -> MNx
    )
    return ValidationReport(_whiskered_iso_violations("mn-hypothesis", p.category, labelled))


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
    violations: list[Violation] = []
    for label, nat in (("unit", e.unit), ("counit", e.counit)):
        violations.extend(iso_violations(nat, "equivalence-not-iso", label))

    # counit_{Fx} after F(unit_x) = id_{Fx}, and G(counit_y) after unit_{Gy}
    # = id_{Gy}: the same equation read on the flipped view of the target
    for rule, H, outer, inner, flip, text in (
        ("triangle-forward", e.forward, e.counit, e.unit, False, "counit . forward(unit)"),
        ("triangle-backward", e.backward, e.unit, e.counit, True, "backward(counit) . unit"),
    ):
        cod = H.target
        after = oriented(cod, flip).after
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
    return ValidationReport(violations)


def _find_natural_iso(F: Functor, G: Functor):
    """Backtracking search for a natural isomorphism F => G.

    Components are tried in lexicographic morphism order per object, objects
    in sorted order, with naturality squares pruned as soon as both ends are
    assigned.  Returns (transformation, None) or (None, violations).
    """
    dom = F.source
    cod = F.target
    objs = list(dom.objects)
    candidates: dict[str, list[str]] = {}
    violations: list[Violation] = []
    for x in objs:
        isos = [
            m
            for m in cod.hom(F.on_obj(x), G.on_obj(x))
            if inverse_of(cod, m) is not None
        ]
        if not isos:
            violations.append(
                Violation(
                    "factorization-no-iso-component",
                    (x,),
                    "no invertible morphism between the two images",
                )
            )
        candidates[x] = isos
    if violations:
        return None, violations

    index = {x: i for i, x in enumerate(objs)}
    # morphisms grouped by the later-assigned endpoint so each choice is
    # checked against everything already fixed
    by_later: dict[str, list[tuple[str, str, str]]] = {x: [] for x in objs}
    for f in sorted(dom.morphisms):
        mf = dom.morphisms[f]
        later = mf.src if index[mf.src] >= index[mf.dst] else mf.dst
        by_later[later].append((f, mf.src, mf.dst))

    assigned: dict[str, str] = {}

    def consistent(x: str) -> bool:
        for f, a, b in by_later[x]:
            if a not in assigned or b not in assigned:
                continue
            left = cod.comp_or_none(assigned[b], F.on_mor(f))
            right = cod.comp_or_none(G.on_mor(f), assigned[a])
            if left != right or left is None:
                return False
        return True

    def search(i: int) -> bool:
        if i == len(objs):
            return True
        x = objs[i]
        for m in candidates[x]:
            assigned[x] = m
            if consistent(x) and search(i + 1):
                return True
            del assigned[x]
        return False

    if search(0):
        return (
            NaturalTransformation(F, G, dict(assigned), name="factorization"),
            None,
        )
    return None, [
        Violation(
            "factorization-no-natural-family",
            tuple(objs),
            "invertible components exist but no choice makes every square commute",
        )
    ]


def verify_factorizations(p: MNPair, e: EquivalenceResult) -> ValidationReport:
    """Check the reflector factors through the equivalence and dually.

    Looks for natural isomorphisms reflector => forward . coreflector and
    coreflector => backward . reflector.  The canonical candidates built
    from the whiskered unit/counit are tried first; if a candidate fails, an
    independent per-object search runs as fallback, and only if that also
    fails is a violation reported.
    """
    cat = p.category
    N, M = p.monad.functor, p.comonad.functor
    eta, psi = p.monad.unit, p.comonad.counit
    violations: list[Violation] = []

    # reflector => forward . coreflector with canonical component the inverse
    # of N(psi_x); coreflector => backward . reflector with M(eta_x) itself
    R, Q = p.reflection.reflector, p.coreflection.coreflector
    for tag, lhs, rhs, whiskered, invert in (
        ("factorization-reflector", R, (e.forward, Q), (N, psi), True),
        ("factorization-coreflector", Q, (e.backward, R), (M, eta), False),
    ):
        rhs = compose_functors(*rhs)
        whiskered = whisker_left(*whiskered)
        components = {x: whiskered.components[x] for x in cat.objects}
        if invert:  # a component without an inverse stays, and the candidate fails
            for x, m in components.items():
                inv = inverse_of(cat, m)
                components[x] = m if inv is None else inv
        candidate = NaturalTransformation(lhs, rhs, components, name=tag)
        if validate_nat(candidate).ok and all(
            inverse_of(lhs.target, components[x]) is not None for x in lhs.source.objects
        ):
            continue
        found, errs = _find_natural_iso(lhs, rhs)
        if found is None:
            for v in errs:
                violations.append(Violation(f"{tag}-{v.rule}", v.subject, v.detail))

    return ValidationReport(violations)
