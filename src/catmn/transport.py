"""Transport of idempotent (co)monads across a contravariant equivalence.

A contravariant equivalence between categories C and D is a pair of
contravariant functors F: C -> D and G: D -> C with natural isomorphisms
theta: 1_D => F.G and theta_bar: 1_C => G.F (no coherence between the two is
imposed).  An idempotent monad (N, eta) on C induces the idempotent comonad
T = F.N.G on D with counit delta_x = inverse(theta_x) after F(eta_{Gx});
dually an idempotent comonad (M, psi) induces the monad S = F.M.G with unit
epsilon_x = F(psi_{Gx}) after theta_x.  When N(psi) is invertible so is
T(epsilon), and when M(eta) is invertible so is S(delta);
:func:`verify_transfer` re-proves both implications on the instance.

Two ready-made equivalences are provided: the mechanical relabeled-opposite
of any category, and a tiny powerset duality between two concrete finite
sets and their subset algebras with every hom-set enumerated exhaustively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import Category, Mor, inverse_of, opposite
from .errors import InvalidArtifactError, MismatchError
from .functors import (
    ContravariantFunctor,
    Functor,
    NaturalTransformation,
    contravariant_functor,
    identity_functor,
    validate_contravariant,
    validate_nat,
    whisker_left,
)
from .monads import (
    ComonadDatum,
    MonadDatum,
    check_idempotent_comonad,
    check_idempotent_monad,
)
from .report import ValidationReport, Violation, remembered, report_field


@dataclass(frozen=True)
class ContravariantEquivalence:
    """Contravariant functors both ways plus the two comparison
    isomorphisms."""

    forward: ContravariantFunctor  # F: C -> D
    backward: ContravariantFunctor  # G: D -> C
    theta: NaturalTransformation  # 1_D => F.G
    theta_bar: NaturalTransformation  # 1_C => G.F
    name: str = field(default="", compare=False)
    _report: ValidationReport | None = report_field()

    @property
    def source(self) -> Category:
        return self.forward.presented_source

    @property
    def dual(self) -> Category:
        return self.forward.target


def covariant_composite(
    outer: ContravariantFunctor, inner: ContravariantFunctor
) -> Functor:
    """The covariant composite of two contravariant functors, as a functor
    on the inner presented source."""
    src = inner.presented_source
    if inner.target != outer.presented_source:
        raise MismatchError("contravariant composite: middle categories differ")
    return Functor(
        src,
        outer.target,
        {x: outer.on_obj(inner.on_obj(x)) for x in src.objects},
        {f: outer.on_mor(inner.on_mor(f)) for f in src.morphisms},
        name=f"{outer.name}.{inner.name}",
    )


@remembered
def validate_equivalence(e: ContravariantEquivalence) -> ValidationReport:
    """Functor laws for both directions (through the opposites), shape and
    naturality of both comparison transformations, and that every
    comparison component is invertible.  Computed once per equivalence."""
    report = validate_contravariant(e.forward).merged(
        validate_contravariant(e.backward)
    )
    violations: list[Violation] = []
    if not report.ok:
        return report

    C, D = e.source, e.dual
    fg = covariant_composite(e.forward, e.backward)
    gf = covariant_composite(e.backward, e.forward)

    for label, nat, cat, composite in (
        ("theta", e.theta, D, fg),
        ("theta-bar", e.theta_bar, C, gf),
    ):
        if nat.source_functor != identity_functor(cat) or nat.target_functor != composite:
            violations.append(
                Violation(
                    "equivalence-comparison-shape",
                    (label,),
                    "comparison must go from the identity functor to the round trip",
                )
            )
            continue
        sub = validate_nat(nat)
        violations.extend(sub.violations)
        if sub.ok:
            for x in cat.objects:
                if inverse_of(cat, nat.components[x]) is None:
                    violations.append(
                        Violation(
                            "equivalence-comparison-iso",
                            (label, x),
                            f"component {nat.components[x]!r} is not invertible",
                        )
                    )
    return report.merged(ValidationReport(violations))


@dataclass
class TransportResult:
    """The comonad and monad induced on the dual side."""

    induced_comonad: ComonadDatum
    induced_monad: MonadDatum


def induce_comonad(e: ContravariantEquivalence, m: MonadDatum) -> ComonadDatum:
    """Transport an idempotent monad on the source across the equivalence.

    Raises when the equivalence or the monad fails its own validation.
    """
    rep = validate_equivalence(e)
    if not rep.ok:
        raise InvalidArtifactError("invalid contravariant equivalence", rep)
    rep = check_idempotent_monad(m)
    if not rep.ok:
        raise InvalidArtifactError("not an idempotent monad", rep)
    if m.category != e.source:
        raise MismatchError("monad does not live on the equivalence source")

    D = e.dual
    F, G = e.forward, e.backward
    eta = m.unit.components
    obj_map = {x: F.on_obj(m.functor.on_obj(G.on_obj(x))) for x in D.objects}
    mor_map = {f: F.on_mor(m.functor.on_mor(G.on_mor(f))) for f in D.morphisms}
    functor = Functor(D, D, obj_map, mor_map, name=f"induced[{m.functor.name}]")
    theta_inv = {x: inverse_of(D, e.theta.components[x]) for x in D.objects}
    counit = {
        x: D.comp(theta_inv[x], F.on_mor(eta[G.on_obj(x)])) for x in D.objects
    }
    delta = NaturalTransformation(
        functor, identity_functor(D), counit, name="induced-counit"
    )
    return ComonadDatum(functor, delta, name=f"induced[{m.name or m.functor.name}]")


def induce_monad(e: ContravariantEquivalence, c: ComonadDatum) -> MonadDatum:
    """Dual of :func:`induce_comonad`."""
    rep = validate_equivalence(e)
    if not rep.ok:
        raise InvalidArtifactError("invalid contravariant equivalence", rep)
    rep = check_idempotent_comonad(c)
    if not rep.ok:
        raise InvalidArtifactError("not an idempotent comonad", rep)
    if c.category != e.source:
        raise MismatchError("comonad does not live on the equivalence source")

    D = e.dual
    F, G = e.forward, e.backward
    psi = c.counit.components
    obj_map = {x: F.on_obj(c.functor.on_obj(G.on_obj(x))) for x in D.objects}
    mor_map = {f: F.on_mor(c.functor.on_mor(G.on_mor(f))) for f in D.morphisms}
    functor = Functor(D, D, obj_map, mor_map, name=f"induced[{c.functor.name}]")
    unit = {
        x: D.comp(F.on_mor(psi[G.on_obj(x)]), e.theta.components[x])
        for x in D.objects
    }
    epsilon = NaturalTransformation(
        identity_functor(D), functor, unit, name="induced-unit"
    )
    return MonadDatum(functor, epsilon, name=f"induced[{c.name or c.functor.name}]")


def transport_pair(
    e: ContravariantEquivalence, m: MonadDatum, c: ComonadDatum
) -> TransportResult:
    return TransportResult(induce_comonad(e, m), induce_monad(e, c))


def verify_transfer(
    e: ContravariantEquivalence,
    m: MonadDatum,
    c: ComonadDatum,
    r: TransportResult,
) -> ValidationReport:
    """Instance-level proof of the two transfer implications.

    If N(psi) is a natural isomorphism then T(epsilon) must be, and if
    M(eta) is then S(delta) must be.  A failed antecedent makes its
    implication vacuous; that is recorded as a note, not a violation.
    """
    C = m.category
    D = r.induced_comonad.category
    violations: list[Violation] = []
    notes: list[str] = []

    def iso_everywhere(nat: NaturalTransformation, cat: Category) -> bool:
        if not validate_nat(nat).ok:
            return False
        return all(
            inverse_of(cat, nat.components[x]) is not None for x in cat.objects
        )

    n_psi = whisker_left(m.functor, c.counit)
    if iso_everywhere(n_psi, C):
        t_eps = whisker_left(r.induced_comonad.functor, r.induced_monad.unit)
        for x in D.objects:
            if inverse_of(D, t_eps.components[x]) is None:
                violations.append(
                    Violation(
                        "transfer-comonad-of-unit",
                        (x,),
                        f"component {t_eps.components[x]!r} is not invertible "
                        "although the source-side whiskering is",
                    )
                )
    else:
        notes.append(
            "monad-of-counit is not a natural isomorphism on the source; "
            "its transfer implication is vacuous"
        )

    m_eta = whisker_left(c.functor, m.unit)
    if iso_everywhere(m_eta, C):
        s_delta = whisker_left(r.induced_monad.functor, r.induced_comonad.counit)
        for x in D.objects:
            if inverse_of(D, s_delta.components[x]) is None:
                violations.append(
                    Violation(
                        "transfer-monad-of-counit",
                        (x,),
                        f"component {s_delta.components[x]!r} is not invertible "
                        "although the source-side whiskering is",
                    )
                )
    else:
        notes.append(
            "comonad-of-unit is not a natural isomorphism on the source; "
            "its transfer implication is vacuous"
        )

    return ValidationReport(violations, notes)


# ---------------------------------------------------------------------------
# ready-made equivalences


def relabeled_opposite_equivalence(c: Category, suffix: str = "~") -> ContravariantEquivalence:
    """The tautological duality between a category and a relabeled copy of
    its opposite."""
    op = opposite(c)
    mors = [Mor(m.name + suffix, m.src + suffix, m.dst + suffix) for m in op.morphisms.values()]
    identity = {x + suffix: m + suffix for x, m in op.identity.items()}
    compose = {
        (g + suffix, f + suffix): h + suffix for (g, f), h in op.compose.items()
    }
    d = Category(
        c.name + suffix + "op",
        [x + suffix for x in op.objects],
        mors,
        identity,
        compose,
    )
    forward = contravariant_functor(
        c,
        d,
        {x: x + suffix for x in c.objects},
        {f: f + suffix for f in c.morphisms},
        name="relabel",
    )
    backward = contravariant_functor(
        d,
        c,
        {x + suffix: x for x in c.objects},
        {f + suffix: f for f in c.morphisms},
        name="unrelabel",
    )
    theta = NaturalTransformation(
        identity_functor(d),
        covariant_composite(forward, backward),
        {x: d.id_of(x) for x in d.objects},
        name="theta",
    )
    theta_bar = NaturalTransformation(
        identity_functor(c),
        covariant_composite(backward, forward),
        {x: c.id_of(x) for x in c.objects},
        name="theta-bar",
    )
    return ContravariantEquivalence(
        forward, backward, theta, theta_bar, name=f"relabel-op[{c.name}]"
    )


@dataclass
class PowersetDuality:
    """The demo duality between two concrete finite sets and their subset
    algebras."""

    sets_category: Category
    algebras_category: Category
    equivalence: ContravariantEquivalence


def _encode_subset(s: frozenset) -> str:
    return "e" if not s else "".join(str(x) for x in sorted(s))


def powerset_duality_demo() -> PowersetDuality:
    """Build the duality for the sets {1} and {1, 2} by exhaustion.

    Morphisms of the set side are all functions; morphisms of the algebra
    side are all maps between the powersets preserving empty, full, union,
    intersection, and complement (checked over every candidate).  The
    contravariant functors are preimage and atom-tracing; both round trips
    land back on the nose, so the comparison isomorphisms are identities.
    """
    carriers = {"set1": (1,), "set12": (1, 2)}
    set_objs = sorted(carriers)

    def fn_name(a: str, b: str, images: tuple) -> str:
        return f"fn|{a}|{b}|" + "".join(str(v) for v in images)

    set_mors: list[Mor] = []
    fn_images: dict[str, tuple[str, str, tuple]] = {}
    for a in set_objs:
        for b in set_objs:
            for images in itertools.product(carriers[b], repeat=len(carriers[a])):
                name = fn_name(a, b, images)
                set_mors.append(Mor(name, a, b))
                fn_images[name] = (a, b, images)
    set_identity = {
        a: fn_name(a, a, tuple(carriers[a])) for a in set_objs
    }
    set_compose: dict[tuple[str, str], str] = {}
    for f, (a, b, fim) in fn_images.items():
        fmap = dict(zip(carriers[a], fim))
        for g, (b2, c2, gim) in fn_images.items():
            if b2 != b:
                continue
            gmap = dict(zip(carriers[b2], gim))
            images = tuple(gmap[fmap[x]] for x in carriers[a])
            set_compose[(g, f)] = fn_name(a, c2, images)
    sets_cat = Category("finite-sets-demo", set_objs, set_mors, set_identity, set_compose)

    algebras = {"alg1": carriers["set1"], "alg12": carriers["set12"]}
    alg_objs = sorted(algebras)
    subsets = {
        a: sorted(
            (
                frozenset(c)
                for r in range(len(algebras[a]) + 1)
                for c in itertools.combinations(algebras[a], r)
            ),
            key=_encode_subset,
        )
        for a in alg_objs
    }

    def is_hom(a: str, b: str, mapping: dict) -> bool:
        xs = frozenset(algebras[a])
        ys = frozenset(algebras[b])
        if mapping[frozenset()] != frozenset() or mapping[xs] != ys:
            return False
        for u in subsets[a]:
            if mapping[xs - u] != ys - mapping[u]:
                return False
            for v in subsets[a]:
                if mapping[u | v] != mapping[u] | mapping[v]:
                    return False
                if mapping[u & v] != mapping[u] & mapping[v]:
                    return False
        return True

    def hom_name(a: str, b: str, mapping: dict) -> str:
        return f"alghom|{a}|{b}|" + "-".join(
            _encode_subset(mapping[u]) for u in subsets[a]
        )

    alg_mors: list[Mor] = []
    hom_maps: dict[str, tuple[str, str, dict]] = {}
    for a in alg_objs:
        for b in alg_objs:
            for images in itertools.product(subsets[b], repeat=len(subsets[a])):
                mapping = dict(zip(subsets[a], images))
                if is_hom(a, b, mapping):
                    name = hom_name(a, b, mapping)
                    alg_mors.append(Mor(name, a, b))
                    hom_maps[name] = (a, b, mapping)
    alg_identity = {
        a: hom_name(a, a, {u: u for u in subsets[a]}) for a in alg_objs
    }
    alg_compose: dict[tuple[str, str], str] = {}
    for f, (a, b, fmap) in hom_maps.items():
        for g, (b2, c2, gmap) in hom_maps.items():
            if b2 != b:
                continue
            mapping = {u: gmap[fmap[u]] for u in subsets[a]}
            alg_compose[(g, f)] = hom_name(a, c2, mapping)
    algs_cat = Category(
        "powerset-algebras-demo", alg_objs, alg_mors, alg_identity, alg_compose
    )

    set_to_alg = {"set1": "alg1", "set12": "alg12"}
    alg_to_set = {v: k for k, v in set_to_alg.items()}

    # preimage: a function X -> Y becomes P(Y) -> P(X)
    fwd_mor: dict[str, str] = {}
    for f, (a, b, fim) in fn_images.items():
        fmap = dict(zip(carriers[a], fim))
        mapping = {
            u: frozenset(x for x in carriers[a] if fmap[x] in u)
            for u in subsets[set_to_alg[b]]
        }
        fwd_mor[f] = hom_name(set_to_alg[b], set_to_alg[a], mapping)
    forward = contravariant_functor(
        sets_cat, algs_cat, set_to_alg, fwd_mor, name="powerset"
    )

    # atom tracing: an algebra map P(X) -> P(Y) becomes the function Y -> X
    bwd_mor: dict[str, str] = {}
    for h, (a, b, mapping) in hom_maps.items():
        xa = alg_to_set[a]
        xb = alg_to_set[b]
        images = []
        for y in carriers[xb]:
            hits = [x for x in carriers[xa] if y in mapping[frozenset({x})]]
            images.append(hits[0])
        bwd_mor[h] = fn_name(xb, xa, tuple(images))
    backward = contravariant_functor(
        algs_cat, sets_cat, alg_to_set, bwd_mor, name="atoms"
    )

    theta = NaturalTransformation(
        identity_functor(algs_cat),
        covariant_composite(forward, backward),
        {a: algs_cat.id_of(a) for a in alg_objs},
        name="theta",
    )
    theta_bar = NaturalTransformation(
        identity_functor(sets_cat),
        covariant_composite(backward, forward),
        {a: sets_cat.id_of(a) for a in set_objs},
        name="theta-bar",
    )
    eq = ContravariantEquivalence(
        forward, backward, theta, theta_bar, name="powerset-duality"
    )
    return PowersetDuality(sets_cat, algs_cat, eq)
