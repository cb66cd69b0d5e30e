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

from .core import Category, Mor, inverse_of, transposing
from .errors import InvalidArtifactError, MismatchError
from .functors import (
    ContravariantFunctor,
    Functor,
    NaturalTransformation,
    composite_tables,
    contravariant_functor,
    identity_functor,
    iso_report,
    left_components,
    validate_contravariant,
)
from .monads import (
    COMONAD,
    MONAD,
    ComonadDatum,
    MonadDatum,
    Side,
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
        src, outer.target, *composite_tables(src, inner, outer), name=f"{outer.name}.{inner.name}"
    )


@remembered
def validate_equivalence(e: ContravariantEquivalence) -> ValidationReport:
    """Functor laws for both directions (on flipped views), shape and
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
        report = report.merged(iso_report(nat, "equivalence-comparison-iso", label))
    return report.merged(ValidationReport(violations))


@dataclass
class TransportResult:
    """The comonad and monad induced on the dual side."""

    induced_comonad: ComonadDatum
    induced_monad: MonadDatum


def _induce(e: ContravariantEquivalence, d, side: Side, check, component):
    """The datum ``d`` of ``side`` carried to the dual side: the functor
    F.(d.functor).G of the other side's type, with ``component(x)`` as its
    (co)unit at each dual object x.  Raises when the equivalence or ``d``
    fails its own validation."""
    rep = validate_equivalence(e)
    if not rep.ok:
        raise InvalidArtifactError("invalid contravariant equivalence", rep)
    rep = check(d)
    if not rep.ok:
        raise InvalidArtifactError(f"not an idempotent {side.monad}", rep)
    if d.category != e.source:
        raise MismatchError(f"{side.monad} does not live on the equivalence source")

    D = e.dual
    tables = composite_tables(D, e.backward, d.functor, e.forward)
    functor = Functor(D, D, *tables, name=f"induced[{d.functor.name}]")
    induced = COMONAD if side is MONAD else MONAD
    nat = NaturalTransformation(
        *induced.orient(identity_functor(D), functor),
        {x: component(x) for x in D.objects},
        name=f"induced-{induced.unit}",
    )
    return induced.datum(functor, nat, name=f"induced[{d.name or d.functor.name}]")


def induce_comonad(e: ContravariantEquivalence, m: MonadDatum) -> ComonadDatum:
    """Transport an idempotent monad on the source across the equivalence.

    Raises when the equivalence or the monad fails its own validation.
    """
    D, F, G = e.dual, e.forward, e.backward
    eta, theta = m.unit.components, e.theta.components

    def counit(x: str) -> str:
        return D.comp(inverse_of(D, theta[x]), F.on_mor(eta[G.on_obj(x)]))

    return _induce(e, m, MONAD, check_idempotent_monad, counit)


def induce_monad(e: ContravariantEquivalence, c: ComonadDatum) -> MonadDatum:
    """:func:`induce_comonad` for a comonad, whose induced unit is
    F(psi_{Gx}) after theta_x."""
    D, F, G = e.dual, e.forward, e.backward
    psi, theta = c.counit.components, e.theta.components

    def unit(x: str) -> str:
        return D.comp(F.on_mor(psi[G.on_obj(x)]), theta[x])

    return _induce(e, c, COMONAD, check_idempotent_comonad, unit)


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
    implication vacuous; that is recorded as a note, not a violation.  The
    source whiskerings are natural when their factors are, so the source
    (co)monad's own (remembered) reports are read, and when either fails
    both implications are vacuous; only invertibility is then searched.
    """
    C = m.category
    D = r.induced_comonad.category
    factors_ok = check_idempotent_monad(m).ok and check_idempotent_comonad(c).ok
    violations: list[Violation] = []
    notes: list[str] = []

    # per side: N(psi) or M(eta) on the source, then T(epsilon) or S(delta)
    halves = (
        (MONAD, COMONAD, (m.functor, c.counit), (r.induced_comonad.functor, r.induced_monad.unit)),
        (COMONAD, MONAD, (c.functor, m.unit), (r.induced_monad.functor, r.induced_comonad.counit)),
    )
    for side, other, source, induced in halves:
        invertible = factors_ok and all(
            inverse_of(C, m) is not None for m in left_components(*source).values()
        )
        if not invertible:
            notes.append(
                f"{side.monad}-of-{other.unit} is not a natural isomorphism on the "
                "source; its transfer implication is vacuous"
            )
            continue
        induced = left_components(*induced)
        for x in D.objects:
            if inverse_of(D, induced[x]) is None:
                violations.append(
                    Violation(
                        f"transfer-{other.monad}-of-{side.unit}",
                        (x,),
                        f"component {induced[x]!r} is not invertible "
                        "although the source-side whiskering is",
                    )
                )

    return ValidationReport(violations, notes)


# ---------------------------------------------------------------------------
# ready-made equivalences


def _strict_equivalence(
    forward: ContravariantFunctor, backward: ContravariantFunctor, name: str
) -> ContravariantEquivalence:
    """The equivalence of two functors whose round trips are identities on
    the nose: both comparisons have identity components."""
    comparisons = []
    for label, outer, inner in (("theta", forward, backward), ("theta-bar", backward, forward)):
        cat = inner.presented_source
        comparisons.append(
            NaturalTransformation(
                identity_functor(cat),
                covariant_composite(outer, inner),
                {x: cat.id_of(x) for x in cat.objects},
                name=label,
            )
        )
    return ContravariantEquivalence(forward, backward, *comparisons, name=name)


def relabeled_opposite_equivalence(c: Category, suffix: str = "~") -> ContravariantEquivalence:
    """The tautological duality between a category and a relabeled copy of
    its opposite.

    The copy is built straight from ``c``'s tables through one relabeling
    map for objects and one for morphisms, so each new name is made once and
    shared by every table that holds it; its rows are ``c``'s columns,
    carried through one permutation of the morphism ids.  No opposite
    category is built.
    """
    objs = {x: x + suffix for x in c.objects}
    mors = {f: f + suffix for f in c.morphisms}
    # an entry naming no morphism has nothing to be relabeled to
    unknown = [x for (g, f), h in c.stray.items() for x in (f, g, h) if x not in mors]
    try:
        if unknown:
            raise KeyError(unknown[0])
        d = Category(
            c.name + suffix + "op",
            objs.values(),
            [Mor(mors[m.name], objs[m.dst], objs[m.src]) for m in c.morphisms.values()],
            {objs[x]: mors[m] for x, m in c.identity.items()},
            fill=transposing(c, suffix),
        )
    except KeyError as exc:
        raise InvalidArtifactError(
            f"category {c.name!r} names {exc.args[0]!r} in its tables, which is "
            "none of its objects or morphisms"
        ) from None
    forward = ContravariantFunctor(c, d, objs, mors, name="relabel")
    backward = ContravariantFunctor(
        d,
        c,
        {y: x for x, y in objs.items()},
        {g: f for f, g in mors.items()},
        name="unrelabel",
    )
    return _strict_equivalence(forward, backward, f"relabel-op[{c.name}]")


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

    eq = _strict_equivalence(forward, backward, "powerset-duality")
    return PowersetDuality(sets_cat, algs_cat, eq)
