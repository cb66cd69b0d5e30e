"""Transport of idempotent (co)monads across a contravariant equivalence.

A contravariant equivalence between categories C and D is a pair of
contravariant functors F: C -> D and G: D -> C with natural isomorphisms
theta: 1_D => F.G and theta_bar: 1_C => G.F (no coherence between the two is
imposed).  :func:`induce` carries an idempotent (co)monad datum on C to D,
where it lands on the other side: a monad (N, eta) induces the idempotent
comonad T = F.N.G with counit delta_x = inverse(theta_x) after F(eta_{Gx}),
and a comonad (M, psi) induces the monad S = F.M.G with unit
epsilon_x = F(psi_{Gx}) after theta_x.  When N(psi) is invertible so is
T(epsilon), and when M(eta) is invertible so is S(delta);
:func:`verify_transfer` re-proves both implications on the instance, on the
hypotheses :func:`~catmn.equivalence.mn_hypotheses` names for both pairs.

Two ready-made equivalences are provided: the mechanical relabeled-opposite
of any category, built on the category's own morphism ids so that both of
its functors are one shared table sending each id to itself, and a tiny
powerset duality between two concrete finite sets and their subset algebras,
both categories of maps between finite sets with every hom-set enumerated
exhaustively.  The induced functor F.N.G is gathered on ids, like every
composite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import Category, Mor, inverse_of, transposed
from .equivalence import mn_hypotheses
from .errors import InvalidArtifactError, MismatchError
from .functors import (
    Functor,
    NaturalTransformation,
    compose_functors,
    composite,
    identity_functor,
    iso_report,
    validate_contravariant,
)
from .monads import COMONAD, MONAD, MonadDatum, _expect, check_idempotent
from .report import ValidationReport, Violation, remembered, report_field


@dataclass(frozen=True)
class ContravariantEquivalence:
    """Contravariant functors both ways plus the two comparison
    isomorphisms."""

    forward: Functor  # F: C -> D, contravariant
    backward: Functor  # G: D -> C, contravariant
    theta: NaturalTransformation  # 1_D => F.G
    theta_bar: NaturalTransformation  # 1_C => G.F
    _report: ValidationReport | None = report_field()

    @property
    def source(self) -> Category:
        return self.forward.source

    @property
    def dual(self) -> Category:
        return self.forward.target


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
    fg = compose_functors(e.forward, e.backward)
    gf = compose_functors(e.backward, e.forward)

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

    induced_comonad: MonadDatum
    induced_monad: MonadDatum


def induce(e: ContravariantEquivalence, d: MonadDatum) -> MonadDatum:
    """The idempotent (co)monad ``d`` on the source carried to the dual
    side, where it is a datum of the other side: the functor F.(d.functor).G
    with the (co)unit formula of ``d``'s side (see the module docstring) at
    each dual object.  Raises when the equivalence or ``d`` fails its own
    validation."""
    side = d.side
    rep = validate_equivalence(e)
    if not rep.ok:
        raise InvalidArtifactError("invalid contravariant equivalence", rep)
    rep = check_idempotent(d)
    if not rep.ok:
        raise InvalidArtifactError(f"not an idempotent {side.monad}", rep)
    if d.category != e.source:
        raise MismatchError(f"{side.monad} does not live on the equivalence source")

    D, F, G = e.dual, e.forward, e.backward
    eta, theta = d.unit.components, e.theta.components

    def component(x: str) -> str:
        F_eta = F.on_mor(eta[G.on_obj(x)])
        if side.flip:  # a counit psi gives the unit F(psi_{Gx}) after theta_x
            return D.comp(F_eta, theta[x])
        # a unit eta gives the counit inverse(theta_x) after F(eta_{Gx})
        return D.comp(inverse_of(D, theta[x]), F_eta)

    functor = composite(f"induced[{d.functor.name}]", G, d.functor, F)
    induced = MONAD if side.flip else COMONAD
    nat = NaturalTransformation(
        *induced.orient(identity_functor(D), functor),
        {x: component(x) for x in D.objects},
        name=f"induced-{induced.unit}",
    )
    return MonadDatum(functor, nat, induced, name=f"induced[{d.name or d.functor.name}]")


def transport_pair(
    e: ContravariantEquivalence, m: MonadDatum, c: MonadDatum
) -> TransportResult:
    _expect(m, MONAD)
    _expect(c, COMONAD)
    return TransportResult(induce(e, m), induce(e, c))


def verify_transfer(m: MonadDatum, c: MonadDatum, r: TransportResult) -> ValidationReport:
    """Instance-level proof of the two transfer implications.

    If N(psi) is a natural isomorphism then T(epsilon) must be, and if
    M(eta) is then S(delta) must be.  A failed antecedent makes its
    implication vacuous; that is recorded as a note, not a violation.  The
    source whiskerings are natural when their factors are, so the source
    (co)monad's own (remembered) reports are read, and when either fails
    both implications are vacuous; only invertibility is then searched.
    Raises when ``m`` is no monad or ``c`` no comonad.
    """
    _expect(m, MONAD)
    _expect(c, COMONAD)
    C = m.category
    D = r.induced_comonad.category
    factors_ok = check_idempotent(m).ok and check_idempotent(c).ok
    violations: list[Violation] = []
    notes: list[str] = []

    # N(psi) carries over to T(epsilon), the induced pair's comonad-of-unit,
    # and M(eta) to S(delta), its monad-of-counit
    induced = mn_hypotheses(r.induced_monad, r.induced_comonad)[::-1]
    for (label, table), (dual_label, dual_table) in zip(mn_hypotheses(m, c), induced):
        invertible = factors_ok and all(inverse_of(C, u) is not None for u in table().values())
        if not invertible:
            notes.append(
                f"{label} is not a natural isomorphism on the "
                "source; its transfer implication is vacuous"
            )
            continue
        components = dual_table()
        for x in D.objects:
            if inverse_of(D, components[x]) is None:
                violations.append(
                    Violation(
                        f"transfer-{dual_label}",
                        (x,),
                        f"component {components[x]!r} is not invertible "
                        "although the source-side whiskering is",
                    )
                )

    return ValidationReport(violations, notes)


# ---------------------------------------------------------------------------
# ready-made equivalences


def _strict_equivalence(forward: Functor, backward: Functor) -> ContravariantEquivalence:
    """The equivalence of two functors whose round trips are identities on
    the nose: both comparisons have identity components."""
    comparisons = []
    for label, outer, inner in (("theta", forward, backward), ("theta-bar", backward, forward)):
        cat = inner.source
        comparisons.append(
            NaturalTransformation(
                identity_functor(cat),
                compose_functors(outer, inner),
                {x: cat.id_of(x) for x in cat.objects},
                name=label,
            )
        )
    return ContravariantEquivalence(forward, backward, *comparisons)


def relabeled_opposite_equivalence(c: Category) -> ContravariantEquivalence:
    """The tautological duality between a category and a relabeled copy of
    its opposite, whose every name is ``c``'s with ``~`` appended.

    The copy is built on ``c``'s own ids (:func:`~catmn.core.transposed`):
    its morphism ``i`` is ``c``'s morphism ``i`` relabeled, so its ids need
    not follow name order, and its rows are ``c``'s columns.  Both functors
    send each id to itself.  No opposite category is built.
    """
    suffix = "~"
    # a name in c's tables that is none of its objects or morphisms has
    # nothing to be relabeled to
    objs, mors = set(c.objects), c.mor_id
    unknown = [x for (g, f), h in c.stray.items() for x in (f, g, h) if x not in mors]
    if len(c.vertices) > len(c.objects):
        unknown += [x for m in c.morphisms.values() for x in (m.dst, m.src) if x not in objs]
    unknown += [
        x for pair in c.identity.items() for x, known in zip(pair, (objs, mors)) if x not in known
    ]
    if unknown:
        raise InvalidArtifactError(
            f"category {c.name!r} names {unknown[0]!r} in its tables, which is "
            "none of its objects or morphisms"
        )
    d = transposed(c, c.name + suffix + "op", suffix)
    ids = identity_functor(c).images
    forward = Functor(c, d, dict(zip(c.objects, d.objects)), name="relabel", images=ids)
    backward = Functor(d, c, dict(zip(d.objects, c.objects)), name="unrelabel", images=ids)
    return _strict_equivalence(forward, backward)


def _encode_subset(s: frozenset) -> str:
    return "e" if not s else "".join(str(x) for x in sorted(s))


def _concrete(name: str, domains: dict, arrows: dict) -> Category:
    """The category of the maps ``arrows``, each ``name: (a, b, mapping)``
    from ``domains[a]`` to ``domains[b]``: identities are the identity maps
    and composites are map composites, each looked up by its mapping."""
    by_map = {(a, b, tuple(f[x] for x in domains[a])): h for h, (a, b, f) in arrows.items()}
    identity = {a: by_map[(a, a, tuple(xs))] for a, xs in domains.items()}
    compose: dict[tuple[str, str], str] = {}
    for f, (a, b, fmap) in arrows.items():
        for g, (b2, c, gmap) in arrows.items():
            if b2 == b:
                compose[(g, f)] = by_map[(a, c, tuple(gmap[fmap[x]] for x in domains[a]))]
    mors = [Mor(h, a, b) for h, (a, b, _) in arrows.items()]
    return Category(name, domains, mors, identity, compose)


def powerset_duality_demo() -> ContravariantEquivalence:
    """Build the duality for the sets {1} and {1, 2} by exhaustion.

    Morphisms of the set side are all functions; morphisms of the algebra
    side are all maps between the powersets preserving empty, full, union,
    intersection, and complement (checked over every candidate).  Both
    sides are categories of maps between finite sets, built by
    :func:`_concrete`.  The contravariant functors are preimage and
    atom-tracing; both round trips land back on the nose, so the comparison
    isomorphisms are identities.
    """
    carriers = {"set1": (1,), "set12": (1, 2)}

    def fn_name(a: str, b: str, images: tuple) -> str:
        return f"fn|{a}|{b}|" + "".join(str(v) for v in images)

    functions: dict[str, tuple[str, str, dict]] = {}
    for a in carriers:
        for b in carriers:
            for images in itertools.product(carriers[b], repeat=len(carriers[a])):
                functions[fn_name(a, b, images)] = (a, b, dict(zip(carriers[a], images)))
    sets_cat = _concrete("finite-sets-demo", carriers, functions)

    algebras = {"alg1": carriers["set1"], "alg12": carriers["set12"]}
    subsets = {
        a: sorted(
            (
                frozenset(c)
                for r in range(len(algebras[a]) + 1)
                for c in itertools.combinations(algebras[a], r)
            ),
            key=_encode_subset,
        )
        for a in algebras
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

    homs: dict[str, tuple[str, str, dict]] = {}
    for a in subsets:
        for b in subsets:
            for images in itertools.product(subsets[b], repeat=len(subsets[a])):
                mapping = dict(zip(subsets[a], images))
                if is_hom(a, b, mapping):
                    homs[hom_name(a, b, mapping)] = (a, b, mapping)
    algs_cat = _concrete("powerset-algebras-demo", subsets, homs)

    set_to_alg = {"set1": "alg1", "set12": "alg12"}
    alg_to_set = {v: k for k, v in set_to_alg.items()}

    # preimage: a function X -> Y becomes P(Y) -> P(X)
    fwd_mor: dict[str, str] = {}
    for f, (a, b, fmap) in functions.items():
        mapping = {
            u: frozenset(x for x in carriers[a] if fmap[x] in u)
            for u in subsets[set_to_alg[b]]
        }
        fwd_mor[f] = hom_name(set_to_alg[b], set_to_alg[a], mapping)
    forward = Functor(
        sets_cat, algs_cat, set_to_alg, fwd_mor, name="powerset"
    )

    # atom tracing: an algebra map P(X) -> P(Y) becomes the function Y -> X
    bwd_mor: dict[str, str] = {}
    for h, (a, b, mapping) in homs.items():
        xa = alg_to_set[a]
        xb = alg_to_set[b]
        images = []
        for y in carriers[xb]:
            hits = [x for x in carriers[xa] if y in mapping[frozenset({x})]]
            images.append(hits[0])
        bwd_mor[h] = fn_name(xb, xa, tuple(images))
    backward = Functor(
        algs_cat, sets_cat, alg_to_set, bwd_mor, name="atoms"
    )
    return _strict_equivalence(forward, backward)
