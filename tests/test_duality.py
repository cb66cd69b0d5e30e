"""The comonad side of every monad/comonad pair, pinned two ways.

Golden texts fix the full rendered report (rules, subject order and
details) and the error messages of every comonad-side failure the other
test files reach.  The oracle tests compare each comonad-side check with
its monad-side twin run on the real opposite category, built by
:func:`opposite`, with the same tables.
"""

import dataclasses

import pytest
from test_corrupted import CORPUS, check_coreflection
from test_equivalence import one_object_equivalence
from test_fibered import antichain_total, top_collapsing_c2
from test_monads import ORBIT_OP_COREFLECTOR, coreflection_onto

from catmn import (
    COMONAD,
    MONAD,
    EngineError,
    FiberedSpec,
    Functor,
    MonadDatum,
    NaturalTransformation,
    ReflectionPackage,
    TotalCategory,
    TransportResult,
    build_final_monad,
    build_initial_comonad,
    build_total_category,
    canonical_c2,
    check_extension_property,
    check_idempotent,
    fixed_subcategory,
    full_subcategory,
    identity_functor,
    identity_nat,
    load_path,
    opposite,
    random_spec,
    relabeled_opposite_equivalence,
    render_spec,
    transport_pair,
    verify_adjoint_equivalence,
    verify_reflection,
    verify_transfer,
)
from catmn.cli import main
from helpers import (
    idem_endo,
    identity_datum,
    orbit,
    orbit_op,
    parallel_pair,
    predecessor_comonad,
    successor_monad,
    three_chain,
)


# ---------------------------------------------------------------------------
# golden texts


def _raised(fn) -> str:
    with pytest.raises(EngineError) as info:
        fn()
    return f"{type(info.value).__name__}: {info.value}"


def _not_endo():
    sub, inclusion = full_subcategory(three_chain(), ["x0"])
    return MonadDatum(inclusion, identity_nat(identity_functor(sub)), COMONAD)


def _crooked_counit_shape():
    c = orbit()
    tw = Functor(
        c,
        c,
        {"a": "a", "b": "b"},
        {"id_a": "id_a", "id_b": "id_b", "e": "e", "f": "f2", "f2": "f"},
    )
    return MonadDatum(identity_functor(c), identity_nat(tw), COMONAD)


def _swapped_orbit_op():
    g = ORBIT_OP_COREFLECTOR
    swapped = {**g["mor"], "f": "e", "f2": "id_b"}
    return coreflection_onto(orbit_op(), ["b"], g["obj"], swapped, g["counit"])


def _parallel_op():
    return coreflection_onto(
        opposite(parallel_pair()),
        ["t"],
        {"s": "t", "t": "t"},
        {"id_s": "id_t", "id_t": "id_t", "u": "id_t", "v": "id_t"},
        {"s": "u", "t": "id_t"},
    )


def _idem_endo_op():
    return coreflection_onto(
        opposite(idem_endo()),
        ["b"],
        {"a": "b", "b": "b"},
        {"id_a": "id_b", "id_b": "id_b", "e": "e", "f": "id_b"},
        {"a": "f", "b": "id_b"},
    )


def _gutted_orbit_op():
    g = ORBIT_OP_COREFLECTOR
    p = coreflection_onto(orbit_op(), ["b"], g["obj"], g["mor"], g["counit"])
    counit = NaturalTransformation(
        p.unit.source_functor, p.unit.target_functor, {"b": "id_b"}
    )
    return dataclasses.replace(p, unit=counit)


def _c2_transfer(monad_side: bool) -> str:
    t = build_total_category(canonical_c2())
    c = t.total
    if monad_side:
        m, w = build_final_monad(t), identity_datum(c, COMONAD)
    else:
        m, w = identity_datum(c, MONAD), build_initial_comonad(t)
    e = relabeled_opposite_equivalence(c)
    return verify_transfer(m, w, transport_pair(e, m, w)).render()


def _cli(capsys, tmp_path, spec) -> str:
    path = tmp_path / "spec.cm"
    path.write_text(render_spec(spec))
    code = main(["mn-check", str(path)])
    return f"exit {code}\n" + capsys.readouterr().out


GOLDEN_CASES = {
    "comonad-endofunctor": lambda: check_idempotent(_not_endo()).render(),
    "comonad-counit-shape": lambda: check_idempotent(_crooked_counit_shape()).render(),
    "comonad-idempotence": lambda: check_idempotent(predecessor_comonad()).render(),
    "fixed-subcategory-comonad": lambda: _raised(
        lambda: fixed_subcategory(predecessor_comonad())
    ),
    "coreflection-closed-form": lambda: verify_reflection(_swapped_orbit_op()).render(),
    "coreflection-no-mediator": lambda: verify_reflection(_parallel_op()).render(),
    "coreflection-ambiguous-mediator": lambda: verify_reflection(_idem_endo_op()).render(),
    "coreflection-data": lambda: verify_reflection(_gutted_orbit_op()).render(),
    "coreflector_swapped.cm": lambda: check_coreflection(
        load_path(CORPUS / "coreflector_swapped.cm")
    ).render(),
    "extension-initial-lift": lambda: check_extension_property(
        build_total_category(top_collapsing_c2())
    ).render(),
    "extension-no-extrema": lambda: check_extension_property(antichain_total()).render(),
    "build-initial-comonad-lift": lambda: _raised(
        lambda: build_initial_comonad(build_total_category(top_collapsing_c2()))
    ),
    "build-initial-comonad-extremum": lambda: _raised(
        lambda: build_initial_comonad(antichain_total())
    ),
    "transfer-vacuous-comonad-of-unit": lambda: _c2_transfer(monad_side=True),
    "transfer-vacuous-monad-of-counit": lambda: _c2_transfer(monad_side=False),
    "triangles": lambda: verify_adjoint_equivalence(
        one_object_equivalence(orbit(), ["b"], "e", "id_b")
    ).render(),
    "transfer-violations": lambda: verify_transfer(
        identity_datum(three_chain(), MONAD),
        identity_datum(three_chain(), COMONAD),
        TransportResult(predecessor_comonad(), successor_monad()),
    ).render(),
}

GOLDEN = {
    'build-initial-comonad-extremum': (
        "ExtremumError: fiber over 'b0' has no initial object"
    ),
    'build-initial-comonad-lift': (
        "LiftError: expected exactly one lift of morphism 'f|bot0|top1', found 0"
    ),
    'comonad-counit-shape': (
        'comonad-counit-shape [id[]]: counit must go from the comonad functor to the identity functor'
    ),
    'comonad-endofunctor': (
        'comonad-endofunctor [include(three-chain)]: functor is not an endofunctor'
    ),
    'comonad-idempotence': (
        "comonad-idempotence [counit-after-functor, x2]: whiskered component 'a01' is not invertible\n"
        "comonad-idempotence [functor-of-counit, x2]: whiskered component 'a01' is not invertible"
    ),
    'coreflection-ambiguous-mediator': (
        'coreflection-ambiguous-mediator [b, a, f]: 2 morphisms factor f through the counit: e, id_b'
    ),
    'coreflection-closed-form': (
        "coreflection-closed-form [b, a, f]: unique mediator is 'id_b' but the closed form gives 'e'\n"
        "coreflection-closed-form [b, a, f2]: unique mediator is 'e' but the closed form gives 'id_b'"
    ),
    'coreflection-data': (
        'coreflection-data [a]: counit or coreflector undefined here'
    ),
    'coreflection-no-mediator': (
        'coreflection-no-mediator [t, s, v]: no morphism into the coreflected object factors f through the counit'
    ),
    'coreflector_swapped.cm': (
        "coreflection-closed-form [b, a, f]: unique mediator is 'id_b' but the closed form gives 'e'\n"
        "coreflection-closed-form [b, a, f2]: unique mediator is 'e' but the closed form gives 'id_b'"
    ),
    'extension-initial-lift': (
        'extension-initial-lift [f|bot0|top1]: 0 lifts between the fiber bottoms\n'
        'extension-initial-lift [f|mid0|top1]: 0 lifts between the fiber bottoms\n'
        'extension-initial-lift [f|top0|top1]: 0 lifts between the fiber bottoms'
    ),
    'extension-no-extrema': (
        'extension-no-final [b0]: fiber has no final object\n'
        'extension-no-initial [b0]: fiber has no initial object'
    ),
    'fixed-subcategory-comonad': (
        'InvalidArtifactError: not an idempotent comonad\n'
        "comonad-idempotence [counit-after-functor, x2]: whiskered component 'a01' is not invertible\n"
        "comonad-idempotence [functor-of-counit, x2]: whiskered component 'a01' is not invertible"
    ),
    'transfer-vacuous-comonad-of-unit': (
        'note: comonad-of-unit is not a natural isomorphism on the source; its transfer implication is vacuous'
    ),
    'transfer-vacuous-monad-of-counit': (
        'note: monad-of-counit is not a natural isomorphism on the source; its transfer implication is vacuous'
    ),
    'transfer-violations': (
        "transfer-comonad-of-unit [x1]: component 'a01' is not invertible although the source-side whiskering is\n"
        "transfer-monad-of-counit [x1]: component 'a12' is not invertible although the source-side whiskering is"
    ),
    'triangles': (
        "triangle-backward [b]: backward(counit) . unit is 'e', expected identity 'id_b'\n"
        "triangle-forward [b]: counit . forward(unit) is 'e', expected identity 'id_b'"
    ),
}


GOLDEN_CLI = (
    'exit 1\n'
    'spec canonical_c2\n'
    'stage validate-spec: ok\n'
    'stage build-total: ok\n'
    'stage build-monad: ok\n'
    'stage build-comonad: FAIL\n'
    "  expected exactly one lift of morphism 'f|bot0|top1', found 0\n"
    '  extension-initial-lift [f|bot0|top1]: 0 lifts between the fiber bottoms\n'
    '  extension-initial-lift [f|mid0|top1]: 0 lifts between the fiber bottoms\n'
    '  extension-initial-lift [f|top0|top1]: 0 lifts between the fiber bottoms\n'
    'result: FAIL (stage build-comonad)\n'
)


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_comonad_side_text_is_pinned(case):
    assert GOLDEN_CASES[case]() == GOLDEN[case]


def test_comonad_build_failure_cli_text_is_pinned(capsys, tmp_path):
    assert _cli(capsys, tmp_path, top_collapsing_c2()) == GOLDEN_CLI


# ---------------------------------------------------------------------------
# oracle: the monad side on the real opposite


def _flip(F: Functor) -> Functor:
    """``F`` with the same tables, read as a functor between the opposites."""
    return Functor(opposite(F.source), opposite(F.target), F.obj_map, F.mor_map, name=F.name)


def _flip_nat(n: NaturalTransformation) -> NaturalTransformation:
    """A transformation S => T on C, read as T => S on the opposites."""
    return NaturalTransformation(
        _flip(n.target_functor), _flip(n.source_functor), n.components, name=n.name
    )


DUAL_WORDS = {
    "monad": "comonad",
    "reflection": "coreflection",
    "monad-unit-shape": "comonad-counit-shape",
    "unit-after-functor": "counit-after-functor",
    "functor-of-unit": "functor-of-counit",
    "extension-no-final": "extension-no-initial",
    "extension-final-lift": "extension-initial-lift",
}
DUAL_WORDS.update({v: k for k, v in DUAL_WORDS.items()})


def _dual(word: str) -> str:
    if word in DUAL_WORDS:
        return DUAL_WORDS[word]
    head, sep, tail = word.partition("-")
    return DUAL_WORDS.get(head, head) + sep + tail if head in ("monad", "reflection") else word


def _dual_findings(report, swap=False):
    """(rule, subject) pairs of a monad-side report in comonad words; with
    ``swap`` a three-witness subject ``(x, y, f)`` becomes ``(y, x, f)``."""
    found = set()
    for v in report.violations:
        subject = tuple(_dual(w) for w in v.subject)
        if swap and len(subject) == 3:
            subject = (subject[1], subject[0], subject[2])
        found.add((_dual(v.rule), subject))
    return found


def _findings(report):
    return {(v.rule, v.subject) for v in report.violations}


def _isolated_arrow(spec: FiberedSpec):
    """A non-identity base arrow no composite of non-identities passes
    through, into a fiber with more than one element, or None."""
    ident = set(spec.base.identity.values())
    touched = set()
    for (g, f), h in spec.base.compose.items():
        if g not in ident and f not in ident:
            touched.update((g, f, h))
    for name, m in spec.base.morphisms.items():
        if name not in ident | touched and len(spec.fibers[m.dst].elements) > 1:
            return name
    return None


def _bottom_breaking_mutant(spec: FiberedSpec, arrow: str) -> FiberedSpec:
    """Send every element along ``arrow`` to the top of its target fiber:
    still a valid spec, but the fiber-bottom comonad has no lifts."""
    top = spec.fibers[spec.base.morphisms[arrow].dst].top
    actions = {**spec.actions, arrow: {k: top for k in spec.actions[arrow]}}
    return FiberedSpec(f"{spec.name}-mutant", spec.base, spec.fibers, actions)


def _oracle_specs():
    specs = [canonical_c2()] + [random_spec(seed) for seed in range(50)]
    mutants = [
        _bottom_breaking_mutant(s, a) for s in specs[1:] if (a := _isolated_arrow(s))
    ]
    return specs + [top_collapsing_c2()] + mutants


def _bottom_tables(t: TotalCategory) -> MonadDatum:
    """The fiber-bottom comonad assembled here from its definition, not by
    the library builder.  A morphism without a unique lift is left out of
    the functor, so a mutant gives a datum that fails its check."""
    c = t.total
    base_id = t.projection.target.identity
    over = {x: t.object_decoding[x][0] for x in c.objects}

    def in_fiber(x, y):
        return [u for u in c.hom(x, y) if t.projection.mor_map[u] == base_id[over[x]]]

    # the fiber object reaching each object of its fiber by exactly one
    # in-fiber morphism
    bottoms = {
        over[x]: x
        for x in c.objects
        if all(len(in_fiber(x, y)) == 1 for y in c.objects if over[y] == over[x])
    }
    obj_map = {x: bottoms[over[x]] for x in c.objects}
    counit = {
        x: next(
            u for u in c.hom(obj_map[x], x) if t.projection.mor_map[u] == base_id[over[x]]
        )
        for x in c.objects
    }
    mor_map = {}
    for u, m in c.morphisms.items():
        want = c.compose[(u, counit[m.src])]
        lifts = [
            v
            for v in c.hom(obj_map[m.src], obj_map[m.dst])
            if c.compose[(counit[m.dst], v)] == want
        ]
        if len(lifts) == 1:
            mor_map[u] = lifts[0]
    M = Functor(c, c, obj_map, mor_map, name="bottoms")
    return MonadDatum(M, NaturalTransformation(M, identity_functor(c), counit), COMONAD)


def _opposite_total(t: TotalCategory) -> TotalCategory:
    p = t.projection
    return TotalCategory(opposite(t.total), _flip(p), t.object_decoding)


@pytest.fixture(scope="module")
def oracle_totals():
    return [build_total_category(s) for s in _oracle_specs()]


def test_oracle_covers_mutants(oracle_totals):
    broken = [t for t in oracle_totals if not check_extension_property(t).ok]
    assert len(oracle_totals) > 51 and len(broken) >= 20


def test_comonad_check_matches_monad_check_on_opposite(oracle_totals):
    data = [_bottom_tables(t) for t in oracle_totals] + [
        predecessor_comonad(),
        _crooked_counit_shape(),
        _not_endo(),
    ]
    failing = 0
    for d in data:
        comonad = check_idempotent(d)
        monad = check_idempotent(MonadDatum(_flip(d.functor), _flip_nat(d.unit), MONAD))
        assert comonad.ok == monad.ok
        assert {v.rule for v in comonad.violations} == {
            _dual(v.rule) for v in monad.violations
        }
        idem = {f for f in _findings(comonad) if f[0] == "comonad-idempotence"}
        assert idem == {f for f in _dual_findings(monad) if f[0] == "comonad-idempotence"}
        failing += not comonad.ok
    assert failing >= 20


def test_coreflection_sweep_matches_reflection_sweep_on_opposite(oracle_totals):
    packages = [
        fixed_subcategory(d)
        for d in map(_bottom_tables, oracle_totals)
        if check_idempotent(d).ok
    ]
    handmade = [_swapped_orbit_op(), _parallel_op(), _idem_endo_op(), _gutted_orbit_op()]
    for p in packages + handmade:
        mirror = ReflectionPackage(
            opposite(p.ambient),
            opposite(p.subcategory),
            _flip(p.inclusion),
            _flip(p.reflector),
            _flip_nat(p.unit),
            p.unit_inverses,
            MONAD,
        )
        got = verify_reflection(p)
        assert _findings(got) == _dual_findings(verify_reflection(mirror), swap=True)
    assert all(not verify_reflection(p).ok for p in handmade)


def _outcome(build, t):
    try:
        d = build(t)
    except EngineError as exc:
        return type(exc).__name__, str(exc)
    return d.functor.obj_map, d.functor.mor_map, d.unit.components


def test_fibered_comonad_is_the_monad_of_the_opposite_total(oracle_totals):
    for t in oracle_totals + [antichain_total()]:
        op = _opposite_total(t)
        got = _outcome(build_initial_comonad, t)
        want = _outcome(build_final_monad, op)
        if isinstance(want[0], str):
            want = (want[0], want[1].replace("final", "initial").replace("unit at", "counit at"))
        assert got == want
        assert _findings(check_extension_property(t)) == _dual_findings(
            check_extension_property(op)
        )
