"""The theorem behind the whiskered checks, kept as the sweep it replaces.

Idempotence (eta N, N eta and their comonad duals), the M-N hypotheses
(N psi and M eta) and the transfer check read whiskered components straight
off the factors' tables and sweep no whiskered transformation for
naturality: a functor that preserves composition, whiskered on either side
with a natural transformation, gives a natural transformation (Mac Lane,
*CWM* II.5).  Here the full ``whisker_left``/``whisker_right`` is built and
swept for every factor pair those checks whisker, on every instance the
pipelines meet, and the sweep must come back empty.  The negative case shows
why the checks first read the functor's own report: without composition
preserved, the whiskering of a natural transformation need not be natural.
"""

from pathlib import Path

from test_acceptance import TRANSPORT_SEEDS, built

from catmn import (
    COMONAD,
    MONAD,
    Functor,
    MonadDatum,
    NaturalTransformation,
    build_final_monad,
    build_initial_comonad,
    build_total_category,
    check_idempotent,
    identity_functor,
    load_path,
    relabeled_opposite_equivalence,
    terminal_spec,
    transport_pair,
    validate_functor,
    validate_nat,
)
from helpers import idem_endo, identity_datum, orbit, whisker_left, whisker_right

CORPUS = Path(__file__).parent / "fixtures" / "corrupted"


def whiskerings(m, c):
    """Every whiskering of a factor pair the checks read: both for each
    datum's idempotence, then N(psi) and M(eta)."""
    N, eta, M, psi = m.functor, m.unit, c.functor, c.unit
    return {
        "unit-after-functor": whisker_right(eta, N),
        "functor-of-unit": whisker_left(N, eta),
        "counit-after-functor": whisker_right(psi, M),
        "functor-of-counit": whisker_left(M, psi),
        "monad-of-counit": whisker_left(N, psi),
        "comonad-of-unit": whisker_left(M, eta),
    }


def unnatural(name, m, c):
    """The whiskerings of ``(m, c)`` whose naturality sweep finds anything,
    after checking that the factors themselves are valid idempotent data."""
    assert check_idempotent(m).ok and check_idempotent(c).ok, name
    return [
        (name, label, v.render())
        for label, whiskered in whiskerings(m, c).items()
        for v in validate_nat(whiskered).violations
    ]


def orbit_reflection() -> MonadDatum:
    """The reflection of the orbit onto b: a goes to b along f, and the
    involution's orbit {f, f2} is read off as {id_b, e}."""
    c = orbit()
    N = Functor(
        c,
        c,
        {"a": "b", "b": "b"},
        {"id_a": "id_b", "id_b": "id_b", "e": "e", "f": "id_b", "f2": "e"},
        name="onto-b",
    )
    unit = NaturalTransformation(identity_functor(c), N, {"a": "f", "b": "id_b"})
    return MonadDatum(N, unit, MONAD)


def idem_endo_coreflection() -> MonadDatum:
    """Everything of idem-endo sent to a, with counit f at b: e absorbs f,
    so the counit is natural though e is not invertible."""
    c = idem_endo()
    M = Functor(
        c,
        c,
        {"a": "a", "b": "a"},
        {"id_a": "id_a", "id_b": "id_a", "e": "id_a", "f": "id_a"},
        name="onto-a",
    )
    counit = NaturalTransformation(M, identity_functor(c), {"a": "id_a", "b": "f"})
    return MonadDatum(M, counit, COMONAD)


def instances():
    """``(name, monad, comonad)`` for every family of instances."""
    term = build_total_category(terminal_spec())
    yield "terminal", build_final_monad(term), build_initial_comonad(term)
    for seed, (t, m, c) in built().items():
        yield f"seed {seed}", m, c
    for seed in TRANSPORT_SEEDS:
        t, m, c = built()[seed]
        r = transport_pair(relabeled_opposite_equivalence(t.total), m, c)
        yield f"induced seed {seed}", r.induced_monad, r.induced_comonad
    yield "orbit", orbit_reflection(), identity_datum(orbit(), COMONAD)
    yield "idem-endo", identity_datum(idem_endo(), MONAD), idem_endo_coreflection()


def test_canonical_c2_whiskerings_are_natural(c2_monad, c2_comonad):
    assert unnatural("canonical_c2", c2_monad, c2_comonad) == []


def test_every_pipeline_whiskering_is_natural():
    found, names = [], []
    for name, m, c in instances():
        names.append(name)
        found.extend(unnatural(name, m, c))
    assert found == []
    assert len(names) == 1 + len(built()) + len(TRANSPORT_SEEDS) + 2


def test_whiskering_a_crooked_functor_is_not_natural():
    """``crooked`` (functor_comp.cm) sends both f and f2 to f, so it breaks
    e . f = f2.  Whiskered with the natural alpha: 1 => twist of
    nat_component.cm, with components id_a and e, it fails the squares at f
    and f2: the theorem needs its functor to preserve composition."""
    crooked = next(a.value for a in load_path(CORPUS / "functor_comp.cm") if a.kind == "functor")
    twist = next(
        a.value
        for a in load_path(CORPUS / "nat_component.cm")
        if a.kind == "functor" and a.name == "twist"
    )
    alpha = NaturalTransformation(
        identity_functor(twist.source), twist, {"a": "id_a", "b": "e"}, name="alpha"
    )
    assert validate_nat(alpha).ok
    assert {v.rule for v in validate_functor(crooked).violations} == {"functor-composition"}
    report = validate_nat(whisker_left(crooked, alpha))
    assert {v.rule for v in report.violations} == {"naturality-square"}
    assert {v.subject for v in report.violations} == {("f",), ("f2",)}
