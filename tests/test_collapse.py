"""The fiber collapses on ids against the name-level search.

``helpers.collapse_by_names`` finds every unit and lift with hom-sets by
name and ``comp_or_none``; the collapse walk reads the total category's
rows instead.  Both must give the same object map, units, morphism map,
first error and extension report: on valid totals, on totals whose
collapses fail, on flipped totals, and on hand-built odd tables.  Each CLI
run that builds the collapses walks each side once.
"""

import pytest
from helpers import collapse_by_names, collapsed, extension_report, parallel_pair
from test_acceptance import LIMITS, SEEDS
from test_duality import _opposite_total, _oracle_specs
from test_fibered import antichain_total, top_collapsing_c2

import catmn.fibered
from catmn import (
    Category,
    ExtremumError,
    FiberedSpec,
    Functor,
    Mor,
    TotalCategory,
    build_total_category,
    canonical_c2,
    chain_poset,
    random_spec,
    render_spec,
)
from catmn.cli import main
from catmn.monads import COMONAD, MONAD
from catmn.report import ValidationReport

def assert_matches_the_search(t: TotalCategory) -> None:
    found = []
    for side in (MONAD, COMONAD):
        obj_map, units, mor_map, failures = collapse_by_names(t, side)
        # the reference recounts each unit, and never finds other than one:
        # the scan for an extremal object accepts a candidate only when each
        # fiber object enters it by exactly one in-fiber arrow, so the
        # builders take their units from that scan and have no count rule
        assert not [v for _, v in failures if v.rule.endswith("-count")]
        found += [v for _, v in failures]
        if failures:
            error = failures[0][0]
            with pytest.raises(type(error)) as exc:
                collapsed(t, side)
            assert str(exc.value) == str(error)
            continue
        datum = collapsed(t, side)
        unit = datum.unit
        assert datum.functor.obj_map == obj_map
        assert unit.components == units
        assert datum.functor.mor_map == mor_map
        # the id table the builder installs is the one the names give
        ids = t.total.mor_id
        assert datum.functor.images == tuple(ids.get(mor_map.get(u)) for u in t.total.names)
    want = ValidationReport(found)
    got = extension_report(t)
    assert (got.render(), got.omitted) == (want.render(), want.omitted)


def with_entries(t: TotalCategory, name: str, replace: dict) -> TotalCategory:
    """``t`` with its total category's compose entries overridden by
    ``replace``; an entry whose composite is no morphism stays stray."""
    c = t.total
    compose = {**dict(c.compose), **replace}
    total = Category(name, c.objects, c.morphisms.values(), c.identity, compose)
    p = t.projection
    projection = Functor(total, p.target, p.obj_map, p.mor_map, name=p.name)
    return TotalCategory(total, projection, t.object_decoding)


def parallel_total() -> TotalCategory:
    """The total category over two parallel base arrows u, v: s -> t, with
    the chain 0 < 1 over s and one element c over t.  Its hom-sets from
    s|1 to t|c have two morphisms, so two lifts can compete."""
    acts = {"0": "c", "1": "c"}
    spec = FiberedSpec(
        "parallel",
        parallel_pair(),
        {"s": chain_poset(["0", "1"]), "t": chain_poset(["c"])},
        {"id_s": {"0": "0", "1": "1"}, "id_t": {"c": "c"}, "u": acts, "v": acts},
    )
    return build_total_category(spec)


def idempotent_total() -> TotalCategory:
    """A two-object fiber over one base object with no arrow between its
    objects, where one object has an idempotent besides its identity, both
    over the base identity: that object is entered by as many in-fiber
    arrows as the fiber has objects, but not one from each."""
    base = antichain_total().projection.target
    ids = {"b0|p": "id_b0|p|p", "b0|q": "id_b0|q|q"}
    total = Category(
        "idempotent-total",
        list(ids),
        [Mor(m, x, x) for x, m in ids.items()] + [Mor("e", "b0|q", "b0|q")],
        ids,
        {(m, m): m for m in ids.values()}
        | {("e", "id_b0|q|q"): "e", ("id_b0|q|q", "e"): "e", ("e", "e"): "e"},
    )
    over = {m: "id_b0" for m in total.morphisms}
    projection = Functor(total, base, {x: "b0" for x in ids}, over, name="project(idempotent)")
    return TotalCategory(total, projection, {"b0|p": ("b0", "p"), "b0|q": ("b0", "q")})


def misprojected_total() -> TotalCategory:
    """Two one-object fibers and an arrow between them that the projection
    sends to an identity: an arrow over the identity of b0 that starts
    outside b0's fiber, which the search for b0's final object ignores."""
    ids = {"b0": "id_b0", "b1": "id_b1"}
    base = Category("two", list(ids), [Mor(m, b, b) for b, m in ids.items()], ids, {(m, m): m for m in ids.values()})
    tids = {"b0|p": "id_b0|p|p", "b1|r": "id_b1|r|r"}
    total = Category(
        "misprojected-total",
        list(tids),
        [Mor(m, x, x) for x, m in tids.items()] + [Mor("x", "b1|r", "b0|p")],
        tids,
        {(m, m): m for m in tids.values()} | {("x", "id_b1|r|r"): "x", ("id_b0|p|p", "x"): "x"},
    )
    over = {"id_b0|p|p": "id_b0", "id_b1|r|r": "id_b1", "x": "id_b0"}
    projection = Functor(total, base, {"b0|p": "b0", "b1|r": "b1"}, over, name="project(two)")
    return TotalCategory(total, projection, {"b0|p": ("b0", "p"), "b1|r": ("b1", "r")})


def split_total() -> TotalCategory:
    """``top_collapsing_c2``'s total beside a third base object whose fiber
    is the antichain {p, q}: that fiber has no extremum on either side, and
    on the comonad side the three lifts of f fail as well."""
    t = build_total_category(top_collapsing_c2())
    c, p = t.total, t.projection
    base = Category(
        "c2-base-and-point",
        [*p.target.objects, "b2"],
        [*p.target.morphisms.values(), Mor("id_b2", "b2", "b2")],
        {**p.target.identity, "b2": "id_b2"},
        {**dict(p.target.compose), ("id_b2", "id_b2"): "id_b2"},
    )
    extra = {"b2|p": "id_b2|p|p", "b2|q": "id_b2|q|q"}
    total = Category(
        "split-total",
        [*c.objects, *extra],
        [*c.morphisms.values(), *(Mor(m, x, x) for x, m in extra.items())],
        {**c.identity, **extra},
        {**dict(c.compose), **{(m, m): m for m in extra.values()}},
    )
    projection = Functor(
        total,
        base,
        {**p.obj_map, **dict.fromkeys(extra, "b2")},
        {**dict(p.mor_map), **dict.fromkeys(extra.values(), "id_b2")},
        name="project(split)",
    )
    decoding = {**t.object_decoding, "b2|p": ("b2", "p"), "b2|q": ("b2", "q")}
    return TotalCategory(total, projection, decoding)


def odd_totals():
    """Totals with odd tables.  On the standing example: a composite with a
    unit named as no morphism, which empties its slot and sends the search
    through the stray table (once on each side); an entry for a pair that
    is not composable; an entry naming no morphism; a composite with a unit
    of the wrong type; a unit after a morphism that is some other
    morphism's composite with a unit, but not of the type of the lift; and
    a unit whose composite with a morphism has the type of the lift,
    though the morphism has not.  On the parallel total: two morphisms with
    one composite with the unit.  And :func:`split_total`, where a fiber
    without an extremum sits beside lifts that fail."""
    t = build_total_category(canonical_c2())
    unit = "id_b0|bot0|top0"  # the unit at b0|bot0
    counit = "id_b1|bot1|top1"  # the counit at b1|top1, the unit at b1|bot1
    return [
        with_entries(t, "ghost-after-unit", {("f|top0|top1", unit): "ghost"}),
        with_entries(t, "ghost-before-counit", {(counit, "f|bot0|bot1"): "ghost"}),
        with_entries(t, "ill-typed", {("f|top0|top1", "f|bot0|bot1"): "f|bot0|top1"}),
        with_entries(t, "unknown", {("zz", unit): unit}),
        with_entries(t, "wrong-but-typed", {("f|top0|top1", unit): "f|bot0|bot1"}),
        with_entries(t, "target-side-elsewhere", {(counit, "f|bot0|bot1"): unit}),
        with_entries(
            t,
            "candidate-composite-elsewhere",
            {("id_b0|top0|top0", unit): "f|bot0|top1", ("f|top0|top1", unit): "f|mid0|top1"},
        ),
        with_entries(parallel_total(), "one-composite", {("v|1|c", "id_s|0|1"): "u|0|c"}),
        split_total(),
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_acceptance_seeds(seed):
    assert_matches_the_search(build_total_category(random_spec(seed, LIMITS)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_total_category(top_collapsing_c2()),
        antichain_total,
        idempotent_total,
        misprojected_total,
    ],
    ids=["top_collapsing_c2", "antichain_total", "idempotent_total", "misprojected_total"],
)
def test_failing_and_hand_built_totals(build):
    assert_matches_the_search(build())


def test_flipped_totals():
    for s in _oracle_specs():
        assert_matches_the_search(_opposite_total(build_total_category(s)))


@pytest.mark.parametrize("t", odd_totals(), ids=lambda t: t.total.name)
def test_totals_with_odd_tables(t):
    assert_matches_the_search(t)


def test_the_odd_tables_reach_both_outcomes():
    # some odd case still collapses and some does not, so both the built
    # maps and the raised errors are compared above
    assert sum(bool(t.total.stray) for t in odd_totals()) == 4
    outcomes = {
        bool(collapse_by_names(t, side)[3]) for t in odd_totals() for side in (MONAD, COMONAD)
    }
    assert outcomes == {True, False}


def test_a_missing_extremum_is_raised_before_failing_lifts():
    # the lifts of f come first in id order, and the fiber over b2 last in
    # base order, but the walk scans every fiber before it lifts
    t = split_total()
    for side in (MONAD, COMONAD):
        with pytest.raises(ExtremumError, match=f"'b2' has no {side.final} object"):
            collapsed(t, side)
    assert extension_report(t).render().splitlines() == [
        "extension-initial-lift [f|bot0|top1]: 0 lifts between the fiber bottoms",
        "extension-initial-lift [f|mid0|top1]: 0 lifts between the fiber bottoms",
        "extension-initial-lift [f|top0|top1]: 0 lifts between the fiber bottoms",
        "extension-no-final [b2]: fiber has no final object",
        "extension-no-initial [b2]: fiber has no initial object",
    ]


@pytest.mark.parametrize("command", ["mn-check", "transport", "export-dot"])
@pytest.mark.parametrize("spec", [canonical_c2, top_collapsing_c2])
def test_each_run_walks_each_side_once(monkeypatch, tmp_path, capsys, spec, command):
    """One lift extension per side per run, on a spec whose collapses both
    build and on one whose comonad fails and is diagnosed."""
    walks = []
    from_units = catmn.fibered.from_units

    def counted(cat, side, *rest):
        walks.append(side.monad)
        return from_units(cat, side, *rest)

    monkeypatch.setattr(catmn.fibered, "from_units", counted)
    path = tmp_path / "spec.cm"
    path.write_text(render_spec(spec()))
    dot = ["--out", str(tmp_path / "out.dot")] if command == "export-dot" else []
    code = main([command, str(path), *dot])
    broken = spec is top_collapsing_c2 and command != "export-dot"
    assert (code, "build-comonad: FAIL" in capsys.readouterr().out) == (int(broken), broken)
    assert sorted(walks) == ["comonad", "monad"]
