"""Functors on ids against the name-level tables they replaced.

A functor holds its morphism table as ids over its source
(``Functor.images``), and every builder of the package gathers ids.  Here
every functor the pipelines build is recorded as it is made, with the
package function that made it, and compared with the dict by names that
that function made when functors were name-keyed dicts
(``helpers.functor_table_by_names``): on ``canonical_c2``, the totals of
``random_spec`` seeds 0-49, ``orbit`` and ``idem_endo``, and on every
functor file of the corrupted corpus.  For each one:

- ``dict(F.mor_map)`` equals that table;
- ``validate_functor`` and ``validate_contravariant`` give the reports they
  give on the functor built from the plain dict, and ``validate_nat`` gives
  the same on every transformation the pipelines make.

The relabeled dual shares its source's ids; its table is checked entry by
entry against the source's, transposed and relabeled by names.
"""

import io
import sys
from pathlib import Path

import pytest
from helpers import functor_table_by_names, idem_endo, identity_datum, orbit

from catmn import (
    COMONAD,
    MONAD,
    Functor,
    Mor,
    NaturalTransformation,
    build_total_category,
    canonical_c2,
    load_path,
    random_spec,
    relabeled_opposite_equivalence,
    transport_pair,
    validate_contravariant,
    validate_equivalence,
    validate_functor,
    validate_nat,
    verify_transfer,
)
from catmn.cli import _mn_pipeline, _Run, _spec_pipeline, _transport_pipeline

CORPUS = Path(__file__).parent / "fixtures" / "corrupted"


def _record(monkeypatch, run) -> tuple[list, list]:
    """Run ``run`` and return every functor made meanwhile, each with its
    name-level table, and every natural transformation made meanwhile."""
    functors, nats, refs = [], [], {}
    make_functor, make_nat = Functor.__init__, NaturalTransformation.__init__

    def functor(self, source, target, obj_map, mor_map=None, name="", *, images=None):
        make_functor(self, source, target, obj_map, mor_map, name, images=images)
        caller = sys._getframe(1)
        if images is None:  # given by names: the table is the dict given
            table = dict(mor_map or {})
        else:
            table = functor_table_by_names(caller.f_code.co_name, self, caller.f_locals, refs)
        refs[id(self)] = table
        functors.append((self, table))

    def nat(self, *args, **kwargs):
        make_nat(self, *args, **kwargs)
        nats.append(self)

    with monkeypatch.context() as m:
        m.setattr(Functor, "__init__", functor)
        m.setattr(NaturalTransformation, "__init__", nat)
        run()
    return functors, nats


def _assert_same_as_by_names(functors, nats) -> None:
    plain = {
        id(F): Functor(F.source, F.target, F.obj_map, table, F.name) for F, table in functors
    }
    for F, table in functors:
        assert dict(F.mor_map) == table, F.name
        P = plain[id(F)]
        for validate in (validate_functor, validate_contravariant):
            got, want = validate(F), validate(P)
            assert (got.render(), got.omitted) == (want.render(), want.omitted), F.name
    for alpha in nats:
        F, G = alpha.source_functor, alpha.target_functor
        P = NaturalTransformation(
            plain.get(id(F), F), plain.get(id(G), G), alpha.components, alpha.name
        )
        got, want = validate_nat(alpha), validate_nat(P)
        assert (got.render(), got.omitted) == (want.render(), want.omitted), alpha.name


def _assert_dual_is_the_relabeled_transpose(c) -> None:
    """The dual's table, read entry by entry, is ``c``'s transposed with
    ``~`` added to every name."""
    d = relabeled_opposite_equivalence(c).dual
    want = {(f + "~", g + "~"): h + "~" for (g, f), h in c.compose.items()}
    assert len(d.compose) == len(want)
    for pair, h in want.items():
        assert d.compose[pair] == h, pair
    assert d.morphisms == {
        m.name + "~": Mor(m.name + "~", m.dst + "~", m.src + "~") for m in c.morphisms.values()
    }
    assert d.identity == {x + "~": m + "~" for x, m in c.identity.items()}


def _spec_runs(spec, modes):
    def run():
        assert _spec_pipeline(io.StringIO(), spec) == 0
        for mode in modes:
            assert _transport_pipeline(io.StringIO(), spec, mode) == 0

    return run


def _category_run(c):
    """The transport pipeline on a category: its relabeled duality, the
    identity (co)monads carried across it and the theorem chain on the
    induced pair."""

    def run():
        e = relabeled_opposite_equivalence(c)
        assert validate_equivalence(e).ok
        m, w = identity_datum(c, MONAD), identity_datum(c, COMONAD)
        r = transport_pair(e, m, w)
        assert verify_transfer(m, w, r).ok
        out = io.StringIO()
        assert _mn_pipeline(_Run(out), r.induced_monad, r.induced_comonad) is not None, out

    return run


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(
            _spec_runs(canonical_c2(), ("relabel-opposite", "powerset-duality-demo")),
            id="canonical_c2",
        ),
        *[
            pytest.param(_spec_runs(random_spec(seed), ("relabel-opposite",)), id=f"random-{seed}")
            for seed in range(50)
        ],
        pytest.param(_category_run(orbit()), id="orbit"),
        pytest.param(_category_run(idem_endo()), id="idem_endo"),
    ],
)
def test_pipeline_functors_match_their_name_level_tables(monkeypatch, run):
    functors, nats = _record(monkeypatch, run)
    builders = {F.name.split("[")[0] for F, _ in functors}
    assert {"relabel", "unrelabel", "1", "induced"} <= builders, builders
    _assert_same_as_by_names(functors, nats)


def test_corpus_functors_match_their_files(monkeypatch):
    for path in sorted(CORPUS.iterdir()):
        functors, nats = _record(monkeypatch, lambda: load_path(path))
        _assert_same_as_by_names(functors, nats)


@pytest.mark.parametrize("seed", range(50))
def test_dual_is_the_relabeled_transpose_of_random_totals(seed):
    _assert_dual_is_the_relabeled_transpose(build_total_category(random_spec(seed)).total)


@pytest.mark.parametrize(
    "c", [build_total_category(canonical_c2()).total, orbit(), idem_endo()], ids=lambda c: c.name
)
def test_dual_is_the_relabeled_transpose(c):
    _assert_dual_is_the_relabeled_transpose(c)
