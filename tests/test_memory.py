"""A guard on the traced peak memory of the two theorem pipelines.

Each pipeline's peak, as ``tracemalloc`` sees it, is divided by the memory
its total category holds, on the benchmark's artifacts rung
(``random_spec(3, SizeLimits(24, 96, 64))``, 3,883 morphisms).  Reading
hom-sets off the rows instead of keeping an index keyed by hom-set, and
handing the reflectors their datum's own tables, took ``transport`` from
3.73 to 3.01 times the total and ``mn-check`` from 1.94 to 1.54.  Holding
each functor's morphism table as ids and building the relabeled dual on its
source's ids then took ``transport`` to 2.18.  The bounds sit between the
figures before and after, so a second table of that size fails them.
"""

import gc
import io
import tracemalloc

import pytest

from helpers import collapsed

from catmn import (
    COMONAD,
    MONAD,
    Category,
    Functor,
    SizeLimits,
    build_total_category,
    fixed_subcategory,
    random_spec,
)
from catmn.cli import _spec_pipeline, _transport_pipeline

PEAK_PER_TOTAL = {"transport": 2.6, "mn-check": 1.75}


@pytest.fixture(scope="module")
def rung():
    return random_spec(3, SizeLimits(24, 96, 64))


def _traced_peak(fn) -> tuple[int, object]:
    """Bytes allocated at ``fn``'s peak beyond what was live before it, and
    what it returned."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = fn()
        return tracemalloc.get_traced_memory()[1] - base, value
    finally:
        tracemalloc.stop()


def _held(fn) -> int:
    """Bytes still allocated while ``fn``'s result is alive."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = fn()
        held = tracemalloc.get_traced_memory()[0] - base
        del value
        return held
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "command, pipeline", [("transport", _transport_pipeline), ("mn-check", _spec_pipeline)]
)
def test_pipeline_peak_stays_within_its_multiple_of_the_total(rung, command, pipeline):
    total = _held(lambda: build_total_category(rung))
    out = io.StringIO()
    peak, code = _traced_peak(lambda: pipeline(out, rung))
    assert code == 0, out.getvalue()
    assert peak / total <= PEAK_PER_TOTAL[command], (command, peak, total)


def test_reflectors_share_their_datum_tables(rung):
    """A reflector's object table is its datum's own, and its id table is
    the datum's read in the subcategory's ids: through the inclusion each
    entry is the datum's entry, the same int."""
    t = build_total_category(rung)
    for side in (MONAD, COMONAD):
        d = collapsed(t, side)
        p = fixed_subcategory(d)
        assert p.reflector.obj_map is d.functor.obj_map
        back, table = p.inclusion.images, p.reflector.images
        assert len(table) == len(d.functor.images) and not p.reflector.stray
        assert all(back[i] is j for i, j in zip(table, d.functor.images))


def test_transport_leaves_no_cyclic_tables(rung):
    """Every category and functor a ``transport`` run drops is freed by
    reference counting alone: none of them is cyclic garbage that holds its
    tables until a full collection."""
    gc.collect()
    gc.disable()
    try:
        code = _transport_pipeline(io.StringIO(), rung)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = [type(o).__name__ for o in gc.garbage if isinstance(o, (Category, Functor))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert code == 0
    assert cyclic == []
