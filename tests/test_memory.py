"""A guard on the traced peak memory of the two theorem pipelines.

Each pipeline's peak, as ``tracemalloc`` sees it, is divided by the memory
its total category holds, on the benchmark's artifacts rung
(``random_spec(3, SizeLimits(24, 96, 64))``, 3,883 morphisms).  Reading
hom-sets off the rows instead of keeping an index keyed by hom-set, and
handing the reflectors their datum's own tables, took ``transport`` from
3.73 to 3.01 times the total and ``mn-check`` from 1.94 to 1.54.  The
bounds sit between the two, so a second table of that size fails them.
"""

import gc
import io
import tracemalloc

import pytest

from catmn import (
    SizeLimits,
    build_final_monad,
    build_initial_comonad,
    build_total_category,
    fixed_subcategory,
    random_spec,
)
from catmn.cli import _spec_pipeline, _transport_pipeline

PEAK_PER_TOTAL = {"transport": 3.4, "mn-check": 1.75}


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
    t = build_total_category(rung)
    for build in (build_final_monad, build_initial_comonad):
        d = build(t)
        p = fixed_subcategory(d)
        assert p.reflector.mor_map is d.functor.mor_map
        assert p.reflector.obj_map is d.functor.obj_map
