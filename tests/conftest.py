"""Shared fixtures: the standing two-object example built once per session,
and a deterministic hypothesis profile."""

from pathlib import Path

import pytest
from hypothesis import settings

from catmn import (
    build_final_monad,
    build_initial_comonad,
    build_mn_equivalence,
    build_total_category,
    canonical_c2,
    make_mn_pair,
)

settings.register_profile("catmn", derandomize=True, deadline=None)
settings.load_profile("catmn")

FIXTURES = Path(__file__).parent / "fixtures"


# The session-scoped objects below are shared; tests must treat them as
# read-only and build their own copies before corrupting anything.


@pytest.fixture(scope="session")
def c2_spec():
    return canonical_c2()


@pytest.fixture(scope="session")
def c2_total(c2_spec):
    return build_total_category(c2_spec)


@pytest.fixture(scope="session")
def c2_monad(c2_total):
    return build_final_monad(c2_total)


@pytest.fixture(scope="session")
def c2_comonad(c2_total):
    return build_initial_comonad(c2_total)


@pytest.fixture(scope="session")
def c2_pair(c2_monad, c2_comonad):
    return make_mn_pair(c2_monad, c2_comonad)


@pytest.fixture(scope="session")
def c2_equivalence(c2_pair):
    return build_mn_equivalence(c2_pair)


@pytest.fixture
def fixtures_dir():
    return FIXTURES
