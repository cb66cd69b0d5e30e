"""Runtime knobs read from the environment.

CATMN_MAX_MORPHISMS bounds how large a category any operation will build or
accept (default 10000).
"""

from __future__ import annotations

import os

from .errors import SizeLimitError

DEFAULT_MORPHISM_LIMIT = 10_000


def morphism_limit() -> int:
    name = "CATMN_MAX_MORPHISMS"
    raw = os.environ.get(name)
    if raw is None:
        return DEFAULT_MORPHISM_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise SizeLimitError(f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise SizeLimitError(f"{name} must be positive, got {value}")
    return value
