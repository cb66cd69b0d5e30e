"""Graphviz DOT emission for categories and fibered-spec total categories.

Output is byte-deterministic: nodes sorted by object name, edges sorted by
morphism name, identity morphisms omitted.  Node styling marks the two
fixed subcategories: a double ring (``peripheries=2``) for objects fixed by
the fiber-top monad, a filled node for objects fixed by the fiber-bottom
comonad.
"""

from __future__ import annotations

from typing import Iterable

from .core import Category
from .errors import EngineError
from .fibered import (
    FiberedSpec,
    build_final_monad,
    build_initial_comonad,
    build_total_category,
)
from .monads import fixed_objects


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _quote_all(names) -> list[str]:
    """:func:`_quote` of each of ``names``.  Escaping touches no newline, so
    the escaped names are the lines of the escaped text of all of them, one
    per line, unless a name holds a newline itself."""
    text = "\n".join(names).replace("\\", "\\\\").replace('"', '\\"')
    escaped = text.split("\n")
    if len(escaped) != len(names):
        return list(map(_quote, names))
    return [f'"{x}"' for x in escaped]


def render_dot(
    c: Category,
    double_ring: Iterable[str] = (),
    filled: Iterable[str] = (),
) -> str:
    """The category as a DOT digraph; styling sets are object names."""
    rings = set(double_ring)
    fills = set(filled)
    quoted = _quote_all(c.vertices)
    lines = [f"digraph {_quote(c.name)} {{", "  rankdir=LR;"]
    for x, q in zip(c.objects, quoted):
        attrs = []
        if x in rings:
            attrs.append("peripheries=2")
        if x in fills:
            attrs.append("style=filled")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {q}{suffix};")
    # ids follow name order; an identity is the loop its vertex names
    ident = c.ident
    lines += [
        f"  {quoted[s]} -> {quoted[d]} [label={label}];"
        for u, (label, s, d) in enumerate(zip(_quote_all(c.names), c.src, c.dst))
        if s != d or ident[s] != u
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_spec_dot(s: FiberedSpec) -> str:
    """The total category of a spec with fixed-subcategory styling.

    Falls back to an unstyled graph when a fiber lacks the extremal object
    a builder needs; the graph is still worth looking at then.
    """
    t = build_total_category(s)
    styles: list[dict[str, str]] = []
    for build in (build_final_monad, build_initial_comonad):
        try:
            styles.append(fixed_objects(build(t)))
        except EngineError:
            styles.append({})
    rings, fills = styles
    return render_dot(t.total, double_ring=rings, filled=fills)
