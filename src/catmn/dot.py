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
from .fibered import FiberedSpec, build_total_category, collapse
from .monads import COMONAD, MONAD, fixed_objects


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
    """The total category of a spec with fixed-subcategory styling, each
    side styled from its :func:`~catmn.fibered.collapse` walk.

    A side is left unstyled when its walk gives no datum: a fiber lacks the
    extremal object, or a morphism has no unique lift.  The graph is still
    worth looking at then.
    """
    t = build_total_category(s)
    data = (collapse(t, side)[0] for side in (MONAD, COMONAD))
    rings, fills = ({} if d is None else fixed_objects(d) for d in data)
    return render_dot(t.total, double_ring=rings, filled=fills)
