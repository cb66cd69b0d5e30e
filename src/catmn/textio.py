"""Plain-text and JSON serialization of the engine's artifacts.

The text format is line oriented and diffable.  A file is a sequence of
blocks, each closed by ``END``:

    CATEGORY <name>             FUNCTOR <name>: <srccat> -> <dstcat>
      OBJECTS                     OBJMAP
        a b                         a -> Fa
      MORPHISMS                   MORMAP
        f: a -> b                   f -> Ff
      IDENTITIES                END
        a: id_a
      COMPOSE                   NAT <name>: <F> => <G>
        g o f = h                 COMPONENTS
    END                             x: m
                                END
    SPEC <name>
      BASE
        ...category sections...
      FIBER <b>
        ELEMENTS k0 k1
        BOTTOM k0
        TOP k1
        LEQ k0 k1
      ACTION <f>
        k0 -> j0
    END

Blank lines and ``#`` comment lines are ignored; indentation is free on
input and canonical on output.  Composition entries forced by the identity
laws or by a singleton hom-set may be omitted and are completed at load;
the canonical form omits exactly those, plus identity-map actions of
identity morphisms, and writes fiber orders as their transitive reduction
(orders are always closed under reflexivity and transitivity at load).  In
a ``NAT`` header a functor is referenced by name or as ``id(<category>)``.

A ``.json`` encoding mirrors the text format one to one: the same data,
same omissions, wrapped as ``{"artifacts": [...]}``.  Loading either form
never validates the mathematics; corrupted artifacts load fine and are
caught by the validators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat

from .config import morphism_limit
from .core import Category, Mor, _gather, validate_category
from .errors import InvalidArtifactError, ParseError, SizeLimitError
from .fibered import FiberedSpec, FiberPoset, poset_from_pairs, validate_spec
from .functors import (
    Functor,
    NaturalTransformation,
    identity_functor,
    validate_functor,
    validate_nat,
)


@dataclass
class LoadedArtifact:
    kind: str  # "category" | "functor" | "nat" | "spec"
    name: str
    value: object


# ---------------------------------------------------------------------------
# documents: the common shape behind both encodings


def _completing(entries: dict[tuple[str, str], str]):
    """A ``fill`` writing ``entries`` over the rows :func:`_derived_rows`
    gives.  Pairs that stay underdetermined are left for the validator."""
    return lambda c: c.table_of(entries, _derived_rows(c))


def _derived_rows(c: Category) -> list[list]:
    """The completion rules, a row at a time.  At each slot of ``f``'s row
    they give ``g`` after ``f`` as ``g`` where ``f`` is an identity, else as
    ``f`` where ``g`` is one, else as the sole morphism from ``f``'s source
    to ``g``'s target, or None."""
    src, dst, out, pos = c.src, c.dst, c.out, c.pos
    # each vertex's identity, where that is a loop at the vertex
    loops = {x: i for x, i in enumerate(c.ident) if type(i) is int and src[i] == x == dst[i]}
    # sole[a][b]: the one morphism from vertex a to vertex b, or None
    sole: list[dict] = [{} for _ in c.vertices]
    for f, a, b in zip(c.mor_id.values(), src, dst):
        sole[a][b] = None if b in sole[a] else f
    ends = [_gather(leaving)(dst) if leaving else () for leaving in out]
    rows = []
    # ids from mor_id, so every id stored is the shared one
    for f, a, x in zip(c.mor_id.values(), src, dst):
        if loops.get(a) == f:
            rows.append(list(out[x]))
            continue
        rows.append(list(map(sole[a].get, ends[x])))
        if x in loops:
            rows[-1][pos[loops[x]]] = f
    return rows


def _nonderivable_entries(c: Category) -> list[tuple[str, str, str]]:
    """The compose entries the completion rules cannot reconstruct, and
    every stray entry, sorted: exactly what the canonical form writes out.
    The loader completes row slots only, so no stray entry is derivable."""
    name_of = c.name_of
    keep = [
        (name_of(g), name_of(f), name_of(h))
        for f, (d, row, derived) in enumerate(zip(c.dst, c.rows, _derived_rows(c)))
        if list(row) != derived
        for g, h, derived_h in zip(c.out[d], row, derived)
        if h is not None and h != derived_h
    ]
    return sorted(keep + [(g, f, h) for (g, f), h in c.stray.items()])


def _category_sections_doc(c: Category) -> dict:
    return {
        "objects": list(c.objects),
        "morphisms": [
            {"name": m.name, "src": m.src, "dst": m.dst}
            for m in c.morphisms.values()
        ],
        "identities": dict(c.identity),
        "compose": [list(e) for e in _nonderivable_entries(c)],
    }


def _reduction_pairs(p: FiberPoset) -> list[tuple[str, str]]:
    """The Hasse diagram of ``p``: each strict pair (a, b) with no element
    strictly between, or every strict pair when some two elements are below
    each other, since a reduction would lose the cycle."""
    up, down = p.up, p.down
    strict = sorted((a, b) for a, above in up.items() for b in above if a != b)
    if any(above & down[a] - {a} for a, above in up.items()):
        return strict
    elems = set(p.elements)
    return [(a, b) for a, b in strict if up[a] & down[b] & elems <= {a, b}]


def _identity_map(p: FiberPoset) -> dict[str, str]:
    return {k: k for k in p.elements}


def artifact_doc(kind: str, name: str, value) -> dict:
    """The JSON-ready document for one artifact; also what the text
    renderer walks."""
    if kind == "category":
        doc = {"kind": "category", "name": name}
        doc.update(_category_sections_doc(value))
        return doc
    if kind == "spec":
        s: FiberedSpec = value
        fibers = {
            b: {
                "elements": list(p.elements),
                "bottom": p.bottom,
                "top": p.top,
                "leq": [list(e) for e in _reduction_pairs(p)],
            }
            for b, p in sorted(s.fibers.items())
        }
        actions = {}
        for f in sorted(s.actions):
            act = s.actions[f]
            if (
                s.base.is_identity_name(f)
                and s.base.morphisms[f].src in s.fibers
                and act == _identity_map(s.fibers[s.base.morphisms[f].src])
            ):
                continue
            actions[f] = {k: act[k] for k in sorted(act)}
        return {
            "kind": "spec",
            "name": name,
            "base": _category_sections_doc(s.base),
            "fibers": fibers,
            "actions": actions,
        }
    if kind == "functor":
        F: Functor = value
        return {
            "kind": "functor",
            "name": name,
            "source": F.source.name,
            "target": F.target.name,
            "objmap": {x: F.obj_map[x] for x in sorted(F.obj_map)},
            "mormap": {f: F.mor_map[f] for f in sorted(F.mor_map)},
        }
    if kind == "nat":
        alpha: NaturalTransformation = value
        return {
            "kind": "nat",
            "name": name,
            "source": _functor_ref(alpha.source_functor),
            "target": _functor_ref(alpha.target_functor),
            "components": {
                x: alpha.components[x] for x in sorted(alpha.components)
            },
        }
    raise InvalidArtifactError(f"unknown artifact kind {kind!r}")


def _functor_ref(F: Functor) -> str:
    if F == identity_functor(F.source):
        return f"id({F.source.name})"
    if not F.name:
        raise InvalidArtifactError(
            "cannot serialize a reference to an unnamed functor"
        )
    return F.name


# ---------------------------------------------------------------------------
# text rendering


def _render_category_sections(doc: dict, depth: int) -> list[str]:
    pad = "  " * depth
    pad2 = "  " * (depth + 1)
    lines = [f"{pad}OBJECTS"]
    if doc["objects"]:
        lines.append(pad2 + " ".join(doc["objects"]))
    lines.append(f"{pad}MORPHISMS")
    lines.extend(
        f"{pad2}{m['name']}: {m['src']} -> {m['dst']}" for m in doc["morphisms"]
    )
    lines.append(f"{pad}IDENTITIES")
    lines.extend(
        f"{pad2}{x}: {doc['identities'][x]}" for x in sorted(doc["identities"])
    )
    lines.append(f"{pad}COMPOSE")
    lines.extend(f"{pad2}{g} o {f} = {h}" for g, f, h in doc["compose"])
    return lines


def render_block(doc: dict) -> str:
    kind = doc["kind"]
    lines: list[str] = []
    if kind == "category":
        lines.append(f"CATEGORY {doc['name']}")
        lines.extend(_render_category_sections(doc, 1))
    elif kind == "spec":
        lines.append(f"SPEC {doc['name']}")
        lines.append("  BASE")
        lines.extend(_render_category_sections(doc["base"], 2))
        for b in sorted(doc["fibers"]):
            fib = doc["fibers"][b]
            lines.append(f"  FIBER {b}")
            lines.append("    ELEMENTS " + " ".join(fib["elements"]))
            lines.append(f"    BOTTOM {fib['bottom']}")
            lines.append(f"    TOP {fib['top']}")
            lines.extend(f"    LEQ {a} {b2}" for a, b2 in fib["leq"])
        for f in sorted(doc["actions"]):
            lines.append(f"  ACTION {f}")
            act = doc["actions"][f]
            lines.extend(f"    {k} -> {act[k]}" for k in sorted(act))
    elif kind == "functor":
        lines.append(f"FUNCTOR {doc['name']}: {doc['source']} -> {doc['target']}")
        for key in ("objmap", "mormap"):
            lines.append("  " + key.upper())
            lines.extend(f"    {x} -> {y}" for x, y in sorted(doc[key].items()))
    elif kind == "nat":
        lines.append(f"NAT {doc['name']}: {doc['source']} => {doc['target']}")
        lines.append("  COMPONENTS")
        comp = doc["components"]
        lines.extend(f"    {x}: {comp[x]}" for x in sorted(comp))
    else:
        raise InvalidArtifactError(f"unknown artifact kind {kind!r}")
    lines.append("END")
    return "\n".join(lines)


def render_artifacts(artifacts: list[LoadedArtifact]) -> str:
    blocks = [render_block(artifact_doc(a.kind, a.name, a.value)) for a in artifacts]
    return "\n\n".join(blocks) + "\n"


def render_json(artifacts: list[LoadedArtifact]) -> str:
    docs = [artifact_doc(a.kind, a.name, a.value) for a in artifacts]
    return json.dumps({"artifacts": docs}, indent=2, sort_keys=True) + "\n"


def render_category(c: Category) -> str:
    return render_artifacts([LoadedArtifact("category", c.name, c)])


def render_spec(s: FiberedSpec) -> str:
    return render_artifacts([LoadedArtifact("spec", s.name, s)])


# ---------------------------------------------------------------------------
# text parsing


class _Cursor:
    def __init__(self, text: str, filename: str):
        self.filename = filename
        # (line number, stripped line) of each line that is not blank or a comment
        stripped = enumerate(map(str.strip, text.splitlines()), start=1)
        self.lines = [(i, line) for i, line in stripped if line and line[0] != "#"]
        self.pos = 0
        # where a file that ends too early is reported: at its last line
        self.eof_line = self.lines[-1][0] if self.lines else 1

    def next(self):
        if self.pos == len(self.lines):
            raise self.error("unexpected end of file", self.eof_line)
        self.pos += 1
        return self.lines[self.pos - 1]

    def error(self, message: str, line: int) -> ParseError:
        return ParseError(message, self.filename, line)


def _names(values: list) -> bool:
    """Whether every item of ``values`` is a name: a non-empty string with
    no whitespace.  One C-level pass: joined by spaces and split at
    whitespace, names and only names come back as they were."""
    try:
        return " ".join(values).split() == values
    except TypeError:  # an item that is no string
        return False


def _split_arrow(text: str, sep: str, lineno: int, cur: _Cursor) -> tuple[str, str]:
    parts = text.split(sep)
    if len(parts) != 2:
        raise cur.error(f"expected exactly one {sep!r}", lineno)
    a, b = parts[0].strip(), parts[1].strip()
    if not _names([a, b]):
        raise cur.error(f"malformed {sep!r} entry", lineno)
    return a, b


def _split_colon(text: str, lineno: int, cur: _Cursor) -> tuple[str, str]:
    head, sep, tail = text.partition(":")
    if not sep:
        raise cur.error("expected ':'", lineno)
    return head.strip(), tail.strip()


def _named_arrow(line: str, tokens: list[str], lineno: int, cur: _Cursor, what: str, sep: str):
    """A ``name: src <sep> dst`` line as its three names, read off ``tokens``
    if canonical."""
    if len(tokens) == 4 and tokens[2] == sep and line.count(sep) == 1:
        head = tokens[0]
        if head.find(":") == len(head) - 1 > 0:
            return head[:-1], tokens[1], tokens[3]
    name, rest = _split_colon(line, lineno, cur)
    src, dst = _split_arrow(rest, sep, lineno, cur)
    if not _names([name]):
        raise cur.error(f"malformed {what} name", lineno)
    return name, src, dst


# The entry readers.  Each is called as ``read(into, line, tokens, lineno,
# cur)`` and stores one entry line in ``into``, its section's container.


def _unexpected(message, line, tokens, lineno, cur):
    """The reader ahead of a block's first header, where no line belongs."""
    raise cur.error(message.format(line), lineno)


def _objects_entry(objects, line, tokens, lineno, cur):
    objects.extend(tokens)


def _morphism_entry(morphisms, line, tokens, lineno, cur):
    name, src, dst = _named_arrow(line, tokens, lineno, cur, "morphism", "->")
    morphisms.append({"name": name, "src": src, "dst": dst})


def _colon_entry(what, into, line, tokens, lineno, cur):
    """An ``x: m`` line of an IDENTITIES or COMPONENTS section."""
    x, m = _split_colon(line, lineno, cur)
    if not _names([x, m]):
        raise cur.error(f"malformed {what} entry", lineno)
    into[x] = m


def _compose_entry(compose, line, tokens, lineno, cur):
    if len(tokens) != 5 or tokens[1] != "o" or tokens[3] != "=":
        raise cur.error("expected 'g o f = h'", lineno)
    compose.append([tokens[0], tokens[2], tokens[4]])


def _arrow_entry(into, line, tokens, lineno, cur):
    """An ``a -> b`` line of an OBJMAP, MORMAP or ACTION section, read off
    its tokens if canonical."""
    if len(tokens) == 3 and tokens[1] == "->" and line.count("->") == 1:
        into[tokens[0]] = tokens[2]
    else:
        a, b = _split_arrow(line, "->", lineno, cur)
        into[a] = b


# each FIBER directive's document key and number of tokens, None for any
_FIBER_DIRECTIVES = {
    "ELEMENTS": ("elements", None),
    "BOTTOM": ("bottom", 2),
    "TOP": ("top", 2),
    "LEQ": ("leq", 3),
}


def _fiber_entry(fib, line, tokens, lineno, cur):
    key, count = _FIBER_DIRECTIVES.get(tokens[0], (None, 0))
    if count != len(tokens) and count is not None:
        raise cur.error(f"unknown fiber directive {line!r}", lineno)
    if key == "elements":
        fib[key].extend(tokens[1:])
    elif key == "leq":
        fib[key].append(tokens[1:])
    else:
        fib[key] = tokens[1]


# each block body's sections: header line -> (document key, entry reader),
# or None for the line that ends the body
_CATEGORY_BODY = {
    "OBJECTS": ("objects", _objects_entry),
    "MORPHISMS": ("morphisms", _morphism_entry),
    "IDENTITIES": ("identities", partial(_colon_entry, "identity")),
    "COMPOSE": ("compose", _compose_entry),
}
_FUNCTOR_BODY = {
    "OBJMAP": ("objmap", _arrow_entry),
    "MORMAP": ("mormap", _arrow_entry),
    "END": None,
}
_NAT_BODY = {"COMPONENTS": ("components", partial(_colon_entry, "component")), "END": None}
# the first words that end a SPEC's BASE, FIBER and ACTION parts
_SPEC_PARTS = ("FIBER", "ACTION", "END")
# what each ``KEYWORD <name>`` header names
_ONE_NAME = {"CATEGORY": "name", "SPEC": "name", "FIBER": "base object", "ACTION": "morphism"}


def _sections(cur: _Cursor, doc, sections, stop, read, into) -> None:
    """Read a block's body up to the end of the file or the line that ends
    the body, which is left unread: one whose first word is in ``stop``, or
    one that ``sections`` maps to None.  A line it maps to ``(key, reader)``
    starts that section, whose container is ``doc[key]``; any other line
    goes to the current section's reader, which is ``read``, into ``into``,
    ahead of every header."""
    lines = cur.lines
    for i in range(cur.pos, len(lines)):
        lineno, line = lines[i]
        tokens = line.split()
        if tokens[0] in stop:
            break
        if line in sections:
            if sections[line] is None:
                break
            key, read = sections[line]
            into = doc[key]
        else:
            read(into, line, tokens, lineno, cur)
    else:
        i = len(lines)
    cur.pos = i


def _one_name(tokens: list[str], lineno: int, cur: _Cursor) -> str:
    if len(tokens) != 2:
        raise cur.error(f"expected '{tokens[0]} <{_ONE_NAME[tokens[0]]}>'", lineno)
    return tokens[1]


def _end(cur: _Cursor) -> None:
    lineno, line = cur.next()
    if line != "END":
        raise cur.error("expected END", lineno)


def _category_doc() -> dict:
    return {"objects": [], "morphisms": [], "identities": {}, "compose": []}


def _parse_spec_tail(cur: _Cursor) -> tuple[dict, dict]:
    fibers: dict[str, dict] = {}
    actions: dict[str, dict[str, str]] = {}
    while True:
        # a line whose first word is in _SPEC_PARTS: each part's reader
        # stops at no other, and next() raises at the end of the file
        lineno, line = cur.next()
        tokens = line.split()
        head = tokens[0]
        if head == "END":
            return fibers, actions
        x = _one_name(tokens, lineno, cur)
        if x in (fibers if head == "FIBER" else actions):
            raise cur.error(f"duplicate {head} block for {x!r}", lineno)
        if head == "ACTION":
            actions[x] = {}
            _sections(cur, None, (), _SPEC_PARTS, _arrow_entry, actions[x])
        else:
            fibers[x] = fib = {"elements": [], "bottom": None, "top": None, "leq": []}
            _sections(cur, None, (), _SPEC_PARTS, _fiber_entry, fib)
        if cur.pos == len(cur.lines):
            raise cur.error(f"unterminated {head} block", lineno)
        if head == "FIBER":
            for req in ("bottom", "top"):
                if fib[req] is None:
                    raise cur.error(f"fiber {x!r} lacks a {req.upper()} directive", lineno)


def _parse_blocks(cur: _Cursor) -> list[tuple[int, dict]]:
    """Each block's document, with the line number of its header."""
    docs: list[tuple[int, dict]] = []
    while cur.pos < len(cur.lines):
        lineno, line = cur.next()
        tokens = line.split()
        head, rest = tokens[0], line[len(tokens[0]) :].strip()
        if head == "CATEGORY":
            doc = {"kind": "category", "name": _one_name(tokens, lineno, cur), **_category_doc()}
            _sections(cur, doc, _CATEGORY_BODY, ("END",), _unexpected, "unexpected line {!r}")
            _end(cur)
        elif head == "SPEC":
            doc = {"kind": "spec", "name": _one_name(tokens, lineno, cur), "base": _category_doc()}
            blineno, bline = cur.next()
            if bline != "BASE":
                raise cur.error("a SPEC block must start with BASE", blineno)
            _sections(
                cur, doc["base"], _CATEGORY_BODY, _SPEC_PARTS, _unexpected, "unexpected line {!r}"
            )
            doc["fibers"], doc["actions"] = _parse_spec_tail(cur)
        elif head == "FUNCTOR":
            name, src, dst = _named_arrow(rest, tokens[1:], lineno, cur, "functor", "->")
            doc = {"kind": "functor", "name": name, "source": src, "target": dst}
            doc.update(objmap={}, mormap={})
            _sections(cur, doc, _FUNCTOR_BODY, (), _unexpected, "expected OBJMAP or MORMAP")
            _end(cur)
        elif head == "NAT":
            name, src, dst = _named_arrow(rest, tokens[1:], lineno, cur, "transformation", "=>")
            doc = {"kind": "nat", "name": name, "source": src, "target": dst, "components": {}}
            _sections(cur, doc, _NAT_BODY, (), _unexpected, "expected COMPONENTS")
            _end(cur)
        else:
            raise cur.error(f"expected CATEGORY, SPEC, FUNCTOR, or NAT, got {line!r}", lineno)
        docs.append((lineno, doc))
    return docs


# ---------------------------------------------------------------------------
# building artifacts from documents


def _build_category(doc: dict, name: str) -> Category:
    # each Mor made in C, as Mor._make makes it in Python
    mors = map(tuple.__new__, repeat(Mor), map(_gather(("name", "src", "dst")), doc["morphisms"]))
    identity = dict(doc["identities"])
    entries = {(g, f): h for g, f, h in doc["compose"]}
    return Category(name, doc["objects"], mors, identity, fill=_completing(entries))


def _build_spec(doc: dict) -> FiberedSpec:
    name = doc["name"]
    base = _build_category(doc["base"], f"{name}-base")
    fibers = {
        b: poset_from_pairs(
            fib["elements"],
            [tuple(p) for p in fib["leq"]],
            fib["bottom"],
            fib["top"],
        )
        for b, fib in doc["fibers"].items()
    }
    actions = {f: dict(m) for f, m in doc["actions"].items()}
    for b, idm in base.identity.items():
        if idm not in actions and b in fibers:
            mor = base.morphisms.get(idm)
            if mor is not None and mor.src == b and mor.dst == b:
                actions[idm] = _identity_map(fibers[b])
    return FiberedSpec(name, base, fibers, actions)


def _resolve_functor_ref(
    ref: str, namespace: dict, filename: str, lineno: int
) -> Functor:
    if ref.startswith("id(") and ref.endswith(")"):
        catname = ref[3:-1]
        cat = namespace["category"].get(catname)
        if cat is None:
            raise ParseError(f"unknown category {catname!r}", filename, lineno)
        return identity_functor(cat)
    F = namespace["functor"].get(ref)
    if F is None:
        raise ParseError(f"unknown functor {ref!r}", filename, lineno)
    return F


def _build_all(docs: list[tuple[int, dict]], filename: str) -> list[LoadedArtifact]:
    """Build each ``(line, doc)`` in turn; an error in a document, or a name
    an earlier document of its kind already took, is a :class:`ParseError`
    at its line.  A bad ``CATMN_MAX_MORPHISMS`` is no fault of any line: it
    raises before anything is built, unplaced."""
    morphism_limit()
    ns: dict[str, dict] = {"category": {}, "functor": {}, "nat": {}, "spec": {}}
    out: list[LoadedArtifact] = []
    for lineno, doc in docs:
        kind, name = doc["kind"], doc["name"]
        if kind in ("category", "spec"):
            try:
                value = _build_category(doc, name) if kind == "category" else _build_spec(doc)
            except (InvalidArtifactError, SizeLimitError) as exc:
                # a category with duplicate object or morphism names, or
                # over the morphism limit
                raise ParseError(str(exc), filename, lineno) from None
        elif kind == "functor":
            src = ns["category"].get(doc["source"])
            dst = ns["category"].get(doc["target"])
            if src is None:
                raise ParseError(f"unknown category {doc['source']!r}", filename, lineno)
            if dst is None:
                raise ParseError(f"unknown category {doc['target']!r}", filename, lineno)
            value = Functor(src, dst, dict(doc["objmap"]), dict(doc["mormap"]), name=name)
        elif kind == "nat":
            F = _resolve_functor_ref(doc["source"], ns, filename, lineno)
            G = _resolve_functor_ref(doc["target"], ns, filename, lineno)
            value = NaturalTransformation(F, G, dict(doc["components"]), name=name)
        else:
            raise ParseError(f"unknown artifact kind {kind!r}", filename, lineno)
        if name in ns[kind]:
            raise ParseError(f"duplicate {kind} name {name!r}", filename, lineno)
        ns[kind][name] = value
        out.append(LoadedArtifact(kind, name, value))
    return out


def parse_text(text: str, filename: str = "<input>"):
    cur = _Cursor(text, filename)
    if not cur.lines:
        raise ParseError("empty file: no artifact blocks", filename, 1)
    docs = _parse_blocks(cur)
    return _build_all(docs, filename)


# The shape of each JSON artifact, as ``artifact_doc`` writes it.  ``str`` is
# a string, ``_NAME`` a name (a string that :func:`_names` accepts), ``[x]``
# a list of x, ``(x, y, ...)`` a list of exactly those, a dict with the key
# ``"*"`` an object mapping names to its value, and any other dict an object
# that must carry every listed field.
_NAME = "<name>"
_CATEGORY_SHAPE = {
    "objects": [_NAME],
    "morphisms": [{"name": _NAME, "src": _NAME, "dst": _NAME}],
    "identities": {"*": _NAME},
    "compose": [(_NAME, _NAME, _NAME)],
}
_FIBER_SHAPE = {"elements": [_NAME], "bottom": _NAME, "top": _NAME, "leq": [(_NAME, _NAME)]}
_JSON_SHAPES = {
    "category": _CATEGORY_SHAPE,
    "spec": {
        "base": _CATEGORY_SHAPE,
        "fibers": {"*": _FIBER_SHAPE},
        "actions": {"*": {"*": _NAME}},
    },
    "functor": {"source": _NAME, "target": _NAME, "objmap": {"*": _NAME}, "mormap": {"*": _NAME}},
    "nat": {"source": _NAME, "target": _NAME, "components": {"*": _NAME}},
}


def _all_fit(items: list, shape) -> bool:
    """Whether every item fits ``shape``, when that is a name or a list or
    object of names, in a few C-level passes; False leaves it to the walk."""
    if shape is _NAME:
        return _names(items)
    if isinstance(shape, tuple) and all(s is _NAME for s in shape):
        typed = set(map(type, items)) <= {list} and set(map(len, items)) <= {len(shape)}
        return typed and _names(list(chain.from_iterable(items)))
    if isinstance(shape, dict) and all(s is _NAME for s in shape.values()):
        try:
            return _names(list(chain.from_iterable(map(_gather(list(shape)), items))))
        except (KeyError, TypeError):  # an item that is no object, or lacks a field
            return False
    return False


def _misfit(value, shape):
    """None when ``value`` fits ``shape``; otherwise ``(path, problem)``,
    with the path's keys and indices innermost first."""
    if shape is str or shape is _NAME:
        if not isinstance(value, str):
            return [], "must be a string"
        if shape is _NAME and not _names([value]):
            return [], "must be a name: a non-empty string with no whitespace"
        return None
    if isinstance(shape, (list, tuple)):
        if not isinstance(value, list):
            return [], "must be a list"
        if isinstance(shape, tuple) and len(value) != len(shape):
            return [], f"must be a list of length {len(shape)}"
        if isinstance(shape, list) and _all_fit(value, shape[0]):
            return None
        items = enumerate(value)
        shapes = shape if isinstance(shape, tuple) else repeat(shape[0])
    elif not isinstance(value, dict):
        return [], "must be an object"
    elif "*" in shape:
        keys = list(value)
        if not _names(keys):
            bad = next(k for k in keys if not _names([k]))
            return [], f"has key {bad!r}, which is not a name"
        if _all_fit(list(value.values()), shape["*"]):
            return None
        items, shapes = value.items(), repeat(shape["*"])
    else:
        for key in shape:
            if key not in value:
                return [key], "is missing"
        items, shapes = ((k, value[k]) for k in shape), shape.values()
    for (key, item), item_shape in zip(items, shapes):
        found = _misfit(item, item_shape)
        if found:
            found[0].append(key)
            return found
    return None


def _shape_error(doc: dict, shape: dict):
    """A message naming the first field of ``doc`` that does not fit
    ``shape``, or None."""
    found = _misfit(doc, shape)
    if found is None:
        return None
    path, problem = found
    # the outermost step is always a field name, so the text starts with "."
    text = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in reversed(path))
    return f"field {text[1:]} {problem}"


def parse_json_text(text: str, filename: str = "<input>"):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", filename, exc.lineno, exc.colno) from None
    except RecursionError:
        raise ParseError("bad JSON: nested too deeply", filename, 1) from None
    if not isinstance(data, dict) or not isinstance(data.get("artifacts"), list):
        raise ParseError('expected an object with an "artifacts" list', filename, 1)
    docs = data["artifacts"]
    if not docs:
        raise ParseError('empty "artifacts" list: no artifacts', filename, 1)
    for i, doc in enumerate(docs):
        if not isinstance(doc, dict) or "kind" not in doc or "name" not in doc:
            raise ParseError("every artifact needs a kind and a name", filename, 1)
        err = _shape_error(doc, {"kind": str, "name": _NAME})
        if err is None and doc["kind"] in _JSON_SHAPES:
            err = _shape_error(doc, _JSON_SHAPES[doc["kind"]])
        if err:
            raise ParseError(f"artifact {i}: {err}", filename, 1)
    # JSON has no block lines; its artifact errors are all placed on line 1
    return _build_all([(1, doc) for doc in docs], filename)


def load_text(text: str, filename: str = "<input>"):
    """Parse either encoding, sniffing JSON by the leading brace."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_json_text(text, filename)
    return parse_text(text, filename)


def load_path(path) -> list[LoadedArtifact]:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            # one read decodes the whole file, so the offset is the file's
            before = exc.object[: exc.start]
            line = before.count(b"\n") + 1
            column = exc.start - before.rfind(b"\n")
            bad = exc.object[exc.start]
            raise ParseError(
                f"not UTF-8 text: cannot decode byte 0x{bad:02x}", str(path), line, column
            ) from None
    return load_text(text, str(path))


# ---------------------------------------------------------------------------
# validators


def validator_for(kind: str):
    return {
        "category": validate_category,
        "functor": validate_functor,
        "nat": validate_nat,
        "spec": validate_spec,
    }[kind]
