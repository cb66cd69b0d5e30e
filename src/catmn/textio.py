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
from dataclasses import dataclass, field
from itertools import repeat

from .core import Category, Mor, validate_category
from .errors import InvalidArtifactError, ParseError
from .fibered import FiberedSpec, FiberPoset, poset_from_pairs, validate_spec
from .functors import (
    Functor,
    NaturalTransformation,
    identity_functor,
    validate_functor,
    validate_nat,
)
from .report import ValidationReport


@dataclass
class LoadedArtifact:
    kind: str  # "category" | "functor" | "nat" | "spec"
    name: str
    value: object


# ---------------------------------------------------------------------------
# documents: the common shape behind both encodings


def _completing(entries: dict[tuple[str, str], str]):
    """A ``fill`` holding ``entries`` plus the omitted ones that
    :func:`_derivation` gives.  Pairs that stay underdetermined are left for
    the validator."""

    def fill(c: Category):
        rows, stray = c.table_of(entries)
        derive, names = _derivation(c), c.names
        # ids from mor_id, so every id stored is the shared one
        for f, d, row in zip(c.mor_id.values(), c.dst, rows):
            for i, (g, h) in enumerate(zip(c.out[d], row)):
                if h is None and not (stray and (names[g], names[f]) in stray):
                    row[i] = derive(g, f)
        return rows, stray

    return fill


def _derivation(c: Category):
    """The completion rules on ``c``'s ids: ``derive(g, f)`` is what they
    give for ``g`` after ``f`` (identity laws first, then unique-choice
    hom-sets), or None.  Each of ``g`` and ``f`` is a morphism id or, for
    something that is no morphism, its name."""
    src, dst, ident, homs = c.src, c.dst, c.ident, c.homs
    n_vertices = len(c.vertices)
    # per morphism id: whether it is the identity of its source, which it
    # also ends at
    is_identity = [s == d and ident[s] == f for f, (s, d) in enumerate(zip(src, dst))]

    def derive(g, f):
        if type(f) is int:
            if is_identity[f]:
                return g
            if type(g) is int:
                if is_identity[g]:
                    return f
                cands = homs.get(src[f] * n_vertices + dst[g], ())
                return cands[0] if len(cands) == 1 else None
        return f if type(g) is int and is_identity[g] else None

    return derive


def _nonderivable_entries(c: Category) -> list[tuple[str, str, str]]:
    """The compose entries the completion rules cannot reconstruct, sorted;
    these are exactly what the canonical form writes out."""
    derive, name_of = _derivation(c), c.name_of
    keep = [
        (g, f, h)
        for f, (d, row) in enumerate(zip(c.dst, c.rows))
        for g, h in zip(c.out[d], row)
        if h is not None and h != derive(g, f)
    ]
    keep += [(g, f, h) for g, f, h in c.stray_ids() if h != derive(g, f)]
    return sorted((name_of(g), name_of(f), name_of(h)) for g, f, h in keep)


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
        lines.append(
            f"FUNCTOR {doc['name']}: {doc['source']} -> {doc['target']}"
        )
        lines.append("  OBJMAP")
        lines.extend(
            f"    {x} -> {doc['objmap'][x]}" for x in sorted(doc["objmap"])
        )
        lines.append("  MORMAP")
        lines.extend(
            f"    {f} -> {doc['mormap'][f]}" for f in sorted(doc["mormap"])
        )
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


def render_category(c: Category, name: str | None = None) -> str:
    return render_artifacts([LoadedArtifact("category", name or c.name, c)])


def render_spec(s: FiberedSpec, name: str | None = None) -> str:
    return render_artifacts([LoadedArtifact("spec", name or s.name, s)])


def render_functor(F: Functor, name: str | None = None) -> str:
    return render_artifacts([LoadedArtifact("functor", name or F.name, F)])


def render_nat(alpha: NaturalTransformation, name: str | None = None) -> str:
    return render_artifacts([LoadedArtifact("nat", name or alpha.name, alpha)])


# ---------------------------------------------------------------------------
# text parsing


class _Cursor:
    def __init__(self, text: str, filename: str):
        self.filename = filename
        self.lines: list[tuple[int, str]] = []
        for i, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                self.lines.append((i, stripped))
        self.pos = 0

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next(self):
        item = self.peek()
        if item is None:
            raise ParseError("unexpected end of file", self.filename, self._eof_line())
        self.pos += 1
        return item

    def _eof_line(self) -> int:
        return self.lines[-1][0] if self.lines else 1

    def error(self, message: str, line: int) -> ParseError:
        return ParseError(message, self.filename, line)


def _split_arrow(text: str, sep: str, lineno: int, cur: _Cursor) -> tuple[str, str]:
    parts = text.split(sep)
    if len(parts) != 2:
        raise cur.error(f"expected exactly one {sep!r}", lineno)
    a, b = parts[0].strip(), parts[1].strip()
    if not a or " " in a or not b or " " in b:
        raise cur.error(f"malformed {sep!r} entry", lineno)
    return a, b


def _split_colon(text: str, lineno: int, cur: _Cursor) -> tuple[str, str]:
    head, sep, tail = text.partition(":")
    if not sep:
        raise cur.error("expected ':'", lineno)
    return head.strip(), tail.strip()


_SECTIONS = ("OBJECTS", "MORPHISMS", "IDENTITIES", "COMPOSE")


def _parse_category_sections(cur: _Cursor, terminators: set[str]) -> dict:
    objects: list[str] = []
    morphisms: list[dict] = []
    identities: dict[str, str] = {}
    compose: list[list[str]] = []
    section = None
    while True:
        item = cur.peek()
        if item is None:
            break
        lineno, line = item
        word = line.split()[0]
        if word in terminators:
            break
        if word in _SECTIONS and line == word:
            section = word
            cur.next()
            continue
        cur.next()
        if section == "OBJECTS":
            objects.extend(line.split())
        elif section == "MORPHISMS":
            name, rest = _split_colon(line, lineno, cur)
            src, dst = _split_arrow(rest, "->", lineno, cur)
            if not name or " " in name:
                raise cur.error("malformed morphism name", lineno)
            morphisms.append({"name": name, "src": src, "dst": dst})
        elif section == "IDENTITIES":
            obj, mor = _split_colon(line, lineno, cur)
            if not obj or " " in obj or not mor or " " in mor:
                raise cur.error("malformed identity entry", lineno)
            identities[obj] = mor
        elif section == "COMPOSE":
            tokens = line.split()
            if len(tokens) != 5 or tokens[1] != "o" or tokens[3] != "=":
                raise cur.error("expected 'g o f = h'", lineno)
            compose.append([tokens[0], tokens[2], tokens[4]])
        else:
            raise cur.error(f"unexpected line {line!r}", lineno)
    return {
        "objects": objects,
        "morphisms": morphisms,
        "identities": identities,
        "compose": compose,
    }


def _block_lines(cur: _Cursor, block: str, lineno: int):
    """The numbered lines of a FIBER or ACTION block opened at ``lineno``,
    up to the next FIBER, ACTION or END line, which is left unread."""
    while True:
        item = cur.peek()
        if item is None:
            raise cur.error(f"unterminated {block} block", lineno)
        if item[1].split()[0] in ("FIBER", "ACTION", "END"):
            return
        yield cur.next()


def _parse_spec_tail(cur: _Cursor) -> tuple[dict, dict]:
    fibers: dict[str, dict] = {}
    actions: dict[str, dict[str, str]] = {}
    while True:
        lineno, line = cur.next()
        tokens = line.split()
        if tokens[0] == "END":
            return fibers, actions
        if tokens[0] == "FIBER":
            if len(tokens) != 2:
                raise cur.error("expected 'FIBER <base object>'", lineno)
            b = tokens[1]
            if b in fibers:
                raise cur.error(f"duplicate FIBER block for {b!r}", lineno)
            fib = {"elements": [], "bottom": None, "top": None, "leq": []}
            for dlineno, dline in _block_lines(cur, "FIBER", lineno):
                dtok = dline.split()
                if dtok[0] == "ELEMENTS":
                    fib["elements"].extend(dtok[1:])
                elif dtok[0] == "BOTTOM" and len(dtok) == 2:
                    fib["bottom"] = dtok[1]
                elif dtok[0] == "TOP" and len(dtok) == 2:
                    fib["top"] = dtok[1]
                elif dtok[0] == "LEQ" and len(dtok) == 3:
                    fib["leq"].append([dtok[1], dtok[2]])
                else:
                    raise cur.error(f"unknown fiber directive {dline!r}", dlineno)
            for req in ("bottom", "top"):
                if fib[req] is None:
                    raise cur.error(f"fiber {b!r} lacks a {req.upper()} directive", lineno)
            fibers[b] = fib
        elif tokens[0] == "ACTION":
            if len(tokens) != 2:
                raise cur.error("expected 'ACTION <morphism>'", lineno)
            f = tokens[1]
            if f in actions:
                raise cur.error(f"duplicate ACTION block for {f!r}", lineno)
            mapping: dict[str, str] = {}
            for alineno, aline in _block_lines(cur, "ACTION", lineno):
                k, k2 = _split_arrow(aline, "->", alineno, cur)
                mapping[k] = k2
            actions[f] = mapping
        else:
            raise cur.error(f"expected FIBER, ACTION, or END, got {line!r}", lineno)


def _parse_blocks(cur: _Cursor) -> list[tuple[int, dict]]:
    """Each block's document, with the line number of its header."""
    docs: list[tuple[int, dict]] = []
    while True:
        item = cur.peek()
        if item is None:
            return docs
        lineno, line = cur.next()
        tokens = line.split()
        head = tokens[0]
        if head == "CATEGORY":
            if len(tokens) != 2:
                raise cur.error("expected 'CATEGORY <name>'", lineno)
            doc = {"kind": "category", "name": tokens[1]}
            doc.update(_parse_category_sections(cur, {"END"}))
            endline, end = cur.next()
            if end != "END":
                raise cur.error("expected END", endline)
            docs.append((lineno, doc))
        elif head == "SPEC":
            if len(tokens) != 2:
                raise cur.error("expected 'SPEC <name>'", lineno)
            blineno, bline = cur.next()
            if bline != "BASE":
                raise cur.error("a SPEC block must start with BASE", blineno)
            base = _parse_category_sections(cur, {"FIBER", "ACTION", "END"})
            fibers, actions = _parse_spec_tail(cur)
            docs.append(
                (lineno, {
                    "kind": "spec",
                    "name": tokens[1],
                    "base": base,
                    "fibers": fibers,
                    "actions": actions,
                })
            )
        elif head == "FUNCTOR":
            name, rest = _split_colon(line[len("FUNCTOR") :].strip(), lineno, cur)
            src, dst = _split_arrow(rest, "->", lineno, cur)
            if not name or " " in name:
                raise cur.error("malformed functor name", lineno)
            objmap: dict[str, str] = {}
            mormap: dict[str, str] = {}
            section = None
            while True:
                elineno, eline = cur.next()
                if eline == "END":
                    break
                if eline in ("OBJMAP", "MORMAP"):
                    section = eline
                    continue
                if section is None:
                    raise cur.error("expected OBJMAP or MORMAP", elineno)
                a, b = _split_arrow(eline, "->", elineno, cur)
                (objmap if section == "OBJMAP" else mormap)[a] = b
            docs.append(
                (lineno, {
                    "kind": "functor",
                    "name": name,
                    "source": src,
                    "target": dst,
                    "objmap": objmap,
                    "mormap": mormap,
                })
            )
        elif head == "NAT":
            name, rest = _split_colon(line[len("NAT") :].strip(), lineno, cur)
            src, dst = _split_arrow(rest, "=>", lineno, cur)
            if not name or " " in name:
                raise cur.error("malformed transformation name", lineno)
            components: dict[str, str] = {}
            seen_section = False
            while True:
                elineno, eline = cur.next()
                if eline == "END":
                    break
                if eline == "COMPONENTS":
                    seen_section = True
                    continue
                if not seen_section:
                    raise cur.error("expected COMPONENTS", elineno)
                x, m = _split_colon(eline, elineno, cur)
                if not x or " " in x or not m or " " in m:
                    raise cur.error("malformed component entry", elineno)
                components[x] = m
            docs.append(
                (lineno, {
                    "kind": "nat",
                    "name": name,
                    "source": src,
                    "target": dst,
                    "components": components,
                })
            )
        else:
            raise cur.error(
                f"expected CATEGORY, SPEC, FUNCTOR, or NAT, got {line!r}", lineno
            )


# ---------------------------------------------------------------------------
# building artifacts from documents


def _build_category(doc: dict, name: str) -> Category:
    mors = [Mor(m["name"], m["src"], m["dst"]) for m in doc["morphisms"]]
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


def _build_all(
    docs: list[tuple[int, dict]], namespace: dict, filename: str
) -> list[LoadedArtifact]:
    """Build each ``(line, doc)`` in turn; an error in a document is a
    :class:`ParseError` at its line."""
    ns = {
        "category": dict(namespace.get("category", {})),
        "functor": dict(namespace.get("functor", {})),
        "nat": dict(namespace.get("nat", {})),
        "spec": dict(namespace.get("spec", {})),
    }
    out: list[LoadedArtifact] = []
    for lineno, doc in docs:
        kind, name = doc["kind"], doc["name"]
        if kind == "category":
            value = _build_category(doc, name)
        elif kind == "spec":
            value = _build_spec(doc)
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
        ns[kind][name] = value
        out.append(LoadedArtifact(kind, name, value))
    return out


def parse_text(text: str, filename: str = "<input>", namespace: dict | None = None):
    cur = _Cursor(text, filename)
    if not cur.lines:
        raise ParseError("empty file: no artifact blocks", filename, 1)
    docs = _parse_blocks(cur)
    return _build_all(docs, namespace or {}, filename)


# The shape of each JSON artifact, as ``artifact_doc`` writes it.  ``str`` is
# a string, ``[x]`` a list of x, ``(x, y, ...)`` a list of exactly those, a
# dict with the key ``"*"`` an object mapping strings to its value, and any
# other dict an object that must carry every listed field.
_CATEGORY_SHAPE = {
    "objects": [str],
    "morphisms": [{"name": str, "src": str, "dst": str}],
    "identities": {"*": str},
    "compose": [(str, str, str)],
}
_JSON_SHAPES = {
    "category": _CATEGORY_SHAPE,
    "spec": {
        "base": _CATEGORY_SHAPE,
        "fibers": {"*": {"elements": [str], "bottom": str, "top": str, "leq": [(str, str)]}},
        "actions": {"*": {"*": str}},
    },
    "functor": {"source": str, "target": str, "objmap": {"*": str}, "mormap": {"*": str}},
    "nat": {"source": str, "target": str, "components": {"*": str}},
}


def _misfit(value, shape):
    """None when ``value`` fits ``shape``; otherwise ``(path, problem)``,
    with the path's keys and indices innermost first."""
    if shape is str:
        return None if isinstance(value, str) else ([], "must be a string")
    if isinstance(shape, (list, tuple)):
        if not isinstance(value, list):
            return [], "must be a list"
        if isinstance(shape, tuple) and len(value) != len(shape):
            return [], f"must be a list of length {len(shape)}"
        items = enumerate(value)
        shapes = shape if isinstance(shape, tuple) else repeat(shape[0])
    elif not isinstance(value, dict):
        return [], "must be an object"
    elif "*" in shape:
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


def parse_json_text(text: str, filename: str = "<input>", namespace: dict | None = None):
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
        err = _shape_error(doc, {"kind": str, "name": str})
        if err is None and doc["kind"] in _JSON_SHAPES:
            err = _shape_error(doc, _JSON_SHAPES[doc["kind"]])
        if err:
            raise ParseError(f"artifact {i}: {err}", filename, 1)
    # JSON has no block lines; its artifact errors are all placed on line 1
    return _build_all([(1, doc) for doc in docs], namespace or {}, filename)


def load_text(text: str, filename: str = "<input>", namespace: dict | None = None):
    """Parse either encoding, sniffing JSON by the leading brace."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_json_text(text, filename, namespace)
    return parse_text(text, filename, namespace)


def load_path(path, namespace: dict | None = None) -> list[LoadedArtifact]:
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
    return load_text(text, str(path), namespace)


# ---------------------------------------------------------------------------
# workspace


def validator_for(kind: str):
    return {
        "category": validate_category,
        "functor": validate_functor,
        "nat": validate_nat,
        "spec": validate_spec,
    }[kind]


@dataclass
class Workspace:
    """Named store of loaded artifacts with provenance.

    Names are unique per kind.  Nothing is validated on entry; artifacts
    are validated explicitly and remembered as such, so a workspace can
    hold a corrupted artifact while it is being diagnosed.
    """

    store: dict[str, dict[str, object]] = field(
        default_factory=lambda: {"category": {}, "functor": {}, "nat": {}, "spec": {}}
    )
    provenance: dict[tuple[str, str], str] = field(default_factory=dict)
    validated: set[tuple[str, str]] = field(default_factory=set)

    def add(self, kind: str, name: str, value, source: str = "<api>") -> None:
        if kind not in self.store:
            raise InvalidArtifactError(f"unknown artifact kind {kind!r}")
        if name in self.store[kind]:
            raise InvalidArtifactError(f"duplicate {kind} name {name!r}")
        self.store[kind][name] = value
        self.provenance[(kind, name)] = source

    def get(self, kind: str, name: str):
        try:
            return self.store[kind][name]
        except KeyError:
            raise InvalidArtifactError(f"no {kind} named {name!r}") from None

    def namespace(self) -> dict[str, dict[str, object]]:
        return {kind: dict(values) for kind, values in self.store.items()}

    def load(self, path) -> list[LoadedArtifact]:
        artifacts = load_path(path, self.namespace())
        for a in artifacts:
            self.add(a.kind, a.name, a.value, source=str(path))
        return artifacts

    def validate(self, kind: str, name: str) -> ValidationReport:
        report = validator_for(kind)(self.get(kind, name))
        if report.ok:
            self.validated.add((kind, name))
        else:
            self.validated.discard((kind, name))
        return report
