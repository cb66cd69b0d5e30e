"""Differential tests for the fiber posets' up-sets.

``FiberPoset`` carries per-element up-sets and down-sets read off ``leq``.
The fiber and action checks of ``validate_spec``, the morphism count and
fill of ``build_total_category`` and the Hasse diagram that the renderers
write are set operations on them, with no pair-by-pair probing of ``leq``.
The tests here pin those walks against goldens
(``fixtures/fiber_upset_goldens.json``) written by the pair-probing code
they replaced:

- the rendered ``validate_spec`` report of each corrupted poset and action
  below, on ``canonical_c2``, ``random_spec`` seeds 0-49 and every spec of
  the corrupted corpus;
- the Hasse pairs of every fiber of the 200 acceptance seeds and of the
  large rung;
- the total category of seeds 0-49 and of the large rung: objects,
  morphisms, identities and projection in their order, and the composition
  table's entries sorted, as a digest.

To rewrite the goldens after an intended change, run
``PYTHONPATH=src:tests python tests/test_fiber_upsets.py``.
"""

import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

import pytest

from catmn import (
    SizeLimits,
    build_total_category,
    canonical_c2,
    chain_poset,
    load_path,
    poset_from_pairs,
    random_spec,
    validate_spec,
)
from catmn.textio import _reduction_pairs

CORPUS = Path(__file__).parent / "fixtures" / "corrupted"
GOLDENS = Path(__file__).parent / "fixtures" / "fiber_upset_goldens.json"

SPEC_SEEDS = range(50)
ACCEPTANCE_SEEDS = range(200)
# the ROADMAP's large rung: 505 objects and 15,760 morphisms, over the
# default morphism limit
LARGE_SEED, LARGE_LIMITS = 15, SizeLimits(32, 200, 64)
LARGE_MORPHISM_LIMIT = "20000"


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


# ---------------------------------------------------------------------------
# corrupted posets and actions


def fiber_corruptions(p):
    """Corrupted copies of the poset ``p``, one per kind that applies."""
    strict = sorted((a, b) for a, b in p.leq if a != b)
    implied = [
        (a, c)
        for a, c in strict
        if any(b not in (a, c) and p.le(a, b) and p.le(b, c) for b in p.elements)
    ]
    middle = p.elements[len(p.elements) // 2]
    out = {
        "stray": dataclasses.replace(p, leq=p.leq | {(p.top, "zz"), ("zz", p.bottom)}),
        "missing-reflexive": dataclasses.replace(p, leq=p.leq - {(middle, middle)}),
        "unknown-bottom": dataclasses.replace(p, bottom="zz"),
    }
    if implied:
        out["dropped-transitive"] = dataclasses.replace(p, leq=p.leq - {implied[0]})
    if strict:
        a, b = strict[0]
        out["two-cycle"] = dataclasses.replace(p, leq=p.leq | {(b, a)})
        out["false-bottom"] = dataclasses.replace(p, bottom=p.top)
        out["false-top"] = dataclasses.replace(p, top=p.bottom)
    return out


def _bend(s):
    """The first non-identity base arrow f, with an element a of its source
    fiber and an image y, such that sending a to y breaks monotonicity
    along a strict pair (a, b); None when no arrow has one."""
    for f, m in s.base.morphisms.items():
        if s.base.is_identity_name(f):
            continue
        src, dst, act = s.fibers[m.src], s.fibers[m.dst], s.actions[f]
        for a, b in sorted(src.leq):
            for y in dst.elements:
                if a != b and not dst.le(y, act[b]):
                    return f, a, y
    return None


def action_corruptions(s):
    """Corrupted copies of the spec ``s`` whose actions are bent: a pair
    sent out of order, an image outside the target fiber, and a stray order
    pair whose stray element has an image."""
    bend = _bend(s)
    if bend is None:
        return {}
    f, a, y = bend
    m = s.base.morphisms[f]
    src, dst = s.fibers[m.src], s.fibers[m.dst]
    act = s.actions[f]
    stray = dataclasses.replace(src, leq=src.leq | {(src.top, "zz"), ("zz", src.bottom)})
    return {
        f"non-monotone:{f}": dataclasses.replace(s, actions={**s.actions, f: {**act, a: y}}),
        f"bad-image:{f}": dataclasses.replace(
            s, actions={**s.actions, f: {**act, src.top: "zz"}}
        ),
        f"stray-acted:{f}": dataclasses.replace(
            s,
            fibers={**s.fibers, m.src: stray},
            actions={**s.actions, f: {**act, "zz": dst.top}},
        ),
    }


def corrupted_specs(s):
    """name -> a corrupted copy of ``s``: each fiber corruption of its
    largest fiber, then each action corruption."""
    b = max(sorted(s.fibers), key=lambda b: len(s.fibers[b].elements))
    out = {
        f"{kind}:{b}": dataclasses.replace(s, fibers={**s.fibers, b: bent})
        for kind, bent in fiber_corruptions(s.fibers[b]).items()
    }
    out.update(action_corruptions(s))
    return out


def spec_reports() -> dict[str, str]:
    reports = {}
    for s in [canonical_c2()] + [random_spec(seed) for seed in SPEC_SEEDS]:
        reports[f"{s.name}:clean"] = validate_spec(s).render()
        for name, bent in corrupted_specs(s).items():
            reports[f"{s.name}:{name}"] = validate_spec(bent).render()
    for path in sorted(CORPUS.iterdir()):
        for a in load_path(path):
            if a.kind == "spec":
                reports[f"corpus:{path.name}:{a.name}"] = validate_spec(a.value).render()
    return reports


# ---------------------------------------------------------------------------
# Hasse pairs and total categories


def large_rung():
    return random_spec(LARGE_SEED, LARGE_LIMITS)


def hasse_digest(s) -> str:
    return _digest([[b, _reduction_pairs(p)] for b, p in sorted(s.fibers.items())])


def total_digest(s) -> dict:
    t = build_total_category(s)
    c = t.total
    doc = [
        list(c.objects),
        [[m.name, m.src, m.dst] for m in c.morphisms.values()],
        list(c.identity.items()),
        list(t.object_decoding.items()),
        list(t.projection.mor_map.items()),
        sorted([g, f, h] for (g, f), h in c.compose.items()),
    ]
    return {"morphisms": len(c.morphisms), "compose": len(c.compose), "sha256": _digest(doc)}


def build_digests() -> dict:
    specs = {seed: random_spec(seed) for seed in ACCEPTANCE_SEEDS}
    large = large_rung()
    hasse = {s.name: hasse_digest(s) for s in specs.values()}
    hasse["large"] = hasse_digest(large)
    totals = {specs[seed].name: total_digest(specs[seed]) for seed in SPEC_SEEDS}
    totals["large"] = total_digest(large)
    return {"hasse": hasse, "total": totals}


def all_goldens() -> dict:
    return {"validate_spec": spec_reports(), **build_digests()}


# ---------------------------------------------------------------------------
# the tests


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def test_spec_reports_match_the_pair_probing_goldens(golden):
    got = spec_reports()
    assert sorted(got) == sorted(golden["validate_spec"])
    for case, text in golden["validate_spec"].items():
        assert got[case] == text, case


def test_goldens_cover_every_fiber_and_action_rule(golden):
    rendered = "\n".join(golden["validate_spec"].values())
    for rule in (
        "fiber-extremum-unknown",
        "fiber-order-domain",
        "fiber-order-reflexive",
        "fiber-order-transitive",
        "fiber-order-cycle",
        "fiber-bottom",
        "fiber-top",
        "action-monotone",
        "action-image",
        "action-extra",
    ):
        assert f"{rule} [" in rendered, rule
    # a stray element with an image is compared along its stray pair
    assert any(
        line.startswith("action-monotone [") and ", zz, " in line
        for line in rendered.splitlines()
    )


def test_hasse_pairs_and_total_categories_match_the_goldens(golden, monkeypatch):
    monkeypatch.setenv("CATMN_MAX_MORPHISMS", LARGE_MORPHISM_LIMIT)
    got = build_digests()
    assert got["hasse"] == golden["hasse"]
    assert got["total"] == golden["total"]
    assert golden["total"]["large"]["morphisms"] == 15_760


# ---------------------------------------------------------------------------
# the up-sets themselves


def _from_leq(p):
    names = {x for pair in p.leq for x in pair} | set(p.elements)
    up = {x: {b for a, b in p.leq if a == x} for x in names}
    down = {x: {a for a, b in p.leq if b == x} for x in names}
    return up, down


@pytest.mark.parametrize(
    "p",
    [
        chain_poset(["bot", "mid", "top"]),
        poset_from_pairs(["p", "q", "t"], [("p", "t"), ("q", "t")], "p", "t"),
        poset_from_pairs(["a", "b"], [("a", "zz"), ("zz", "b")], "a", "b"),
        *fiber_corruptions(large_rung().fibers["b0"]).values(),
    ],
)
def test_up_and_down_sets_are_read_off_leq(p):
    up, down = _from_leq(p)
    assert p.up == up and p.down == down
    assert all(isinstance(s, frozenset) for s in (*p.up.values(), *p.down.values()))


def test_replaced_posets_get_fresh_up_sets():
    p = chain_poset(["bot", "mid", "top"])
    bent = dataclasses.replace(p, leq=p.leq - {("bot", "top")})
    assert bent.up["bot"] == {"bot", "mid"} and p.up["bot"] == {"bot", "mid", "top"}
    assert bent.down["top"] == {"mid", "top"}
    assert bent != p and dataclasses.replace(bent, leq=p.leq) == p
    assert "up=" not in repr(p) and "down=" not in repr(p)


if __name__ == "__main__":
    os.environ["CATMN_MAX_MORPHISMS"] = LARGE_MORPHISM_LIMIT
    GOLDENS.write_text(json.dumps(all_goldens(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
