"""Seeded inputs for the benchmark and the answers expected on them.

Everything here is derived from the workload seed and from catmn's own
generator, ``random_spec``; the expected answers are computed from the spec
alone and never call catmn's verifiers.

The `large` workload uses both ROADMAP rungs.  Seed 0 gives each rung as
``random_spec`` makes it; any other seed gives an isomorphic copy whose
base objects and fiber elements are permuted among their own names.  Two
distinct random specs of the same size band differ in verdict time by up to
a third, far more than any bound the benchmark could keep, while a relabeled
copy costs the same work in a different name order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from catmn.core import Category, Mor
from catmn.fibered import (
    FiberedSpec,
    SizeLimits,
    build_final_monad,
    build_total_category,
    poset_from_pairs,
    random_spec,
)
from catmn.textio import LoadedArtifact, render_artifacts, render_json

# The ROADMAP rungs, as (random_spec seed, limits).  The `large` workload runs
# every command on the large rung's spec and reads and writes the artifacts
# built from the artifacts rung's spec.
RUNGS = {
    "large": (15, SizeLimits(32, 200, 64)),
    "artifacts": (3, SizeLimits(24, 96, 64)),
}
# A `large` pass is LARGE_ROUNDS rounds of short verdicts, with one
# transport and three mn-checks spread among them; see build_large for why.
LARGE_ROUNDS = 8
CORPUS_SPECS = 400
MUTANT_EVERY = 5  # every fifth corpus spec is a mutant


# ---------------------------------------------------------------------------
# counts and expected answers, from the spec alone


@dataclass
class SpecFacts:
    """What a correct run must report about one spec."""

    name: str
    base_objects: int
    objects: int
    morphisms: int
    compose: int
    bottoms: list[str]  # total objects (b, bottom of fiber b)
    tops: list[str]
    mutant: bool = False

    @property
    def summary(self) -> str:
        b = self.base_objects
        return (
            f"summary: objects={self.objects} morphisms={self.morphisms} "
            f"monad-fixed={b} comonad-fixed={b}"
        )


def spec_facts(spec: FiberedSpec, mutant: bool = False) -> SpecFacts:
    """Objects are the sum of the fiber sizes; morphisms over a base arrow
    f are the pairs (k, k') with act_f(k) <= k'; a compose entry is a
    morphism followed by any morphism out of its target."""
    fibers = spec.fibers
    up = {
        b: {k: sum(1 for k2 in p.elements if (k, k2) in p.leq) for k in p.elements}
        for b, p in fibers.items()
    }
    out_degree: dict[tuple[str, str], int] = {}
    morphisms = 0
    for f, m in spec.base.morphisms.items():
        act = spec.actions[f]
        for k in fibers[m.src].elements:
            n = up[m.dst][act[k]]
            morphisms += n
            out_degree[(m.src, k)] = out_degree.get((m.src, k), 0) + n
    compose = 0
    for f, m in spec.base.morphisms.items():
        act = spec.actions[f]
        dst = fibers[m.dst]
        for k in fibers[m.src].elements:
            for k2 in dst.elements:
                if (act[k], k2) in dst.leq:
                    compose += out_degree[(m.dst, k2)]
    base = spec.base.objects
    return SpecFacts(
        name=spec.name,
        base_objects=len(base),
        objects=sum(len(fibers[b].elements) for b in base),
        morphisms=morphisms,
        compose=compose,
        bottoms=sorted(f"{b}|{fibers[b].bottom}" for b in base),
        tops=sorted(f"{b}|{fibers[b].top}" for b in base),
        mutant=mutant,
    )


def relabel(spec: FiberedSpec, rng: random.Random) -> FiberedSpec:
    """An isomorphic copy of ``spec`` whose base objects, and the elements
    of each fiber, are permuted among their own names."""
    base = spec.base
    objs = list(base.objects)
    new_obj = dict(zip(objs, _shuffled(objs, rng)))
    new_elem = {}
    for b in objs:
        elems = list(spec.fibers[b].elements)
        new_elem[b] = dict(zip(elems, _shuffled(elems, rng)))
    # random_spec names arrows after their endpoints: id_b and b>a
    new_mor = {
        name: f"id_{new_obj[m.src]}"
        if base.is_identity_name(name)
        else f"{new_obj[m.src]}>{new_obj[m.dst]}"
        for name, m in base.morphisms.items()
    }
    new_base = Category(
        base.name,
        [new_obj[x] for x in objs],
        [Mor(new_mor[m.name], new_obj[m.src], new_obj[m.dst]) for m in base.morphisms.values()],
        {new_obj[x]: new_mor[m] for x, m in base.identity.items()},
        {(new_mor[g], new_mor[f]): new_mor[h] for (g, f), h in base.compose.items()},
    )
    fibers = {}
    for b, p in spec.fibers.items():
        e = new_elem[b]
        fibers[new_obj[b]] = poset_from_pairs(
            [e[k] for k in p.elements], [(e[x], e[y]) for x, y in p.leq], e[p.bottom], e[p.top]
        )
    actions = {}
    for name, act in spec.actions.items():
        m = base.morphisms[name]
        actions[new_mor[name]] = {new_elem[m.src][k]: new_elem[m.dst][v] for k, v in act.items()}
    return FiberedSpec(spec.name, new_base, fibers, actions)


def _shuffled(names: list[str], rng: random.Random) -> list[str]:
    """Fisher-Yates on randrange alone, like random_spec's own draws."""
    out = list(names)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randrange(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def rung_spec(rung: str, seed: int) -> tuple[FiberedSpec, SpecFacts]:
    """A ROADMAP rung; seeds other than 0 relabel it."""
    spec_seed, limits = RUNGS[rung]
    spec = random_spec(spec_seed, limits)
    if seed != 0:
        spec = relabel(spec, random.Random(seed))
    return spec, spec_facts(spec)


# ---------------------------------------------------------------------------
# mutants


def isolated_arrows(spec: FiberedSpec) -> list[str]:
    """Non-identity base arrows that no composite of non-identities passes
    through, whose target fiber has more than one element."""
    base = spec.base
    ident = set(base.identity.values())
    touched = set()
    for (g, f), h in base.compose.items():
        if g not in ident and f not in ident:
            touched.update((g, f, h))
    return sorted(
        name
        for name, m in base.morphisms.items()
        if name not in ident
        and name not in touched
        and len(spec.fibers[m.dst].elements) > 1
    )


def mutate(spec: FiberedSpec, arrow: str) -> FiberedSpec:
    """Send every element to the top of the target fiber along ``arrow``.

    The action stays monotone and, since no composite involves the arrow,
    functorial; bottom is no longer preserved, so the fiber-bottom comonad
    has no lift and ``mn-check`` and ``transport`` fail at build-comonad.
    """
    top = spec.fibers[spec.base.morphisms[arrow].dst].top
    actions = {f: dict(a) for f, a in spec.actions.items()}
    actions[arrow] = {k: top for k in actions[arrow]}
    return FiberedSpec(f"{spec.name}-mutant", spec.base, spec.fibers, actions)


# ---------------------------------------------------------------------------
# verdicts and their checks


@dataclass
class Verdict:
    """One CLI run and the answer it must give."""

    command: str
    argv: list[str]
    check: Callable[[int, str], str | None]  # the problem, or None
    label: str = ""


def pipeline_check(facts: SpecFacts, command: str):
    """``mn-check`` and ``transport`` end with the result line; a valid spec
    also prints its summary, or its induced fixed objects (the fiber
    bottoms and tops, relabeled with ``~``)."""
    if facts.mutant:
        want_rc, want = 1, ["result: FAIL (stage build-comonad)"]
    elif command == "mn-check":
        want_rc, want = 0, [facts.summary, "result: PASS"]
    else:
        want_rc, want = 0, [
            "induced-monad-fixed: " + " ".join(sorted(x + "~" for x in facts.bottoms)),
            "induced-comonad-fixed: " + " ".join(sorted(x + "~" for x in facts.tops)),
            "result: PASS",
        ]

    def check(rc, out):
        lines = out.splitlines()
        if rc != want_rc:
            return f"exit {rc}, expected {want_rc}"
        missing = [w for w in want if w not in lines]
        if missing:
            return f"missing line {missing[0]!r}"
        if lines[-1] != want[-1]:
            return f"last line is not {want[-1]!r}"
        return None

    return check


def validate_check(heads: list[str], broken_rule: str | None = None):
    """The verdict lines must be exactly ``heads``, one per artifact; a
    broken file exits 1 and names the rule it breaks."""
    want_rc = 0 if broken_rule is None else 1

    def check(rc, out):
        got = [line for line in out.splitlines() if not line.startswith("  ")]
        if rc != want_rc or got != heads:
            return f"exit {rc}, verdict lines {got!r}; expected exit {want_rc}, {heads!r}"
        if broken_rule and not any(
            line.strip().startswith(broken_rule + " ") for line in out.splitlines()
        ):
            return f"rule {broken_rule!r} not reported"
        return None

    return check


def dot_check(dot_path: Path, nodes: int, edges: int, rings: int, fills: int):
    """One node line per object, one edge per non-identity morphism, and
    the fixed-subcategory styling on as many nodes as there are fixed
    objects."""

    def check(rc, out):
        if rc != 0 or out != f"wrote {dot_path}\n":
            return f"exit {rc}, output {out[:80]!r}"
        body = dot_path.read_text(encoding="utf-8").splitlines()[2:-1]
        edge_lines = [line for line in body if " -> " in line]
        node_lines = [line for line in body if " -> " not in line]
        got = (
            len(node_lines),
            len(edge_lines),
            sum("peripheries=2" in line for line in node_lines),
            sum("style=filled" in line for line in node_lines),
        )
        if got != (nodes, edges, rings, fills):
            return f"DOT nodes/edges/rings/fills {got}, expected {(nodes, edges, rings, fills)}"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    """The written inputs, one record per input, and the verdicts of one
    pass in order."""

    inputs: list[dict] = field(default_factory=list)
    verdicts: list[Verdict] = field(default_factory=list)


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _dot_path(path: Path) -> Path:
    return path.with_name(path.name.replace(".", "_") + ".dot")


def _spec_verdicts(
    path: Path, facts: SpecFacts, commands=("mn-check", "transport", "validate", "export-dot")
) -> list[Verdict]:
    """The verdicts of ``commands`` on one spec file, in pipeline order."""
    dot = _dot_path(path)
    b = facts.base_objects
    verdicts = [
        Verdict("mn-check", ["mn-check", str(path)], pipeline_check(facts, "mn-check"), path.name),
        Verdict("transport", ["transport", str(path)], pipeline_check(facts, "transport"), path.name),
        Verdict("validate", ["validate", str(path)], validate_check([f"spec {facts.name}: ok"]), path.name),
        Verdict(
            "export-dot",
            ["export-dot", str(path), "--out", str(dot)],
            dot_check(dot, facts.objects, facts.morphisms - facts.objects, b, 0 if facts.mutant else b),
            path.name,
        ),
    ]
    return [v for v in verdicts if v.command in commands]


def _record(path: Path, facts: SpecFacts, **extra) -> dict:
    return {
        "input": path.name,
        "objects": facts.objects,
        "morphisms": facts.morphisms,
        "compose": facts.compose,
        **extra,
    }


def build_corpus(seed: int, work: Path) -> Workload:
    """CORPUS_SPECS small specs at the default limits; every MUTANT_EVERY-th
    one is a mutant of a spec that has an isolated arrow to mutate."""
    rng = random.Random(seed)
    wl = Workload()
    for i in range(CORPUS_SPECS):
        spec = random_spec(rng.randrange(1 << 30))
        mutant = i % MUTANT_EVERY == MUTANT_EVERY - 1
        if mutant:
            while not (arrows := isolated_arrows(spec)):
                spec = random_spec(rng.randrange(1 << 30))
            spec = mutate(spec, arrows[rng.randrange(len(arrows))])
        facts = spec_facts(spec, mutant)
        path = work / f"c{i:04d}.cm"
        _write(path, render_artifacts([LoadedArtifact("spec", spec.name, spec)]))
        wl.inputs.append(_record(path, facts, expect="FAIL" if mutant else "PASS"))
        wl.verdicts.extend(_spec_verdicts(path, facts))
    return wl


def _rung_spec_files(seed: int, work: Path, wl: Workload) -> dict[tuple[str, str], Verdict]:
    """The large rung's spec as text and as JSON: all four commands on the
    text file, ``validate`` and ``export-dot`` again on the JSON copy."""
    spec, facts = rung_spec("large", seed)
    artifact = [LoadedArtifact("spec", spec.name, spec)]
    verdicts = []
    for path, text, commands in (
        (work / "large.cm", render_artifacts(artifact), ("mn-check", "transport", "validate", "export-dot")),
        (work / "large.json", render_json(artifact), ("validate", "export-dot")),
    ):
        _write(path, text)
        wl.inputs.append(_record(path, facts, spec=spec.name))
        verdicts.extend(_spec_verdicts(path, facts, commands))
    return {(v.command, v.label): v for v in verdicts}


def _corrupt(c: Category, rng: random.Random) -> tuple[Category, tuple[str, str]]:
    """A copy of ``c`` whose entry for one composable pair of non-identities
    names the first factor instead of the composite: a wrongly typed result."""
    ident = set(c.identity.values())
    pairs = sorted(p for p in c.compose if p[0] not in ident and p[1] not in ident)
    g, f = pairs[rng.randrange(len(pairs))]
    compose = dict(c.compose)
    compose[(g, f)] = f
    bad = Category(f"corrupt({c.name})", c.objects, c.morphisms.values(), c.identity, compose)
    return bad, (g, f)


def _artifact_files(seed: int, work: Path, wl: Workload) -> list[Verdict]:
    """From the artifacts rung's spec: its total category with the
    fiber-top monad functor and unit, in both encodings, and a copy of the
    category with one corrupted compose entry.  Returns ``validate`` and
    ``export-dot`` on each of the three files."""
    spec, facts = rung_spec("artifacts", seed)
    t = build_total_category(spec)
    total = t.total
    monad = build_final_monad(t)
    functor, unit = monad.functor, monad.unit
    artifacts = [
        LoadedArtifact("category", total.name, total),
        LoadedArtifact("functor", functor.name, functor),
        LoadedArtifact("nat", unit.name, unit),
    ]
    bad, pair = _corrupt(total, random.Random(seed))
    ok_lines = [f"{a.kind} {a.name}: ok" for a in artifacts]
    edges = facts.morphisms - facts.objects
    verdicts = []
    for path, text, want in (
        (work / "total.cm", render_artifacts(artifacts), validate_check(ok_lines)),
        (work / "total.json", render_json(artifacts), validate_check(ok_lines)),
        (
            work / "corrupt.cm",
            render_artifacts([LoadedArtifact("category", bad.name, bad)]),
            validate_check([f"category {bad.name}: FAIL"], broken_rule="compose-endpoints"),
        ),
    ):
        _write(path, text)
        extra = {"corrupted_pair": list(pair)} if path.stem == "corrupt" else {}
        wl.inputs.append(_record(path, facts, spec=spec.name, **extra))
        dot = _dot_path(path)
        verdicts.append(Verdict("validate", ["validate", str(path)], want, path.name))
        verdicts.append(
            Verdict(
                "export-dot",
                ["export-dot", str(path), "--out", str(dot)],
                dot_check(dot, facts.objects, edges, 0, 0),
                path.name,
            )
        )
    return verdicts


def build_large(seed: int, work: Path) -> Workload:
    """One pass: ``mn-check``, ``transport``, ``mn-check`` and ``mn-check``
    on the large rung, each followed by two rounds.  A round runs
    ``validate`` four times on each of the two large-rung files,
    ``export-dot`` once on one of them in turn, and three of the six
    artifact-file verdicts; the six come round four times per pass.

    The verdict times form clusters, and a percentile that falls in the gap
    between two clusters jumps from run to run.  Per pass there are 64
    large-rung ``validate``s (~50 ms, 64% of the verdicts), 32 verdicts of
    0.4-1 s (the ``export-dot``s and the artifact files), and 4 long ones
    (~3 s and ~10 s), so the median falls well inside the first cluster and
    the 90th percentile well inside the second.  The short verdicts also
    spread over the whole pass rather than bunching between the long ones.
    ``mn-check`` runs three times because one ~3 s sample drifts with the
    host by up to a fifth."""
    wl = Workload()
    v = _rung_spec_files(seed, work, wl)
    files = _artifact_files(seed, work, wl) * 4
    validates = [v["validate", "large.cm"], v["validate", "large.json"]] * 4
    dots = [v["export-dot", "large.cm"], v["export-dot", "large.json"]]
    rounds = [validates + [dots[i % 2]] + files[3 * i : 3 * i + 3] for i in range(LARGE_ROUNDS)]
    mn, tr = v["mn-check", "large.cm"], v["transport", "large.cm"]
    per_long = LARGE_ROUNDS // 4
    for i, long in enumerate((mn, tr, mn, mn)):
        wl.verdicts.append(long)
        wl.verdicts.extend(x for r in rounds[i * per_long : (i + 1) * per_long] for x in r)
    return wl


BUILDERS = {"corpus": build_corpus, "large": build_large}
