"""Byte-identity guard for the two theorem pipelines.

``fixtures/pipeline_goldens.json`` holds, per CLI run, the sha256 of the
exit code and stdout of ``mn-check`` and ``transport`` on the 200
acceptance seeds, on a bottom-breaking mutant of each seed that has an
isolated base arrow, and on every file of the corrupted corpus, and of
``demo``.  The goldens were written by the code that built the whiskered
functors and swept them for naturality, before the whiskered checks were
proved from their factors; any change to a pipeline's output shows here.
``export-dot`` runs on the same inputs are pinned the same way, with the
bytes of the DOT file it writes added to the digest; those goldens were
written by the code that built the total category through per-morphism
name tables and rendered it by sorting names.

Each file is run from its own directory under its bare name, so no absolute
path reaches the output.  To rewrite the goldens after an intended change of
a report, run ``PYTHONPATH=src:tests python tests/test_pipeline_goldens.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from test_acceptance import LIMITS, SEEDS

from catmn import SizeLimits, random_spec, render_spec
from catmn.cli import main
from helpers import break_bottom, isolated_arrows

CORPUS = Path(__file__).parent / "fixtures" / "corrupted"
GOLDENS = Path(__file__).parent / "fixtures" / "pipeline_goldens.json"
COMMANDS = ("mn-check", "transport", "export-dot")
DOT = "out.dot"


def digest(argv, cwd) -> str:
    """sha256 of ``"<exit code>\\n<stdout>"`` for one in-process run, followed
    by the bytes of the DOT file an ``export-dot`` run wrote, if any."""
    out = io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(here)
    h = hashlib.sha256(f"{code}\n{out.getvalue()}".encode())
    dot = Path(cwd, DOT)
    if dot.exists():
        h.update(dot.read_bytes())
        dot.unlink()
    return h.hexdigest()


def run(command: str, name: str, cwd) -> str:
    """The digest of ``command`` on the file ``name`` in ``cwd``.  An
    ``export-dot`` run writes its DOT file next to a copy of the input, so
    nothing is written into the fixtures."""
    if command != "export-dot":
        return digest([command, name], cwd)
    with tempfile.TemporaryDirectory() as scratch:
        shutil.copyfile(Path(cwd, name), Path(scratch, name))
        return digest([command, name, "--out", DOT], scratch)


def mutants() -> dict[str, object]:
    """Specs that fail ``build-comonad``, by key: for each seed with an
    isolated base arrow, its first such arrow made constant at a non-bottom
    element of the target fiber chosen by the seed; and, under ``cap``, one
    whose diagnosis passes the cap of 100 violations per rule, with
    ``b1>b0`` sent to the non-bottom element of its target with the most
    elements above it."""
    got = {}
    for seed in SEEDS:
        spec = random_spec(seed, LIMITS)
        arrows = isolated_arrows(spec)
        if arrows:
            fiber = spec.fibers[spec.base.morphisms[arrows[0]].dst]
            above = [k for k in fiber.elements if k != fiber.bottom]
            got[f"{seed:03d}"] = break_bottom(spec, arrows[0], above[seed % len(above)])
    spec = random_spec(3, SizeLimits(4, 6, 64))
    fiber = spec.fibers["b0"]
    widest = max((k for k in fiber.elements if k != fiber.bottom), key=lambda k: len(fiber.up[k]))
    got["cap"] = break_bottom(spec, "b1>b0", widest)
    return got


def all_digests() -> dict[str, str]:
    got = {}
    with tempfile.TemporaryDirectory() as scratch:
        for seed in SEEDS:
            name = f"seed{seed:03d}.cm"
            Path(scratch, name).write_text(render_spec(random_spec(seed, LIMITS)), encoding="utf-8")
            for command in COMMANDS:
                got[f"{command}:seed:{seed:03d}"] = run(command, name, scratch)
        for key, spec in mutants().items():
            name = f"mutant{key}.cm"
            Path(scratch, name).write_text(render_spec(spec), encoding="utf-8")
            for command in COMMANDS:
                got[f"{command}:mutant:{key}"] = run(command, name, scratch)
    for path in sorted(CORPUS.iterdir()):
        for command in COMMANDS:
            got[f"{command}:corrupted:{path.name}"] = run(command, path.name, CORPUS)
    got["demo"] = digest(["demo"], CORPUS)
    return got


def test_pipeline_output_matches_the_goldens():
    golden = json.loads(GOLDENS.read_text(encoding="utf-8"))
    got = all_digests()
    assert sorted(got) == sorted(golden)
    assert [case for case in golden if got[case] != golden[case]] == []


def test_goldens_cover_the_seeds_the_corpus_and_demo():
    golden = json.loads(GOLDENS.read_text(encoding="utf-8"))
    files = {case.split(":")[2] for case in golden if ":corrupted:" in case}
    assert files == {p.name for p in CORPUS.iterdir()}
    assert {case.split(":")[2] for case in golden if ":mutant:" in case} == set(mutants())
    assert len(golden) == len(COMMANDS) * (len(SEEDS) + len(mutants()) + len(files)) + 1


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
