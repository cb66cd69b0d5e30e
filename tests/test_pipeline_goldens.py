"""Byte-identity guard for the two theorem pipelines.

``fixtures/pipeline_goldens.json`` holds, per CLI run, the sha256 of the
exit code and stdout of ``mn-check`` and ``transport`` on the 200
acceptance seeds and on every file of the corrupted corpus, and of
``demo``.  The goldens were written by the code that built the whiskered
functors and swept them for naturality, before the whiskered checks were
proved from their factors; any change to a pipeline's output shows here.

Each file is run from its own directory under its bare name, so no absolute
path reaches the output.  To rewrite the goldens after an intended change of
a report, run ``PYTHONPATH=src:tests python tests/test_pipeline_goldens.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from test_acceptance import LIMITS, SEEDS

from catmn import random_spec, render_spec
from catmn.cli import main

CORPUS = Path(__file__).parent / "fixtures" / "corrupted"
GOLDENS = Path(__file__).parent / "fixtures" / "pipeline_goldens.json"
COMMANDS = ("mn-check", "transport")


def digest(argv, cwd) -> str:
    """sha256 of ``"<exit code>\\n<stdout>"`` for one in-process run."""
    out = io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(here)
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def all_digests() -> dict[str, str]:
    got = {}
    with tempfile.TemporaryDirectory() as scratch:
        for seed in SEEDS:
            name = f"seed{seed:03d}.cm"
            Path(scratch, name).write_text(render_spec(random_spec(seed, LIMITS)), encoding="utf-8")
            for command in COMMANDS:
                got[f"{command}:seed:{seed:03d}"] = digest([command, name], scratch)
    for path in sorted(CORPUS.iterdir()):
        for command in COMMANDS:
            got[f"{command}:corrupted:{path.name}"] = digest([command, path.name], CORPUS)
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
    assert len(golden) == len(COMMANDS) * (len(SEEDS) + len(files)) + 1


if __name__ == "__main__":
    GOLDENS.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
