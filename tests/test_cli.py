"""The catmn command line: stage reports, exit codes, file output."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catmn
import catmn.cli
from catmn import (
    LoadedArtifact,
    canonical_c2,
    load_text,
    render_artifacts,
    render_category,
    render_dot,
    render_json,
    render_spec,
    render_spec_dot,
)
from catmn.cli import main
from catmn.report import MAX_PER_RULE
from helpers import orbit, spy

# ``python -m catmn.cli`` in a child process, on the sources under test
MODULE = [sys.executable, "-m", "catmn.cli"]
MODULE_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(Path(catmn.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
    ),
}

MN_CHECK_C2 = """\
spec canonical_c2
stage validate-spec: ok
stage build-total: ok
stage build-monad: ok
stage build-comonad: ok
stage monad-laws: ok
stage comonad-laws: ok
stage fixed-subcategories: ok
stage reflection: ok
stage coreflection: ok
stage hypotheses: ok
stage equivalence-build: ok
stage adjoint-equivalence: ok
stage factorizations: ok
summary: objects=5 morphisms=14 monad-fixed=2 comonad-fixed=2
result: PASS
"""

TRANSPORT_C2 = """\
spec canonical_c2
mode relabel-opposite
stage validate-spec: ok
stage build-total: ok
stage build-monad: ok
stage build-comonad: ok
stage build-duality: ok
stage duality: ok
stage transport: ok
stage transfer: ok
stage induced-monad-laws: ok
stage induced-comonad-laws: ok
stage induced-fixed-subcategories: ok
stage induced-reflection: ok
stage induced-coreflection: ok
stage induced-hypotheses: ok
stage induced-equivalence-build: ok
stage induced-adjoint-equivalence: ok
stage induced-factorizations: ok
induced-monad-fixed: b0|bot0~ b1|bot1~
induced-comonad-fixed: b0|top0~ b1|top1~
result: PASS
"""


@pytest.fixture
def c2_file(tmp_path):
    path = tmp_path / "c2.cm"
    path.write_text(render_spec(canonical_c2()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_mn_check_c2(capsys, c2_file):
    code, out = run_cli(capsys, "mn-check", c2_file)
    assert code == 0
    assert out == MN_CHECK_C2


def test_mn_check_stops_at_first_failing_stage(capsys, tmp_path):
    s = canonical_c2()
    act = {"bot0": "top1", "mid0": "bot1", "top0": "top1"}
    bad = dataclasses.replace(s, actions={**s.actions, "f": act})
    path = tmp_path / "bad.cm"
    path.write_text(render_spec(bad))
    code, out = run_cli(capsys, "mn-check", str(path))
    assert code == 1
    assert "stage validate-spec: FAIL" in out
    assert "action-monotone" in out
    assert "build-total" not in out
    assert out.endswith("result: FAIL (stage validate-spec)\n")


def test_mn_check_reports_build_diagnostics(capsys, tmp_path):
    # valid spec whose action is not bottom-preserving: the comonad build
    # fails and the extension diagnosis is appended to the stage report
    s = canonical_c2()
    act = {"bot0": "top1", "mid0": "top1", "top0": "top1"}
    bad = dataclasses.replace(s, actions={**s.actions, "f": act})
    path = tmp_path / "collapse.cm"
    path.write_text(render_spec(bad))
    code, out = run_cli(capsys, "mn-check", str(path))
    assert code == 1
    assert "stage build-comonad: FAIL" in out
    assert "expected exactly one lift" in out
    assert "extension-initial-lift" in out
    assert out.endswith("result: FAIL (stage build-comonad)\n")


def test_transport_relabel_opposite(capsys, c2_file):
    code, out = run_cli(capsys, "transport", c2_file)
    assert code == 0
    assert out == TRANSPORT_C2


def test_transport_powerset_demo_mode(capsys, tmp_path):
    # the powerset duality runs only as a section of `catmn demo`
    code, out = run_cli(capsys, "demo")
    assert code == 0
    section = next(s for s in out.split("\n\n") if "mode powerset-duality-demo\n" in s)
    assert section.startswith("spec terminal\nmode powerset-duality-demo\n")
    assert "stage size-gate: ok" in section
    assert "stage duality: ok" in section
    assert "induced-monad-fixed: alg1 alg12" in section
    assert "induced-comonad-fixed: alg1 alg12" in section
    assert section.endswith("result: PASS")

    path = tmp_path / "c2.cm"
    path.write_text(render_spec(canonical_c2()))
    with pytest.raises(SystemExit):
        run_cli(capsys, "transport", str(path), "--mode", "powerset-duality-demo")


def test_validate_command(capsys, tmp_path):
    path = tmp_path / "orbit.cm"
    path.write_text(render_category(orbit()))
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert out == "category orbit: ok\n"

    crooked = render_category(orbit()).replace("e o e = id_b", "e o e = e")
    bad = tmp_path / "crooked.cm"
    bad.write_text(crooked)
    code, out = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "category orbit: FAIL" in out
    assert "associativity" in out


def test_validate_report_is_bounded_per_rule(capsys, tmp_path):
    # one object, 600 endomorphisms besides the identity, no COMPOSE: the
    # loader completes the identity laws and leaves 600 x 600 pairs missing
    names = [f"m{i:03d}" for i in range(600)]
    lines = ["CATEGORY big", "  OBJECTS", "    x", "  MORPHISMS", "    id_x: x -> x"]
    lines += [f"    {m}: x -> x" for m in names]
    lines += ["  IDENTITIES", "    x: id_x", "END"]
    path = tmp_path / "big.cm"
    path.write_text("\n".join(lines) + "\n")
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 1
    out_lines = out.splitlines()
    assert out_lines[0] == "category big: FAIL"
    assert len(out_lines) == 1 + MAX_PER_RULE + 1
    shown = out_lines[1:-1]
    assert all(line.startswith("  compose-missing [") for line in shown)
    # the first violations in sorted order are the ones kept
    assert shown[0] == "  compose-missing [m000, m000]: composable pair has no table entry"
    assert shown[-1].startswith(f"  compose-missing [m000, {names[MAX_PER_RULE - 1]}]")
    assert out_lines[-1] == (
        f"  ... and {600 * 600 - MAX_PER_RULE} more violations, not shown "
        f"(at most {MAX_PER_RULE} of each rule are)"
    )


def test_export_dot(capsys, tmp_path, c2_file):
    target = tmp_path / "c2.dot"
    code, out = run_cli(capsys, "export-dot", c2_file, "--out", str(target))
    assert code == 0
    assert out == f"wrote {target}\n"
    assert target.read_text() == render_spec_dot(canonical_c2())

    cat_file = tmp_path / "orbit.cm"
    cat_file.write_text(render_category(orbit()))
    target2 = tmp_path / "orbit.dot"
    code, _ = run_cli(capsys, "export-dot", str(cat_file), "--out", str(target2))
    assert code == 0
    assert target2.read_text() == render_dot(orbit())


def test_error_exit_codes(capsys, tmp_path):
    code, out = run_cli(capsys, "mn-check", str(tmp_path / "missing.cm"))
    assert code == 2
    assert out.startswith("error: ")

    garbage = tmp_path / "garbage.cm"
    garbage.write_text("BANANA split\n")
    code, out = run_cli(capsys, "mn-check", str(garbage))
    assert code == 2
    assert "expected CATEGORY, SPEC, FUNCTOR, or NAT" in out

    no_spec = tmp_path / "orbit.cm"
    no_spec.write_text(render_category(orbit()))
    code, out = run_cli(capsys, "mn-check", str(no_spec))
    assert code == 2
    assert out == f"error: {no_spec}:1:1: file contains no SPEC artifact\n"


ONE_OBJECT = (
    "CATEGORY c\n  OBJECTS\n    a\n  MORPHISMS\n    id_a: a -> a\n  IDENTITIES\n    a: id_a\n"
    "  COMPOSE\nEND\n"
)
IDENTITY_FUNCTOR = "FUNCTOR {}: c -> c\n  OBJMAP\n    a -> a\n  MORMAP\n    id_a -> id_a\nEND\n"


@pytest.mark.parametrize(
    "name, text, place",
    [
        (
            "twice.cm",
            "# objects named twice\nCATEGORY c\n  OBJECTS\n    a a\n  MORPHISMS\n"
            "    id_a: a -> a\n  IDENTITIES\n    a: id_a\n  COMPOSE\nEND\n",
            "2:1: category 'c' has duplicate object names",
        ),
        (
            "twice.json",
            json.dumps({"artifacts": [{
                "kind": "category", "name": "c", "objects": ["a"],
                "morphisms": [{"name": "id_a", "src": "a", "dst": "a"}] * 2,
                "identities": {"a": "id_a"}, "compose": [],
            }]}),
            "1:1: category 'c' has duplicate morphism name 'id_a'",
        ),
        (
            # the NAT after the second F never resolves it
            "twice_functor.cm",
            ONE_OBJECT + IDENTITY_FUNCTOR.format("F") * 2 + "NAT n: F => F\n  COMPONENTS\nEND\n",
            "16:1: duplicate functor name 'F'",
        ),
        (
            "twice_category.json",
            json.dumps({"artifacts": [{
                "kind": "category", "name": "c", "objects": ["a"],
                "morphisms": [{"name": "id_a", "src": "a", "dst": "a"}],
                "identities": {"a": "id_a"}, "compose": [],
            }] * 2}),
            "1:1: duplicate category name 'c'",
        ),
    ],
)
def test_duplicate_names_are_a_parse_error_at_the_block(capsys, tmp_path, name, text, place):
    path = tmp_path / name
    path.write_text(text)
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert out == f"error: {path}:{place}\n"


def test_names_are_per_kind(capsys, tmp_path):
    path = tmp_path / "shared.cm"
    path.write_text(ONE_OBJECT + IDENTITY_FUNCTOR.format("c"))
    code, out = run_cli(capsys, "validate", str(path))
    assert (code, out) == (0, "category c: ok\nfunctor c: ok\n")


def test_over_limit_category_is_a_parse_error_at_the_block(capsys, tmp_path, monkeypatch, c2_file):
    path = tmp_path / "orbit.cm"
    path.write_text("# five morphisms\n" + render_category(orbit()))
    monkeypatch.setenv("CATMN_MAX_MORPHISMS", "2")
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert out == (
        f"error: {path}:2:1: category 'orbit' has 5 morphisms, over the limit of 2 "
        "(set CATMN_MAX_MORPHISMS to override)\n"
    )
    # a bad value is the environment's fault, not the file's, on every command
    commands = (["validate", str(path)], ["mn-check", c2_file], ["random", "--seed", "1"], ["demo"])
    for value, error in (("many", "must be an integer, got 'many'"), ("0", "must be positive, got 0")):
        monkeypatch.setenv("CATMN_MAX_MORPHISMS", value)
        for argv in commands:
            code, out = run_cli(capsys, *argv)
            assert code == 2
            assert out == f"error: CATMN_MAX_MORPHISMS {error}\n"


def test_dense_category_is_refused_before_any_row(capsys, tmp_path, monkeypatch):
    # one object and 2,001 endomorphisms: 4,004,001 composable pairs, over
    # 64 times the default morphism limit, refused at the block line before
    # the loader completes a single row
    lines = ["# one object, 2,001 endomorphisms", "CATEGORY dense", "  OBJECTS", "    x"]
    lines += ["  MORPHISMS"] + [f"    m{i}: x -> x" for i in range(2001)] + ["END"]
    path = tmp_path / "dense.cm"
    path.write_text("\n".join(lines) + "\n")

    def no_rows(c):
        raise AssertionError("rows completed for an over-bound category")

    monkeypatch.setattr(catmn.textio, "_derived_rows", no_rows)
    code, out = run_cli(capsys, "validate", str(path))
    assert (code, out) == (
        2,
        f"error: {path}:2:1: category 'dense' has 4004001 composable pairs, over the "
        "limit of 640000 (64 times the morphism limit; set CATMN_MAX_MORPHISMS to override)\n",
    )


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_random_command_is_reproducible(capsys):
    code, first = run_cli(capsys, "random", "--seed", "7")
    assert code == 0
    _, second = run_cli(capsys, "random", "--seed", "7")
    assert first == second
    _, other = run_cli(capsys, "random", "--seed", "8")
    assert first != other
    assert first.startswith("SPEC random-")


def test_random_command_refuses_caps_past_the_morphism_limit(capsys, monkeypatch):
    # refused before any draw: a fiber this large would not fit in memory
    code, out = run_cli(capsys, "random", "--seed", "1", "--max-fiber", "1000000000")
    assert code == 2
    assert out == (
        "error: size limits SizeLimits(max_base_objects=4, max_base_morphisms=6, "
        "max_fiber_elements=1000000000) exceed the limit of 10000 morphisms "
        "(set CATMN_MAX_MORPHISMS to override)\n"
    )
    assert run_cli(capsys, "random", "--seed", "1", "--max-base", "10001")[0] == 2
    # the bound is the morphism limit itself, inclusive
    monkeypatch.setenv("CATMN_MAX_MORPHISMS", "3")
    assert run_cli(capsys, "random", "--seed", "1", "--max-base", "1", "--max-fiber", "3")[0] == 0
    assert run_cli(capsys, "random", "--seed", "1", "--max-base", "1", "--max-fiber", "4")[0] == 2
    assert run_cli(capsys, "random", "--seed", "1", "--max-base", "4", "--max-fiber", "1")[0] == 2


def test_random_command_json_and_out(capsys, tmp_path):
    from catmn import load_text, validate_spec

    code, out = run_cli(capsys, "random", "--seed", "3", "--json")
    assert code == 0
    assert out.startswith("{")

    target = tmp_path / "spec.cm"
    code, out = run_cli(
        capsys, "random", "--seed", "3", "--max-base", "2", "--max-fiber", "3",
        "--out", str(target),
    )
    assert code == 0
    assert out == f"wrote {target}\n"
    arts = load_text(target.read_text())
    assert validate_spec(arts[0].value).ok


def test_demo_runs_everything(capsys):
    code, out = run_cli(capsys, "demo")
    assert code == 0
    assert out.count("result: PASS") == 4
    assert "shipped-fixture-round-trip: ok" in out


# a morphism ending at a non-object, under a functor and a natural
# transformation that are fine wherever they are defined
ENDPOINT_OFF_OBJECTS = """\
CATEGORY bad
  OBJECTS
    a
  MORPHISMS
    id_a: a -> a
    f: a -> zz
  IDENTITIES
    a: id_a
  COMPOSE
END

FUNCTOR idf: bad -> bad
  OBJMAP
    a -> a
  MORMAP
    id_a -> id_a
    f -> f
END

NAT idn: idf => idf
  COMPONENTS
    a: id_a
END
"""


def test_nat_over_a_morphism_off_the_objects_is_no_traceback(tmp_path):
    path = tmp_path / "bad.cm"
    path.write_text(ENDPOINT_OFF_OBJECTS)
    proc = subprocess.run(
        MODULE + ["validate", str(path)], capture_output=True, text=True, env=MODULE_ENV
    )
    assert proc.returncode == 1
    assert proc.stderr == ""  # no traceback
    assert proc.stdout.splitlines() == [
        "category bad: FAIL",
        "  morphism-endpoints [f]: target 'zz' is not an object",
        # the functor's endpoint check at f has no image of zz to compare
        "functor idf: FAIL",
        "  functor-endpoints [f]: target 'zz' is not a source object, so its image is unchecked",
        "nat idn: ok",
    ]


def test_component_at_an_end_off_the_objects_checks_no_square(capsys, tmp_path):
    # zz is an end but no object: its component is extra, and no square
    # at f reads it
    path = tmp_path / "extra.cm"
    extra = "COMPONENTS\n    a: id_a\n    zz: f\n"
    path.write_text(ENDPOINT_OFF_OBJECTS.replace("COMPONENTS\n    a: id_a\n", extra))
    code, out, err = in_process(capsys, ["validate", str(path)])
    assert (code, err) == (1, "")
    assert out.splitlines()[-2:] == [
        "nat idn: FAIL",
        "  component-extra [zz]: component assigned to a non-object",
    ]


def in_process(capsys, argv):
    """``main(argv)`` ended as a process ends: exit code, stdout, stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_module_entry_point(capsys, monkeypatch, tmp_path, c2_file):
    """``python -m catmn.cli`` and ``python -m catmn`` each exit and print as
    in-process ``main`` does, whatever ran before it in that process: a PASS,
    a FAIL, an I/O error, usage errors and help."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal
    bad = tmp_path / "bad.cm"
    bad.write_text(ENDPOINT_OFF_OBJECTS)
    runs = [
        ["mn-check", c2_file],  # PASS
        ["validate", str(bad)],  # FAIL
        ["validate", str(tmp_path / "none.cm")],  # I/O error
        ["frobnicate"],  # usage error
        ["--help"],
        ["mn-check", "--help"],
        ["export-dot", c2_file],  # usage error: --out is required
    ]
    first = [in_process(capsys, argv) for argv in runs]
    assert [in_process(capsys, argv) for argv in runs] == first
    assert [code for code, _, _ in first] == [0, 1, 2, 2, 0, 0, 2]
    env = {**MODULE_ENV, "COLUMNS": "80"}
    for module in ("catmn.cli", "catmn"):
        for argv, expected in zip(runs, first):
            proc = subprocess.run(
                [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == expected, (module, argv)


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (
            "validate",
            {"kind": "category", "name": "x", "objects": 5},
            "artifact 0: field morphisms is missing",
        ),
        (
            "validate",
            {"kind": "category", "name": "x", "objects": 5, "morphisms": [],
             "identities": {}, "compose": []},
            "artifact 0: field objects must be a list",
        ),
        ("mn-check", {"kind": "spec", "name": "s"}, "artifact 0: field base is missing"),
    ],
)
def test_json_artifact_with_bad_field_is_a_parse_error(tmp_path, command, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"artifacts": [doc]}))
    proc = subprocess.run(
        MODULE + [command, str(path)], capture_output=True, text=True, env=MODULE_ENV
    )
    assert proc.returncode == 2
    assert proc.stderr == ""  # no traceback
    assert proc.stdout == f"error: {path}:1:1: {message}\n"


def test_closed_stdout_pipe_exits_quietly(tmp_path):
    # one object, 200 endomorphisms and no table: 40,000 compose-missing
    # lines, far more than a pipe holds, so the writer meets a closed pipe
    path = tmp_path / "one.cm"
    endos = "".join(f"    m{i:03d}: x -> x\n" for i in range(200))
    path.write_text(
        "CATEGORY one\n  OBJECTS\n    x\n  MORPHISMS\n    id_x: x -> x\n"
        f"{endos}  IDENTITIES\n    x: id_x\n  COMPOSE\nEND\n"
    )
    proc = subprocess.Popen(
        MODULE + ["validate", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=MODULE_ENV,
    )
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1  # the verdict's exit code: validation failed
    assert stderr == b""
    assert head == [
        b"category one: FAIL\n",
        b"  compose-missing [m000, m000]: composable pair has no table entry\n",
    ]


FILE_COMMANDS = ["validate", "mn-check", "transport", "export-dot"]


def file_argv(command, path):
    if command == "export-dot":
        return [command, str(path), "--out", str(Path(path).with_suffix(".dot"))]
    return [command, str(path)]


@pytest.mark.parametrize("command", FILE_COMMANDS)
@pytest.mark.parametrize(
    "data, where",
    [
        (b"\xff\xfe\x00", "1:1: not UTF-8 text: cannot decode byte 0xff"),
        (b"CATEGORY x\n  OBJECTS\n    caf\xe9\n", "3:8: not UTF-8 text: cannot decode byte 0xe9"),
    ],
)
def test_non_utf8_file_is_a_parse_error(capsys, tmp_path, command, data, where):
    path = tmp_path / "bytes.cm"
    path.write_bytes(data)
    code, out = run_cli(capsys, *file_argv(command, path))
    assert code == 2
    assert out == f"error: {path}:{where}\n"


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_empty_json_artifact_list_is_a_parse_error(capsys, tmp_path, command):
    path = tmp_path / "empty.json"
    path.write_text('{"artifacts": []}')
    code, out = run_cli(capsys, *file_argv(command, path))
    assert code == 2
    assert out == f'error: {path}:1:1: empty "artifacts" list: no artifacts\n'
    assert not path.with_suffix(".dot").exists()


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_deeply_nested_json_is_a_parse_error(capsys, tmp_path, command):
    # json.loads recurses once per level and gives up past the recursion limit
    path = tmp_path / "deep.json"
    path.write_text('{"artifacts": ' + "[" * 1100 + "]" * 1100 + "}")
    code, out = run_cli(capsys, *file_argv(command, path))
    assert code == 2
    assert out == f"error: {path}:1:1: bad JSON: nested too deeply\n"
    assert not path.with_suffix(".dot").exists()


# counts argparse parsers from the first import of catmn.cli on
COUNT_PARSERS = """
import argparse, contextlib, io, sys

built = []
init = argparse.ArgumentParser.__init__

def counting(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting
import catmn.cli

counts = [len(built)]
for argv in (["mn-check", sys.argv[1]], ["validate", sys.argv[1]], ["demo"]):
    with contextlib.redirect_stdout(io.StringIO()):
        catmn.cli.main(argv)
    counts.append(len(built))
print(*counts)
"""


def test_one_process_builds_the_parser_once(c2_file):
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_PARSERS, c2_file],
        capture_output=True, text=True, env=MODULE_ENV,
    )
    assert proc.stderr == ""
    after_import, *after_calls = map(int, proc.stdout.split())
    assert after_import == 0  # importing the module builds nothing
    assert after_calls[0] > 0
    assert after_calls == [after_calls[0]] * 3  # later calls build no more


def test_spy_set_after_a_first_call_sees_the_command(capsys, monkeypatch, c2_file):
    """The parser outlives the call that built it, but binds no command:
    ``main`` finds ``cmd_validate`` on the module when it runs."""
    assert run_cli(capsys, "validate", c2_file) == (0, "spec canonical_c2: ok\n")
    calls = []
    spy(monkeypatch, catmn.cli, "cmd_validate", calls)
    assert run_cli(capsys, "validate", c2_file) == (0, "spec canonical_c2: ok\n")
    assert [(args.path, name) for args, name in calls] == [(c2_file, "cmd_validate")]


def _encodings(name, text):
    return [(name, text), (name + ".json", render_json(load_text(text, name)))]


# the shipped spec and the corrupted corpus, each as text and as JSON
MUTATION_BASES = _encodings(
    "canonical_c2.spec",
    resources.files("catmn.data").joinpath("canonical_c2.spec").read_text(encoding="utf-8"),
) + [
    base
    for p in sorted((Path(__file__).parent / "fixtures" / "corrupted").iterdir())
    for base in _encodings(p.name, p.read_text(encoding="utf-8"))
]

LINE_MUTATIONS = st.tuples(
    st.sampled_from(["drop", "duplicate", "swap", "truncate"]),
    st.integers(0, 1 << 16),
    st.integers(0, 1 << 16),
)


def mutated(lines, mutations):
    """Apply each ``(kind, i, j)`` in turn; ``i`` and ``j`` wrap around the
    current line count, and ``truncate`` keeps the lines before ``i``."""
    lines = list(lines)
    for kind, i, j in mutations:
        if not lines:
            break
        i, j = i % len(lines), j % len(lines)
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(j, lines[i])
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            del lines[i:]
    return lines


@settings(max_examples=100)
@given(
    base=st.sampled_from(MUTATION_BASES),
    mutations=st.lists(LINE_MUTATIONS, min_size=1, max_size=3),
)
def test_main_survives_line_mutations(base, mutations):
    """Whatever a few dropped, repeated, swapped or cut lines do to a file,
    every file command ends in a verdict: exit 0, 1 or 2, never a raise."""
    name, text = base
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text("".join(mutated(text.splitlines(keepends=True), mutations)))
        for command in FILE_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(file_argv(command, path)) in (0, 1, 2), command
