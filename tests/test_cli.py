"""The catmn command line: stage reports, exit codes, file output."""

import dataclasses
import json
import subprocess
import sys

import pytest

from catmn import (
    LoadedArtifact,
    canonical_c2,
    render_artifacts,
    render_category,
    render_dot,
    render_spec,
    render_spec_dot,
)
from catmn.cli import main
from helpers import orbit

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
    assert "contains no SPEC artifact" in out


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


def test_module_entry_point(c2_file):
    proc = subprocess.run(
        [sys.executable, "-m", "catmn.cli", "mn-check", c2_file],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.decode().endswith("result: PASS\n")


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
        [sys.executable, "-m", "catmn.cli", command, str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr == ""  # no traceback
    assert proc.stdout == f"error: {path}:1:1: {message}\n"
