"""Every stage label ``mn-check`` and ``transport`` can print either fails on
a pinned input or is listed as unreachable, with the reason.

The labels are read from ``cli.py`` with :mod:`ast`: the first argument of
each ``run.check`` and ``run.build`` call, with a parameter such as
``prefix`` or ``label`` followed to the values its callers pass.  A new or
renamed stage therefore fails :func:`test_every_stage_label_is_witnessed_or_listed`
until it is given a witness or a reason.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import catmn.cli
from catmn import canonical_c2, render_spec
from catmn.cli import main

CORRUPTED = Path(__file__).parent / "fixtures" / "corrupted"


def _resolve(expr, fn, functions, calls) -> set[str]:
    """The strings ``expr``, read inside function ``fn``, can take."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return {expr.value}
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        lefts = _resolve(expr.left, fn, functions, calls)
        rights = _resolve(expr.right, fn, functions, calls)
        return {a + b for a in lefts for b in rights}
    args = fn.args.args
    names = [a.arg for a in args]
    assert isinstance(expr, ast.Name) and expr.id in names, ast.dump(expr)
    index = names.index(expr.id)
    found = set()
    defaults = dict(zip(names[len(names) - len(fn.args.defaults):], fn.args.defaults))
    if expr.id in defaults:
        found |= _resolve(defaults[expr.id], fn, functions, calls)
    for call, caller in calls.get(fn.name, []):
        given = {k.arg: k.value for k in call.keywords}
        if index < len(call.args):
            given[expr.id] = call.args[index]
        if expr.id in given:
            found |= _resolve(given[expr.id], caller, functions, calls)
    return found


def stage_labels() -> set[str]:
    """Every label a ``run.check`` or ``run.build`` call in ``cli.py`` can
    print."""
    tree = ast.parse(Path(catmn.cli.__file__).read_text(encoding="utf-8"))
    functions, calls, stages = {}, {}, []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                functions[child.name] = child
                visit(child, child)
                continue
            if isinstance(child, ast.Call) and fn is not None:
                func = child.func
                if isinstance(func, ast.Name):
                    calls.setdefault(func.id, []).append((child, fn))
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("check", "build")
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "run"
                ):
                    stages.append((child.args[0], fn))
            visit(child, fn)

    visit(tree, None)
    return set().union(*(_resolve(arg, fn, functions, calls) for arg, fn in stages))


def _c2_with_action(act):
    s = canonical_c2()
    return render_spec(dataclasses.replace(s, actions={**s.actions, "f": act}))


# label -> (spec text, environment) on which both commands fail at that stage
WITNESSED = {
    "validate-spec": ((CORRUPTED / "spec_non_monotone.cm").read_text(encoding="utf-8"), {}),
    "build-total": (render_spec(canonical_c2()), {"CATMN_MAX_MORPHISMS": "10"}),
    # f sends every element to the top, so it keeps no bottom
    "build-comonad": (_c2_with_action({"bot0": "top1", "mid0": "top1", "top0": "top1"}), {}),
}

# the stages of the shared theorem chain, run once on the spec's pair and
# once, prefixed ``induced-``, on the pair carried across the duality
CHAIN = {
    "monad-laws": "the collapse builders take each lift as the unique one, so the "
    "functor is a functor, the unit is natural and both whiskerings are identities",
    "comonad-laws": "as monad-laws, on the flipped view",
    "fixed-subcategories": "it runs after both laws stages pass, and an idempotent "
    "functor lands in its own fixed subcategory",
    "reflection": "the fixed subcategory of an idempotent monad is reflective, with "
    "the closed-form mediator (Mac Lane, CWM IV.3)",
    "coreflection": "as reflection, on the flipped view",
    "hypotheses": "N(psi) and M(eta) are identities on every spec",
    "equivalence-build": "it raises only when the hypotheses fail",
    "adjoint-equivalence": "the paper's theorem gives the adjoint equivalence once "
    "the hypotheses hold",
    "factorizations": "once the hypotheses hold, both candidates are inverses of "
    "natural isomorphisms, or such isomorphisms themselves",
}

UNREACHABLE = {
    "build-monad": "validate-spec puts each fiber's top above all its elements, so "
    "every lift between fiber tops exists, and a poset fiber makes it unique",
    "build-duality": "relabeling appends '~' to every name of a total category built "
    "from a valid spec: it is one to one, and no table entry names a stranger",
    "duality": "duality only crosses the relabeled opposite of a valid category",
    "size-gate": "only demo runs it, on the built-in terminal spec; the transport "
    "command always crosses the relabeled opposite",
    "transport": "it first proves the source laws, which cannot fail (see monad-laws)",
    "transfer": "the transfer implications hold across every contravariant equivalence",
    **CHAIN,
    **{
        "induced-" + label: "across the relabeled opposite the induced pair is the "
        f"spec's own pair read backwards, name for name: {label} does not fail either"
        for label in CHAIN
    },
}


def test_every_stage_label_is_witnessed_or_listed():
    labels = stage_labels()
    assert {"validate-spec", "induced-factorizations", "build-comonad"} <= labels
    assert not WITNESSED.keys() & UNREACHABLE.keys()
    assert sorted(labels) == sorted(WITNESSED.keys() | UNREACHABLE.keys())


@pytest.mark.parametrize("command", ["mn-check", "transport"])
@pytest.mark.parametrize("label", sorted(WITNESSED))
def test_witnessed_stage_fails(label, command, tmp_path, monkeypatch, capsys):
    text, env = WITNESSED[label]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    path = tmp_path / "input.cm"
    path.write_text(text, encoding="utf-8")
    assert main([command, str(path)]) == 1
    out = capsys.readouterr().out
    assert f"stage {label}: FAIL\n" in out
    assert out.endswith(f"result: FAIL (stage {label})\n")
