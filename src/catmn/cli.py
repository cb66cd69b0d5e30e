"""Command-line surface for the engine.

Commands: ``validate`` (parse a file, run every artifact's validator),
``mn-check`` (full monad/comonad/equivalence pipeline on a fibered spec),
``transport`` (carry the spec's monads across a contravariant equivalence
and re-verify everything on the far side), ``export-dot`` (Graphviz
rendering), ``random`` (seeded spec generation), and ``demo`` (built-in
fixtures end to end).

Every command prints a deterministic report to stdout and exits 0 exactly
when all requested verifications came back empty; verification failures
exit 1, parse and build errors exit 2 with the failing stage named.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from importlib import resources

from .config import morphism_limit
from .dot import render_dot, render_spec_dot
from .equivalence import (
    build_mn_equivalence,
    check_mn_hypotheses,
    make_mn_pair,
    verify_adjoint_equivalence,
    verify_factorizations,
)
from .errors import EngineError, InvalidArtifactError, ParseError
from .fibered import (
    SizeLimits,
    build_total_category,
    canonical_c2,
    collapse,
    random_spec,
    terminal_spec,
    validate_spec,
)
from .functors import identity_functor, identity_nat
from .monads import COMONAD, MONAD, MonadDatum, check_idempotent, verify_reflection
from .report import ValidationReport
from .textio import (
    LoadedArtifact,
    load_path,
    load_text,
    render_artifacts,
    render_json,
    validator_for,
)
from .transport import (
    powerset_duality_demo,
    relabeled_opposite_equivalence,
    transport_pair,
    validate_equivalence,
    verify_transfer,
)


class _Run:
    """Stage bookkeeping: prints one line per stage, stops at the first
    failure, remembers which stage failed."""

    def __init__(self, out):
        self.out = out
        self.failed_stage = None

    @property
    def ok(self) -> bool:
        return self.failed_stage is None

    def _fail(self, label: str, lines) -> None:
        self.out.write(f"stage {label}: FAIL\n")
        for line in lines:
            self.out.write(f"  {line}\n")
        self.failed_stage = label

    def check(self, label: str, fn) -> bool:
        """Run ``fn`` for a ValidationReport; pass iff it is empty."""
        if not self.ok:
            return False
        try:
            report = fn()
        except EngineError as exc:
            self._fail(label, str(exc).splitlines())
            return False
        if report.ok:
            self.out.write(f"stage {label}: ok\n")
            for note in report.notes:
                self.out.write(f"  note: {note}\n")
            return True
        self._fail(label, report.render().splitlines())
        return False

    def build(self, label: str, fn):
        """Run ``fn`` for a value; engine errors fail the stage."""
        if not self.ok:
            return None
        try:
            value = fn()
        except EngineError as exc:
            self._fail(label, str(exc).splitlines())
            return None
        self.out.write(f"stage {label}: ok\n")
        return value

    def finish(self) -> int:
        if self.ok:
            self.out.write("result: PASS\n")
            return 0
        self.out.write(f"result: FAIL (stage {self.failed_stage})\n")
        return 1


def _mn_pipeline(run: _Run, monad, comonad, prefix: str = ""):
    """The shared theorem chain: idempotence, reflections, hypotheses,
    equivalence, factorizations.  Returns the pair, or None.
    Stages after a failed one do not run (see :class:`_Run`)."""
    run.check(prefix + "monad-laws", lambda: check_idempotent(monad))
    run.check(prefix + "comonad-laws", lambda: check_idempotent(comonad))
    pair = run.build(prefix + "fixed-subcategories", lambda: make_mn_pair(monad, comonad))
    run.check(prefix + "reflection", lambda: verify_reflection(pair.reflection))
    run.check(prefix + "coreflection", lambda: verify_reflection(pair.coreflection))
    run.check(prefix + "hypotheses", lambda: check_mn_hypotheses(pair))
    eq = run.build(prefix + "equivalence-build", lambda: build_mn_equivalence(pair))
    run.check(prefix + "adjoint-equivalence", lambda: verify_adjoint_equivalence(eq))
    run.check(prefix + "factorizations", lambda: verify_factorizations(pair, eq))
    return pair if run.ok else None


def _load_first_spec(path):
    artifacts = load_path(path)
    for a in artifacts:
        if a.kind == "spec":
            return a.value
    raise ParseError("file contains no SPEC artifact", str(path), 1)


def _build_stages(run: _Run, spec):
    """build-total, then one collapse walk per side, each walked inside a
    build stage.  A failed build shows the walk's first error, then every
    violation of both walks.  Returns (total, monad, comonad)."""
    t = run.build("build-total", lambda: build_total_category(spec))
    walk = functools.cache(lambda side: collapse(t, side))

    def built(side):
        datum, failures = walk(side)
        if failures:
            report = ValidationReport([v for s in (MONAD, COMONAD) for _, v in walk(s)[1]])
            raise InvalidArtifactError(str(failures[0][0]), report)
        return datum

    monad = run.build("build-monad", lambda: built(MONAD))
    comonad = run.build("build-comonad", lambda: built(COMONAD))
    return t, monad, comonad


def _spec_pipeline(out, spec) -> int:
    out.write(f"spec {spec.name}\n")
    run = _Run(out)
    run.check("validate-spec", lambda: validate_spec(spec))
    t, monad, comonad = _build_stages(run, spec)
    pair = _mn_pipeline(run, monad, comonad)
    if pair is not None:
        out.write(
            "summary: objects={} morphisms={} monad-fixed={} comonad-fixed={}\n".format(
                len(t.total.objects),
                len(t.total.morphisms),
                len(pair.reflection.subcategory.objects),
                len(pair.coreflection.subcategory.objects),
            )
        )
    return run.finish()


def _transport_pipeline(out, spec, mode: str = "relabel-opposite") -> int:
    """Transport across the relabeled opposite of the spec's total category.
    ``demo`` also runs the ``powerset-duality-demo`` mode, which transports
    identity (co)monads across the built-in powerset duality; the spec is
    then only validated and size-gated."""
    out.write(f"spec {spec.name}\n")
    out.write(f"mode {mode}\n")
    run = _Run(out)
    run.check("validate-spec", lambda: validate_spec(spec))
    if mode == "relabel-opposite":
        t, source_monad, source_comonad = _build_stages(run, spec)
        eq = run.build("build-duality", lambda: relabeled_opposite_equivalence(t.total))
        run.check("duality", lambda: validate_equivalence(eq))
    else:
        run.build("size-gate", lambda: build_total_category(spec))
        eq = run.build("build-duality", powerset_duality_demo)
        run.check("duality", lambda: validate_equivalence(eq))
        source_monad = source_comonad = None
        if run.ok:
            one = identity_functor(eq.source)
            source_monad, source_comonad = (
                MonadDatum(one, identity_nat(one), side, name=f"identity-{side.monad}")
                for side in (MONAD, COMONAD)
            )

    r = run.build(
        "transport", lambda: transport_pair(eq, source_monad, source_comonad)
    )
    run.check(
        "transfer",
        lambda: verify_transfer(source_monad, source_comonad, r),
    )
    pair = None
    if run.ok:
        pair = _mn_pipeline(run, r.induced_monad, r.induced_comonad, prefix="induced-")
    if pair is not None:
        for kind, sub in (
            ("monad", pair.reflection.subcategory),
            ("comonad", pair.coreflection.subcategory),
        ):
            out.write(f"induced-{kind}-fixed: " + " ".join(sub.objects) + "\n")
    return run.finish()


# ---------------------------------------------------------------------------
# commands


def cmd_validate(args, out) -> int:
    artifacts = load_path(args.path)
    all_ok = True
    for a in artifacts:
        report = validator_for(a.kind)(a.value)
        if report.ok:
            out.write(f"{a.kind} {a.name}: ok\n")
            for note in report.notes:
                out.write(f"  note: {note}\n")
        else:
            all_ok = False
            out.write(f"{a.kind} {a.name}: FAIL\n")
            for line in report.render().splitlines():
                out.write(f"  {line}\n")
    return 0 if all_ok else 1


def cmd_mn_check(args, out) -> int:
    return _spec_pipeline(out, _load_first_spec(args.path))


def cmd_transport(args, out) -> int:
    return _transport_pipeline(out, _load_first_spec(args.path))


def cmd_export_dot(args, out) -> int:
    artifacts = load_path(args.path)
    first = artifacts[0]
    if first.kind == "category":
        text = render_dot(first.value)
    elif first.kind == "spec":
        text = render_spec_dot(first.value)
    else:
        raise InvalidArtifactError(
            f"cannot export a {first.kind} as DOT; give a category or spec file"
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    out.write(f"wrote {args.out}\n")
    return 0


def cmd_random(args, out) -> int:
    limits = SizeLimits(
        max_base_objects=args.max_base, max_fiber_elements=args.max_fiber
    )
    spec = random_spec(args.seed, limits)
    artifacts = [LoadedArtifact("spec", spec.name, spec)]
    text = render_json(artifacts) if args.json else render_artifacts(artifacts)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.write(f"wrote {args.out}\n")
    else:
        out.write(text)
    return 0


def cmd_demo(args, out) -> int:
    codes = [
        _spec_pipeline(out, terminal_spec()),
    ]
    out.write("\n")
    codes.append(_spec_pipeline(out, canonical_c2()))
    out.write("\n")
    codes.append(_transport_pipeline(out, canonical_c2()))
    out.write("\n")
    codes.append(_transport_pipeline(out, terminal_spec(), "powerset-duality-demo"))
    out.write("\n")

    shipped = resources.files("catmn.data").joinpath("canonical_c2.spec").read_text(
        encoding="utf-8"
    )
    arts = load_text(shipped, "canonical_c2.spec")
    roundtrip = render_artifacts(arts) == shipped
    out.write(
        "shipped-fixture-round-trip: " + ("ok" if roundtrip else "FAIL") + "\n"
    )
    codes.append(0 if roundtrip else 1)
    return max(codes)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``catmn`` argument parser, built on the first call and shared by
    every later one.  It names each command but binds no function to it:
    :func:`main` looks ``cmd_<command>`` up on this module at call time, so a
    function rebound here after the first call is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="catmn",
        description=(
            "Finite-category engine: construct and exhaustively verify "
            "idempotent monads, reflective subcategories, the maximal-normal "
            "equivalence, and their transport across contravariant dualities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("validate", help="run every artifact's validator on a file")
    p.add_argument("path", help="artifact file (text or JSON)")

    p = sub.add_parser(
        "mn-check",
        help="full monad/comonad/equivalence verification of a fibered spec",
    )
    p.add_argument("path", help="spec file")

    p = sub.add_parser(
        "transport",
        help="carry the spec's monads across a contravariant equivalence",
    )
    p.add_argument("path", help="spec file")

    p = sub.add_parser("export-dot", help="write a Graphviz DOT rendering")
    p.add_argument("path", help="category or spec file")
    p.add_argument("--out", required=True, help="output .dot path")

    p = sub.add_parser("random", help="generate a seeded random fibered spec")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-base", type=int, default=4, help="max base objects")
    p.add_argument("--max-fiber", type=int, default=5, help="max fiber elements")
    p.add_argument("--json", action="store_true", help="emit the JSON encoding")
    p.add_argument("--out", default=None, help="write to a file instead of stdout")

    sub.add_parser("demo", help="run the built-in fixtures end to end")

    return parser


class _QuietPipe:
    """``stdout`` for a command.  When the reader closes the pipe (``catmn
    validate big.cm | head``) the stream is pointed at ``os.devnull``, so the
    command still runs to its verdict and the rest of its report, and the
    final flush at exit, go nowhere instead of ending in a traceback."""

    def __init__(self, stream):
        self.stream = stream

    def _quiet(self) -> None:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, self.stream.fileno())
        os.close(devnull)

    def write(self, text: str) -> None:
        try:
            self.stream.write(text)
        except BrokenPipeError:
            self._quiet()

    def flush(self) -> None:
        try:
            self.stream.flush()
        except BrokenPipeError:
            self._quiet()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    out = _QuietPipe(sys.stdout)
    try:
        morphism_limit()  # a bad value is no fault of any input file
        code = command(args, out)
    except (EngineError, OSError) as exc:
        out.write(f"error: {exc}\n")
        code = 2
    out.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
