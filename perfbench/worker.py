"""One workload in one process: set up, run the timed phase, print JSON.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

``run.py`` starts this in a fresh child process per workload, so the peak
RSS is the workload's own.  catmn is driven only
through ``catmn.cli.main(argv)`` with stdout captured, one verdict at a
time.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# Run in a fresh interpreter: one import of catmn.cli, timed by that child.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import catmn.cli; print(time.perf_counter() - start)"
)

# Per-layer figures besides each layer's self time: the call counts and the
# inclusive times of the functions a change is most likely to move.  The call
# counts of one verdict also make up the trace line printed per command.
CALL_COUNTS = (
    "textio.load_path",
    "fibered.validate_spec",
    "fibered.check_extension_property",
    "core.opposite",
    "core.inverse_of",
    "functors.validate_functor",
    "functors.validate_nat",
    "functors.compose_functors",
    "monads.check_idempotent_monad",
    "monads.check_idempotent_comonad",
    "equivalence.check_mn_hypotheses",
    "transport.validate_equivalence",
)
INCLUSIVE = (
    "textio.load_path",
    "fibered.build_total_category",
    "fibered.build_final_monad",
    "fibered.build_initial_comonad",
    "core.opposite",
    "core.full_subcategory",
    "core.validate_category",
    "functors.validate_functor",
    "functors.validate_nat",
    "monads.verify_reflection",
    "monads.verify_coreflection",
    "equivalence.verify_adjoint_equivalence",
    "equivalence.verify_factorizations",
    "transport.validate_equivalence",
    "transport.relabeled_opposite_equivalence",
    "transport.verify_transfer",
    "dot.render_dot",
)
COMMAND_METRICS = {
    "mn-check": "mn_check_s",
    "transport": "transport_s",
    "validate": "validate_s",
    "export-dot": "export_dot_s",
}


def run_verdict(cli, verdict):
    """Run one CLI command; return (seconds, exit code, stdout, problem)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(verdict.argv)
    except (Exception, SystemExit) as exc:  # a traceback is a wrong verdict
        seconds = time.perf_counter() - start
        return seconds, None, buf.getvalue(), f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    out = buf.getvalue()
    return seconds, rc, out, verdict.check(rc, out)


class Tally:
    """Verdict outcomes and times over the passes of the timed phase."""

    def __init__(self):
        self.times: list[float] = []
        self.by_input: dict[tuple[str, str], list[float]] = {}
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add_pass(self, results, verdicts) -> None:
        for (seconds, _, _, problem), verdict in zip(results, verdicts):
            self.attempted += 1
            self.times.append(seconds)
            self.by_input.setdefault((verdict.command, verdict.label), []).append(seconds)
            if problem is not None:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"{verdict.command} {verdict.label}: {problem}")
        self.passes += 1

    def pass_time(self, command: str) -> float:
        """One pass of ``command`` over the inputs: the sum over inputs of
        the median time of the command on that input."""
        return sum(
            statistics.median(times)
            for (c, _), times in self.by_input.items()
            if c == command
        )


def another_pass(start: float, passes: int, seconds: float) -> bool:
    """Passes are whole, so a phase ends at the pass boundary nearest to
    ``seconds``: run the first pass, then another while it is expected to
    end less than half a pass past ``seconds``."""
    if not passes:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / passes / 2 < seconds


def timed_phase(cli, workload, seconds):
    tally = Tally()
    start = time.perf_counter()
    while another_pass(start, tally.passes, seconds):
        tally.add_pass([run_verdict(cli, v) for v in workload.verdicts], workload.verdicts)
    return tally


def traced_phase(cli, workload, seconds):
    """Pairs of passes, untraced then traced, over the same verdicts.

    Per-layer figures are per traced pass; the overhead is the traced
    minus the untraced verdict time.  Each traced verdict must print
    exactly what its untraced run printed.  Returns the tally of both kinds
    of pass, the metrics, and one line of call counts per command.
    """
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    plain, traced = Tally(), Tally()
    calls, inclusive, self_time = Counter(), Counter(), Counter()
    lines: dict[str, str] = {}
    start = time.perf_counter()
    while another_pass(start, traced.passes, seconds):
        untraced_results = [run_verdict(cli, v) for v in workload.verdicts]
        traced_results = []
        tracer.install()
        try:
            for i, v in enumerate(workload.verdicts):
                tracer.verdict = i
                traced_results.append(run_verdict(cli, v))
        finally:
            tracer.uninstall()
        for i, (a, b) in enumerate(zip(untraced_results, traced_results)):
            if a[1:3] != b[1:3] and b[3] is None:
                traced_results[i] = b[:3] + ("traced output differs from untraced",)
        plain.add_pass(untraced_results, workload.verdicts)
        traced.add_pass(traced_results, workload.verdicts)
        profile = tracer.drain()
        calls.update(profile.calls)
        inclusive.update(profile.inclusive)
        self_time.update(profile.self_time)
        for i, v in enumerate(workload.verdicts):
            per_verdict = profile.verdict_calls[i]
            lines.setdefault(
                v.command,
                f"trace {v.command} {v.label}: "
                + " ".join(f"{name}.calls={per_verdict[name]}" for name in CALL_COUNTS),
            )
    n = traced.passes
    metrics = {f"{layer}.self_s": (self_time[layer] / n, "s") for layer in LAYERS}
    metrics.update({f"{name}.calls": (calls[name] / n, "count") for name in CALL_COUNTS})
    metrics.update({f"{name}.s": (inclusive[name] / n, "s") for name in INCLUSIVE})
    metrics["trace.overhead_s"] = ((sum(traced.times) - sum(plain.times)) / n, "s")
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.problems = (plain.problems + traced.problems)[:5]
    return traced, metrics, list(lines.values())


def end_to_end(tally, setup_s):
    times = tally.times
    correct = tally.attempted - tally.failed
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (correct / sum(times), "1/s"),
        "verdict_p50_ms": (statistics.median(times) * 1000, "ms"),
        "verdict_p90_ms": (deciles[8] * 1000, "ms"),
    }
    for command, name in COMMAND_METRICS.items():
        metrics[name] = (tally.pass_time(command), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def import_seconds() -> float:
    """One import of catmn in a fresh interpreter.  Each set-up repetition
    pays it, because this process can import catmn only once."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=60,
    )
    return float(out.stdout)


def main(argv):
    name, seed, seconds, trace, work = argv
    seed, seconds, trace, work = int(seed), float(seconds), trace == "1", Path(work)
    sys.path.insert(0, str(ROOT / "src"))
    import catmn.cli as cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "catmn":
        sys.exit(f"imported catmn from {cli.__file__}, not from this checkout")
    from inputs import BUILDERS

    setups = []
    for _ in range(SETUP_REPEATS):
        import_s = import_seconds()
        start = time.perf_counter()
        workload = BUILDERS[name](seed, work)
        setups.append(import_s + time.perf_counter() - start)
    setup_s = statistics.median(setups)

    if trace:
        tally, metrics, lines = traced_phase(cli, workload, seconds)
    else:
        tally, lines = timed_phase(cli, workload, seconds), []
        metrics = end_to_end(tally, setup_s)
    result = {
        "workload": name,
        "inputs": workload.inputs,
        "passes": tally.passes,
        "samples": len(tally.times),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "lines": lines,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
