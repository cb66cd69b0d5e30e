"""catmn benchmark: seeded verdict workloads, end to end or traced.

    python3 perfbench/run.py [--workload corpus|large] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout that has ``src/catmn``.  Without
``--workload`` every workload runs in turn.  Each workload runs in its own
fresh child process (``worker.py``), one closed-loop client issuing one
verdict at a time.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
exit code is non-zero when any verdict was wrong.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "large")
LARGE_MORPHISM_LIMIT = 20_000  # the 15,760-morphism rung is over the default
CHILD_TIMEOUT_S = 170


def child_env(workload: str) -> dict[str, str]:
    """The caller's environment without catmn's knobs; only ``large`` gets
    a raised morphism limit.  ``CATMN_JOBS`` is dropped because worker
    threads slow the sweeps down."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("CATMN_JOBS", "CATMN_MAX_MORPHISMS")
    }
    if workload == "large":
        env["CATMN_MAX_MORPHISMS"] = str(LARGE_MORPHISM_LIMIT)
    return env


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    work = ROOT / ".perfbench-work" / f"{workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), str(trace), str(work)],
            cwd=ROOT,
            env=child_env(workload),
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"{workload}: worker took over {CHILD_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload}: worker exited {proc.returncode}")
    return json.loads(lines[-1])


def report(result: dict) -> None:
    name = result["workload"]
    for record in result["inputs"]:
        print(name, "input", " ".join(f"{k}={v}" for k, v in record.items()))
    for line in result["lines"]:
        print(name, line)
    for problem in result["problems"]:
        print(name, "WRONG", problem)
    print(
        f"{name} passes={result['passes']} samples={result['samples']} "
        f"attempted={result['attempted']} failed={result['failed']} "
        f"failed_share={result['failed'] / result['attempted']:.4f}"
    )
    for metric, m in result["metrics"].items():
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=48)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "catmn" / "__init__.py").is_file():
        print(f"no catmn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    results = [
        run_workload(w, args.seed, args.seconds, args.trace)
        for w in ([args.workload] if args.workload else WORKLOADS)
    ]
    for result in results:
        report(result)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.workload:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
