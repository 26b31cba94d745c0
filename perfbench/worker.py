"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --mode plain|trace|memory|setup --workdir DIR

Set-up is ``import jcsim`` plus input generation; the worker then prints
``READY <CLOCK_MONOTONIC seconds>`` so the parent can time interpreter
start to ready.  It runs the workload's fixed work once, checking every
operation, and prints one JSON line with the pass's figures.  ``trace``
records a span per call of a public jcsim function; ``memory`` records the
tracemalloc figures instead.  Both are installed after set-up.  ``setup``
stops after ``READY``: it exists to sample set-up time alone.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import jcsim  # noqa: E402,F401  (part of the timed set-up)

import tracing  # noqa: E402
import workloads  # noqa: E402


class CliChildren:
    """How cli_suite starts each command: plain, or under cli_child.py."""

    def __init__(self, mode: str, workdir: Path):
        self.mode = mode
        self.workdir = workdir

    def child_prefix(self, name: str) -> list[str]:
        if self.mode == "plain":
            return [sys.executable, "-m", "jcsim.cli"]
        return [
            sys.executable, str(HERE / "cli_child.py"), "--mode", self.mode,
            "--out", str(self.workdir / f"{name}.{self.mode}.json"), "--",
        ]

    def collect(self) -> list:
        """Per-command records written by cli_child.py, in command order."""
        return [
            json.loads((self.workdir / f"{name}.{self.mode}.json").read_text())
            for name, _ in workloads.CLI_COMMANDS
        ]


def _children_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "trace", "memory", "setup"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    ctx = workloads.setup(args.workload, args.seed, args.workdir)
    print("READY", time.monotonic(), flush=True)
    if args.mode == "setup":
        print(json.dumps({"mode": "setup", "attempted": 0, "failed": 0, "failures": [], "stats": {}}))
        return 0

    in_children = args.workload == "cli_suite"
    children = CliChildren(args.mode, args.workdir)
    if in_children:
        ctx["child_prefix"] = children.child_prefix
    tracer = probe = None
    if not in_children and args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer.wrap)
    elif not in_children and args.mode == "memory":
        probe = tracing.MemoryProbe()
        tracemalloc.start()
        tracing.install(probe.wrap)

    # CPU of the worker's own threads (BLAS helpers included), or of its
    # children for cli_suite
    cpu_clock = _children_cpu_seconds if in_children else time.process_time
    tally = workloads.Tally()
    cpu_before = cpu_clock()
    start = time.perf_counter()
    workloads.RUNNERS[args.workload](ctx, tally)
    wall = time.perf_counter() - start
    cpu = cpu_clock() - cpu_before
    who = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF

    result = {
        "mode": args.mode,
        "wall_s": wall,
        "cpu_s": cpu,
        # ru_maxrss is in KiB; for RUSAGE_CHILDREN it is the largest child
        "peak_rss_mb": resource.getrusage(who).ru_maxrss * 1024 / 1e6,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "stats": tally.stats,
    }
    if tracer is not None:
        result["spans"] = [tracer.spans]
    if probe is not None:
        result["memory"] = [probe.as_dict()]
    if in_children and args.mode == "trace":
        result["spans"] = [record["spans"] for record in children.collect()]
    if in_children and args.mode == "memory":
        result["memory"] = [record["memory"] for record in children.collect()]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
