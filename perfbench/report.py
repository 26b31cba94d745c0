"""Print every end-to-end and per-layer metric, by name with its unit, for every workload.

    python3 perfbench/report.py [--seed N]

Runs perfbench/run.py once untraced (end-to-end metrics) and once traced
(per-layer metrics) for every workload, each for BENCHMARK.json's
``run_seconds``, then prints the machine record and one table per
workload.  The heading's ``fail_frac`` is failed over attempted operations,
both runs together.  Exits 1 if any operation failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stderr}")
    machine_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(machine_line)["machine"], json.loads(result_line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    any_failed = False
    for index, workload in enumerate(workloads.WORKLOADS):
        machine, plain = run_once(workload, args.seed, seconds, 0)
        _, traced = run_once(workload, args.seed, seconds, 1)
        if index == 0:
            print("machine:", json.dumps({k: v for k, v in machine.items() if k != "largest_state_bytes"}))
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        any_failed |= failed > 0
        print(f"\n== {workload} (seed {args.seed}): {attempted} operations, {failed} failed, "
              f"fail_frac {failed / attempted:g}; largest state {machine['largest_state_bytes']} bytes")
        for kind, result in (("end-to-end", plain), ("per-layer", traced)):
            for name, metric in result["metrics"].items():
                print(f"  {kind:10s}  {name:46s} {metric['value']:14.6g}  {metric['unit']}")
    return 1 if any_failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
