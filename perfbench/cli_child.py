"""Run one jcsim CLI command with the benchmark's tracer or memory probe installed.

    python3 perfbench/cli_child.py --mode trace|memory --out FILE -- <jcsim arguments>

The command's stdout, stderr and exit code are those of ``jcsim``; the
spans or memory figures go to FILE when the command returns.
"""

from __future__ import annotations

import argparse
import json
import sys
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import jcsim.cli  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("trace", "memory"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    if args.mode == "trace":
        recorder = tracing.Tracer()
    else:
        recorder = tracing.MemoryProbe()
        tracemalloc.start()
    tracing.install(recorder.wrap)
    try:
        code = jcsim.cli.main(argv)
    finally:
        record = {"spans": recorder.spans} if args.mode == "trace" else {"memory": recorder.as_dict()}
        args.out.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
