"""The golden ``results`` payloads: which runs, how each is taken, and a rewrite.

``results.json`` holds, for every run in ``RUNS``, the ``results`` of the
record that ``jcsim.cli.main`` writes, with the numpy version and the CPU
dispatch targets it was taken with.  ``tests/test_golden.py`` repeats each
run in-process and compares.  A change that moves a payload on purpose
rewrites the file from the repository root with

    python tests/golden/regen.py

and says in CHANGES.md which runs moved, and why.  The table commands run
with ``--format json``: their CSV is a rendering of the same ``results``.

``state.json`` is the ``ns-gate`` input, the unit-normalised coherent state
|0.3+0.4i> at n_max 12.  It is an input, so this script never rewrites it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "results.json"
STATE = HERE / "state.json"

#: Run name -> argv; "{state}" stands for the path of ``state.json``.
RUNS = {
    "table1": ["table1", "--format", "json"],
    "ns-gate": ["ns-gate", "--m", "3", "--input", "{state}", "--phase"],
    "csf-verify": ["csf-verify"],
    "mach-zehnder": [
        "mach-zehnder", "--alpha", "0.5", "--theta", "1.5708", "--m", "3",
        "--shots", "100000", "--seed", "7",
    ],
    "fig3-sweep": ["fig3-sweep", "--steps", "256", "--format", "json"],
    "fig4-pmf": ["fig4-pmf", "--format", "json"],
    "loop-timing": ["loop-timing", "--wavelength", "1.39724e-2", "--kappa", "14285.714"],
    "loop-protocol": ["loop-protocol", "--kappa", "14285.714", "--m", "1"],
    # the canonical m = 1 phases written out, durations by repr: same results as the run above
    "loop-protocol schedule": [
        "loop-protocol", "--schedule",
        '[{"pc_on": true, "duration": 2.5e-10}, '
        '{"pc_on": false, "duration": 0.0004665027178366827}, '
        '{"pc_on": true, "duration": 2.5e-10}]',
    ],
}
RUNS.update({f"csf-verify jcm-m={m}": ["csf-verify", "--jcm-m", str(m)] for m in range(5)})
for _m in range(5):
    _argv = ["ns-gate", "--m", str(_m), "--input", "{state}"]
    RUNS[f"ns-gate m={_m}"] = _argv
    if _m != 3:  # "ns-gate" is m 3 with --phase
        RUNS[f"ns-gate m={_m} phase"] = _argv + ["--phase"]
for _alpha in ("0.5", "0.3+0.2j", "0.9"):
    for _n_max in ("12", "40", "110"):
        _argv = ["mach-zehnder", "--theta", "1", "--m", "3", "--alpha", _alpha, "--n-max", _n_max]
        RUNS[f"mach-zehnder alpha={_alpha} n_max={_n_max}"] = _argv
        RUNS[f"mach-zehnder alpha={_alpha} n_max={_n_max} shots"] = _argv + [
            "--shots", "100000", "--seed", "7",
        ]


def numpy_build() -> dict:
    """numpy's version and the CPU targets its kernels dispatch to on this machine."""
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return {
        "version": np.__version__,
        "cpu_baseline": list(umath.__cpu_baseline__),
        "cpu_dispatch": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)],
    }


def run_results(argv: list[str], workdir: Path) -> dict:
    """The ``results`` of one run through ``cli.main``, read back from its ``--out`` file."""
    from jcsim import cli

    out = workdir / "record.json"
    argv = [str(STATE) if a == "{state}" else a for a in argv]
    code = cli.main(argv + ["--out", str(out)])
    if code != 0:
        raise RuntimeError(f"jcsim {' '.join(argv)} exited with {code}")
    return json.loads(out.read_text())["results"]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {
            name: {"argv": argv, "results": run_results(argv, Path(tmp))}
            for name, argv in RUNS.items()
        }
    record = {"numpy": numpy_build(), "runs": runs}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    main()
