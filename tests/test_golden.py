"""Every golden run's ``results`` against ``tests/golden/results.json``.

On the numpy build the file was written with, the payloads must match byte
for byte.  On another build numpy's SIMD kernels or its sampler stream may
differ in the last bits, so there floats must agree to 1e-15 absolute and
everything else, Monte Carlo counts included, exactly.
"""

import json

from golden.regen import GOLDEN, RUNS, numpy_build, run_results

from jcsim.loop_circuit import LoopPhase, canonical_schedule

FLOAT_TOL = 1e-15


def _mismatches(path, got, want, tol):
    """Leaf-by-leaf differences; ``tol`` None compares float text, else values to ``tol``."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            yield f"{path}: keys {sorted(got)} != {sorted(want)}"
            return
        for key in want:
            yield from _mismatches(f"{path}.{key}", got[key], want[key], tol)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            yield f"{path}: length {len(got)} != {len(want)}"
            return
        for i, (g, w) in enumerate(zip(got, want)):
            yield from _mismatches(f"{path}[{i}]", g, w, tol)
    elif type(want) is float and type(got) is float:
        if (repr(got) != repr(want)) if tol is None else not abs(got - want) <= tol:
            yield f"{path}: {got!r} != {want!r} (by {abs(got - want):.2e})"
    elif type(got) is not type(want) or got != want:
        yield f"{path}: {got!r} != {want!r}"


def test_results_payloads_match_the_golden_file(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    same_build = golden["numpy"] == numpy_build()
    tol = None if same_build else FLOAT_TOL
    assert golden["runs"].keys() == RUNS.keys(), "the run list changed: rerun tests/golden/regen.py"
    problems = []
    for name, argv in RUNS.items():
        want = golden["runs"][name]
        if want["argv"] != argv:
            problems.append(f"{name}: argv {argv} != {want['argv']}")
            continue
        got = run_results(argv, tmp_path)
        if same_build and json.dumps(got, sort_keys=True) == json.dumps(want["results"], sort_keys=True):
            continue
        problems.extend(f"{name}: results{m}" for m in _mismatches("", got, want["results"], tol))
    mode = "bytes" if same_build else f"floats to {FLOAT_TOL:g}, the rest exactly"
    assert not problems, f"compared {mode}; {len(problems)} mismatch(es):\n" + "\n".join(
        problems[:40]
    )


def test_the_written_out_schedule_is_the_canonical_run():
    # the schedule run spells out canonical_schedule(14285.714, 1), so the
    # --schedule path through the CLI must give the canonical run's payload
    argv = RUNS["loop-protocol schedule"]
    written = [LoopPhase(p["pc_on"], p["duration"]) for p in json.loads(argv[-1])]
    assert tuple(written) == canonical_schedule(14285.714, 1)
    runs = json.loads(GOLDEN.read_text())["runs"]
    assert runs["loop-protocol schedule"]["results"] == runs["loop-protocol"]["results"]
