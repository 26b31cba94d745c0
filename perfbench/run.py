"""jcsim benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each pass of the workload is a fresh
interpreter (perfbench/worker.py) that imports jcsim from ``src``,
generates the seeded inputs, runs the workload's fixed work once and checks
every operation.  Passes repeat until ``--seconds`` have elapsed (at
least three); every metric is a median over passes.  After each pass come
a few set-up-only launches, so ``setup_s`` is a median over many samples.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced passes, adds one tracemalloc pass and the interpreter /
import probes, and reports the per-layer metrics.  A layer the workload
does not reach reports 0.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the machine record.  The full record, spans
included, goes to ``.perfbench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
PROBE_REPEATS = 5
SETUP_LAUNCHES_PER_PASS = 3
PASS_TIMEOUT_S = 150
MB = 1e6

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

CLI_NAMES = tuple(name for name, _ in workloads.CLI_COMMANDS)
SELF_TIMED = (
    "fock.coherent_state",
    "fock.tensor",
    "jcm.ns_gate",
    "linear_optics.csf_gate",
    "linear_optics.phase_shifter",
    "interferometer.conditional_run",
    "interferometer.cavity_ns_output",
    "interferometer.mach_zehnder",
    "interferometer.detector_statistics",
    "interferometer.f_functions",
)
COUNTED = ("fock.coherent_state", "jcm.ns_gate", "linear_optics.beam_splitter")
COLD_CUTOFFS = (12, 20, 30)
WARM_CUTOFFS = (12, 16, 30)

# (name, unit, better)
PER_LAYER = (
    *((f"{fn}.calls", "count", "lower") for fn in COUNTED),
    *((f"{fn}.self_s", "s", "lower") for fn in SELF_TIMED),
    *((f"linear_optics.beam_splitter.cold_s.n{n}", "s", "lower") for n in COLD_CUTOFFS),
    *((f"linear_optics.beam_splitter.warm_ms.n{n}", "ms", "lower") for n in WARM_CUTOFFS),
    ("linear_optics.beam_splitter.retained_mb.n30", "MB", "lower"),
    ("linear_optics.csf_gate.peak_alloc_mb.n30", "MB", "lower"),
    ("linear_optics.csf_gate.herald_p", "ratio", "higher"),
    ("interferometer.conditional_run.shots_per_s", "1/s", "higher"),
    ("interferometer.conditional_run.peak_alloc_mb", "MB", "lower"),
    ("interferometer.conditional_run.useful_frac", "ratio", "higher"),
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    *((f"cli.{name}.s", "s", "lower") for name in CLI_NAMES),
    *((f"share.{layer}", "ratio", "lower") for layer in tracing.LAYERS),
    ("trace.overhead_frac", "ratio", "lower"),
    ("fail_frac", "ratio", "lower"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result (not a failed operation)."""


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# -- machine record ------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = _read(f"{base}/level"), _read(f"{base}/type"), _read(f"{base}/size")
        if level is None:
            break
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return caches


def _blas() -> dict | str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError) as exc:  # numpy without the dicts mode
        return f"unavailable: {exc!r}"
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def machine_record(workload: str) -> dict:
    """Versions, cores, BLAS threading, CPU, caches and the largest state's bytes."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "largest_state_bytes": workloads.largest_state_bytes(workload),
    }


# -- passes --------------------------------------------------------------------


def run_pass(workload: str, seed: int, mode: str, workdir: Path) -> dict:
    """One fresh worker process; setup_s is its interpreter start to READY."""
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--workdir", str(workdir),
    ]
    start = time.monotonic()
    try:
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} pass exceeded {PASS_TIMEOUT_S} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith("READY "):
        raise BenchError(f"{workload} {mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = float(lines[0].split()[1]) - start
    return result


def probe_seconds(code: str) -> float:
    """Median wall time of a fresh ``python3 -c code`` with src on the path."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=workloads.child_env(), cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return median(times)


# -- per-layer figures -----------------------------------------------------------


def pass_figures(spans_by_process: list[list]) -> dict:
    """Span-derived figures of one traced pass (one span list per process)."""
    calls, self_s, layer_s, inclusive = Counter(), defaultdict(float), defaultdict(float), defaultdict(float)
    cold, warm = {}, defaultdict(list)
    for spans in spans_by_process:
        seen = set()
        for span, own in zip(spans, tracing.self_times(spans)):
            name = span[tracing.NAME]
            duration = span[tracing.END] - span[tracing.START]
            calls[name] += 1
            self_s[name] += own
            layer_s[tracing.layer_of(name)] += own
            inclusive[name] += duration
            if name == "linear_optics.beam_splitter":
                n_max = span[tracing.N_MAX]
                if n_max in seen:
                    warm[n_max].append(duration)
                else:
                    seen.add(n_max)
                    cold.setdefault(n_max, duration)
    return {
        "calls": calls, "self_s": self_s, "layer_s": layer_s, "inclusive": inclusive,
        "cold": cold, "warm": {n: median(d) for n, d in warm.items()},
    }


def layer_metrics(plain: list[dict], traced: list[dict], memory: dict, probes: dict) -> dict:
    figures = [pass_figures(p["spans"]) for p in traced]
    values = {}
    for fn in COUNTED:
        values[f"{fn}.calls"] = median(f["calls"][fn] for f in figures)
    for fn in SELF_TIMED:
        values[f"{fn}.self_s"] = median(f["self_s"][fn] for f in figures)
    for n in COLD_CUTOFFS:
        values[f"linear_optics.beam_splitter.cold_s.n{n}"] = median(f["cold"].get(n, 0.0) for f in figures)
    for n in WARM_CUTOFFS:
        values[f"linear_optics.beam_splitter.warm_ms.n{n}"] = 1e3 * median(f["warm"].get(n, 0.0) for f in figures)

    retained = [m["retained"].get("n30", 0) for m in memory["memory"]]
    values["linear_optics.beam_splitter.retained_mb.n30"] = max(retained) / MB
    peaks = defaultdict(int)
    for m in memory["memory"]:
        for key, peak in m["peak"].items():
            peaks[key] = max(peaks[key], peak)
    values["linear_optics.csf_gate.peak_alloc_mb.n30"] = peaks["linear_optics.csf_gate.n30"] / MB
    values["interferometer.conditional_run.peak_alloc_mb"] = peaks["interferometer.conditional_run"] / MB

    stats = [p["stats"] for p in plain + traced]
    herald_n = sum(s.get("herald_n", 0) for s in stats)
    values["linear_optics.csf_gate.herald_p"] = sum(s.get("herald_sum", 0.0) for s in stats) / herald_n if herald_n else 0.0
    shots = sum(s.get("shots", 0) for s in stats)
    values["interferometer.conditional_run.useful_frac"] = sum(s.get("useful", 0) for s in stats) / shots if shots else 0.0
    values["interferometer.conditional_run.shots_per_s"] = median(
        p["stats"].get("shots", 0) / f["inclusive"]["interferometer.conditional_run"]
        if f["inclusive"]["interferometer.conditional_run"] else 0.0
        for p, f in zip(traced, figures)
    )

    values["cli.interpreter_s"] = probes["interpreter_s"]
    values["cli.import_s"] = probes["import_s"]
    for name in CLI_NAMES:
        values[f"cli.{name}.s"] = median(p["stats"].get("command_s", {}).get(name, 0.0) for p in plain)
    for layer in tracing.LAYERS:
        values[f"share.{layer}"] = median(f["layer_s"][layer] / p["wall_s"] for p, f in zip(traced, figures))
    values["trace.overhead_frac"] = median(p["wall_s"] for p in traced) / median(p["wall_s"] for p in plain) - 1
    return values


# -- one run -------------------------------------------------------------------


def cross_pass_failures(passes: list[dict]) -> list[str]:
    """cli_suite results payloads must be byte-identical across passes."""
    failures = []
    first = passes[0]["stats"].get("digests", {})
    for index, p in enumerate(passes[1:], start=1):
        for name, digest in p["stats"].get("digests", {}).items():
            if digest != first.get(name):
                failures.append(f"pass {index} cli {name}: results payload differs from pass 0")
    return failures


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    deadline = time.monotonic() + seconds
    plain, traced, setup_s = [], [], []
    if not trace:
        while len(plain) < MIN_PASSES or time.monotonic() < deadline:
            plain.append(run_pass(workload, seed, "plain", workdir))
            setup_s.append(plain[-1]["setup_s"])
            setup_s.extend(run_pass(workload, seed, "setup", workdir)["setup_s"] for _ in range(SETUP_LAUNCHES_PER_PASS))
    else:
        while len(traced) < MIN_TRACED_PASSES or time.monotonic() < deadline:
            plain.append(run_pass(workload, seed, "plain", workdir))
            traced.append(run_pass(workload, seed, "trace", workdir))
    memory = run_pass(workload, seed, "memory", workdir) if trace else None
    passes = plain + traced + ([memory] if memory else [])
    mismatches = cross_pass_failures(plain + traced)
    failures = [f for p in passes for f in p["failures"]] + mismatches
    failed = sum(p["failed"] for p in passes) + len(mismatches)

    if trace:
        probes = {
            "interpreter_s": probe_seconds("pass"),
            "import_s": probe_seconds("import jcsim"),
        }
        values = layer_metrics(plain, traced, memory, probes)
        values["fail_frac"] = failed / sum(p["attempted"] for p in passes)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = {name: median(p[name] for p in plain) for name, *_ in END_TO_END}
        values["setup_s"] = median(setup_s)
        units = {name: unit for name, unit, *_ in END_TO_END}
    return {
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": failed,
        "failures": failures[:20],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "setup_samples_s": setup_s,
        "spans": [p["spans"] for p in traced],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jcsim" / "__init__.py").is_file():
        print(f"error: no jcsim source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # compile bytecode and warm the file cache once, unmeasured
        subprocess.run([sys.executable, "-c", "import jcsim.cli"], env=workloads.child_env(), cwd=ROOT, check=True, timeout=120)
        machine = machine_record(args.workload)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, **result}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps({"machine": machine}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
