"""The four workloads: seeded inputs, set-up, and the fixed work of one pass.

Each workload is a closed loop with one client: a single process issues one
operation after another and checks each result before the next.  Inputs
come only from :func:`generate_inputs` and the workload seed; the program
under test sees the generated inputs, never the seed.
"""

from __future__ import annotations

import math
import os
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent

WHY = {
    "csf_cutoff_scan": "CSF gate, heralded and ideal, at n_max 12/20/30: the dense splitter kernel is "
    "built cold once per cutoff, then applied warm to 4-mode states of up to 31^4 amplitudes",
    "mz_shots": "cavity, Mach-Zehnder, detection and 2e6-shot conditional sampling at n_max 12: the "
    "O(shots) sampler does nearly all the work, linear optics is small and warm",
    "mz_theta_sweep": "fully simulated Fig. 3 sweep, 2 alphas x 1024 thetas at n_max 16: thousands "
    "of small warm calls into beam_splitter, fock and jcm",
    "cli_suite": "the eight README commands as fresh processes: interpreter start, import and JSON "
    "emit dominate; the only workload that reaches loop_circuit and cli",
}
WORKLOADS = tuple(WHY)

M = 3  # sign-shift route used throughout, as in the README

CSF_CUTOFFS = (12, 20, 30)
CSF_LOGICAL_PER_CUTOFF = 2
CSF_COHERENT_PER_CUTOFF = 2

MZ_POINTS = 8
MZ_SHOTS = 2_000_000
MZ_N_MAX = 12

SWEEP_ALPHAS = 2
SWEEP_STEPS = 1024
SWEEP_N_MAX = 16
SWEEP_MODEL_CHECKS = 8  # theta points per alpha checked against the branch model

NS_GATE_N_MAX = 12
CLI_COMMANDS = (
    ("table1", ["table1"]),
    ("ns-gate", ["ns-gate", "--m", "3", "--input", "{state}", "--phase"]),
    ("csf-verify", ["csf-verify", "--jcm-m", "3"]),
    (
        "mach-zehnder",
        ["mach-zehnder", "--alpha", "0.5", "--theta", "1.5708", "--m", "3", "--shots", "100000", "--seed", "7"],
    ),
    ("fig3-sweep", ["fig3-sweep", "--steps", "256"]),
    ("fig4-pmf", ["fig4-pmf"]),
    ("loop-timing", ["loop-timing", "--wavelength", "1.39724e-2", "--kappa", "14285.714"]),
    ("loop-protocol", ["loop-protocol", "--kappa", "14285.714", "--m", "1"]),
)
CLI_TIMEOUT_S = 60


def child_env() -> dict:
    """Environment for a fresh interpreter that imports jcsim from this checkout."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))


def largest_state_bytes(workload: str) -> int:
    """Computed bytes of the largest complex128 state the workload builds."""
    if workload == "csf_cutoff_scan":
        return 16 * (max(CSF_CUTOFFS) + 1) ** 4
    if workload == "mz_shots":
        return 16 * (MZ_N_MAX + 1) ** 2
    if workload == "mz_theta_sweep":
        return 16 * (SWEEP_N_MAX + 1) ** 2
    return max(16 * (6 + 1) ** 4, 16 * (12 + 1) ** 2)  # csf-verify at n_max 6, mach-zehnder at 12


# -- inputs --------------------------------------------------------------------


def _unit_complex(rng: np.random.Generator, size: int) -> np.ndarray:
    z = rng.normal(size=size) + 1j * rng.normal(size=size)
    return z / np.linalg.norm(z)


def generate_inputs(workload: str, seed: int) -> dict:
    """Plain-data inputs of a workload; the same seed gives the same inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "csf_cutoff_scan":
        cutoffs = {}
        for n_max in CSF_CUTOFFS:
            logical = [_unit_complex(rng, 4) for _ in range(CSF_LOGICAL_PER_CUTOFF)]
            # mean photon number n_max/10 .. n_max/5 per mode puts weight in
            # sectors near and above the cutoff on the mixed rails
            means = rng.uniform(n_max / 10, n_max / 5, size=(CSF_COHERENT_PER_CUTOFF, 4))
            phases = rng.uniform(0, 2 * np.pi, size=means.shape)
            coherent = [np.sqrt(mu) * np.exp(1j * ph) for mu, ph in zip(means, phases)]
            cutoffs[n_max] = {"logical": logical, "coherent": coherent}
        return {"cutoffs": cutoffs}
    if workload == "mz_shots":
        return {
            "alphas": rng.uniform(0.3, 0.7, size=MZ_POINTS),
            "thetas": rng.uniform(0, 2 * np.pi, size=MZ_POINTS),
            "sampler_seeds": [int(s) for s in rng.integers(0, 2**63, size=MZ_POINTS)],
        }
    if workload == "mz_theta_sweep":
        return {
            "alphas": rng.uniform(0.3, 0.7, size=SWEEP_ALPHAS),
            "theta_offset": float(rng.uniform()),
            "model_checks": [
                sorted(int(k) for k in rng.choice(SWEEP_STEPS, SWEEP_MODEL_CHECKS, replace=False))
                for _ in range(SWEEP_ALPHAS)
            ],
        }
    if workload == "cli_suite":
        amps = _unit_complex(rng, NS_GATE_N_MAX + 1) * np.exp(-np.arange(NS_GATE_N_MAX + 1) / 3)
        return {"ns_gate_amplitudes": amps / np.linalg.norm(amps)}
    raise KeyError(workload)


# -- set-up --------------------------------------------------------------------


@dataclass
class CsfInput:
    label: str
    state: object  # jcsim.fock.MultiModeState
    expected: tuple | None = None  # sparse ideal output of a logical superposition
    tail: float = 0.0  # input mass with n_x1 + n_y1 > n_max


def _mixed_rail_tail(per_mode: list[np.ndarray], n_max: int) -> float:
    """Mass of a product state with n_x1 + n_y1 > n_max (rails 0 and 2 are mixed)."""
    p_x1, p_y1 = (np.abs(per_mode[i]) ** 2 / np.vdot(per_mode[i], per_mode[i]).real for i in (0, 2))
    n = np.arange(n_max + 1)
    return float((np.outer(p_x1, p_y1) * (n[:, None] + n[None, :] > n_max)).sum())


def setup(workload: str, seed: int, workdir: Path) -> dict:
    """Turn the generated inputs into the objects the program is called with."""
    from jcsim.fock import FockCutoff, MultiModeState

    inputs = generate_inputs(workload, seed)
    if workload == "csf_cutoff_scan":
        scan = []
        for n_max, group in inputs["cutoffs"].items():
            items = []
            for i, coeffs in enumerate(group["logical"]):
                expected = checks.csf_ideal_expected(n_max, coeffs)
                amps = np.zeros((n_max + 1) ** 4, dtype=np.complex128)
                amps[expected[0]] = coeffs
                items.append(CsfInput(f"logical{i}", MultiModeState(4, FockCutoff(n_max), amps), expected))
            for i, alphas in enumerate(group["coherent"]):
                per_mode = [checks.coherent_amplitudes(a, n_max) for a in alphas]
                amps = per_mode[0]
                for vec in per_mode[1:]:
                    amps = np.kron(amps, vec)
                amps /= np.linalg.norm(amps)
                state = MultiModeState(4, FockCutoff(n_max), amps)
                items.append(CsfInput(f"coherent{i}", state, tail=_mixed_rail_tail(per_mode, n_max)))
            scan.append((n_max, items))
        return {"scan": scan}
    if workload == "mz_shots":
        return inputs
    if workload == "mz_theta_sweep":
        # truncated coherent reference mass, the second factor of the input norm
        inputs["reference_norm2"] = [
            float(np.sum(np.abs(checks.coherent_amplitudes(a, SWEEP_N_MAX)) ** 2))
            for a in inputs["alphas"]
        ]
        return inputs
    if workload == "cli_suite":
        state = MultiModeState(1, FockCutoff(NS_GATE_N_MAX), inputs["ns_gate_amplitudes"])
        path = workdir / "state.json"
        path.write_text(state.to_json())
        return {"state": str(path)}
    raise KeyError(workload)


# -- fixed work ------------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed, plus the counters some metrics need."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def attempt(self, label: str, operation, check):
        """Run one operation and its check; a raise or a failed check is a failure."""
        self.attempted += 1
        try:
            result = operation()
            reason = check(result)
        except Exception as exc:  # any error of the program is a failed operation
            result, reason = None, f"raised {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{label}: {reason}")
        return result

    def add(self, key: str, value) -> None:
        self.stats[key] = self.stats.get(key, 0) + value


def _check_csf(item: CsfInput, mode: str, result) -> str | None:
    out, herald_p = result
    if item.expected is None:
        return checks.check_csf_truncated(out.amplitudes, herald_p, item.tail)
    if mode == "ideal":
        return checks.check_csf_ideal(item.expected, out.amplitudes, herald_p)
    return checks.check_csf_heralded(item.expected, out.amplitudes, herald_p)


def run_csf_cutoff_scan(ctx: dict, tally: Tally) -> None:
    from jcsim import linear_optics

    for n_max, items in ctx["scan"]:
        for item in items:
            for mode in ("ideal", "jcm"):
                result = tally.attempt(
                    f"csf_gate n_max={n_max} {item.label} {mode}",
                    lambda: linear_optics.csf_gate(item.state, mode, M),
                    lambda r: _check_csf(item, mode, r),
                )
                if mode == "jcm" and result is not None:
                    tally.add("herald_sum", result[1])
                    tally.add("herald_n", 1)


def run_mz_shots(ctx: dict, tally: Tally) -> None:
    from jcsim import interferometer

    for alpha, theta, seed in zip(ctx["alphas"], ctx["thetas"], ctx["sampler_seeds"]):
        alpha, theta = float(alpha), float(theta)

        def chain():
            cavity = interferometer.cavity_ns_output(alpha, M, MZ_N_MAX)
            out = interferometer.mach_zehnder(cavity.state, alpha, theta)
            stats = interferometer.detector_statistics(out)
            report = interferometer.conditional_run(MZ_SHOTS, seed, alpha, M, theta, MZ_N_MAX)
            return stats, report

        def check(result):
            stats, report = result
            return checks.check_mz_shots(
                stats.joint,
                MZ_SHOTS,
                report.d2_counts,
                report.d2_one_frequency,
                report.d2_one_probability_exact,
            )

        result = tally.attempt(f"mz alpha={alpha:.4f} theta={theta:.4f}", chain, check)
        if result is not None:
            tally.add("shots", MZ_SHOTS)
            tally.add("useful", int(result[1].d2_counts[1]))


def run_mz_theta_sweep(ctx: dict, tally: Tally) -> None:
    from jcsim import interferometer

    for alpha, reference_norm2, model_checks in zip(
        ctx["alphas"], ctx["reference_norm2"], ctx["model_checks"]
    ):
        alpha = float(alpha)
        model_checks = set(model_checks)
        for k in range(SWEEP_STEPS):
            theta = 2 * math.pi * (k + ctx["theta_offset"]) / SWEEP_STEPS

            def chain():
                cavity = interferometer.cavity_ns_output(alpha, M, SWEEP_N_MAX)
                out = interferometer.mach_zehnder(cavity.state, alpha, theta)
                stats = interferometer.detector_statistics(out)
                response = interferometer.f_functions(theta, alpha)
                return cavity, stats, response

            def check(result):
                cavity, stats, response = result
                amps = cavity.state.amplitudes
                reason = checks.check_joint(stats.joint, float(np.vdot(amps, amps).real) * reference_norm2)
                reason = reason or checks.check_f_functions(response, theta, alpha)
                if reason is None and k in model_checks:
                    reason = checks.check_branch_model(stats.marginal_d1, stats.marginal_d2, alpha, theta, M)
                return reason

            tally.attempt(f"sweep alpha={alpha:.4f} k={k}", chain, check)


def cli_command_lines(state: str) -> list[tuple[str, list[str]]]:
    return [(name, [arg.format(state=state) for arg in argv]) for name, argv in CLI_COMMANDS]


def run_cli_suite(ctx: dict, tally: Tally) -> None:
    """Each command in a fresh interpreter started by ``ctx["child_prefix"](name) + argv``."""
    digests, times = {}, {}
    env = child_env()
    for name, argv in cli_command_lines(ctx["state"]):
        command = ctx["child_prefix"](name) + argv

        def run():
            start = time.perf_counter()
            proc = subprocess.run(
                command, capture_output=True, text=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S
            )
            times[name] = time.perf_counter() - start
            return proc

        def check(proc):
            reason, digests[name] = checks.check_cli_output(name, proc.returncode, proc.stdout, tally.stats)
            return reason

        tally.attempt(f"cli {name}", run, check)
    tally.stats["digests"] = digests
    tally.stats["command_s"] = times


RUNNERS = {
    "csf_cutoff_scan": run_csf_cutoff_scan,
    "mz_shots": run_mz_shots,
    "mz_theta_sweep": run_mz_theta_sweep,
    "cli_suite": run_cli_suite,
}

