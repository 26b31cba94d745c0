"""Command-line front end.

Every run emits a self-describing record: the echoed configuration, the
results payload, the library version, and a timestamp.  Identical
configurations (seed included) reproduce identical results payloads
byte for byte; the timestamp lives only in the record envelope.  CSV
output uses 6 significant digits and no locale-dependent formatting.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import SimulatorError
from .fock import MultiModeState
from .interferometer import (
    cavity_ns_output,
    detector_statistics,
    f_functions,
    mach_zehnder,
    poisson_pmf,
    sample_conditioned,
)
from .jcm import ns_gate, table1
from .linear_optics import csf_truth_table
from .loop_circuit import (
    LoopPhase,
    LoopSchedule,
    canonical_schedule,
    run_loop_protocol,
    timing_report,
)

SCHEMA_VERSION = 1


def _jsonify(obj):
    """Recursively reduce results to JSON-serializable deterministic forms."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if dataclasses.is_dataclass(obj):
        return _jsonify(dataclasses.asdict(obj))
    return obj


def _fmt(x: float) -> str:
    """CSV number formatting: 6 significant digits."""
    return f"{x:.6g}"


def _csv(header: list[str], rows: list[list[float]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(args, command: str, config: dict, results: dict, csv_text: str | None) -> None:
    if getattr(args, "format", "json") == "csv" and csv_text is not None:
        text = csv_text
    else:
        record = {
            "schema": SCHEMA_VERSION,
            "command": command,
            "config": _jsonify(config),
            "results": _jsonify(results),
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        text = json.dumps(record, sort_keys=True, indent=2, allow_nan=False) + "\n"
    out = getattr(args, "out", None)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers -----------------------------------------------------


def _cmd_table1(args) -> tuple[dict, dict, str]:
    rows = table1()
    results = {"rows": [{"m": m, "c2": c2, "d": d} for m, c2, d in rows]}
    csv_text = _csv(["m", "c2", "d"], [[m, c2, d] for m, c2, d in rows])
    return {}, results, csv_text


def _cmd_ns_gate(args) -> tuple[dict, dict, None]:
    state = MultiModeState.from_json(Path(args.input).read_text())
    result = ns_gate(state, args.m, apply_compensating_phase=args.phase)
    config = {"m": args.m, "input": args.input, "phase": args.phase}
    results = {
        "m": result.m,
        "success_probability": result.success_probability,
        "c_m": result.c_m,
        "c_m_squared": abs(result.c_m) ** 2,
        "d_m": result.d_m,
        "output": result.output.to_json_dict(),
    }
    return config, results, None


def _cmd_csf_verify(args) -> tuple[dict, dict, None]:
    ns_mode = "jcm" if args.jcm_m is not None else "ideal"
    m = args.jcm_m if args.jcm_m is not None else 3
    rows = csf_truth_table(ns_mode=ns_mode, m=m, cutoff=args.n_max)
    config = {"ns_mode": ns_mode, "m": m if ns_mode == "jcm" else None, "n_max": args.n_max}
    return config, {"truth_table": rows}, None


def _cmd_mach_zehnder(args) -> tuple[dict, dict, None]:
    config = {
        "alpha": complex(args.alpha),
        "theta": args.theta,
        "m": args.m,
        "shots": args.shots,
        "seed": args.seed,
        "n_max": args.n_max,
    }
    response = f_functions(args.theta, complex(args.alpha))
    cavity = cavity_ns_output(complex(args.alpha), args.m, args.n_max)
    out_state = mach_zehnder(cavity.state, complex(args.alpha), args.theta)
    stats = detector_statistics(out_state)
    results: dict = {
        "n_max": args.n_max,
        "response": {
            "theta": response.theta,
            "f1": response.f1,
            "f2": response.f2,
            "f3": response.f3,
            "f4": response.f4,
            "mu1": response.mu1,
            "mu2": response.mu2,
        },
        "cavity_error_mass": cavity.error_mass,
        "exact": {
            "marginal_d1": stats.marginal_d1,
            "marginal_d2": stats.marginal_d2,
            "mean_d1": stats.mean_d1,
            "mean_d2": stats.mean_d2,
        },
    }
    if args.shots > 0:
        report = sample_conditioned(
            stats, args.shots, args.seed, complex(args.alpha), args.m, args.theta
        )
        results["monte_carlo"] = {
            "seed": report.seed,
            "shots": report.shots,
            "d1_counts": report.d1_counts,
            "d2_counts": report.d2_counts,
            "conditioned_d1_counts": report.conditioned_d1_counts,
            "d2_one_frequency": report.d2_one_frequency,
            "d2_one_probability_exact": report.d2_one_probability_exact,
            "conditioned_d1_exact": report.conditioned_d1_exact,
            "leading_order_estimate": report.leading_order_estimate,
        }
    return config, results, None


def _cmd_fig3_sweep(args) -> tuple[dict, dict, str]:
    thetas = [2 * math.pi * k / args.steps for k in range(args.steps)]
    rows = []
    for theta in thetas:
        response = f_functions(theta)
        rows.append([theta, abs(response.f1), abs(response.f2)])
    results = {"rows": [{"theta": t, "abs_f1": a, "abs_f2": b} for t, a, b in rows]}
    return {"steps": args.steps}, results, _csv(["theta", "abs_f1", "abs_f2"], rows)


def _cmd_fig4_pmf(args) -> tuple[dict, dict, str]:
    ns = list(range(args.max_n + 1))
    rows = [[n, poisson_pmf(n, args.mu1), poisson_pmf(n, args.mu2)] for n in ns]
    results = {
        "mu1": args.mu1,
        "mu2": args.mu2,
        "rows": [{"n": n, "p_mu1": p1, "p_mu2": p2} for n, p1, p2 in rows],
    }
    return {"mu1": args.mu1, "mu2": args.mu2, "max_n": args.max_n}, results, _csv(
        ["n", "p_mu1", "p_mu2"], rows
    )


def _cmd_loop_timing(args) -> tuple[dict, dict, None]:
    report = timing_report(
        args.wavelength,
        args.kappa,
        loss_pc=args.loss_pc,
        loss_pbs=args.loss_pbs,
        achievable_pc_response=args.pc_response,
    )
    config = {
        "wavelength": args.wavelength,
        "kappa": args.kappa,
        "loss_pc": args.loss_pc,
        "loss_pbs": args.loss_pbs,
        "pc_response": args.pc_response,
    }
    return config, report.to_json_dict(), None


def _load_schedule(source: str) -> LoopSchedule:
    try:
        is_file = Path(source).exists()
    except OSError:  # inline JSON can exceed filename length limits
        is_file = False
    text = Path(source).read_text() if is_file else source
    phases = json.loads(text)
    return LoopSchedule(tuple(LoopPhase(bool(p["pc_on"]), float(p["duration"])) for p in phases))


def _cmd_loop_protocol(args) -> tuple[dict, dict, None]:
    if args.schedule is not None:
        schedule = _load_schedule(args.schedule)
        config = {"schedule": args.schedule}
    else:
        schedule = canonical_schedule(args.kappa, args.m)
        config = {"kappa": args.kappa, "m": args.m}
    trace = run_loop_protocol(schedule, input_polarization=args.polarization)
    results = {
        "steps": [dataclasses.asdict(step) for step in trace.steps],
        "exit_phase": trace.exit_phase,
        "interaction_window": trace.interaction_window,
    }
    config["polarization"] = args.polarization
    return config, results, None


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcsim", description="Cavity sign-shift gate simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="error probability and |1>-coefficient table")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")

    p = sub.add_parser("ns-gate", help="run the heralded gate on a serialized state")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--input", required=True, help="path to a state JSON file")
    p.add_argument("--phase", action="store_true", help="apply the (-1)^n compensator")
    p.add_argument("--out")

    p = sub.add_parser("csf-verify", help="truth table of the conditional sign flip")
    p.add_argument("--jcm-m", type=int, default=None, help="use the heralded gate at this m")
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--out")

    p = sub.add_parser("mach-zehnder", help="interferometer run with detection statistics")
    p.add_argument("--alpha", type=complex, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--shots", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--out")

    p = sub.add_parser("fig3-sweep", help="CSV sweep of |F1|, |F2| over theta")
    p.add_argument("--steps", type=int, default=256)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")

    p = sub.add_parser("fig4-pmf", help="Poisson counting probabilities for two means")
    p.add_argument("--mu1", type=float, default=0.4665)
    p.add_argument("--mu2", type=float, default=0.03349)
    p.add_argument("--max-n", type=int, default=2)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")

    p = sub.add_parser("loop-timing", help="loop cavity switching/loss feasibility")
    p.add_argument("--wavelength", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--loss-pc", type=float, default=0.04)
    p.add_argument("--loss-pbs", type=float, default=0.01)
    p.add_argument("--pc-response", type=float, default=2.5e-10)
    p.add_argument("--out")

    p = sub.add_parser("loop-protocol", help="execute a three-phase loop schedule")
    p.add_argument("--schedule", default=None, help="JSON file or inline JSON phase list")
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--polarization", default="H")
    p.add_argument("--out")

    return parser


_HANDLERS = {
    "table1": _cmd_table1,
    "ns-gate": _cmd_ns_gate,
    "csf-verify": _cmd_csf_verify,
    "mach-zehnder": _cmd_mach_zehnder,
    "fig3-sweep": _cmd_fig3_sweep,
    "fig4-pmf": _cmd_fig4_pmf,
    "loop-timing": _cmd_loop_timing,
    "loop-protocol": _cmd_loop_protocol,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    # Cross-flag validation (argparse handles per-flag domains).
    if args.command == "mach-zehnder" and args.shots > 0 and args.seed is None:
        parser.error("--seed is required when --shots > 0")
    if args.command == "mach-zehnder" and args.shots < 0:
        parser.error("--shots must be >= 0")
    if args.command == "mach-zehnder" and not (
        cmath.isfinite(args.alpha) and math.isfinite(args.theta)
    ):
        parser.error("--alpha and --theta must be finite")
    if args.command == "loop-protocol" and args.schedule is None and (
        args.kappa is None or args.m is None
    ):
        parser.error("provide --schedule, or both --kappa and --m for the canonical one")

    try:
        config, results, csv_text = _HANDLERS[args.command](args)
        _emit(args, args.command, config, results, csv_text)
    except (SimulatorError, ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
