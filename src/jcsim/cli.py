"""Command-line front end.

Every run emits a self-describing record: the echoed configuration, the
results payload, the library version, and a timestamp.  Identical
configurations (seed included) reproduce identical results payloads
byte for byte; the timestamp lives only in the record envelope.  CSV
output uses 6 significant digits and no locale-dependent formatting.

Exit codes: 2 for a usage error, which argparse reports before any work
starts (a missing flag, or a value outside a flag's domain such as
``--n-max 1``); 1 for a ``ValueError`` (input outside a function's domain,
a malformed state or schedule file) or an ``OSError`` from a handler,
printed as one ``error:`` line.  Any other exception is a bug and keeps
its traceback.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import sys
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

from . import __version__
from .fock import FockCutoff, MultiModeState
from .interferometer import (
    cavity_ns_output,
    detector_statistics,
    f_functions,
    mach_zehnder,
    poisson_pmf,
    sample_conditioned,
)
from .jcm import cm_dm, ns_gate, table1
from .linear_optics import csf_truth_table
from .loop_circuit import (
    PC_RESPONSE,
    LoopPhase,
    LoopTimingReport,
    ProtocolTrace,
    canonical_schedule,
    run_loop_protocol,
    timing_report,
)

SCHEMA_VERSION = 1

#: Budget, in bytes, that ``--n-max`` is checked against: 64 MiB.  Only
#: mach-zehnder takes the flag.  A cold run peaks while the second splitter
#: builds the theta polynomial, with its three-mode labelled input
#: (16 * (n_max + 1)**3 bytes), gathered and mixed stacks (about 8 * (n_max + 1)**3
#: each) and output (16 * (n_max + 1)**3) alive at once.  The check counts
#: 48 * (n_max + 1)**3 bytes, so n_max goes up to 110.
MAX_ARRAY_BYTES = 2**26

#: Most rows a table command may emit: ``fig3-sweep --steps`` rows, and
#: ``fig4-pmf --max-n`` + 1.  Checked before any row is built.
MAX_ROWS = 2**16


def _json_default(obj):
    """``json.dumps`` hook for what JSON lacks: dataclasses, complex, numpy values.

    A dataclass becomes its field dict, a complex number [re, im], and an
    array or numpy scalar its ``tolist()``; the encoder then walks the result.
    """
    if dataclasses.is_dataclass(obj):
        return dataclasses.asdict(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _fmt(x: float) -> str:
    """CSV number formatting: 6 significant digits."""
    return f"{x:.6g}"


def _emit(args, results) -> None:
    """Write the run's record: CSV of ``results["rows"]``, or the JSON envelope.

    ``results`` is a dict or a library dataclass, encoded with :func:`_json_default`.
    The configuration echo is every parsed flag under its argparse name,
    ``None`` when not given, except ``command``, ``format`` and ``out``.
    """
    if getattr(args, "format", "json") == "csv":
        rows = results["rows"]
        lines = [",".join(rows[0])]
        lines.extend(",".join(_fmt(x) for x in row.values()) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        config = {
            k: v for k, v in vars(args).items() if k not in ("command", "format", "out")
        }
        record = {
            "schema": SCHEMA_VERSION,
            "command": args.command,
            "config": config,
            "results": results,
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        text = json.dumps(
            record, sort_keys=True, indent=2, allow_nan=False, default=_json_default
        ) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# -- subcommand handlers -----------------------------------------------------


def _cmd_table1(args) -> dict:
    return {"rows": [{"m": m, "c2": c2, "d": d} for m, c2, d in table1()]}


def _cmd_ns_gate(args) -> dict:
    state = MultiModeState.from_json(Path(args.input).read_text())
    output, success_probability = ns_gate(state, args.m, apply_compensating_phase=args.phase)
    c, d = cm_dm(args.m)
    return {
        "m": args.m,
        "success_probability": success_probability,
        "c_m": c,
        "c_m_squared": abs(c) ** 2,
        "d_m": d,
        "output": output.to_json_dict(),
    }


def _cmd_csf_verify(args) -> dict:
    if args.jcm_m is None:
        return {"truth_table": csf_truth_table("ideal")}
    return {"truth_table": csf_truth_table("jcm", args.jcm_m)}


def _cmd_mach_zehnder(args) -> dict:
    cavity = cavity_ns_output(args.alpha, args.m, args.n_max)
    stats = detector_statistics(mach_zehnder(cavity.state, args.alpha, args.theta))
    results = {
        "n_max": args.n_max,
        "response": f_functions(args.theta, args.alpha),
        "cavity_error_mass": cavity.error_mass,
        "exact": {
            "marginal_d1": stats.marginal_d1,
            "marginal_d2": stats.marginal_d2,
            "mean_d1": stats.mean_d1,
            "mean_d2": stats.mean_d2,
        },
    }
    if args.shots > 0:
        results["monte_carlo"] = sample_conditioned(
            stats, args.shots, args.seed, args.alpha, args.theta
        )
    return results


def _cmd_fig3_sweep(args) -> dict:
    rows = []
    for k in range(args.steps):
        response = f_functions(2 * math.pi * k / args.steps)
        rows.append(
            {"theta": response.theta, "abs_f1": abs(response.f1), "abs_f2": abs(response.f2)}
        )
    return {"rows": rows}


def _cmd_fig4_pmf(args) -> dict:
    rows = [
        {"n": n, "p_mu1": poisson_pmf(n, args.mu1), "p_mu2": poisson_pmf(n, args.mu2)}
        for n in range(args.max_n + 1)
    ]
    return {"mu1": args.mu1, "mu2": args.mu2, "rows": rows}


def _cmd_loop_timing(args) -> LoopTimingReport:
    return timing_report(
        args.wavelength,
        args.kappa,
        loss_pc=args.loss_pc,
        loss_pbs=args.loss_pbs,
        achievable_pc_response=args.pc_response,
    )


def _load_schedule(source: str) -> tuple[LoopPhase, ...]:
    try:
        is_file = Path(source).exists()
    except OSError:  # inline JSON can exceed filename length limits
        is_file = False
    text = Path(source).read_text() if is_file else source
    try:
        phases = json.loads(text)
    except RecursionError:  # nested deeper than the stack; no schedule is
        phases = None
    layout = ValueError(
        "a schedule is a JSON list of objects, each with a boolean 'pc_on' "
        "and a numeric 'duration'"
    )
    if not isinstance(phases, list) or not all(
        isinstance(p, dict)
        and isinstance(p.get("pc_on"), bool)
        and type(p.get("duration")) in (int, float)
        for p in phases
    ):
        raise layout
    try:
        return tuple(LoopPhase(p["pc_on"], float(p["duration"])) for p in phases)
    except OverflowError:  # an integer duration beyond the float range
        raise layout from None


def _cmd_loop_protocol(args) -> ProtocolTrace:
    if args.schedule is not None:
        return run_loop_protocol(_load_schedule(args.schedule))
    return run_loop_protocol(canonical_schedule(args.kappa, args.m))


# -- parser -------------------------------------------------------------------


def _n_max(text: str) -> int:
    """``--n-max``: a :class:`FockCutoff` whose cold mach-zehnder build fits the budget.

    The size is computed while the flags are parsed, before anything is allocated.
    """
    try:
        n_max = FockCutoff(int(text)).n_max
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    size = 48 * (n_max + 1) ** 3
    if size > MAX_ARRAY_BYTES:
        raise argparse.ArgumentTypeError(
            f"n_max {n_max} needs about {size} bytes to build the three-mode theta "
            f"polynomial, above the budget of {MAX_ARRAY_BYTES} bytes"
        )
    return n_max


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcsim", description="Cavity sign-shift gate simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every command takes --out; the table commands take --format as well
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    table = argparse.ArgumentParser(add_help=False, parents=[out])
    table.add_argument("--format", choices=["csv", "json"], default="csv")
    command = partial(sub.add_parser, parents=[out])

    command("table1", parents=[table], help="error probability and |1>-coefficient table")

    p = command("ns-gate", help="run the heralded gate on a serialized state")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--input", required=True, help="path to a state JSON file")
    p.add_argument("--phase", action="store_true", help="correct the |1> sign: (-1)^n if d(m) < 0")

    p = command("csf-verify", help="truth table of the conditional sign flip")
    p.add_argument("--jcm-m", type=int, default=None, help="use the heralded gate at this m")

    p = command("mach-zehnder", help="interferometer run with detection statistics")
    p.add_argument("--alpha", type=complex, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--shots", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-max", type=_n_max, default=12)

    p = command("fig3-sweep", parents=[table], help="CSV sweep of |F1|, |F2| over theta")
    p.add_argument("--steps", type=int, default=256)

    p = command("fig4-pmf", parents=[table], help="Poisson counting probabilities for two means")
    p.add_argument("--mu1", type=float, default=0.4665)
    p.add_argument("--mu2", type=float, default=0.03349)
    p.add_argument("--max-n", type=int, default=2)

    p = command("loop-timing", help="loop cavity switching/loss feasibility")
    p.add_argument("--wavelength", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--loss-pc", type=float, default=0.04)
    p.add_argument("--loss-pbs", type=float, default=0.01)
    p.add_argument("--pc-response", type=float, default=PC_RESPONSE)

    p = command("loop-protocol", help="execute a three-phase loop schedule")
    p.add_argument("--schedule", default=None, help="JSON file or inline JSON phase list")
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--m", type=int, default=None)

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
    if args.command == "mach-zehnder" and args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.command == "mach-zehnder" and args.shots == 0 and args.seed is not None:
        parser.error("--seed seeds the sampler, which runs only with --shots > 0")
    if args.command == "mach-zehnder" and not (
        cmath.isfinite(args.alpha) and math.isfinite(args.theta)
    ):
        parser.error("--alpha and --theta must be finite")
    if args.command == "fig3-sweep" and not 1 <= args.steps <= MAX_ROWS:
        parser.error(f"--steps must be in [1, {MAX_ROWS}]")
    if args.command == "fig4-pmf" and not 0 <= args.max_n < MAX_ROWS:
        parser.error(f"--max-n must be in [0, {MAX_ROWS - 1}]")
    if args.command == "loop-protocol" and args.schedule is None and (
        args.kappa is None or args.m is None
    ):
        parser.error("provide --schedule, or both --kappa and --m for the canonical one")
    if args.command == "loop-protocol" and args.schedule is not None and (
        args.kappa is not None or args.m is not None
    ):
        parser.error("--schedule replaces the canonical schedule; drop --kappa and --m")

    try:
        _emit(args, _HANDLERS[args.command](args))
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
