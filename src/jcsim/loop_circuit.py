"""Polarization loop circuit: splitter/cell operators, schedule, feasibility.

The loop lives on a single photon's (path, polarization) degrees of
freedom: path a is the outside port, path b the intracavity loop; the
polarizing splitter transmits V along its path and reflects H across
paths, and the switchable cell swaps V and H while powered.  A run is a
three-phase schedule (inject, circulate, extract) executed as a checked
state machine; the circulation window is where the atom-field interaction
of :mod:`jcsim.jcm` happens and is only labeled here, not re-simulated.

The timing report turns a cavity geometry into the numbers that decide
feasibility: the cell response time must beat one mirror-to-mirror flight
L/c, and the per-pass insertion losses compound over gate_time / (2L/c)
round trips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SimulatorError
from .jcm import ns_gate_times

SPEED_OF_LIGHT = 2.998e8  # m/s

PATH_A, PATH_B = 0, 1  # outside port, intracavity loop
POL_V, POL_H = 0, 1

#: Polarizing splitter on the (path, polarization) basis: V keeps its path,
#: H swaps paths.  Basis order (a,V), (a,H), (b,V), (b,H).
_PBS = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
    ],
    dtype=np.complex128,
)

#: Powered cell: V <-> H on each path.
_PC_ON = np.array(
    [
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=np.complex128,
)


def polarized_photon(path: int, c_v: complex, c_h: complex) -> np.ndarray:
    """Amplitudes (shape (2, 2), axes path then polarization) of one photon."""
    state = np.zeros((2, 2), dtype=np.complex128)
    state[path, POL_V] = c_v
    state[path, POL_H] = c_h
    return state


def pbs_apply(state: np.ndarray) -> np.ndarray:
    """V components keep their path, H components swap paths."""
    return (_PBS @ state.reshape(4)).reshape(2, 2)


def pockels_apply(state: np.ndarray, on: bool) -> np.ndarray:
    """Swap V and H amplitudes while powered; identity otherwise."""
    if not on:
        return state.copy()
    return (_PC_ON @ state.reshape(4)).reshape(2, 2)


class ProtocolViolation(SimulatorError):
    """The schedule would eject the photon early or trap it in the loop."""


@dataclass(frozen=True)
class LoopPhase:
    pc_on: bool
    duration: float

    def __post_init__(self) -> None:
        if not self.duration > 0:
            raise ValueError(f"phase duration must be positive, got {self.duration}")


@dataclass(frozen=True)
class LoopSchedule:
    """Injection, circulation, extraction phases, in that order."""

    phases: tuple[LoopPhase, LoopPhase, LoopPhase]

    def __post_init__(self) -> None:
        if len(self.phases) != 3:
            raise ValueError(f"a loop schedule has exactly 3 phases, got {len(self.phases)}")


def canonical_schedule(
    kappa_abs: float, m: int, switch_duration: float = 2.5e-10
) -> LoopSchedule:
    """Cell on, cell off for one gate time, cell on again."""
    gate = ns_gate_times(kappa_abs, m)
    return LoopSchedule(
        (
            LoopPhase(True, switch_duration),
            LoopPhase(False, gate),
            LoopPhase(True, switch_duration),
        )
    )


@dataclass(frozen=True)
class TraceStep:
    phase: int
    element: str
    pc_on: bool
    path: str  # 'a' or 'b'
    polarization: str  # 'V' or 'H'


@dataclass(frozen=True)
class ProtocolTrace:
    steps: tuple[TraceStep, ...]
    exit_phase: int
    interaction_window: float  # circulation duration handed to the atom-field gate


def _locate(state: np.ndarray) -> tuple[str, str]:
    """Path/polarization labels of a basis-state photon."""
    idx = int(np.argmax(np.abs(state.reshape(4))))
    return "ab"[idx // 2], "VH"[idx % 2]


def run_loop_protocol(
    schedule: LoopSchedule, input_polarization: str = "H"
) -> ProtocolTrace:
    """Execute the three-phase loop on a single injected photon.

    The photon must arrive horizontally polarized on path a (only H is
    steered into the loop by the splitter).  Raises
    :class:`ProtocolViolation` if any phase would eject the photon before
    extraction or leave it circulating afterwards.
    """
    if input_polarization != "H":
        raise ProtocolViolation(
            f"injection requires |H> on path a, got |{input_polarization}>"
        )

    inject, circulate, extract = schedule.phases
    steps: list[TraceStep] = []

    def record(phase: int, element: str, pc_on: bool, state: np.ndarray) -> None:
        path, pol = _locate(state)
        steps.append(TraceStep(phase, element, pc_on, path, pol))

    # Phase 1: splitter steers H into the loop, powered cell rotates it to V.
    state = polarized_photon(PATH_A, 0.0, 1.0)
    state = pbs_apply(state)
    record(1, "pbs", inject.pc_on, state)
    state = pockels_apply(state, inject.pc_on)
    record(1, "pc", inject.pc_on, state)
    if not inject.pc_on:
        raise ProtocolViolation(
            "cell off during injection: the photon stays |H> and the splitter "
            "throws it straight back out"
        )

    # Phase 2: V circulates across the splitter; a powered cell would flip
    # it to H and eject it mid-gate.
    state = pbs_apply(state)
    record(2, "pbs", circulate.pc_on, state)
    state = pockels_apply(state, circulate.pc_on)
    record(2, "pc", circulate.pc_on, state)
    if circulate.pc_on:
        raise ProtocolViolation(
            "cell on during circulation: |V> flips to |H> and is ejected mid-gate"
        )

    # Phase 3: powered cell rotates V back to H, the splitter ejects it.
    state = pockels_apply(state, extract.pc_on)
    record(3, "pc", extract.pc_on, state)
    if not extract.pc_on:
        raise ProtocolViolation(
            "cell off during extraction: |V> keeps circulating, the photon is trapped"
        )
    state = pbs_apply(state)
    record(3, "pbs", extract.pc_on, state)

    path, pol = _locate(state)
    residual = float(np.abs(state[PATH_B]).sum())
    if (path, pol) != ("a", "H") or residual > 0:
        raise ProtocolViolation("extraction left amplitude inside the loop")
    return ProtocolTrace(tuple(steps), exit_phase=3, interaction_window=circulate.duration)


@dataclass(frozen=True)
class LoopTimingReport:
    """Geometry-derived switching and loss budget for the loop cavity."""

    wavelength: float
    cavity_width: float
    pc_response_required: float
    achievable_pc_response: float
    gate_time_m1: float
    gate_time_m3: float
    round_trips_m1: float
    round_trips_m3: float
    loss_pc: float
    loss_pbs: float
    survival_log10_m1: float
    survival_log10_m3: float

    @property
    def pc_fast_enough(self) -> bool:
        return self.achievable_pc_response <= self.pc_response_required

    @staticmethod
    def _scientific(log10_value: float) -> str:
        exponent = math.floor(log10_value)
        mantissa = 10.0 ** (log10_value - exponent)
        return f"{mantissa:.4f}e{exponent:+d}"

    def to_json_dict(self) -> dict:
        return {
            "wavelength": self.wavelength,
            "cavity_width": self.cavity_width,
            "pc_response_required": self.pc_response_required,
            "achievable_pc_response": self.achievable_pc_response,
            "pc_fast_enough": self.pc_fast_enough,
            "gate_time_m1": self.gate_time_m1,
            "gate_time_m3": self.gate_time_m3,
            "round_trips_m1": self.round_trips_m1,
            "round_trips_m3": self.round_trips_m3,
            "loss_pc": self.loss_pc,
            "loss_pbs": self.loss_pbs,
            "survival_log10_m1": self.survival_log10_m1,
            "survival_log10_m3": self.survival_log10_m3,
            "survival_m1_scientific": self._scientific(self.survival_log10_m1),
            "survival_m3_scientific": self._scientific(self.survival_log10_m3),
        }


def timing_report(
    wavelength: float,
    kappa_abs: float,
    loss_pc: float = 0.04,
    loss_pbs: float = 0.01,
    achievable_pc_response: float = 2.5e-10,
) -> LoopTimingReport:
    """Switching-time and loss budget for a cavity of width lambda/2.

    One cell traversal and one splitter traversal are charged per round
    trip (the counting convention is a modeling choice; physical layouts
    may differ).  Survival probabilities are tracked in log10 because the
    round-trip count is of order 1e7 and the product underflows doubles.
    """
    if not (wavelength > 0 and kappa_abs > 0):
        raise ValueError("wavelength and kappa_abs must be positive")
    if not (0 <= loss_pc < 1 and 0 <= loss_pbs < 1):
        raise ValueError("losses must lie in [0, 1)")
    cavity_width = wavelength / 2
    round_trip_time = 2 * cavity_width / SPEED_OF_LIGHT
    gate_m1 = ns_gate_times(kappa_abs, 1)
    gate_m3 = ns_gate_times(kappa_abs, 3)
    trips_m1 = gate_m1 / round_trip_time
    trips_m3 = gate_m3 / round_trip_time
    log_per_pass = math.log10(1 - loss_pc) + math.log10(1 - loss_pbs)
    return LoopTimingReport(
        wavelength=wavelength,
        cavity_width=cavity_width,
        pc_response_required=cavity_width / SPEED_OF_LIGHT,
        achievable_pc_response=achievable_pc_response,
        gate_time_m1=gate_m1,
        gate_time_m3=gate_m3,
        round_trips_m1=trips_m1,
        round_trips_m3=trips_m3,
        loss_pc=loss_pc,
        loss_pbs=loss_pbs,
        survival_log10_m1=trips_m1 * log_per_pass,
        survival_log10_m3=trips_m3 * log_per_pass,
    )
