"""Polarization loop circuit: splitter/cell label maps, schedule, feasibility.

The loop lives on a single photon's (path, polarization) degrees of
freedom: path a is the outside port, path b the intracavity loop; the
polarizing splitter transmits V along its path and reflects H across
paths, and the switchable cell swaps V and H while powered.  Both elements
permute the four basis labels (a|b, V|H) without mixing them, so a photon
that starts on one label stays on exactly one, and the run tracks that
label rather than an amplitude vector.  A run is a three-phase schedule
(inject, circulate, extract), and each phase is checked by where the
photon is after it; the circulation window is where the atom-field
interaction of :mod:`jcsim.jcm` happens and is only labeled here, not
re-simulated.

The timing report turns a cavity geometry into the numbers that decide
feasibility: the cell response time must beat one mirror-to-mirror flight
L/c, and the per-pass insertion losses compound over gate_time / (2L/c)
round trips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SimulatorError
from .jcm import ns_gate_times

SPEED_OF_LIGHT = 2.998e8  # m/s

#: Response time of the switchable cell (s): the injection and extraction
#: phase length and the timing report's achievable switching time.
PC_RESPONSE = 2.5e-10

#: Path and polarization partners: a <-> b, V <-> H.
_OTHER = {"a": "b", "b": "a", "V": "H", "H": "V"}


def _pbs(label: tuple[str, str]) -> tuple[str, str]:
    """The splitter keeps V on its path and sends H to the other path."""
    path, pol = label
    return label if pol == "V" else (_OTHER[path], pol)


def _pockels(label: tuple[str, str], on: bool) -> tuple[str, str]:
    """The powered cell swaps V and H; unpowered it leaves the label alone."""
    path, pol = label
    return (path, _OTHER[pol]) if on else label


#: Inject, circulate, extract: the elements the photon meets in order, the
#: label it must hold after them, and what a schedule that misses it did.
_PHASES = (
    (("pbs", "pc"), ("b", "V"),
     "cell off during injection: the photon stays |H> and the splitter "
     "throws it straight back out"),
    (("pbs", "pc"), ("b", "V"),
     "cell on during circulation: |V> flips to |H> and is ejected mid-gate"),
    (("pc", "pbs"), ("a", "H"),
     "cell off during extraction: |V> keeps circulating, the photon is trapped"),
)


class ProtocolViolation(SimulatorError):
    """The schedule would eject the photon early or trap it in the loop."""


@dataclass(frozen=True)
class LoopPhase:
    pc_on: bool
    duration: float

    def __post_init__(self) -> None:
        if not 0 < self.duration < math.inf:
            raise ValueError(
                f"a schedule phase duration must be positive and finite, got {self.duration}"
            )


@dataclass(frozen=True)
class LoopSchedule:
    """Injection, circulation, extraction phases, in that order."""

    phases: tuple[LoopPhase, LoopPhase, LoopPhase]

    def __post_init__(self) -> None:
        if len(self.phases) != 3:
            raise ValueError(f"a loop schedule has exactly 3 phases, got {len(self.phases)}")


def canonical_schedule(kappa_abs: float, m: int) -> LoopSchedule:
    """Cell on for one response time, off for one gate time, on again."""
    gate = ns_gate_times(kappa_abs, m)
    return LoopSchedule(
        (LoopPhase(True, PC_RESPONSE), LoopPhase(False, gate), LoopPhase(True, PC_RESPONSE))
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


def run_loop_protocol(schedule: LoopSchedule) -> ProtocolTrace:
    """Execute the three-phase loop on a single injected photon.

    The photon arrives horizontally polarized on path a (only H is steered
    into the loop by the splitter).  Raises :class:`ProtocolViolation` if
    any phase would eject the photon before extraction or leave it
    circulating afterwards.
    """
    steps: list[TraceStep] = []
    label = ("a", "H")
    for number, (phase, (elements, after, violation)) in enumerate(
        zip(schedule.phases, _PHASES), start=1
    ):
        for element in elements:
            label = _pbs(label) if element == "pbs" else _pockels(label, phase.pc_on)
            steps.append(TraceStep(number, element, phase.pc_on, *label))
        if label != after:
            raise ProtocolViolation(violation)
    return ProtocolTrace(
        tuple(steps), exit_phase=3, interaction_window=schedule.phases[1].duration
    )


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
    survival_m1_scientific: str
    survival_m3_scientific: str
    pc_fast_enough: bool


def _scientific(log10_value: float) -> str:
    """A power of ten given by its log10, as mantissa e exponent."""
    exponent = math.floor(log10_value)
    mantissa = 10.0 ** (log10_value - exponent)
    return f"{mantissa:.4f}e{exponent:+d}"


def timing_report(
    wavelength: float,
    kappa_abs: float,
    loss_pc: float = 0.04,
    loss_pbs: float = 0.01,
    achievable_pc_response: float = PC_RESPONSE,
) -> LoopTimingReport:
    """Switching-time and loss budget for a cavity of width lambda/2.

    One cell traversal and one splitter traversal are charged per round
    trip (the counting convention is a modeling choice; physical layouts
    may differ).  Survival probabilities are tracked in log10 because the
    round-trip count is of order 1e7 and the product underflows doubles.
    """
    if not (0 < wavelength < math.inf and 0 < kappa_abs < math.inf):
        raise ValueError("wavelength and kappa_abs must be positive and finite")
    if not 0 <= achievable_pc_response < math.inf:
        raise ValueError("achievable_pc_response must be non-negative and finite")
    if not (0 <= loss_pc < 1 and 0 <= loss_pbs < 1):
        raise ValueError("losses must lie in [0, 1)")
    cavity_width = wavelength / 2
    round_trip_time = 2 * cavity_width / SPEED_OF_LIGHT
    if not round_trip_time > 0:
        raise ValueError(f"the round-trip time of wavelength {wavelength:g} underflows to 0")
    gate_m1 = ns_gate_times(kappa_abs, 1)
    gate_m3 = ns_gate_times(kappa_abs, 3)
    trips_m1 = gate_m1 / round_trip_time
    trips_m3 = gate_m3 / round_trip_time
    log_per_pass = math.log10(1 - loss_pc) + math.log10(1 - loss_pbs)
    log_m1, log_m3 = trips_m1 * log_per_pass, trips_m3 * log_per_pass
    if not (math.isfinite(log_m1) and math.isfinite(log_m3)):
        raise ValueError(
            f"the survival log10 must be finite, got {log_m3} over {trips_m3:g} round trips "
            f"(wavelength {wavelength:g}, kappa {kappa_abs:g})"
        )
    pc_response_required = cavity_width / SPEED_OF_LIGHT
    return LoopTimingReport(
        wavelength=wavelength,
        cavity_width=cavity_width,
        pc_response_required=pc_response_required,
        achievable_pc_response=achievable_pc_response,
        gate_time_m1=gate_m1,
        gate_time_m3=gate_m3,
        round_trips_m1=trips_m1,
        round_trips_m3=trips_m3,
        loss_pc=loss_pc,
        loss_pbs=loss_pbs,
        survival_log10_m1=log_m1,
        survival_log10_m3=log_m3,
        survival_m1_scientific=_scientific(log_m1),
        survival_m3_scientific=_scientific(log_m3),
        pc_fast_enough=achievable_pc_response <= pc_response_required,
    )
