import itertools
import math
import pytest

from jcsim.jcm import ns_gate_times
from jcsim.loop_circuit import (
    LoopPhase,
    _pbs,
    _pockels,
    _scientific,
    canonical_schedule,
    run_loop_protocol,
    timing_report,
)

KAPPA = (1 / 70) * 1e6
WAVELENGTH = 1.39724e-2


# -- elementary label maps -------------------------------------------------------


def test_pbs_keeps_vertical_on_path():
    assert _pbs(("a", "V")) == ("a", "V")
    assert _pbs(("b", "V")) == ("b", "V")


def test_pbs_reflects_horizontal_across_paths():
    assert _pbs(("a", "H")) == ("b", "H")
    assert _pbs(("b", "H")) == ("a", "H")


def test_pockels_swaps_polarizations_when_on():
    assert _pockels(("b", "H"), on=True) == ("b", "V")
    assert _pockels(("a", "V"), on=True) == ("a", "H")


def test_pockels_identity_when_off():
    for label in (("a", "V"), ("a", "H"), ("b", "V"), ("b", "H")):
        assert _pockels(label, on=False) == label


# -- protocol ----------------------------------------------------------------------


def test_canonical_schedule_runs_to_extraction():
    for m in (1, 3):
        schedule = canonical_schedule(KAPPA, m)
        trace = run_loop_protocol(schedule)
        assert trace["exit_phase"] == 3
        assert trace["interaction_window"] == pytest.approx(ns_gate_times(KAPPA, m))
        final = trace["steps"][-1]
        assert (final["path"], final["polarization"]) == ("a", "H")
        # exactly one exit: no earlier step puts the photon outside as H
        outside = [s for s in trace["steps"][:-1] if s["path"] == "a"]
        assert outside == []


def test_canonical_trace_steps_the_photon_label():
    # Every splitter and cell action: H crosses paths at the splitter, V keeps
    # its path; the powered cell swaps V and H, the unpowered one does nothing.
    trace = run_loop_protocol(canonical_schedule(KAPPA, 1))
    assert [tuple(step.values()) for step in trace["steps"]] == [
        (1, "pbs", True, "b", "H"),
        (1, "pc", True, "b", "V"),
        (2, "pbs", False, "b", "V"),
        (2, "pc", False, "b", "V"),
        (3, "pc", True, "b", "H"),
        (3, "pbs", True, "a", "H"),
    ]


def test_cell_off_at_injection_ejects_photon():
    schedule = (LoopPhase(False, 1e-9), LoopPhase(False, 1e-4), LoopPhase(True, 1e-9))
    with pytest.raises(ValueError, match="injection"):
        run_loop_protocol(schedule)


def test_cell_on_during_circulation_ejects_mid_gate():
    schedule = (LoopPhase(True, 1e-9), LoopPhase(True, 1e-4), LoopPhase(True, 1e-9))
    with pytest.raises(ValueError, match="mid-gate"):
        run_loop_protocol(schedule)


def test_cell_off_at_extraction_traps_photon():
    schedule = (LoopPhase(True, 1e-9), LoopPhase(False, 1e-4), LoopPhase(False, 1e-9))
    with pytest.raises(ValueError, match="trapped"):
        run_loop_protocol(schedule)


@pytest.mark.parametrize("pc_on", list(itertools.product([True, False], repeat=3)))
def test_every_cell_schedule(pc_on):
    schedule = tuple(LoopPhase(on, 1e-9) for on in pc_on)
    canonical = (True, False, True)
    if pc_on == canonical:
        final = run_loop_protocol(schedule)["steps"][-1]
        assert (final["path"], final["polarization"]) == ("a", "H")
        return
    # the message of the first phase whose cell setting is wrong
    first_wrong = [on != want for on, want in zip(pc_on, canonical)].index(True)
    expected = (
        "cell off during injection",
        "cell on during circulation",
        "cell off during extraction",
    )[first_wrong]
    with pytest.raises(ValueError, match=expected):
        run_loop_protocol(schedule)


def test_schedule_needs_three_phases():
    for count in (0, 2, 4):
        phases = tuple(LoopPhase(on, 1.0) for on in [True, False, True, False][:count])
        with pytest.raises(ValueError, match=f"a loop schedule has exactly 3 phases, got {count}"):
            run_loop_protocol(phases)


def test_phase_duration_positive():
    with pytest.raises(ValueError):
        LoopPhase(True, 0.0)
    with pytest.raises(ValueError):
        LoopPhase(True, math.inf)


# -- timing report -------------------------------------------------------------------


def test_report_reproduces_cavity_numbers():
    report = timing_report(WAVELENGTH, KAPPA)
    assert report["cavity_width"] == pytest.approx(6.986e-3, rel=5e-3)
    assert report["pc_response_required"] == pytest.approx(2.330e-11, rel=5e-3)
    assert report["gate_time_m1"] == pytest.approx(4.67e-4, rel=5e-3)
    assert report["gate_time_m3"] == pytest.approx(1.09e-3, rel=5e-3)
    assert not report["pc_fast_enough"]  # 2.5e-10 s response is ~10x too slow


def test_round_trip_arithmetic_consistent():
    report = timing_report(WAVELENGTH, KAPPA)
    round_trip_time = 2 * report["cavity_width"] / 2.998e8
    assert report["round_trips_m1"] * round_trip_time == pytest.approx(
        report["gate_time_m1"], rel=1e-9
    )
    assert report["round_trips_m3"] * round_trip_time == pytest.approx(
        report["gate_time_m3"], rel=1e-9
    )


def test_loss_budget_is_catastrophic_but_not_rounded_away():
    report = timing_report(WAVELENGTH, KAPPA, loss_pc=0.04, loss_pbs=0.01)
    assert report["round_trips_m1"] == pytest.approx(1.0e7, rel=2e-3)
    # the float underflows, the log10 bookkeeping does not
    assert report["survival_log10_m1"] == pytest.approx(-221147, rel=1e-4)
    assert report["survival_m1_scientific"].endswith("e-221147")
    mantissa = float(report["survival_m1_scientific"].split("e")[0])
    assert 1.0 <= mantissa < 10.0


@pytest.mark.parametrize(
    "log10_value, text",
    [(-1e-6, "1.0000e+0"), (5.9999999, "1.0000e+6"), (0.0, "1.0000e+0"), (-0.5, "3.1623e-1")],
)
def test_scientific_mantissa_rounding_to_ten_carries_into_the_exponent(log10_value, text):
    assert _scientific(log10_value) == text


def test_nearly_lossless_loop_reports_one_not_ten():
    # a log10 survival of about -1e-6 rounds its mantissa up to 10.0000
    report = timing_report(WAVELENGTH, KAPPA, loss_pc=1e-13, loss_pbs=0.0)
    assert report["survival_m1_scientific"] == report["survival_m3_scientific"] == "1.0000e+0"


def test_lossless_loop_survives():
    report = timing_report(WAVELENGTH, KAPPA, loss_pc=0.0, loss_pbs=0.0)
    assert report["survival_log10_m1"] == 0.0
    assert report["survival_log10_m3"] == 0.0


def test_report_validates_inputs():
    with pytest.raises(ValueError):
        timing_report(-1.0, KAPPA)
    with pytest.raises(ValueError):
        timing_report(math.nan, KAPPA)
    with pytest.raises(ValueError):
        timing_report(WAVELENGTH, math.nan)
    with pytest.raises(ValueError):
        timing_report(math.inf, KAPPA)
    with pytest.raises(ValueError):
        timing_report(WAVELENGTH, math.inf)
    with pytest.raises(ValueError):
        timing_report(WAVELENGTH, KAPPA, achievable_pc_response=math.nan)
    with pytest.raises(ValueError):
        timing_report(WAVELENGTH, KAPPA, achievable_pc_response=math.inf)
    with pytest.raises(ValueError):
        timing_report(WAVELENGTH, KAPPA, achievable_pc_response=-1e-10)
    with pytest.raises(ValueError):
        timing_report(WAVELENGTH, KAPPA, loss_pc=1.0)
