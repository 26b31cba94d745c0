import math

import numpy as np
import pytest

from jcsim.jcm import ns_gate_times
from jcsim.loop_circuit import (
    PATH_A,
    PATH_B,
    POL_H,
    POL_V,
    LoopPhase,
    LoopSchedule,
    ProtocolViolation,
    canonical_schedule,
    pbs_apply,
    pockels_apply,
    polarized_photon,
    run_loop_protocol,
    timing_report,
)

KAPPA = (1 / 70) * 1e6
WAVELENGTH = 1.39724e-2


# -- elementary operators ---------------------------------------------------------


def test_pbs_keeps_vertical_on_path():
    out = pbs_apply(polarized_photon(PATH_A, 1.0, 0.0))
    assert out[PATH_A, POL_V] == 1.0
    assert np.count_nonzero(out) == 1


def test_pbs_reflects_horizontal_across_paths():
    out = pbs_apply(polarized_photon(PATH_A, 0.0, 1.0))
    assert out[PATH_B, POL_H] == 1.0


def test_pbs_separates_superposition():
    c_v, c_h = 0.6, 0.8j
    out = pbs_apply(polarized_photon(PATH_A, c_v, c_h))
    assert out[PATH_A, POL_V] == c_v
    assert out[PATH_B, POL_H] == c_h


def test_pockels_swaps_polarizations_when_on():
    out = pockels_apply(polarized_photon(PATH_B, 0.0, 1.0), on=True)
    assert out[PATH_B, POL_V] == 1.0


def test_pockels_identity_when_off():
    state = polarized_photon(PATH_A, 1.0, 0.0)
    assert np.array_equal(pockels_apply(state, on=False), state)


def test_operators_unitary_and_involutive():
    rng = np.random.default_rng(5)
    state = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    state /= np.linalg.norm(state)
    for op in (pbs_apply, lambda s: pockels_apply(s, on=True)):
        once = op(state)
        assert abs(np.linalg.norm(once) - 1.0) < 1e-15
        assert np.abs(op(once) - state).max() < 1e-15


# -- protocol ----------------------------------------------------------------------


def test_canonical_schedule_runs_to_extraction():
    for m in (1, 3):
        schedule = canonical_schedule(KAPPA, m)
        trace = run_loop_protocol(schedule)
        assert trace.exit_phase == 3
        assert trace.interaction_window == pytest.approx(ns_gate_times(KAPPA, m))
        final = trace.steps[-1]
        assert (final.path, final.polarization) == ("a", "H")
        # exactly one exit: no earlier step puts the photon outside as H
        outside = [s for s in trace.steps[:-1] if s.path == "a"]
        assert outside == []


def test_cell_off_at_injection_ejects_photon():
    schedule = LoopSchedule(
        (LoopPhase(False, 1e-9), LoopPhase(False, 1e-4), LoopPhase(True, 1e-9))
    )
    with pytest.raises(ProtocolViolation, match="injection"):
        run_loop_protocol(schedule)


def test_cell_on_during_circulation_ejects_mid_gate():
    schedule = LoopSchedule(
        (LoopPhase(True, 1e-9), LoopPhase(True, 1e-4), LoopPhase(True, 1e-9))
    )
    with pytest.raises(ProtocolViolation, match="mid-gate"):
        run_loop_protocol(schedule)


def test_cell_off_at_extraction_traps_photon():
    schedule = LoopSchedule(
        (LoopPhase(True, 1e-9), LoopPhase(False, 1e-4), LoopPhase(False, 1e-9))
    )
    with pytest.raises(ProtocolViolation, match="trapped"):
        run_loop_protocol(schedule)


def test_vertical_injection_rejected():
    with pytest.raises(ProtocolViolation, match="injection requires"):
        run_loop_protocol(canonical_schedule(KAPPA, 1), input_polarization="V")


def test_schedule_needs_three_phases():
    with pytest.raises(ValueError):
        LoopSchedule((LoopPhase(True, 1.0), LoopPhase(False, 1.0)))  # type: ignore[arg-type]


def test_phase_duration_positive():
    with pytest.raises(ValueError):
        LoopPhase(True, 0.0)


# -- timing report -------------------------------------------------------------------


def test_report_reproduces_cavity_numbers():
    report = timing_report(WAVELENGTH, KAPPA)
    assert report.cavity_width == pytest.approx(6.986e-3, rel=5e-3)
    assert report.pc_response_required == pytest.approx(2.330e-11, rel=5e-3)
    assert report.gate_time_m1 == pytest.approx(4.67e-4, rel=5e-3)
    assert report.gate_time_m3 == pytest.approx(1.09e-3, rel=5e-3)
    assert not report.pc_fast_enough  # 2.5e-10 s response is ~10x too slow


def test_round_trip_arithmetic_consistent():
    report = timing_report(WAVELENGTH, KAPPA)
    round_trip_time = 2 * report.cavity_width / 2.998e8
    assert report.round_trips_m1 * round_trip_time == pytest.approx(
        report.gate_time_m1, rel=1e-9
    )
    assert report.round_trips_m3 * round_trip_time == pytest.approx(
        report.gate_time_m3, rel=1e-9
    )


def test_loss_budget_is_catastrophic_but_not_rounded_away():
    report = timing_report(WAVELENGTH, KAPPA, loss_pc=0.04, loss_pbs=0.01)
    assert report.round_trips_m1 == pytest.approx(1.0e7, rel=2e-3)
    # the float underflows, the log10 bookkeeping does not
    assert report.survival_log10_m1 == pytest.approx(-221147, rel=1e-4)
    payload = report.to_json_dict()
    assert payload["survival_m1_scientific"].endswith("e-221147")
    mantissa = float(payload["survival_m1_scientific"].split("e")[0])
    assert 1.0 <= mantissa < 10.0


def test_lossless_loop_survives():
    report = timing_report(WAVELENGTH, KAPPA, loss_pc=0.0, loss_pbs=0.0)
    assert report.survival_log10_m1 == 0.0
    assert report.survival_log10_m3 == 0.0


def test_report_validates_inputs():
    with pytest.raises(ValueError):
        timing_report(-1.0, KAPPA)
    with pytest.raises(ValueError):
        timing_report(math.nan, KAPPA)
    with pytest.raises(ValueError):
        timing_report(WAVELENGTH, math.nan)
    with pytest.raises(ValueError):
        timing_report(WAVELENGTH, KAPPA, loss_pc=1.0)
