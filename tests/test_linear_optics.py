import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import coherent_bs_law_check, multinomial_oracle

from jcsim.errors import ModeIndexOutOfRange
from jcsim.fock import (
    FockCutoff,
    MultiModeState,
    number_state,
    renormalize,
    tensor,
)
from jcsim.jcm import cm_dm
from jcsim.linear_optics import (
    _sector_blocks,
    beam_splitter,
    csf_gate,
    csf_truth_table,
    logical_basis_state,
)


def random_bounded_state(n_max, seed):
    """Random two-mode state supported on total photon number <= n_max."""
    rng = np.random.default_rng(seed)
    dim = n_max + 1
    amps = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    n1, n2 = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    amps[n1 + n2 > n_max] = 0.0
    return renormalize(MultiModeState(2, FockCutoff(n_max), amps.reshape(-1)))


# -- beam splitter --------------------------------------------------------------


def test_two_photon_bunching():
    out = beam_splitter(number_state([1, 1], 4), 0, 1)
    assert np.isclose(out.amplitude([2, 0]), 1 / math.sqrt(2), atol=1e-12)
    assert np.isclose(out.amplitude([0, 2]), -1 / math.sqrt(2), atol=1e-12)
    assert np.isclose(out.amplitude([1, 1]), 0.0, atol=1e-12)


def test_vacuum_invariant():
    out = beam_splitter(number_state([0, 0], 4), 0, 1)
    assert np.allclose(out.amplitudes, number_state([0, 0], 4).amplitudes)


@pytest.mark.parametrize("n_max", [6, 12, 20, 30])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_applied_twice_is_identity(n_max, seed):
    s = random_bounded_state(n_max, seed)
    roundtrip = beam_splitter(beam_splitter(s, 0, 1), 0, 1)
    assert np.abs(roundtrip.amplitudes - s.amplitudes).max() < 1e-12


@pytest.mark.parametrize("n_max", [7, 12, 20, 30])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_norm_preserved_on_bounded_states(n_max, seed):
    s = random_bounded_state(n_max, seed)
    assert abs(beam_splitter(s, 0, 1).norm() - 1.0) < 1e-12


@pytest.mark.parametrize("n_max", [6, 12, 20, 30])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_total_photon_distribution_conserved(n_max, seed):
    s = random_bounded_state(n_max, seed)
    out = beam_splitter(s, 0, 1)
    dim = n_max + 1
    n1, n2 = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    for state in (s, out):
        probs = np.abs(state.as_tensor()) ** 2
        totals = np.bincount((n1 + n2).reshape(-1), weights=probs.reshape(-1))
        if state is s:
            reference = totals
        else:
            assert np.allclose(totals, reference, atol=1e-12)


@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_matches_symbolic_multinomial_oracle(n_max):
    dim = n_max + 1
    for n in range(dim):
        for m in range(dim):
            out = beam_splitter(number_state([n, m], n_max), 0, 1)
            oracle = multinomial_oracle(n, m, dim)
            assert np.abs(out.amplitudes - oracle).max() < 1e-9


@pytest.mark.parametrize("n, m", [(28, 30), (30, 30), (15, 20)])
def test_high_photon_columns_match_symbolic_multinomial_oracle(n, m):
    out = beam_splitter(number_state([n, m], 30), 0, 1)
    assert np.abs(out.amplitudes - multinomial_oracle(n, m, 31)).max() < 1e-12


def test_sector_blocks_are_orthogonal_involutions():
    # every sector a cutoff up to n_max = 40 reaches, so n_max 12, 20 and 30 too
    for total, block in enumerate(_sector_blocks(2 * 40)):
        identity = np.eye(total + 1)
        assert np.abs(block.T @ block - identity).max() < 1e-12
        assert np.abs(block @ block - identity).max() < 1e-12


def test_beam_splitter_on_selected_modes_of_larger_register():
    s = number_state([1, 0, 1], 4)
    out = beam_splitter(s, 0, 2)
    assert np.isclose(out.amplitude([2, 0, 0]), 1 / math.sqrt(2), atol=1e-12)
    assert np.isclose(out.amplitude([0, 0, 2]), -1 / math.sqrt(2), atol=1e-12)


def test_beam_splitter_mode_out_of_range():
    with pytest.raises(ModeIndexOutOfRange):
        beam_splitter(number_state([0, 0], 3), 0, 5)


def test_spec_rejects_equal_modes():
    with pytest.raises(ValueError):
        beam_splitter(number_state([0, 0], 3), 1, 1)


# -- coherent splitting law ----------------------------------------------------------


def test_coherent_law_equal_inputs_empty_difference_arm():
    report = coherent_bs_law_check(0.5, 0.5)
    assert report.predicted_minus == 0
    # deviation is the sqrt of the truncated total-photon tail, ~1e-8 here
    assert report.deviation_norm < 1e-7


def test_coherent_law_half_and_vacuum():
    report = coherent_bs_law_check(0.5, 0.0)
    assert np.isclose(report.predicted_plus, 0.5 / math.sqrt(2))
    assert np.isclose(report.predicted_minus, 0.5 / math.sqrt(2))
    assert np.isclose(abs(report.predicted_plus), 0.3536, atol=5e-5)
    assert report.deviation_norm < 1e-8


def test_coherent_law_complex_pair():
    report = coherent_bs_law_check(0.5, 0.5j)
    assert np.isclose(report.predicted_plus, (0.5 + 0.5j) / math.sqrt(2))
    assert np.isclose(report.predicted_minus, (0.5 - 0.5j) / math.sqrt(2))
    assert report.deviation_norm < 1e-8


# -- conditional sign flip -------------------------------------------------------------


def logical_amplitude(state, j, k):
    x = (0, 1) if j == 0 else (1, 0)
    y = (0, 1) if k == 0 else (1, 0)
    return state.amplitude(x + y)


@pytest.mark.parametrize("j", [0, 1])
@pytest.mark.parametrize("k", [0, 1])
def test_csf_ideal_truth_table(j, k):
    out, probability = csf_gate(logical_basis_state(j, k, 6), ns_mode="ideal")
    assert probability == pytest.approx(1.0, abs=1e-12)
    expected_sign = -1.0 if (j, k) == (1, 1) else 1.0
    assert np.isclose(logical_amplitude(out, j, k), expected_sign, atol=1e-12)
    # no leakage outside the addressed basis state
    assert out.norm_squared() == pytest.approx(1.0, abs=1e-12)
    assert abs(logical_amplitude(out, j, k)) == pytest.approx(1.0, abs=1e-12)


def test_csf_ideal_is_cz_on_superpositions():
    rng = np.random.default_rng(11)
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    coeffs /= np.linalg.norm(coeffs)
    basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
    amps = sum(
        c * logical_basis_state(j, k, 6).amplitudes for c, (j, k) in zip(coeffs, basis)
    )
    state = MultiModeState(4, FockCutoff(6), amps)
    out, probability = csf_gate(state, ns_mode="ideal")
    target = sum(
        c * (-1) ** (j * k) * logical_basis_state(j, k, 6).amplitudes
        for c, (j, k) in zip(coeffs, basis)
    )
    assert probability == pytest.approx(1.0, abs=1e-12)
    assert np.abs(out.amplitudes - target).max() < 1e-12


@pytest.mark.parametrize("j", [0, 1])
@pytest.mark.parametrize("k", [0, 1])
def test_csf_heralded_m3_per_basis_fidelity(j, k):
    state_in = logical_basis_state(j, k, 6)
    ideal, _ = csf_gate(state_in, ns_mode="ideal")
    heralded, probability = csf_gate(state_in, ns_mode="jcm", m=3)
    fidelity = abs(np.vdot(ideal.amplitudes, heralded.amplitudes)) ** 2
    assert fidelity >= 0.976
    _, d = cm_dm(3)
    # the single-rail-occupied inputs pay the |1>-sector herald cost d^2,
    # the bunched and empty inputs herald perfectly
    expected_p = d**2 if j != k else 1.0
    assert probability == pytest.approx(expected_p, abs=1e-12)


@pytest.mark.parametrize("m", range(5))
def test_csf_heralded_m1_keeps_logical_phases(m):
    # the compensator applies whenever d(m) < 0, so the signs hold at every m
    for j, k in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        out, _ = csf_gate(logical_basis_state(j, k, 6), ns_mode="jcm", m=m)
        expected_sign = -1.0 if (j, k) == (1, 1) else 1.0
        amp = logical_amplitude(out, j, k)
        assert np.isclose(amp, expected_sign, atol=1e-9)


def test_csf_rejects_unknown_mode():
    with pytest.raises(ValueError):
        csf_gate(logical_basis_state(0, 0, 6), ns_mode="magic")


def test_truth_table_report():
    rows = csf_truth_table(ns_mode="jcm", m=3, cutoff=6)
    assert [row["input"] for row in rows] == ["00", "01", "10", "11"]
    for row in rows:
        amp = row["amplitudes"][row["input"]]
        sign = -1.0 if row["input"] == "11" else 1.0
        assert np.isclose(amp, sign, atol=1e-9)
        assert row["leakage"] < 1e-12
