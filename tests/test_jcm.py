import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cm_dm_closed_form, dense_propagator, ns_diagonal_closed_form

from jcsim import jcm
from jcsim.fock import FockCutoff, MultiModeState, number_state, renormalize
from jcsim.jcm import (
    AtomFieldState,
    cm_dm,
    jcm_propagate,
    ns_gate,
    ns_gate_times,
    ns_post_selected_diagonal,
    table1,
)

TABLE_REFERENCE = {
    0: (0.633, -0.606),
    1: (0.138, 0.928),
    2: (0.988, 0.111),
    3: (0.0247, -0.988),
    4: (0.828, 0.414),
}


def atom_field(n_max, g_block, e_block):
    return AtomFieldState(FockCutoff(n_max), np.concatenate([g_block, e_block]))


def random_atom_field(n_max, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 * (n_max + 1)) + 1j * rng.normal(size=2 * (n_max + 1))
    amps /= np.linalg.norm(amps)
    return AtomFieldState(FockCutoff(n_max), amps)


# -- propagator ---------------------------------------------------------------


def test_ground_vacuum_is_stationary():
    s = atom_field(6, number_state([0], 6).amplitudes, np.zeros(7))
    out = jcm_propagate(s, 2.0 * 0.73)
    assert np.allclose(out.amplitudes, s.amplitudes, atol=1e-14)


def test_single_photon_half_rabi_swap():
    # At |kappa| t = pi/2 the photon is fully absorbed; exp(-iHt) puts the
    # amplitude on -i |e>|0> (confirmed against the dense matrix exponential).
    kappa = 1.7
    s = atom_field(6, number_state([1], 6).amplitudes, np.zeros(7))
    out = jcm_propagate(s, math.pi / 2)
    expected = np.zeros(14, complex)
    expected[7] = -1j
    assert np.allclose(out.amplitudes, expected, atol=1e-12)
    oracle = dense_propagator(6, kappa, 0.0, math.pi / (2 * kappa)) @ s.amplitudes
    assert np.allclose(out.amplitudes, oracle, atol=1e-12)


def test_two_photon_sign_flip():
    kappa = 1 / 70 * 1e6
    s = atom_field(6, number_state([2], 6).amplitudes, np.zeros(7))
    out = jcm_propagate(s, kappa * ns_gate_times(kappa, 1))
    assert np.abs(out.amplitudes - (-s.amplitudes)).max() < 1e-10


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 20.0))
@settings(max_examples=40)
def test_unitarity(seed, t):
    s = random_atom_field(8, seed)
    out = jcm_propagate(s, 1.3 * t)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def excitation_weights(s):
    """Probability mass per total-excitation block N = 0..n_max+1."""
    weights = np.zeros(s.cutoff.dim + 1)
    weights[:-1] += np.abs(s.g_block) ** 2
    weights[1:] += np.abs(s.e_block) ** 2
    return weights


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 10.0))
@settings(max_examples=25)
def test_excitation_block_weights_conserved(seed, t):
    s = random_atom_field(7, seed)
    out = jcm_propagate(s, 0.9 * t)
    assert np.allclose(excitation_weights(out), excitation_weights(s), atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
@settings(max_examples=25)
def test_group_property(seed, t1, t2):
    s = random_atom_field(6, seed)
    sequential = jcm_propagate(jcm_propagate(s, t1), t2)
    direct = jcm_propagate(s, t1 + t2)
    assert np.abs(sequential.amplitudes - direct.amplitudes).max() < 1e-10


@pytest.mark.parametrize("n_max", [2, 4, 6])
@pytest.mark.parametrize("kappa_phase", [0.0, 0.8])
def test_matches_dense_matrix_exponential(n_max, kappa_phase):
    # the coupling phase is a phase on |e>: U_phi = D U_0 D^dagger with
    # D = diag(1 on the ground block, e^{i phi} on the excited block)
    kappa, t = 0.83, 1.9
    oracle = dense_propagator(n_max, kappa, kappa_phase, t)
    dim = 2 * (n_max + 1)
    frame = np.repeat([1.0, np.exp(1j * kappa_phase)], n_max + 1)
    for idx in range(dim):
        basis = np.zeros(dim, complex)
        basis[idx] = 1.0
        s = AtomFieldState(FockCutoff(n_max), basis)
        out = frame * jcm_propagate(s, kappa * t).amplitudes * np.conj(frame[idx])
        assert np.abs(out - oracle[:, idx]).max() < 1e-9


def test_dense_oracle_at_any_coupling_gives_the_gate():
    # at |kappa| = 2.7, phi = 0.8 and t = t_m / 2.7 the full generator heralds
    # the same diagonal and |1> sector as the package's |kappa| = 1, phi = 0
    # run: the gate depends on the pulse area alone, and phi only rotates c(m)
    for m in range(5):
        c, d = cm_dm(m)
        for n_max in range(2, 13):
            u = dense_propagator(n_max, 2.7, 0.8, ns_gate_times(2.7, m))
            dim = n_max + 1
            diagonal = np.diag(u)[:dim]
            assert np.abs(diagonal - ns_post_selected_diagonal(m, n_max)).max() < 1e-12
            assert abs(abs(u[dim, 1]) - abs(c)) < 1e-12  # <e,0| U |g,1>
            assert abs(u[1, 1] - d) < 1e-12  # <g,1| U |g,1>


# -- gate timing and coefficients ----------------------------------------------


@pytest.mark.parametrize(
    ("kappa_abs", "time"),
    [(math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0), (1.0, math.nan), (1.0, math.inf), (1.0, -1.0)],
    ids=["kappa-nan", "kappa-inf", "kappa-negative", "time-nan", "time-inf", "time-negative"],
)
def test_params_reject_non_finite_and_out_of_domain(kappa_abs, time):
    # a bad coupling or time reaches the propagator as the pulse area, their
    # product, and is rejected there instead of giving NaN amplitudes
    with pytest.raises(ValueError, match="kappa_t must be non-negative and finite"):
        jcm_propagate(random_atom_field(4, 0), kappa_abs * time)


def test_zero_pulse_area_is_the_identity():
    s = random_atom_field(4, 1)
    assert jcm_propagate(s, 0.0).amplitudes.tobytes() == s.amplitudes.tobytes()


def test_gate_times_cavity_coupling():
    kappa = (1 / 70) * 1e6
    assert ns_gate_times(kappa, 1) == pytest.approx(4.67e-4, rel=5e-3)
    assert ns_gate_times(kappa, 3) == pytest.approx(1.09e-3, rel=5e-3)


def test_gate_time_formula():
    assert ns_gate_times(math.sqrt(2) * math.pi, 0) == pytest.approx(0.5, abs=1e-15)


def test_gate_time_rejects_negative_m():
    with pytest.raises(ValueError):
        ns_gate_times(1.0, -1)


@pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan, math.inf])
def test_gate_time_rejects_kappa_outside_domain(kappa):
    with pytest.raises(ValueError, match="kappa must be positive and finite"):
        ns_gate_times(kappa, 1)


@pytest.mark.parametrize("m", range(5))
def test_cm_dm_reference_values(m):
    c, d = cm_dm(m)
    c2_ref, d_ref = TABLE_REFERENCE[m]
    assert abs(abs(c) ** 2 - c2_ref) < 5e-4
    assert abs(d - d_ref) < 5e-4


def test_cm_dm_matches_propagated_one_photon_sector():
    # c(m), d(m) are the amplitudes of U(t_m)|g,1> at any cutoff and any
    # |kappa|, and agree with the closed-form sine and cosine of the angle
    for m in range(5):
        c, d = cm_dm(m)
        c_ref, d_ref = cm_dm_closed_form(m)
        assert abs(c - c_ref) < 1e-12 and abs(d - d_ref) < 1e-12
        for n_max in (2, 5, 12, 30):
            # bitwise, signed zeros included: ns-gate reports cm_dm(m) at any cutoff
            evolved = jcm._heralded_propagation(m, FockCutoff(n_max))
            sector = (complex(evolved.e_block[0]), float(evolved.g_block[1].real))
            assert repr(sector) == repr((c, d))
            for kappa in (1.0, 2.7):
                s = atom_field(n_max, number_state([1], n_max).amplitudes, np.zeros(n_max + 1))
                out = jcm_propagate(s, kappa * ns_gate_times(kappa, m))
                assert abs(out.e_block[0] - c_ref) < 1e-12
                assert abs(out.g_block[1] - d_ref) < 1e-12


def test_table1_values_and_identity():
    rows = table1()
    assert [m for m, _, _ in rows] == list(range(5))
    for m, c2, d in rows:
        c2_ref, d_ref = TABLE_REFERENCE[m]
        assert abs(c2 - c2_ref) < 5e-4
        assert abs(d - d_ref) < 5e-4
        assert abs(c2 + d**2 - 1.0) < 1e-12


# -- heralded gate ---------------------------------------------------------------


def uniform_superposition(cutoff=8):
    amps = np.zeros(cutoff + 1, complex)
    amps[:3] = 1 / math.sqrt(3)
    return MultiModeState(1, FockCutoff(cutoff), amps)


def test_ns_gate_on_vacuum():
    result = ns_gate(number_state([0], 6), m=2)
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(result.output.amplitudes, number_state([0], 6).amplitudes)


def test_ns_gate_two_photon_component():
    result = ns_gate(number_state([2], 6), m=1)
    assert result.success_probability == pytest.approx(1.0, abs=1e-12)
    assert np.isclose(result.output.amplitude([2]), -1.0, atol=1e-12)


def test_ns_gate_uniform_input_m3_with_compensator():
    result = ns_gate(uniform_superposition(), m=3, apply_compensating_phase=True)
    _, d = cm_dm(3)
    # per-|1> leak probability is |c(3)|^2 = 1 - d^2
    assert abs((1 - d**2) - 0.0247) < 5e-4
    assert result.success_probability == pytest.approx(1 - (1 - d**2) / 3, abs=1e-12)
    out = result.output
    scale = out.amplitude([0])
    assert np.isclose(out.amplitude([1]) / scale, -d, atol=1e-12)  # -d = |d| here
    assert np.isclose(out.amplitude([2]) / scale, -1.0, atol=1e-12)
    assert abs(out.amplitude([1]) / scale - 0.988) < 5e-4


def test_ns_gate_requires_normalized_input():
    bad = number_state([0], 6).with_amplitudes(2.0 * number_state([0], 6).amplitudes)
    with pytest.raises(ValueError):
        ns_gate(bad, m=1)


def test_ns_gate_matches_post_selected_diagonal():
    # the package reads the diagonal off the propagator; the oracle is the
    # closed-form cosine
    for m in range(5):
        for n_max in (2, 8, 20, 30):
            amps = np.linspace(1.0, 0.1, n_max + 1) * (1 + 0.3j)
            s = renormalize(MultiModeState(1, FockCutoff(n_max), amps))
            diag = ns_diagonal_closed_form(m, n_max)
            assert np.abs(ns_post_selected_diagonal(m, n_max) - diag).max() < 1e-12
            result = ns_gate(s, m=m, apply_compensating_phase=True)
            projected = s.amplitudes * diag
            assert result.success_probability == pytest.approx(
                np.vdot(projected, projected).real, abs=1e-12
            )
            projected *= (-1.0) ** np.arange(n_max + 1) / np.linalg.norm(projected)
            assert np.abs(result.output.amplitudes - projected).max() < 1e-12


def test_ns_gate_propagates_once(monkeypatch):
    calls = []

    def counting(s, kappa_t):
        calls.append(kappa_t)
        return jcm_propagate(s, kappa_t)

    monkeypatch.setattr(jcm, "jcm_propagate", counting)
    jcm._heralded_propagation.cache_clear()
    state = uniform_superposition()
    for m in range(3):
        before = len(calls)
        result = ns_gate(state, m=m)
        # the first gate at (m, cutoff) propagates once, at t_m
        assert calls[before:] == [ns_gate_times(1.0, m)]
        # a repeat, or the same cutoff given as an int, reads the cache
        assert ns_gate(state, m=m).output.amplitudes.tobytes() == (
            result.output.amplitudes.tobytes()
        )
        ns_post_selected_diagonal(m, state.cutoff.n_max)
        ns_post_selected_diagonal(m, FockCutoff(state.cutoff.n_max))
        assert len(calls) == before + 1



def test_cached_propagation_is_read_only():
    diag = ns_post_selected_diagonal(3, 12)
    with pytest.raises(ValueError):
        diag[0] = 0.0
    with pytest.raises(ValueError):
        jcm._heralded_propagation(3, FockCutoff(12)).amplitudes[0] = 0.0
    # so no caller can change what the next one reads
    assert diag.tobytes() == ns_post_selected_diagonal(3, FockCutoff(12)).tobytes()


def test_ns_gate_m3_consistent_with_ideal():
    s = uniform_superposition()
    heralded = ns_gate(s, m=3, apply_compensating_phase=True).output
    ideal = s.amplitudes * np.where(np.arange(s.cutoff.dim) == 2, -1.0, 1.0)
    _, d = cm_dm(3)
    # |0> and |2> sectors agree exactly after aligning the normalizations;
    # the |1> sector is scaled by |d(3)|
    ratio = heralded.amplitude([0]) / ideal[0]
    assert np.isclose(heralded.amplitude([2]), ratio * ideal[2], atol=1e-12)
    assert np.isclose(heralded.amplitude([1]), ratio * abs(d) * ideal[1], atol=1e-12)
