import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cm_dm_closed_form, dense_propagator, ns_diagonal_closed_form, renormalize

from jcsim import jcm
from jcsim.fock import FockCutoff, MultiModeState, number_state
from jcsim.jcm import (
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


def propagate(amplitudes, kappa_t):
    """``jcm_propagate`` on the ground block then the excited block, one vector in and out."""
    ground, excited = np.split(np.asarray(amplitudes), 2)
    return np.concatenate(jcm_propagate(ground, excited, kappa_t))


def random_atom_field(n_max, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2 * (n_max + 1)) + 1j * rng.normal(size=2 * (n_max + 1))
    return amps / np.linalg.norm(amps)


# -- propagator ---------------------------------------------------------------


def test_ground_vacuum_is_stationary():
    s = np.concatenate([number_state([0], 6).amplitudes, np.zeros(7)])
    out = propagate(s, 2.0 * 0.73)
    assert np.allclose(out, s, atol=1e-14)


def test_single_photon_half_rabi_swap():
    # At |kappa| t = pi/2 the photon is fully absorbed; exp(-iHt) puts the
    # amplitude on -i |e>|0> (confirmed against the dense matrix exponential).
    kappa = 1.7
    s = np.concatenate([number_state([1], 6).amplitudes, np.zeros(7)])
    out = propagate(s, math.pi / 2)
    expected = np.zeros(14, complex)
    expected[7] = -1j
    assert np.allclose(out, expected, atol=1e-12)
    oracle = dense_propagator(6, kappa, 0.0, math.pi / (2 * kappa)) @ s
    assert np.allclose(out, oracle, atol=1e-12)


def test_two_photon_sign_flip():
    kappa = 1 / 70 * 1e6
    s = np.concatenate([number_state([2], 6).amplitudes, np.zeros(7)])
    out = propagate(s, kappa * ns_gate_times(kappa, 1))
    assert np.abs(out - (-s)).max() < 1e-10


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 20.0))
@settings(max_examples=40)
def test_unitarity(seed, t):
    s = random_atom_field(8, seed)
    out = propagate(s, 1.3 * t)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def excitation_weights(s):
    """Probability mass per total-excitation block N = 0..n_max+1."""
    ground, excited = np.split(s, 2)
    weights = np.zeros(len(ground) + 1)
    weights[:-1] += np.abs(ground) ** 2
    weights[1:] += np.abs(excited) ** 2
    return weights


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 10.0))
@settings(max_examples=25)
def test_excitation_block_weights_conserved(seed, t):
    s = random_atom_field(7, seed)
    out = propagate(s, 0.9 * t)
    assert np.allclose(excitation_weights(out), excitation_weights(s), atol=1e-12)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 5.0), st.floats(0.0, 5.0))
@settings(max_examples=25)
def test_group_property(seed, t1, t2):
    s = random_atom_field(6, seed)
    sequential = propagate(propagate(s, t1), t2)
    direct = propagate(s, t1 + t2)
    assert np.abs(sequential - direct).max() < 1e-10


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
        out = frame * propagate(basis, kappa * t) * np.conj(frame[idx])
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
        propagate(random_atom_field(4, 0), kappa_abs * time)


def test_zero_pulse_area_is_the_identity():
    s = random_atom_field(4, 1)
    assert propagate(s, 0.0).tobytes() == s.tobytes()


def test_gate_times_cavity_coupling():
    kappa = (1 / 70) * 1e6
    assert ns_gate_times(kappa, 1) == pytest.approx(4.67e-4, rel=5e-3)
    assert ns_gate_times(kappa, 3) == pytest.approx(1.09e-3, rel=5e-3)


def test_gate_time_formula():
    assert ns_gate_times(math.sqrt(2) * math.pi, 0) == pytest.approx(0.5, abs=1e-15)


def test_gate_time_rejects_negative_m():
    with pytest.raises(ValueError):
        ns_gate_times(1.0, -1)


def test_gate_time_admits_m_up_to_its_bound():
    # the bound sits below the first m whose two-photon entry is not exactly -1
    assert jcm.MAX_M == 2**22
    assert ns_post_selected_diagonal(2**22, 4)[2] == -1.0
    with pytest.raises(ValueError, match=r"m must be an integer in \[0, 4194304\]"):
        ns_gate_times(1.0, 2**22 + 1)


@pytest.mark.parametrize("m", [2.5, 3.0, math.nan, "3"])
def test_gate_time_rejects_non_integral_m(m):
    with pytest.raises(ValueError, match="m must be a non-negative integer"):
        ns_gate_times(1.0, m)


def test_gate_time_takes_a_numpy_integer_m():
    assert ns_gate_times(1.0, np.int64(3)).hex() == ns_gate_times(1.0, 3).hex()


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
            ground, excited = jcm._heralded_propagation(m, FockCutoff(n_max))
            sector = (complex(excited[0]), float(ground[1].real))
            assert repr(sector) == repr((c, d))
            for kappa in (1.0, 2.7):
                ground, excited = jcm_propagate(
                    number_state([1], n_max).amplitudes,
                    np.zeros(n_max + 1),
                    kappa * ns_gate_times(kappa, m),
                )
                assert abs(excited[0] - c_ref) < 1e-12
                assert abs(ground[1] - d_ref) < 1e-12


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
    out, probability = ns_gate(number_state([0], 6), m=2)
    assert probability == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out.amplitudes, number_state([0], 6).amplitudes)


def test_ns_gate_two_photon_component():
    out, probability = ns_gate(number_state([2], 6), m=1)
    assert probability == pytest.approx(1.0, abs=1e-12)
    assert np.isclose(out.amplitude([2]), -1.0, atol=1e-12)


def test_ns_gate_uniform_input_m3_with_compensator():
    out, probability = ns_gate(uniform_superposition(), m=3, apply_compensating_phase=True)
    _, d = cm_dm(3)
    # per-|1> leak probability is |c(3)|^2 = 1 - d^2
    assert abs((1 - d**2) - 0.0247) < 5e-4
    assert probability == pytest.approx(1 - (1 - d**2) / 3, abs=1e-12)
    scale = out.amplitude([0])
    assert np.isclose(out.amplitude([1]) / scale, -d, atol=1e-12)  # -d = |d| here
    assert np.isclose(out.amplitude([2]) / scale, -1.0, atol=1e-12)
    assert abs(out.amplitude([1]) / scale - 0.988) < 5e-4


def test_ns_gate_requires_normalized_input():
    bad = number_state([0], 6).with_amplitudes(2.0 * number_state([0], 6).amplitudes)
    with pytest.raises(ValueError, match="input state must be normalized"):
        ns_gate(bad, m=1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: jcm_propagate(np.zeros(3), np.zeros(2), 1.0), "equal-length non-empty 1-D"),
        (lambda: jcm_propagate(np.zeros((2, 3)), np.zeros((2, 3)), 1.0), "equal-length"),
        (lambda: jcm_propagate(np.zeros(0), np.zeros(0), 1.0), "equal-length"),
        (lambda: ns_gate(number_state([0, 0], 3), 1), "single-mode"),
    ],
    ids=["atom-field-size", "atom-field-rank", "atom-field-empty", "two-mode-input"],
)
def test_wrong_shape_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_ns_gate_matches_post_selected_diagonal():
    # the package reads the diagonal off the propagator; the oracle is the
    # closed-form cosine
    for m in range(5):
        for n_max in (2, 8, 20, 30):
            amps = np.linspace(1.0, 0.1, n_max + 1) * (1 + 0.3j)
            s = renormalize(MultiModeState(1, FockCutoff(n_max), amps))
            diag = ns_diagonal_closed_form(m, n_max)
            assert np.abs(ns_post_selected_diagonal(m, n_max) - diag).max() < 1e-12
            out, probability = ns_gate(s, m=m, apply_compensating_phase=True)
            projected = s.amplitudes * diag
            assert probability == pytest.approx(
                np.vdot(projected, projected).real, abs=1e-12
            )
            projected /= np.linalg.norm(projected)
            if cm_dm_closed_form(m)[1] < 0:  # the compensator acts only when d(m) < 0
                projected *= (-1.0) ** np.arange(n_max + 1)
            assert np.abs(out.amplitudes - projected).max() < 1e-12


@pytest.mark.parametrize("n_max", [2, 12, 30])
@pytest.mark.parametrize("m", range(5))
def test_ns_gate_compensator_is_the_sign_shift_resolver(m, n_max):
    # the gate with its compensator scales by the network's sign-shift
    # diagonal, so at d(m) > 0 it is the heralded gate itself, bit for bit
    rng = np.random.default_rng(1000 * m + n_max)
    amps = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    s = MultiModeState(1, FockCutoff(n_max), amps / np.linalg.norm(amps))
    surviving = s.amplitudes * jcm._sign_shift_diagonal("jcm", m, s.cutoff)
    expected = surviving / math.sqrt(np.vdot(surviving, surviving).real)
    corrected = ns_gate(s, m, apply_compensating_phase=True)[0].amplitudes
    assert corrected.tobytes() == expected.tobytes()
    heralded = ns_gate(s, m, apply_compensating_phase=False)[0].amplitudes
    if cm_dm(m)[1] > 0:
        assert corrected.tobytes() == heralded.tobytes()
    else:
        assert corrected.tobytes() != heralded.tobytes()


@pytest.mark.parametrize("compensate", [False, True])
def test_ns_gate_refuses_a_zero_herald(compensate, monkeypatch):
    # a diagonal that kills every photon number leaves nothing to renormalize
    monkeypatch.setattr(
        jcm, "ns_post_selected_diagonal", lambda m, cutoff: np.zeros(cutoff.dim, complex)
    )
    with pytest.raises(ValueError, match=r"atom is never found in \|g>"):
        ns_gate(uniform_superposition(), m=3, apply_compensating_phase=compensate)


def test_ns_gate_propagates_once(monkeypatch):
    calls = []

    def counting(ground, excited, kappa_t):
        calls.append(kappa_t)
        return jcm_propagate(ground, excited, kappa_t)

    monkeypatch.setattr(jcm, "jcm_propagate", counting)
    state = uniform_superposition()
    for m in range(3):
        before = len(calls)
        out, _ = ns_gate(state, m=m)
        # each gate propagates once, at t_m
        assert calls[before:] == [ns_gate_times(1.0, m)]
        # and a repeat gives the same output, bit for bit
        assert ns_gate(state, m=m)[0].amplitudes.tobytes() == out.amplitudes.tobytes()
        assert calls[before:] == [ns_gate_times(1.0, m)] * 2


def test_propagation_is_read_only():
    diag = ns_post_selected_diagonal(3, 12)
    with pytest.raises(ValueError):
        diag[0] = 0.0
    for block in jcm._heralded_propagation(3, FockCutoff(12)):
        assert block.dtype == np.complex128
        with pytest.raises(ValueError):
            block[0] = 0.0
    # and the next call, the cutoff given either way, reads the same diagonal
    assert diag.tobytes() == ns_post_selected_diagonal(3, FockCutoff(12)).tobytes()


def test_ns_gate_m3_consistent_with_ideal():
    s = uniform_superposition()
    heralded, _ = ns_gate(s, m=3, apply_compensating_phase=True)
    ideal = s.amplitudes * np.where(np.arange(s.cutoff.dim) == 2, -1.0, 1.0)
    _, d = cm_dm(3)
    # |0> and |2> sectors agree exactly after aligning the normalizations;
    # the |1> sector is scaled by |d(3)|
    ratio = heralded.amplitude([0]) / ideal[0]
    assert np.isclose(heralded.amplitude([2]), ratio * ideal[2], atol=1e-12)
    assert np.isclose(heralded.amplitude([1]), ratio * abs(d) * ideal[1], atol=1e-12)
