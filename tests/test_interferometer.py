import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import mach_zehnder_chain, mach_zehnder_closed_form, pair_above_cutoff, renormalize
from scipy import stats as scipy_stats

from jcsim import interferometer
from jcsim.fock import (
    FockCutoff,
    MultiModeState,
    coherent_state,
    number_state,
    tensor,
)
from jcsim.interferometer import (
    _heralded_cavity,
    _theta_coefficients,
    cat_reference,
    cavity_ns_output,
    conditional_run,
    detector_statistics,
    f_functions,
    mach_zehnder,
    poisson_pmf,
    sample_conditioned,
)
from jcsim.jcm import cm_dm, ns_gate


# -- response functions ----------------------------------------------------------


def test_f_values_at_quarter_turn():
    r = f_functions(math.pi / 2)
    assert abs(abs(r.f1) - 2.732) < 5e-4
    assert abs(abs(r.f2) - 0.7321) < 5e-4
    assert abs(abs(r.f4) - 2.732) < 5e-4
    assert abs(abs(r.f3) - 0.7321) < 5e-4


def test_f_values_at_zero():
    r = f_functions(0.0)
    assert np.isclose(r.f1, 2 * np.exp(1j * math.pi / 3), atol=1e-12)
    assert np.isclose(r.f2, 2.0, atol=1e-12)


def test_f_magnitude_pairing_and_energy_balance():
    thetas = np.linspace(0, 2 * math.pi, 1000)
    for theta in thetas:
        r = f_functions(theta)
        assert abs(abs(r.f1) - abs(r.f4)) < 1e-12
        assert abs(abs(r.f2) - abs(r.f3)) < 1e-12
        assert abs(abs(r.f1) ** 2 + abs(r.f2) ** 2 - 8.0) < 1e-12
        assert abs(abs(r.f3) ** 2 + abs(r.f4) ** 2 - 8.0) < 1e-12


def test_f1_peaks_at_quarter_turn():
    thetas = np.linspace(0, 2 * math.pi, 4097)
    magnitudes = [abs(f_functions(t).f1) for t in thetas]
    assert np.isclose(thetas[int(np.argmax(magnitudes))], math.pi / 2, atol=2e-3)


def test_counting_means_at_half_alpha():
    r = f_functions(math.pi / 2, alpha=0.5)
    assert abs(r.mu1 - 0.4665) < 5e-5
    assert abs(r.mu2 - 0.03349) < 5e-5
    assert r.mu1 == pytest.approx(abs(0.5 * r.f1 / 2) ** 2)


# -- cavity output ------------------------------------------------------------------


def cavity_oracle(alpha, m, n_max):
    """Closed-form heralded output: coherent amplitudes scaled by the
    ground-projection cosines, renormalized."""
    n = np.arange(n_max + 1)
    coh = np.exp(-abs(alpha) ** 2 / 2) * np.asarray(alpha, complex) ** n / np.sqrt(
        [math.factorial(int(k)) for k in n]
    )
    scaled = coh * np.cos(np.sqrt(n) * (2 * m + 1) * math.pi / math.sqrt(2))
    return scaled / np.linalg.norm(scaled)


def test_cavity_output_vacuum_input():
    out = cavity_ns_output(0.0, 3)
    assert np.allclose(out.state.amplitudes, number_state([0], 12).amplitudes)
    assert out.error_mass == 0.0


def test_cavity_output_matches_closed_form():
    out = cavity_ns_output(0.5, 3)
    assert np.abs(out.state.amplitudes - cavity_oracle(0.5, 3, 12)).max() < 1e-12


def test_cavity_output_two_photon_sector():
    out = cavity_ns_output(0.5, 3)
    amp0 = out.state.amplitude([0])
    amp2 = out.state.amplitude([2])
    expected_ratio = -(0.5**2 / math.sqrt(2))
    assert np.isclose(amp2 / amp0, expected_ratio, atol=1e-12)
    assert amp2.real / amp0.real < 0  # sign flipped relative to |0>


def test_cavity_output_one_photon_sector_keeps_d():
    for m in (1, 3):
        out = cavity_ns_output(0.4, m)
        _, d = cm_dm(m)
        ratio = out.state.amplitude([1]) / out.state.amplitude([0])
        assert np.isclose(ratio, d * 0.4, atol=1e-12)


def test_cavity_rejects_strong_light():
    with pytest.raises(ValueError):
        cavity_ns_output(1.0, 3)


def test_cavity_rejects_alpha_beyond_float_range():
    # |alpha| itself exceeds the largest float
    with pytest.raises(ValueError, match="weak-light"):
        cavity_ns_output(1.7e308 + 1.7e308j, 3)


def test_error_mass_over_alpha_squared_bounded():
    alphas = [0.4, 0.2, 0.1, 0.05]
    ratios = [cavity_ns_output(a, 3).error_mass / a**2 for a in alphas]
    assert all(r <= ratios[0] for r in ratios)  # monotone in the sweep
    assert ratios[0] < 1e-2


# -- cavity store ------------------------------------------------------------------


def test_theta_sweep_runs_the_cavity_once_per_key():
    _heralded_cavity.cache_clear()
    for alpha in (0.3, 0.5):
        for theta in np.linspace(0, 2 * math.pi, 64, endpoint=False):
            mach_zehnder(cavity_ns_output(alpha, 3, 16).state, alpha, theta)
    info = _heralded_cavity.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 126, 2)


def test_equal_keys_share_one_entry():
    _heralded_cavity.cache_clear()
    outputs = [
        cavity_ns_output(alpha, 3, cutoff)
        for alpha in (0.5, 0.5 + 0j, np.float64(0.5))
        for cutoff in (12, FockCutoff(12))
    ]
    assert all(out is outputs[0] for out in outputs)
    assert _heralded_cavity.cache_info().currsize == 1


@pytest.mark.parametrize(
    "alpha, n_max, match",
    [(1.0, 12, "weak-light"), (0.99, 6, "loses 7.36e-05 of its mass")],
    ids=["strong-light", "cut-input"],
)
def test_rejected_inputs_raise_every_time_and_store_nothing(alpha, n_max, match):
    _heralded_cavity.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match=match):
            cavity_ns_output(alpha, 3, n_max)
    info = _heralded_cavity.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


@pytest.mark.parametrize("alpha, m, n_max", [(0.5, 3, 12), (0.3 - 0.4j, 1, 16), (0.0, 0, 2)])
def test_stored_cavity_is_read_only_and_bitwise_the_gate_output(alpha, m, n_max):
    stored = cavity_ns_output(alpha, m, n_max)
    assert cavity_ns_output(alpha, m, n_max) is stored
    assert not stored.state.amplitudes.flags.writeable
    direct = ns_gate(coherent_state(alpha, n_max), m).output.amplitudes
    assert stored.state.amplitudes.tobytes() == direct.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        stored.state.amplitudes[0] = 0


# -- reference state -----------------------------------------------------------------


def test_cat_reference_vacuum_limit():
    out = cat_reference(0.0)
    assert np.allclose(out.amplitudes, number_state([0], 12).amplitudes)


def test_cat_reference_small_alpha_amplitudes():
    # Exact expansion of the half-sum: amplitudes carry cos(n pi / 3), so the
    # leading terms are (1, alpha/2, -alpha^2/(2 sqrt 2)) e^{-|alpha|^2/2}.
    alpha = 0.05
    out = cat_reference(alpha)
    scale = math.exp(-(alpha**2) / 2)
    assert np.isclose(out.amplitude([0]), scale, atol=1e-9)
    assert np.isclose(out.amplitude([1]), scale * alpha / 2, atol=1e-9)
    assert np.isclose(out.amplitude([2]), -scale * alpha**2 / (2 * math.sqrt(2)), atol=1e-9)


def test_cat_reference_exact_norm_flag():
    bare = cat_reference(0.5)
    unit = cat_reference(0.5, exact_norm=True)
    assert math.sqrt(bare.norm_squared()) < 1.0
    assert math.sqrt(unit.norm_squared()) == pytest.approx(1.0, abs=1e-12)


def test_cat_reference_with_nothing_inside_the_cutoff_is_refused():
    # at |alpha| = 39 both branch weights e^{-|alpha|^2/2} underflow to 0
    assert not cat_reference(39, 12).amplitudes.any()
    with pytest.raises(ValueError, match="cat reference at alpha 39 is 0 inside n_max 12"):
        cat_reference(39, 12, exact_norm=True)


@pytest.mark.parametrize("m", [1, 3])
def test_cavity_matches_cat_up_to_alpha_squared(m):
    """Fidelity deficit 1 - (1/4)|(<cat+| + <cat-|)|Psi>|^2 scales as alpha^2."""
    alphas = np.array([0.4, 0.2, 0.1])
    deficits = []
    for alpha in alphas:
        out = cavity_ns_output(alpha, m).state
        plus = coherent_state(np.exp(1j * math.pi / 3) * alpha, 12)
        minus = coherent_state(np.exp(-1j * math.pi / 3) * alpha, 12)
        bracket = np.vdot(plus.amplitudes + minus.amplitudes, out.amplitudes)
        deficits.append(1 - 0.25 * abs(bracket) ** 2)
    slope = np.polyfit(np.log(alphas), np.log(deficits), 1)[0]
    assert abs(slope - 2.0) < 0.3


# -- interferometer -------------------------------------------------------------------


@pytest.mark.parametrize(
    "alpha, beta, theta",
    [
        (0.5, 0.3j, 1.2),
        (0.3, 0.2j, 5.5),
        (0.8, 0.8j, 2.1),
        (0.8, -0.5, 0.7),
        # vacuum reference at theta = pi: |n> picks up (-1)^n and leaves by D2
        (0.6, 0, math.pi),
    ],
)
def test_mach_zehnder_coherent_closed_form(alpha, beta, theta):
    # exact on the sectors n_1 + n_2 <= n_max, which the splitters keep, and
    # nothing above them, however much coherent mass lies there
    out = mach_zehnder(coherent_state(alpha, 12), beta, theta).amplitudes
    rot = np.exp(1j * theta)
    gamma1 = ((rot + 1) * alpha + (rot - 1) * beta) / 2
    gamma2 = ((rot - 1) * alpha + (rot + 1) * beta) / 2
    predicted = tensor(coherent_state(gamma1, 12), coherent_state(gamma2, 12)).amplitudes
    outside = pair_above_cutoff(12)
    assert np.abs(out - predicted)[~outside].max() < 1e-14
    assert not out[outside].any()


@given(st.integers(0, 2**32 - 1), st.floats(-1e3, 1e3))
@settings(max_examples=20)
def test_mach_zehnder_vacuum_reference_keeps_norm(seed, theta):
    # against vacuum the total photon number stays <= n_max, so every
    # element acts exactly and the output keeps unit norm at any phase
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=6) + 1j * rng.normal(size=6)
    state_in = renormalize(MultiModeState(1, FockCutoff(5), amps))
    assert abs(math.sqrt(mach_zehnder(state_in, 0, theta).norm_squared()) - 1.0) < 1e-12


def test_mach_zehnder_zero_phase_is_transparent():
    # with theta = 0 the two splitters cancel exactly
    alpha = 0.5
    state_in = coherent_state(alpha, 12)
    out = mach_zehnder(state_in, alpha, 0.0).amplitudes
    predicted = tensor(coherent_state(alpha, 12), coherent_state(alpha, 12)).amplitudes
    # what is left is the input pair's projection onto n_1 + n_2 <= n_max
    outside = pair_above_cutoff(12)
    assert np.abs(out - np.where(outside, 0.0, predicted)).max() < 1e-14


CHAIN_THETAS = [*np.linspace(-7, 7, 57), 1e3, -1e3]


@pytest.mark.parametrize("n_max", [2, 3, 12, 16, 17, 18, 19, 40, 110])
def test_mach_zehnder_matches_the_per_theta_chain(n_max):
    # odd and even n_max fold the splitter's sectors differently; 110 is the
    # largest cutoff the CLI admits
    alpha = 0.3 + 0.4j
    photons = coherent_state(alpha, n_max)
    # the heralded cavity at every m, on an input renormalized at any cutoff
    cavity = [
        ns_gate(renormalize(photons), m, apply_compensating_phase=False).output for m in range(5)
    ]
    for state in [*cavity, photons]:
        for theta in CHAIN_THETAS:
            out = mach_zehnder(state, alpha, theta).amplitudes
            assert np.abs(out - mach_zehnder_chain(state, alpha, theta).amplitudes).max() <= 1e-15


ORACLE_THETAS = np.linspace(-7, 7, 25)


@pytest.mark.parametrize("n_max", [12, 16, 40, 110])
def test_mach_zehnder_matches_the_splitter_free_closed_form(n_max):
    for alpha in (0.5, 0.3 - 0.4j, 0.9):
        for m in (0, 3):
            state = cavity_ns_output(alpha, m, n_max).state
            for theta in ORACLE_THETAS:
                out = mach_zehnder(state, alpha, theta).amplitudes
                assert np.abs(out - mach_zehnder_closed_form(state, alpha, theta)).max() <= 1e-15


@pytest.mark.parametrize("n_max", [2, 5])
def test_mach_zehnder_matches_the_closed_form_on_random_inputs(n_max):
    rng = np.random.default_rng(n_max)
    for _ in range(8):
        amps = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
        state = renormalize(MultiModeState(1, FockCutoff(n_max), amps))
        alpha = complex(*rng.normal(scale=0.7, size=2))
        for theta in ORACLE_THETAS:
            out = mach_zehnder(state, alpha, theta).amplitudes
            assert np.abs(out - mach_zehnder_closed_form(state, alpha, theta)).max() <= 1e-15


def _by_sector(probs):
    """Sum a two-mode probability table over each sector N = n_0 + n_1 <= n_max."""
    n = np.arange(probs.shape[0])
    return np.bincount((n[:, None] + n).reshape(-1), probs.reshape(-1))[: probs.shape[0]]


@pytest.mark.parametrize("n_max", [40, 160])
def test_joint_counts_keep_each_kept_sector_mass(n_max):
    # both splitters and the phase conserve each sector's mass, and the first
    # splitter cuts everything above n_max: the joint table sums, sector by
    # sector, to the mass of input x |alpha> it keeps, at any theta
    rng = np.random.default_rng(n_max)
    spread = renormalize(MultiModeState(1, FockCutoff(n_max), rng.normal(size=n_max + 1) + 0j))
    outside = pair_above_cutoff(n_max).reshape(n_max + 1, n_max + 1)
    for state, alpha in [(cavity_ns_output(0.9, 3, n_max).state, 0.9), (spread, 2.0)]:
        product = tensor(state, coherent_state(alpha, n_max)).as_tensor()
        kept = _by_sector(np.abs(product) ** 2)
        for theta in (0.0, 1.5708, -2.5):
            joint = detector_statistics(mach_zehnder(state, alpha, theta)).joint
            assert not joint[outside].any()
            assert np.abs(_by_sector(joint) - kept).max() < 1e-13
            assert joint.sum() == pytest.approx(kept.sum(), abs=1e-12)


def test_branch_predictions_track_simulated_marginals():
    # simulated marginals vs the two-coherent-branch model of the cavity
    # output; they differ only through the O(alpha^2) model error
    alpha, theta = 0.5, math.pi / 2
    budget = alpha**2
    for m, model_alpha in [(1, alpha), (3, -alpha)]:
        sim = detector_statistics(
            mach_zehnder(cavity_ns_output(alpha, m).state, alpha, theta)
        )
        predicted = detector_statistics(
            mach_zehnder(cat_reference(model_alpha, exact_norm=True), alpha, theta)
        )
        tv_d1 = 0.5 * np.abs(sim.marginal_d1 - predicted.marginal_d1).sum()
        tv_d2 = 0.5 * np.abs(sim.marginal_d2 - predicted.marginal_d2).sum()
        assert tv_d1 < budget
        assert tv_d2 < budget


def test_bunching_suppresses_coincidences_at_quarter_turn():
    # the sign flip on |2> cancels the (1,1) joint amplitude exactly
    stats = detector_statistics(
        mach_zehnder(cavity_ns_output(0.5, 3).state, 0.5, math.pi / 2)
    )
    assert stats.joint[1, 1] < 1e-20


# -- theta-polynomial store -------------------------------------------------------
#
# Every test starts and ends with the store empty (tests/conftest.py).


SWEEP = np.linspace(0, 2 * math.pi, 1024, endpoint=False)


def test_theta_sweep_mixes_the_reference_once():
    state = cavity_ns_output(0.5, 3, 16).state
    for theta in SWEEP:
        mach_zehnder(state, 0.5, theta)
    info = _theta_coefficients.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1023, 1)


def test_cold_call_runs_two_splitters_and_a_warm_call_none(monkeypatch):
    state = cavity_ns_output(0.5, 3, 16).state
    calls = {"beam_splitter": 0, "coherent_state": 0}

    def count(name):
        original = getattr(interferometer, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(interferometer, name, counted)

    for name in calls:
        count(name)
    mach_zehnder(state, 0.5, SWEEP[0])
    assert calls == {"beam_splitter": 2, "coherent_state": 1}
    for theta in SWEEP[1:]:
        mach_zehnder(state, 0.5, theta)
    # the cold call's two splitters built the theta polynomial; no warm call runs one
    assert calls == {"beam_splitter": 2, "coherent_state": 1}


def test_a_deep_reference_prints_nothing_cold_or_warm():
    # |1.9|^2 > n_max / 4: the reference loses 1.0e-4 of its mass at n_max 12;
    # pytest turns any warning into an error, so both calls must stay silent
    state = coherent_state(0.3, 12)
    mach_zehnder(state, 1.9, 1.0)
    mach_zehnder(state, 1.9, 1.0)
    info = _theta_coefficients.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@given(st.floats(-1e3, 1e3))
@settings(max_examples=20)
def test_warm_output_is_bitwise_the_cold_output(theta):
    state = cavity_ns_output(0.5, 3, 12).state
    mach_zehnder(state, 0.5, 0.0)
    warm = mach_zehnder(state, 0.5, theta).amplitudes
    assert _theta_coefficients.cache_info().hits >= 1
    _theta_coefficients.cache_clear()
    cold = mach_zehnder(state, 0.5, theta).amplitudes
    assert warm.tobytes() == cold.tobytes()


def test_equal_reference_keys_share_one_entry():
    state = cavity_ns_output(0.5, 3, 12).state
    twin = MultiModeState(1, FockCutoff(12), state.amplitudes.copy())
    assert twin is not state
    for upper in (state, twin):
        for alpha in (0.5, 0.5 + 0j, np.float64(0.5)):
            mach_zehnder(upper, alpha, 1.0)
    info = _theta_coefficients.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 5, 1)


def test_other_input_or_alpha_misses():
    state = cavity_ns_output(0.5, 3, 12).state
    mach_zehnder(state, 0.5, 1.0)
    mach_zehnder(cavity_ns_output(0.5, 1, 12).state, 0.5, 1.0)
    mach_zehnder(state, 0.4, 1.0)
    mach_zehnder(state, 0.5j, 1.0)
    info = _theta_coefficients.cache_info()
    assert (info.misses, info.hits, info.currsize) == (4, 0, 4)


def test_two_mode_input_raises_and_stores_nothing():
    pair = tensor(coherent_state(0.5, 12), coherent_state(0.5, 12))
    with pytest.raises(ValueError, match="single-mode"):
        mach_zehnder(pair, 0.5, 1.0)
    info = _theta_coefficients.cache_info()
    assert (info.misses, info.currsize) == (0, 0)


@pytest.mark.parametrize("theta", [1e308, -1e308, math.inf, math.nan])
def test_overflowing_theta_raises_and_stores_nothing(theta):
    # e^{i n theta} at n = n_max would overflow to NaN amplitudes
    state = cavity_ns_output(0.5, 3, 12).state
    mach_zehnder(state, 0.5, 1.0)
    with pytest.raises(ValueError, match="theta \\* n_max must be finite"):
        mach_zehnder(cavity_ns_output(0.5, 1, 12).state, 0.5, theta)
    info = _theta_coefficients.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_stored_reference_mix_is_read_only():
    state = cavity_ns_output(0.5, 3, 12).state
    entry = _theta_coefficients(state.amplitudes.tobytes(), 0.5 + 0j, state.cutoff)
    assert _theta_coefficients(state.amplitudes.tobytes(), 0.5 + 0j, state.cutoff) is entry
    photons, kept, table = entry
    n = np.arange(state.cutoff.dim)
    assert np.array_equal(photons, n)
    assert np.array_equal(kept, np.flatnonzero(np.add.outer(n, n) <= 12))
    assert table.shape == (kept.size, n.size) and table.flags.c_contiguous
    for array in (photons, kept, table):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: mach_zehnder(cavity_ns_output(0.5, 3, 12).state, math.nan, 1.0),
        lambda: coherent_state(complex("inf"), 4),
        lambda: cavity_ns_output(math.nan, 3, 12),
    ],
    ids=["mach-zehnder", "coherent-state", "cavity"],
)
def test_non_finite_alpha_is_refused_and_stores_nothing(call):
    stored = _theta_coefficients.cache_info().currsize
    with pytest.raises(ValueError, match="alpha must be finite"):
        call()
    assert _theta_coefficients.cache_info().currsize == stored


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_input_is_refused_and_stores_nothing(value):
    amps = cavity_ns_output(0.5, 3, 12).state.amplitudes.copy()
    amps[2] = value
    with pytest.raises(ValueError, match="input amplitudes must be finite"):
        mach_zehnder(MultiModeState(1, FockCutoff(12), amps), 0.5, 1.0)
    assert _theta_coefficients.cache_info().currsize == 0


# -- detector statistics ----------------------------------------------------------------


def test_detector_statistics_poisson_arm():
    arm = renormalize(coherent_state(math.sqrt(0.4665), 12))
    stats = detector_statistics(tensor(arm, number_state([0], 12)))
    assert abs(stats.marginal_d1[1] - 0.2926) < 5e-5
    assert abs(stats.marginal_d1[2] - 0.06825) < 5e-5
    assert stats.marginal_d2[0] == pytest.approx(1.0, abs=1e-12)


def test_detector_statistics_weak_arm():
    arm = renormalize(coherent_state(math.sqrt(0.03349), 12))
    stats = detector_statistics(tensor(arm, number_state([0], 12)))
    assert abs(stats.marginal_d1[1] - 0.03239) < 5e-5
    assert abs(stats.marginal_d1[2] - 0.0005424) < 5e-5


def test_detector_marginals_are_reduced_on_first_read():
    stats = detector_statistics(mach_zehnder(cavity_ns_output(0.5, 3, 12).state, 0.5, 1.0))
    assert "marginal_d1" not in vars(stats) and "marginal_d2" not in vars(stats)
    d1 = stats.marginal_d1
    assert "marginal_d2" not in vars(stats)
    d2 = stats.marginal_d2
    assert np.array_equal(d1, stats.joint.sum(axis=1))
    assert np.array_equal(d2, stats.joint.sum(axis=0))
    assert stats.marginal_d1 is d1 and stats.marginal_d2 is d2


def test_detector_statistics_vacuum():
    stats = detector_statistics(number_state([0, 0], 6))
    assert stats.marginal_d1[0] == 1.0
    assert stats.marginal_d2[0] == 1.0


def test_poisson_pmf_values():
    assert poisson_pmf(0, 0.0) == 1.0
    assert abs(poisson_pmf(1, 0.4665) - 0.2926) < 5e-5
    assert abs(poisson_pmf(2, 0.4665) - 0.06825) < 5e-5
    assert abs(poisson_pmf(1, 0.03349) - 0.03239) < 5e-5
    assert abs(poisson_pmf(2, 0.03349) - 0.0005424) < 5e-5


def test_poisson_pmf_matches_scipy():
    for n in range(6):
        for mu in (0.03349, 0.4665, 2.0):
            assert np.isclose(poisson_pmf(n, mu), scipy_stats.poisson.pmf(n, mu))


def test_poisson_pmf_normalized():
    for mu in (0.0, 0.4665, 3.7):
        assert sum(poisson_pmf(n, mu) for n in range(80)) == pytest.approx(1.0, abs=1e-12)


def test_poisson_pmf_domain():
    with pytest.raises(ValueError):
        poisson_pmf(-1, 0.5)
    with pytest.raises(ValueError):
        poisson_pmf(1, -0.5)
    with pytest.raises(ValueError):
        poisson_pmf(1, math.nan)
    with pytest.raises(ValueError):
        poisson_pmf(1, math.inf)


def test_poisson_pmf_counts_are_integers():
    for n in (2.5, 2.0, "2"):
        with pytest.raises(ValueError, match="n must be a non-negative integer"):
            poisson_pmf(n, 1.0)
    assert poisson_pmf(np.int64(2), 1.0) == poisson_pmf(2, 1.0)


def test_non_integral_cavity_cutoff_is_refused():
    # flooring would run the cavity at n_max 12 under a 12.9 label
    with pytest.raises(ValueError, match="n_max must be an integer, got 12.9"):
        cavity_ns_output(0.5, 3, 12.9)


def test_detector_pair_refuses_a_single_mode_state():
    with pytest.raises(ValueError, match="two-mode"):
        detector_statistics(coherent_state(0.5, 4))


def test_poisson_pmf_far_tail_and_huge_mean_vanish():
    # neither mu**n nor n! is formed, so a term below the float range is 0.0
    assert poisson_pmf(200, 0.4665) == 0.0
    assert [poisson_pmf(n, 1e300) for n in range(4)] == [0.0] * 4
    assert [poisson_pmf(n, 0.0) for n in range(4)] == [1.0, 0.0, 0.0, 0.0]
    for mu in (0.4665, 3.7, 150.0, 800.0):
        for n in (0, 1, 50, 200, 800):
            assert poisson_pmf(n, mu) == pytest.approx(
                scipy_stats.poisson.pmf(n, mu), rel=1e-12, abs=1e-300
            )


# -- Monte Carlo -----------------------------------------------------------------------


def test_conditional_run_rejects_zero_shots():
    with pytest.raises(ValueError, match="shots must be >= 1"):
        conditional_run(0, 1, 0.5, 3, math.pi / 2)


def test_conditional_run_rejects_shots_beyond_int64():
    # the guard fires before the draw, so nothing of that size is allocated
    with pytest.raises(ValueError, match=r"2\*\*63 - 1"):
        conditional_run(2**63, 1, 0.5, 3, math.pi / 2)


@pytest.mark.parametrize("shots, seed", [(2.5, 1), (10, 1.5)], ids=["shots", "seed"])
def test_sample_conditioned_refuses_non_integer_shots_and_seed(shots, seed):
    stats = detector_statistics(mach_zehnder(cavity_ns_output(0.5, 3, 12).state, 0.5, 1.0))
    with pytest.raises(ValueError, match="must be integers"):
        sample_conditioned(stats, shots, seed, 0.5, 1.0)
    report = sample_conditioned(stats, np.int64(10), np.int64(3), 0.5, 1.0)
    assert report.d1_counts.sum() == report.shots == 10


def test_conditional_run_rejects_unreachable_condition():
    # vacuum input: D2 never sees one photon, so the D2 = 1 slice is undefined
    with pytest.raises(ValueError, match="D2 = 1"):
        conditional_run(10, 1, 0.0, 3, 1.0)


@pytest.mark.parametrize(
    "shots, seed, theta",
    [(1, 5, math.pi / 2), (2000, 123, math.pi / 2), (100_000, 7, 0.3), (2**63 - 1, 3, 1.0)],
)
def test_count_table_invariants(shots, seed, theta):
    report = conditional_run(shots, seed, 0.5, 3, theta)
    assert report.d1_counts.sum() == report.d2_counts.sum() == shots
    assert report.conditioned_d1_counts.sum() == report.d2_counts[1]
    assert report.d2_one_frequency == report.d2_counts[1] / shots


def test_billion_shots_in_well_under_a_second():
    # a per-shot draw would need more than 8 GB for its index array alone
    shots = 10**9
    start = time.perf_counter()
    report = conditional_run(shots, 11, 0.5, 3, math.pi / 2)
    assert time.perf_counter() - start < 1.0
    assert report.d1_counts.sum() == report.d2_counts.sum() == shots
    assert report.conditioned_d1_counts.sum() == report.d2_counts[1]


def test_conditional_run_deterministic():
    a = conditional_run(2000, 123, 0.5, 3, math.pi / 2)
    b = conditional_run(2000, 123, 0.5, 3, math.pi / 2)
    assert np.array_equal(a.d1_counts, b.d1_counts)
    assert np.array_equal(a.conditioned_d1_counts, b.conditioned_d1_counts)
    assert a.d2_one_frequency == b.d2_one_frequency
    c = conditional_run(2000, 124, 0.5, 3, math.pi / 2)
    assert not np.array_equal(a.d1_counts, c.d1_counts)


def test_conditional_run_frequency_matches_exact():
    shots = 100_000
    report = conditional_run(shots, 7, 0.5, 3, math.pi / 2)
    p = report.d2_one_probability_exact
    sigma = math.sqrt(p * (1 - p) / shots)
    assert abs(report.d2_one_frequency - p) < 3 * sigma
    # the branch-weight estimate quoted next to the exact value
    assert abs(report.leading_order_estimate - 0.07315) < 5e-5


def test_conditional_histogram_matches_exact_distribution():
    shots = 100_000
    report = conditional_run(shots, 99, 0.5, 3, math.pi / 2)
    total = report.conditioned_d1_counts.sum()
    for n, p in enumerate(report.conditioned_d1_exact):
        sigma = math.sqrt(max(total * p * (1 - p), 1e-12))
        assert abs(report.conditioned_d1_counts[n] - total * p) <= 3 * sigma + 1


def test_empirical_marginal_passes_chi_square():
    shots = 100_000
    report = conditional_run(shots, 2024, 0.5, 3, math.pi / 2)
    stats = detector_statistics(
        mach_zehnder(cavity_ns_output(0.5, 3).state, 0.5, math.pi / 2)
    )
    expected = stats.marginal_d2 / stats.marginal_d2.sum() * shots
    observed = report.d2_counts.astype(float)
    # merge the sparse tail so every bin expects >= 5 events
    keep = int(np.sum(expected >= 5))
    observed = np.concatenate([observed[:keep], [observed[keep:].sum()]])
    expected = np.concatenate([expected[:keep], [expected[keep:].sum()]])
    result = scipy_stats.chisquare(observed, expected)
    assert result.pvalue > 0.01
