import json
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import coherent_amplitudes_mp, renormalize
from scipy import stats as scipy_stats

from jcsim.fock import (
    FockCutoff,
    MultiModeState,
    coherent_state,
    number_state,
    tensor,
)


def random_state(mode_count, n_max, seed):
    rng = np.random.default_rng(seed)
    dim = (n_max + 1) ** mode_count
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return renormalize(MultiModeState(mode_count, FockCutoff(n_max), amps))


# -- constructors -----------------------------------------------------------


def test_vacuum_single_mode():
    s = number_state([0], 4)
    assert s.amplitude([0]) == 1.0
    assert math.sqrt(s.norm_squared()) == 1.0


def test_vacuum_two_modes_layout():
    s = number_state([0, 0], 2)
    assert s.amplitudes.shape == (9,)
    assert s.amplitude([0, 0]) == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


def test_vacuum_norm():
    assert np.isclose(math.sqrt(number_state([0, 0, 0], 3).norm_squared()), 1.0)


def test_number_state_basis_vectors():
    assert number_state([2], 4).amplitude([2]) == 1.0
    s = number_state([1, 0], 2)
    assert s.amplitude([1, 0]) == 1.0
    assert math.sqrt(s.norm_squared()) == 1.0


def test_number_state_rejects_overfull_mode():
    with pytest.raises(ValueError, match=r"occupation 5 outside \[0, 4\]"):
        number_state([5], 4)


def test_cutoff_must_allow_two_photons():
    with pytest.raises(ValueError):
        FockCutoff(1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FockCutoff(2.5), "n_max must be an integer, got 2.5"),
        (lambda: coherent_state(0.5, 12.9), "n_max must be an integer, got 12.9"),
        (lambda: number_state([2.7], 3), "occupation 2.7 is not an integer"),
        (lambda: number_state(["2"], 3), "occupation '2' is not an integer"),
        (lambda: number_state([2], 3).amplitude([1.9]), "occupation 1.9 is not an integer"),
        (
            lambda: MultiModeState(1.0, FockCutoff(2), np.array([1, 0, 0])),
            "mode_count must be an integer, got 1.0",
        ),
        (
            lambda: MultiModeState("1", FockCutoff(2), np.array([1, 0, 0])),
            "mode_count must be an integer, got '1'",
        ),
    ],
    ids=[
        "cutoff",
        "coherent-cutoff",
        "occupation",
        "occupation-text",
        "amplitude-occupation",
        "mode-count",
        "mode-count-text",
    ],
)
def test_non_integral_cutoff_or_occupation_is_refused(build, message):
    # flooring would run at a cutoff or read an amplitude nobody asked for
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_numpy_integers_pass_as_cutoff_and_occupation():
    cutoff = FockCutoff(np.int64(5))
    assert type(cutoff.n_max) is int and cutoff == FockCutoff(5)
    state = number_state([np.int64(2), 1], np.int64(3))
    assert state.amplitude([np.int64(2), 1]) == 1.0


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MultiModeState(5, FockCutoff(2), np.zeros(9)), "mode_count 5 needs more than"),
        (lambda: MultiModeState(0, FockCutoff(2), np.ones(1)), "mode_count must be >= 1, got 0"),
        (lambda: number_state([0, 0], 2).amplitude([0]), "expected 2 occupation numbers"),
    ],
    ids=["mode-count", "no-modes", "occupation-count"],
)
def test_shape_mismatch_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_coherent_alpha_zero_is_vacuum():
    s = coherent_state(0, 8)
    assert np.allclose(s.amplitudes, number_state([0], 8).amplitudes)


def test_coherent_one_photon_amplitude():
    # exp(-|0.5|^2 / 2) * 0.5 evaluated directly
    s = coherent_state(0.5, 12)
    expected = math.exp(-0.125) * 0.5
    assert np.isclose(s.amplitude([1]), expected, atol=1e-15)
    assert np.isclose(expected, 0.4412484512922977, atol=1e-12)


def test_coherent_truncation_deficit_negligible_at_half():
    assert abs(coherent_state(0.5, 12).norm_squared() - 1.0) < 1e-12


@pytest.mark.parametrize("alpha", [0, 0.5, -0.5, 0.3 + 0.2j, 0.9, 3, 10, 5 - 5j, 20, 30])
@pytest.mark.parametrize("n_max", [2, 12, 40, 110, 400])
def test_coherent_amplitudes_match_50_digit_arithmetic(alpha, n_max):
    # every amplitude the float range holds with full precision, to 1e-14 relative
    amps = coherent_state(alpha, n_max).amplitudes
    assert coherent_state(alpha, n_max).amplitudes.tobytes() == amps.tobytes()
    for n, (got, want) in enumerate(zip(amps, coherent_amplitudes_mp(alpha, n_max))):
        if abs(want) > 1e-290:
            assert abs(mpmath.mpc(got) - want) <= 1e-14 * abs(want), (n, got, want)


@pytest.mark.parametrize("alpha, n_max", [(10, 400), (5, 600), (38.5, 200)])
def test_coherent_state_at_large_n_max_is_finite(alpha, n_max):
    # the terms alpha**n alone overflow here; the amplitudes themselves are below 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        amps = coherent_state(alpha, n_max).amplitudes
    assert np.isfinite(amps).all()
    if abs(alpha) < 37.6:  # e^{-|alpha|^2/2} is a normal float, so no bits are lost
        want = coherent_amplitudes_mp(alpha, n_max)
        assert all(
            abs(mpmath.mpc(z) - w) <= 1e-14 * abs(w) for z, w in zip(amps, want) if abs(w) > 1e-290
        )


@pytest.mark.parametrize("alpha", [1e30, 1e200, 1e308 + 1e308j])
@pytest.mark.parametrize("n_max", [4, 12, 110])
def test_coherent_state_past_the_weight_underflow_is_zero(alpha, n_max):
    # e^{-|alpha|^2/2} is 0 in floats, where alpha**n would overflow or |alpha|^2
    # leave the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        amps = coherent_state(alpha, n_max).amplitudes
    assert amps.shape == (n_max + 1,)
    assert np.isfinite(amps).all() and not amps.any()


@pytest.mark.parametrize("alpha, n_max", [(2.0, 8), (0.9, 3)])
def test_coherent_truncation_deficit_is_the_poisson_tail(alpha, n_max):
    # the cut is reported by the norm, not by a warning
    assert 1 - coherent_state(alpha, n_max).norm_squared() == pytest.approx(
        scipy_stats.poisson.sf(n_max, abs(alpha) ** 2), abs=1e-12
    )


def test_truncation_monotonicity():
    norms = [coherent_state(1.0, n).norm_squared() for n in range(2, 16)]
    assert all(b >= a for a, b in zip(norms, norms[1:]))
    assert norms[-1] == pytest.approx(1.0, abs=1e-10)


# -- overlap ----------------------------------------------------------------


def test_overlap_orthonormality_examples():
    one = number_state([1], 6)
    assert np.vdot(one.amplitudes, one.amplitudes) == 1.0
    assert np.vdot(number_state([0], 6).amplitudes, one.amplitudes) == 0.0


@given(st.integers(0, 6), st.integers(0, 6))
def test_overlap_orthonormality(i, j):
    a, b = number_state([i], 6), number_state([j], 6)
    assert np.vdot(a.amplitudes, b.amplitudes) == (1.0 if i == j else 0.0)


def test_overlap_coherent_closed_form():
    # <alpha|beta> = exp(-|a|^2/2 - |b|^2/2 + conj(a) b), independent of the
    # summation route of np.vdot
    for alpha, beta in [(0.5, 0.3j), (0.2 + 0.4j, -0.6), (0.9, 0.9)]:
        a, b = coherent_state(alpha, 14), coherent_state(beta, 14)
        got = np.vdot(a.amplitudes, b.amplitudes)
        expected = np.exp(
            -abs(alpha) ** 2 / 2 - abs(beta) ** 2 / 2 + np.conj(alpha) * beta
        )
        assert np.isclose(got, expected, atol=1e-10)


@settings(max_examples=30)
@given(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
)
def test_overlap_coherent_distance_law(alpha, beta):
    a, b = coherent_state(alpha, 12), coherent_state(beta, 12)
    got = abs(np.vdot(a.amplitudes, b.amplitudes))
    assert abs(got - math.exp(-abs(alpha - beta) ** 2 / 2)) < 1e-8


# -- tensor ------------------------------------------------------------------


def test_tensor_product_basis():
    s = tensor(number_state([1], 3), number_state([0], 3))
    assert s.amplitude([1, 0]) == 1.0


def test_tensor_of_vacua():
    vac = number_state([0], 3)
    assert np.allclose(tensor(vac, vac).amplitudes, number_state([0, 0], 3).amplitudes)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_tensor_norm_multiplicative(seed_a, seed_b):
    a = random_state(1, 5, seed_a)
    b = random_state(2, 5, seed_b)
    a = a.with_amplitudes(1.7 * a.amplitudes)
    product = math.sqrt(a.norm_squared()) * math.sqrt(b.norm_squared())
    assert np.isclose(math.sqrt(tensor(a, b).norm_squared()), product, atol=1e-12)


@pytest.mark.parametrize("modes_a, modes_b", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)])
def test_tensor_equals_kron_bitwise(modes_a, modes_b):
    a = random_state(modes_a, 4, 10 * modes_a + modes_b)
    b = random_state(modes_b, 4, 20 * modes_b + modes_a)
    out = tensor(a, b)
    assert out.mode_count == modes_a + modes_b
    assert out.amplitudes.tobytes() == np.kron(a.amplitudes, b.amplitudes).tobytes()


def test_tensor_cutoff_mismatch():
    with pytest.raises(ValueError, match="cutoffs differ"):
        tensor(number_state([0], 3), number_state([0], 4))


# -- serialization -------------------------------------------------------------


def test_json_roundtrip():
    s = random_state(2, 3, 42)
    back = MultiModeState.from_json(s.to_json())
    assert back.mode_count == 2
    assert back.cutoff == s.cutoff
    assert np.allclose(back.amplitudes, s.amplitudes)


def test_numpy_integer_mode_count_round_trips_as_int():
    # a float mode_count would be written as 1.0, which from_json refuses
    s = MultiModeState(np.int64(1), FockCutoff(2), np.array([1, 0, 0]))
    back = MultiModeState.from_json(s.to_json())
    assert type(s.mode_count) is int and type(back.mode_count) is int
    assert back.mode_count == 1 and np.array_equal(back.amplitudes, s.amplitudes)


def test_json_index_order_is_mode0_slowest():
    s = number_state([1, 2], 2)
    payload = json.loads(s.to_json())
    idx = 1 * 3 + 2
    assert payload["amplitudes"][idx] == [1.0, 0.0]


def test_states_are_immutable():
    s = number_state([0], 4)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0
