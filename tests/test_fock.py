import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcsim.errors import (
    CutoffMismatch,
    DimensionMismatch,
    OccupationExceedsCutoff,
    ZeroStateError,
)
from jcsim.fock import (
    FockCutoff,
    MultiModeState,
    coherent_state,
    number_state,
    overlap,
    renormalize,
    tensor,
    vacuum,
)


def random_state(mode_count, n_max, seed):
    rng = np.random.default_rng(seed)
    dim = (n_max + 1) ** mode_count
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return renormalize(MultiModeState(mode_count, FockCutoff(n_max), amps))


# -- constructors -----------------------------------------------------------


def test_vacuum_single_mode():
    s = vacuum(1, 4)
    assert s.amplitude([0]) == 1.0
    assert s.norm() == 1.0


def test_vacuum_two_modes_layout():
    s = vacuum(2, 2)
    assert s.amplitudes.shape == (9,)
    assert s.amplitude([0, 0]) == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


def test_vacuum_norm():
    assert np.isclose(vacuum(3, 3).norm(), 1.0)


def test_number_state_basis_vectors():
    assert number_state([2], 4).amplitude([2]) == 1.0
    s = number_state([1, 0], 2)
    assert s.amplitude([1, 0]) == 1.0
    assert s.norm() == 1.0


def test_number_state_rejects_overfull_mode():
    with pytest.raises(OccupationExceedsCutoff):
        number_state([5], 4)


def test_cutoff_must_allow_two_photons():
    with pytest.raises(ValueError):
        FockCutoff(1)


def test_coherent_alpha_zero_is_vacuum():
    s = coherent_state(0, 8)
    assert np.allclose(s.amplitudes, vacuum(1, 8).amplitudes)


def test_coherent_one_photon_amplitude():
    # exp(-|0.5|^2 / 2) * 0.5 evaluated directly
    s = coherent_state(0.5, 12)
    expected = math.exp(-0.125) * 0.5
    assert np.isclose(s.amplitude([1]), expected, atol=1e-15)
    assert np.isclose(expected, 0.4412484512922977, atol=1e-12)


def test_coherent_truncation_deficit_negligible_at_half():
    assert abs(coherent_state(0.5, 12).norm_squared() - 1.0) < 1e-12


def test_coherent_truncation_warning():
    with pytest.warns(UserWarning, match="truncation"):
        coherent_state(2.0, 8)


def test_truncation_monotonicity():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small n_max triggers the truncation warning
        norms = [coherent_state(1.0, n).norm_squared() for n in range(2, 16)]
    assert all(b >= a for a, b in zip(norms, norms[1:]))
    assert norms[-1] == pytest.approx(1.0, abs=1e-10)


# -- overlap ----------------------------------------------------------------


def test_overlap_orthonormality_examples():
    one = number_state([1], 6)
    assert overlap(one, one) == 1.0
    assert overlap(number_state([0], 6), one) == 0.0


@given(st.integers(0, 6), st.integers(0, 6))
def test_overlap_orthonormality(i, j):
    a, b = number_state([i], 6), number_state([j], 6)
    assert overlap(a, b) == (1.0 if i == j else 0.0)


def test_overlap_coherent_closed_form():
    # <alpha|beta> = exp(-|a|^2/2 - |b|^2/2 + conj(a) b), independent of the
    # summation route used by overlap()
    for alpha, beta in [(0.5, 0.3j), (0.2 + 0.4j, -0.6), (0.9, 0.9)]:
        got = overlap(coherent_state(alpha, 14), coherent_state(beta, 14))
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
    got = abs(overlap(coherent_state(alpha, 12), coherent_state(beta, 12)))
    assert abs(got - math.exp(-abs(alpha - beta) ** 2 / 2)) < 1e-8


def test_overlap_requires_matching_spaces():
    with pytest.raises(DimensionMismatch):
        overlap(vacuum(1, 4), vacuum(2, 4))
    with pytest.raises(DimensionMismatch):
        overlap(vacuum(1, 4), vacuum(1, 5))


# -- renormalize -------------------------------------------------------------


def test_renormalize_scaling():
    s = number_state([1], 4)
    doubled = s.with_amplitudes(2.0 * s.amplitudes)
    assert np.allclose(renormalize(doubled).amplitudes, s.amplitudes)


def test_renormalize_zero_vector():
    zero = vacuum(1, 4).with_amplitudes(np.zeros(5))
    with pytest.raises(ZeroStateError):
        renormalize(zero)


def test_renormalize_preserves_global_phase():
    s = vacuum(1, 4).with_amplitudes(np.array([1 + 1j, 0, 0, 0, 0]))
    out = renormalize(s)
    assert np.isclose(out.amplitudes[0], (1 + 1j) / math.sqrt(2))


# -- tensor ------------------------------------------------------------------


def test_tensor_product_basis():
    s = tensor(number_state([1], 3), number_state([0], 3))
    assert s.amplitude([1, 0]) == 1.0


def test_tensor_of_vacua():
    assert np.allclose(
        tensor(vacuum(1, 3), vacuum(1, 3)).amplitudes, vacuum(2, 3).amplitudes
    )


@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_tensor_norm_multiplicative(seed_a, seed_b):
    a = random_state(1, 5, seed_a)
    b = random_state(2, 5, seed_b)
    a = a.with_amplitudes(1.7 * a.amplitudes)
    assert np.isclose(tensor(a, b).norm(), a.norm() * b.norm(), atol=1e-12)


def test_tensor_cutoff_mismatch():
    with pytest.raises(CutoffMismatch):
        tensor(vacuum(1, 3), vacuum(1, 4))


# -- serialization -------------------------------------------------------------


def test_json_roundtrip():
    s = random_state(2, 3, 42)
    back = MultiModeState.from_json(s.to_json())
    assert back.mode_count == 2
    assert back.cutoff == s.cutoff
    assert np.allclose(back.amplitudes, s.amplitudes)


def test_json_index_order_is_mode0_slowest():
    s = number_state([1, 2], 2)
    payload = json.loads(s.to_json())
    idx = 1 * 3 + 2
    assert payload["amplitudes"][idx] == [1.0, 0.0]


def test_states_are_immutable():
    s = vacuum(1, 4)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0
