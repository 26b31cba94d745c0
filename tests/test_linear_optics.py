import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cm_dm_closed_form,
    coherent_bs_law_check,
    csf_composed_reference,
    multinomial_oracle,
    ns_diagonal_closed_form,
    renormalize,
)

from jcsim import cli, jcm
from jcsim.fock import (
    FockCutoff,
    MultiModeState,
    coherent_state,
    number_state,
    tensor,
)
from jcsim.jcm import _sign_shift_diagonal, cm_dm
from jcsim.linear_optics import (
    _sector_blocks,
    _sector_view,
    _splitter_blocks,
    beam_splitter,
    csf_gate,
    csf_truth_table,
    logical_basis_state,
)

ROOT = Path(__file__).resolve().parents[1]


def random_register(n_max, seed):
    """Random normalized four-mode state over every occupation up to n_max."""
    rng = np.random.default_rng(seed)
    size = (n_max + 1) ** 4
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    return renormalize(MultiModeState(4, FockCutoff(n_max), amps))


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
    out = beam_splitter(number_state([1, 1], 4))
    assert np.isclose(out.amplitude([2, 0]), 1 / math.sqrt(2), atol=1e-12)
    assert np.isclose(out.amplitude([0, 2]), -1 / math.sqrt(2), atol=1e-12)
    assert np.isclose(out.amplitude([1, 1]), 0.0, atol=1e-12)


def test_vacuum_invariant():
    out = beam_splitter(number_state([0, 0], 4))
    assert np.allclose(out.amplitudes, number_state([0, 0], 4).amplitudes)


@pytest.mark.parametrize("n_max", [6, 12, 13, 20, 30])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_applied_twice_is_identity(n_max, seed):
    s = random_bounded_state(n_max, seed)
    roundtrip = beam_splitter(beam_splitter(s))
    assert np.abs(roundtrip.amplitudes - s.amplitudes).max() < 1e-12


@pytest.mark.parametrize("n_max", [7, 12, 20, 30])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_norm_preserved_on_bounded_states(n_max, seed):
    s = random_bounded_state(n_max, seed)
    assert abs(math.sqrt(beam_splitter(s).norm_squared()) - 1.0) < 1e-12


@pytest.mark.parametrize("n_max", [6, 12, 20, 30])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15)
def test_total_photon_distribution_conserved(n_max, seed):
    s = random_bounded_state(n_max, seed)
    out = beam_splitter(s)
    dim = n_max + 1
    n1, n2 = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    for state in (s, out):
        probs = np.abs(state.as_tensor()) ** 2
        totals = np.bincount((n1 + n2).reshape(-1), weights=probs.reshape(-1))
        if state is s:
            reference = totals
        else:
            assert np.allclose(totals, reference, atol=1e-12)


@pytest.mark.parametrize("n_max", [2, 3, 4, 12, 13])
def test_matches_symbolic_multinomial_oracle(n_max):
    dim = n_max + 1
    for n in range(dim):
        for m in range(dim):
            out = beam_splitter(number_state([n, m], n_max))
            oracle = multinomial_oracle(n, m, dim)
            assert np.abs(out.amplitudes - oracle).max() < 1e-9


@pytest.mark.parametrize(
    "n, m", [(15, 15), (0, 30), (10, 20), (28, 30), (30, 30), (15, 20)]
)
def test_high_photon_columns_match_symbolic_multinomial_oracle(n, m):
    out = beam_splitter(number_state([n, m], 30)).amplitudes
    assert np.abs(out - multinomial_oracle(n, m, 31)).max() < 1e-12
    # N > n_max is outside the model: the splitter never gathers the column,
    # so the output keeps its fresh zeros
    if n + m > 30:
        assert not out.any()


@pytest.mark.parametrize("n_max", [3, 6, 12, 13, 20, 30])
@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_splitter_keeps_the_pair_sectors_up_to_n_max_and_cuts_the_rest(n_max, seed):
    # on a full grid: zeros where the pair's N > n_max, the exact rotation of
    # every sector below, so the kept norm holds and twice is the projection
    dim = n_max + 1
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=dim**3) + 1j * rng.normal(size=dim**3)
    s = renormalize(MultiModeState(3, FockCutoff(n_max), amps))
    occupations = np.indices((dim,) * 3).reshape(3, -1)
    outside = occupations[0] + occupations[1] > n_max
    projected = np.where(outside, 0.0, s.amplitudes)
    out = beam_splitter(s)
    assert not out.amplitudes[outside].any()
    assert abs(math.sqrt(out.norm_squared()) - np.linalg.norm(projected)) < 1e-14
    twice = beam_splitter(out)
    assert np.abs(twice.amplitudes - projected).max() < 1e-14


@pytest.mark.parametrize("n_max", [2, 3, 12, 13])
def test_folded_rows_hold_each_kept_sector_once_with_its_exact_block(n_max):
    # read flat, the first dim (dim + 1) / 2 slots are the pairs p + q <= n_max,
    # each once, and a block couples two slots only within one sector; the
    # sector views are those blocks, read where the fold put them
    dim = n_max + 1
    blocks, flat, sectors = _splitter_blocks(dim)
    p, q = np.divmod(flat, dim)  # flat pair index p dim + q
    assert blocks.shape == ((dim + 1) // 2, dim + 1, dim + 1)
    kept = dim * (dim + 1) // 2
    pairs = sorted(zip(p.reshape(-1)[:kept].tolist(), q.reshape(-1)[:kept].tolist()))
    assert pairs == [(a, b) for a in range(dim) for b in range(dim) if a + b <= n_max]
    for total, block in enumerate(_sector_blocks(n_max)):
        row, slots = np.nonzero((p + q == total) & (np.arange(p.size) < kept).reshape(p.shape))
        assert (row == row[0]).all()
        assert (p[row[0], slots] == np.arange(total + 1)).all()
        assert blocks[row[0]][np.ix_(slots, slots)].tobytes() == block.tobytes()
        assert sectors[total].tobytes() == block.tobytes()
        assert np.shares_memory(sectors[total], blocks)
        others = np.setdiff1d(np.arange(dim + 1), slots)
        assert not blocks[row[0]][np.ix_(slots, others)].any()
        assert not blocks[row[0]][np.ix_(others, slots)].any()


@pytest.mark.parametrize("n_max", [2, 3, 12, 13])
def test_pad_slots_sit_at_the_flat_tail_with_zero_rows_and_columns(n_max):
    # only an even n_max leaves pads: the lone middle sector n_max / 2 fills
    # the last row's head, and the rest of that row is padding
    dim = n_max + 1
    blocks, pairs, _ = _splitter_blocks(dim)
    pads = np.arange(dim * (dim + 1) // 2, pairs.size)
    assert pads.size == (0 if n_max % 2 else n_max // 2 + 1)
    assert not pairs.reshape(-1)[pads].any()  # each pad gathers |0, 0>
    rows, slots = np.divmod(pads, dim + 1)
    assert (rows == blocks.shape[0] - 1).all()
    assert not blocks[rows, slots, :].any()
    assert not blocks[rows, :, slots].any()


def test_sector_blocks_are_orthogonal_involutions():
    # every sector up to n_max 202, past the CLI's largest admitted n_max, 110
    for total, block in enumerate(_sector_blocks(202)):
        identity = np.eye(total + 1)
        assert np.abs(block.T @ block - identity).max() < 1e-12
        assert np.abs(block @ block - identity).max() < 1e-12


def test_beam_splitter_on_selected_modes_of_larger_register():
    # the splitter mixes the leading pair; the occupied trailing mode is a spectator
    s = number_state([1, 1, 2], 4)
    out = beam_splitter(s)
    assert np.isclose(out.amplitude([2, 0, 2]), 1 / math.sqrt(2), atol=1e-12)
    assert np.isclose(out.amplitude([0, 2, 2]), -1 / math.sqrt(2), atol=1e-12)


def test_splitter_cache_is_read_only():
    blocks, pairs, sectors = _splitter_blocks(7)
    for array in (blocks, pairs, *sectors):
        with pytest.raises(ValueError):
            array[0] = 1


def test_splitter_cache_holds_at_most_four_dimensions():
    # the blocks take about 4 dim^3 bytes; no caller uses more than three dimensions
    for dim in range(3, 8):
        _splitter_blocks(dim)
    assert _splitter_blocks.cache_info().currsize <= 4


def test_beam_splitter_refuses_a_one_mode_state():
    with pytest.raises(ValueError, match="mixes modes 0 and 1"):
        beam_splitter(number_state([1], 3))


# -- coherent splitting law ----------------------------------------------------------


def test_coherent_law_equal_inputs_empty_difference_arm():
    report = coherent_bs_law_check(0.5, 0.5)
    assert report.predicted_minus == 0
    assert report.deviation_norm < 1e-14
    assert report.outside_norm == 0.0


def test_coherent_law_half_and_vacuum():
    report = coherent_bs_law_check(0.5, 0.0)
    assert np.isclose(report.predicted_plus, 0.5 / math.sqrt(2))
    assert np.isclose(report.predicted_minus, 0.5 / math.sqrt(2))
    assert np.isclose(abs(report.predicted_plus), 0.3536, atol=5e-5)
    assert report.deviation_norm < 1e-14
    assert report.outside_norm == 0.0


def test_coherent_law_complex_pair():
    report = coherent_bs_law_check(0.5, 0.5j)
    assert np.isclose(report.predicted_plus, (0.5 + 0.5j) / math.sqrt(2))
    assert np.isclose(report.predicted_minus, (0.5 - 0.5j) / math.sqrt(2))
    assert report.deviation_norm < 1e-14
    assert report.outside_norm == 0.0


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


CSF_MODES = [("ideal", 3)] + [("jcm", m) for m in range(5)]


@pytest.mark.parametrize(
    "ns_mode, m, n_max",
    [(ns_mode, m, n_max) for ns_mode, m in CSF_MODES for n_max in (2, 3, 6, 12, 13, 20)]
    # the benchmark's largest cutoff, and the next one up for the other parity
    + [("ideal", 3, 30), ("jcm", 3, 30), ("ideal", 3, 31), ("jcm", 3, 31)],
)
def test_csf_matches_the_composed_reference(ns_mode, m, n_max):
    state = random_register(n_max, seed=100 * n_max + m)
    out, probability = csf_gate(state, ns_mode=ns_mode, m=m)
    expected, expected_probability = csf_composed_reference(state, ns_mode, m)
    assert np.abs(out.amplitudes - expected.amplitudes).max() < 1e-13
    assert abs(probability - expected_probability) < 1e-13


@pytest.mark.parametrize("n_max", [2, 3, 12, 13])
def test_sector_views_read_each_kept_pair_of_the_mixed_rails_once(n_max):
    # both parities, so an even n_max's lone middle sector is covered too
    dim = n_max + 1
    s = random_register(n_max, seed=n_max)
    views = [_sector_view(s.amplitudes, dim, total) for total in range(dim)]
    for total, view in enumerate(views):
        assert view.shape == (dim, total + 1, 2 * dim)
        for x2 in range(dim):
            for p in range(total + 1):
                for y2 in range(dim):
                    z = s.amplitude((p, x2, total - p, y2))
                    assert view[x2, p, 2 * y2] == z.real
                    assert view[x2, p, 2 * y2 + 1] == z.imag
    assert sum(view.size for view in views) == dim**3 * (dim + 1)


@pytest.mark.parametrize("ns_mode", ["ideal", "jcm"])
def test_csf_peak_memory_is_a_state_and_a_half(ns_mode):
    # the compact buffer of mixed sectors holds the kept half of the grid, and
    # the second splitter writes straight into the fresh output; the input is
    # read in place, and the sign shifts live in the (small) blocks
    state = random_register(20, seed=7)
    csf_gate(state, ns_mode=ns_mode)  # builds the cached blocks and diagonal
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        csf_gate(state, ns_mode=ns_mode)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * state.amplitudes.nbytes


def coherent_register(n_max, seed):
    """Seeded product of four coherent states, normalized after the cut.

    Mean photon numbers n_max/10..n_max/5 per mode put weight near and above
    the cutoff on the mixed rails; also returns the mass with n_x1 + n_y1 > n_max.
    """
    rng = np.random.default_rng(seed)
    means = rng.uniform(n_max / 10, n_max / 5, size=4)
    phases = rng.uniform(0, 2 * np.pi, size=4)
    alphas = np.sqrt(means) * np.exp(1j * phases)
    modes = [coherent_state(alpha, n_max) for alpha in alphas]
    state = modes[0]
    for mode in modes[1:]:
        state = tensor(state, mode)
    p_x1, p_y1 = (np.abs(modes[k].amplitudes) ** 2 / modes[k].norm_squared() for k in (0, 2))
    n = np.arange(n_max + 1)
    tail = float((np.outer(p_x1, p_y1) * (n[:, None] + n > n_max)).sum())
    return renormalize(state), tail


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n_max", [12, 20])
@pytest.mark.parametrize("ns_mode", ["ideal", "jcm"])
def test_csf_truncation_loses_at_most_the_mixed_rails_tail(ns_mode, n_max, seed):
    # the first splitter cuts the (x1, y1) sectors above n_max, the input mass
    # tail, and rotates the rest exactly; the sign shifts are a contraction
    # (the identity in the ideal gate), and the renormalized output lies
    # inside the model, where the second splitter keeps its norm
    state, tail = coherent_register(n_max, seed=10 * n_max + seed)
    assert tail > 0.0
    out, probability = csf_gate(state, ns_mode=ns_mode)
    if ns_mode == "ideal":
        assert abs(probability - (1.0 - tail)) < 1e-12
    else:
        assert 0.0 < probability <= 1.0 - tail + 1e-12
    assert abs(out.norm_squared() - 1.0) < 1e-12


#: Runs csf_gate on seeded random registers, normalized with np.sum (no
#: BLAS), and prints a hash of each output's bytes with the herald's bits.
CSF_THREADS_SCRIPT = """
import hashlib, math, sys
import numpy as np
from jcsim.fock import FockCutoff, MultiModeState
from jcsim.linear_optics import csf_gate
n_max = int(sys.argv[1])
for seed in (1, 2):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=(n_max + 1) ** 4) + 1j * rng.normal(size=(n_max + 1) ** 4)
    state = MultiModeState(4, FockCutoff(n_max), amps / math.sqrt(np.sum(np.abs(amps) ** 2)))
    for ns_mode in ("ideal", "jcm"):
        out, probability = csf_gate(state, ns_mode, 3)
        print(seed, ns_mode, hashlib.sha256(out.amplitudes.tobytes()).hexdigest(), probability.hex())
"""


@pytest.mark.parametrize("n_max", ["12", "20", "30", "39"])
def test_csf_results_do_not_depend_on_the_blas_thread_count(n_max):
    # the herald is a fixed-order sum, and OpenBLAS keeps a gemm on one
    # thread while m n k <= 4 * 65536: the largest per-sector product,
    # (dim x dim) @ (dim x 2 dim), stays there up to dim 50; n_max 39 is the
    # largest cutoff whose gate, about 24 dim^4 bytes, fits a 2**26-byte budget
    lines = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": threads}
        run = subprocess.run(
            [sys.executable, "-c", CSF_THREADS_SCRIPT, n_max],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        lines.append(run.stdout.splitlines())
    assert len(lines[0]) == 4
    assert lines[0] == lines[1]


@pytest.mark.parametrize("ns_mode", ["ideal", "jcm"])
def test_csf_with_nothing_inside_the_cutoff_raises(ns_mode):
    # |3, 3> on (x1, y1) at n_max 3 has N = 6 > n_max, outside the model: the
    # first splitter cuts all of it, so no state survives
    with pytest.raises(ValueError, match="nothing survives the cutoff"):
        csf_gate(number_state([3, 0, 3, 0], 3), ns_mode=ns_mode)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: logical_basis_state(2, 0, 2), "0 or 1"),
        (lambda: csf_gate(number_state([0, 1], 2)), "four modes"),
        (
            lambda: csf_gate(number_state([0, 1, 0, 1], 2).with_amplitudes(np.zeros(81))),
            "normalized",
        ),
    ],
    ids=["logical-label", "two-mode-input", "unnormalized-input"],
)
def test_csf_refuses_malformed_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_csf_rejects_unknown_mode():
    with pytest.raises(ValueError, match="ns_mode must be 'ideal' or 'jcm'"):
        csf_gate(logical_basis_state(0, 0, 6), ns_mode="magic")


@pytest.mark.parametrize("n_max", range(2, 21))
def test_sign_shift_diagonal_matches_the_closed_form(n_max):
    # the composed reference reads the resolver, so the diagonal is held to
    # cos(sqrt(n) (2m+1) pi / sqrt(2)) here, with the compensator when d(m) < 0
    ideal = np.ones(n_max + 1)
    ideal[2] = -1.0
    assert _sign_shift_diagonal("ideal", 3, FockCutoff(n_max)).tobytes() == ideal.tobytes()
    for m in range(5):
        expected = ns_diagonal_closed_form(m, n_max)
        if cm_dm_closed_form(m)[1] < 0:
            expected = expected * (-1.0) ** np.arange(n_max + 1)
        diag = _sign_shift_diagonal("jcm", m, FockCutoff(n_max))
        assert diag.dtype == np.float64
        assert np.abs(diag - expected).max() < 1e-12


def test_csf_refuses_a_complex_sign_shift_diagonal(monkeypatch):
    # the network folds a real diagonal into real blocks; an imaginary part
    # must stop the gate rather than be dropped
    heralded = jcm.ns_post_selected_diagonal

    def complex_diagonal(m, cutoff):
        diag = heralded(m, cutoff).copy()
        diag[3] += 1e-3j
        return diag

    monkeypatch.setattr(jcm, "ns_post_selected_diagonal", complex_diagonal)
    with pytest.raises(ValueError, match="complex"):
        csf_gate(logical_basis_state(1, 1, 4), ns_mode="jcm", m=3)


def test_csf_refuses_a_non_integral_m():
    # a fractional pulse index is not a sign-shift gate
    with pytest.raises(ValueError, match="m must be a non-negative integer"):
        csf_gate(logical_basis_state(1, 1, 4), ns_mode="jcm", m=2.5)


def test_truth_table_report():
    for ns_mode, m in CSF_MODES:
        rows = csf_truth_table(ns_mode, m)
        assert [row["input"] for row in rows] == ["00", "01", "10", "11"]
        for row in rows:
            amp = row["amplitudes"][row["input"]]
            sign = -1.0 if row["input"] == "11" else 1.0
            assert np.isclose(amp, sign, atol=1e-9)
            assert row["leakage"] < 1e-12


@pytest.mark.parametrize("n_max", [6, 12])
@pytest.mark.parametrize("ns_mode, m", CSF_MODES)
def test_truth_table_is_exact_at_its_fixed_cutoff(ns_mode, m, n_max):
    # two photons at most on (x1, y1), conserved by every stage: a larger
    # cutoff holds only zeros, so the records agree to the last byte
    rows = []
    for j, k in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        out, probability = csf_gate(logical_basis_state(j, k, n_max), ns_mode, m)
        amplitudes = {f"{a}{b}": logical_amplitude(out, a, b) for a in (0, 1) for b in (0, 1)}
        kept = sum(abs(z) ** 2 for z in amplitudes.values())
        rows.append(
            {
                "input": f"{j}{k}",
                "amplitudes": amplitudes,
                "success_probability": probability,
                "leakage": max(0.0, out.norm_squared() - kept),
            }
        )
    table = csf_truth_table(ns_mode, m)
    assert json.dumps(table, default=cli._json_default) == json.dumps(
        rows, default=cli._json_default
    )
