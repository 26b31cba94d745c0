"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and then asserts, so a red criterion is visible both ways.
"""

import math

import numpy as np
from scipy import stats as scipy_stats

from oracles import dense_propagator, multinomial_oracle

from jcsim.fock import coherent_state, number_state
from jcsim.interferometer import (
    cat_reference,
    cavity_ns_output,
    conditional_run,
    detector_statistics,
    f_functions,
    mach_zehnder,
    poisson_pmf,
)
from jcsim.jcm import (
    jcm_propagate,
    ns_gate_times,
    table1,
)
from jcsim.linear_optics import beam_splitter, csf_gate, logical_basis_state
from jcsim.loop_circuit import timing_report

CAVITY_KAPPA = (1 / 70) * 1e6
CAVITY_WAVELENGTH = 1.39724e-2


def report(number: int, description: str, passed: bool) -> bool:
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'}: {description}")
    return passed


def test_criterion_01_error_probability_table():
    reference = [
        (0.633, -0.606),
        (0.138, 0.928),
        (0.988, 0.111),
        (0.0247, -0.988),
        (0.828, 0.414),
    ]
    rows = table1()
    passed = all(
        abs(c2 - c2_ref) < 5e-4 and abs(d - d_ref) < 5e-4
        for (_, c2, d), (c2_ref, d_ref) in zip(rows, reference)
    )
    assert report(1, "all five (|c|^2, d) pairs within 5e-4", passed)


def test_criterion_02_two_photon_sign_flip():
    s = np.eye(18)[2]  # |g, 2> at n_max = 8: the ground block, then the excited block
    t = ns_gate_times(CAVITY_KAPPA, 1)  # 3 pi / (sqrt 2 |kappa|)
    out = np.concatenate(jcm_propagate(s[:9], s[9:], CAVITY_KAPPA * t))
    error = np.abs(out + s).max()
    assert report(2, f"|g,2> -> -|g,2> with amplitude error {error:.2e} < 1e-10", error < 1e-10)


def test_criterion_03_response_function_values_and_symmetry():
    r = f_functions(math.pi / 2)
    values_ok = abs(abs(r.f1) - 2.732) < 5e-4 and abs(abs(r.f2) - 0.7321) < 5e-4
    symmetry_ok = True
    for theta in np.linspace(0.0, 2 * math.pi, 1000):
        rt = f_functions(float(theta))
        if abs(abs(rt.f1) - abs(rt.f4)) > 1e-12 or abs(abs(rt.f2) - abs(rt.f3)) > 1e-12:
            symmetry_ok = False
            break
    assert report(
        3,
        "|F1(pi/2)|, |F2(pi/2)| within 5e-4 and magnitude pairing within 1e-12 over 1000 angles",
        values_ok and symmetry_ok,
    )


def test_criterion_04_poisson_counting_values():
    checks = [
        (1, 0.4665, 0.2926),
        (2, 0.4665, 0.06825),
        (1, 0.03349, 0.03239),
        (2, 0.03349, 0.0005424),
    ]
    passed = all(abs(poisson_pmf(n, mu) - ref) < 5e-5 for n, mu, ref in checks)
    assert report(4, "four counting probabilities within 5e-5", passed)


def test_criterion_05_branch_means_and_simulated_marginals():
    alpha, theta = 0.5, math.pi / 2
    r = f_functions(theta, alpha)
    means_ok = abs(r.mu1 - 0.4665) < 5e-5 and abs(r.mu2 - 0.03349) < 5e-5

    # simulated marginals against the two-coherent-branch model of the
    # cavity output (model alpha flips sign with d(m) for the m=3 route);
    # the discrepancy budget is the O(alpha^2) model error itself
    budget = alpha**2
    marginals_ok = True
    for m, model_alpha in [(1, alpha), (3, -alpha)]:
        sim = detector_statistics(mach_zehnder(cavity_ns_output(alpha, m).state, alpha, theta))
        model = detector_statistics(
            mach_zehnder(cat_reference(model_alpha, exact_norm=True), alpha, theta)
        )
        tv_d1 = 0.5 * np.abs(sim.marginal_d1 - model.marginal_d1).sum()
        tv_d2 = 0.5 * np.abs(sim.marginal_d2 - model.marginal_d2).sum()
        if tv_d1 >= budget or tv_d2 >= budget:
            marginals_ok = False
    assert report(
        5,
        "branch means within 5e-5; simulated marginals within the alpha^2 budget of the branch model",
        means_ok and marginals_ok,
    )


def test_criterion_06_conditional_sign_flip_truth_table():
    ideal_ok = True
    heralded_ok = True
    for j in (0, 1):
        for k in (0, 1):
            basis = logical_basis_state(j, k, 6)
            ideal, p_ideal = csf_gate(basis, ns_mode="ideal")
            expected = (-1.0) ** (j * k) * basis.amplitudes
            if np.abs(ideal.amplitudes - expected).max() > 1e-12 or abs(p_ideal - 1) > 1e-12:
                ideal_ok = False
            heralded, _ = csf_gate(basis, ns_mode="jcm", m=3)
            fidelity = abs(np.vdot(ideal.amplitudes, heralded.amplitudes)) ** 2
            if fidelity < 0.976:  # pinned from the oracle run (observed 1.0)
                heralded_ok = False
    assert report(
        6,
        "ideal gate is diag(1,1,1,-1) within 1e-12; heralded m=3 per-basis fidelity >= 0.976",
        ideal_ok and heralded_ok,
    )


def test_criterion_07_loop_timing_numbers():
    rep = timing_report(CAVITY_WAVELENGTH, CAVITY_KAPPA)
    checks = [
        (rep["pc_response_required"], 2.330e-11),
        (rep["gate_time_m1"], 4.67e-4),
        (rep["gate_time_m3"], 1.09e-3),
    ]
    passed = all(abs(got - ref) / ref < 5e-3 for got, ref in checks)
    assert report(7, "L/c and both gate times within 0.5% relative", passed)


def test_criterion_08_reference_state_error_scaling():
    alphas = np.array([0.4, 0.2, 0.1])
    slopes = []
    for m in (1, 3):
        deficits = []
        for alpha in alphas:
            out = cavity_ns_output(float(alpha), m).state
            plus = coherent_state(np.exp(1j * math.pi / 3) * alpha, 12)
            minus = coherent_state(np.exp(-1j * math.pi / 3) * alpha, 12)
            bracket = np.vdot(plus.amplitudes + minus.amplitudes, out.amplitudes)
            deficits.append(1 - 0.25 * abs(bracket) ** 2)
        slopes.append(np.polyfit(np.log(alphas), np.log(deficits), 1)[0])
    passed = all(abs(slope - 2.0) < 0.3 for slope in slopes)
    assert report(
        8,
        f"log-log slopes {slopes[0]:.3f} (m=1), {slopes[1]:.3f} (m=3) within 2 +/- 0.3",
        passed,
    )


def test_criterion_09_oracle_equivalence():
    # atom-field propagator vs dense matrix exponential
    propagator_ok = True
    kappa, t = 0.83, 1.9
    for n_max in (2, 4, 6):
        oracle = dense_propagator(n_max, kappa, 0.0, t)
        dim = 2 * (n_max + 1)
        for idx in range(dim):
            basis = np.zeros(dim, complex)
            basis[idx] = 1.0
            out = np.concatenate(
                jcm_propagate(basis[: n_max + 1], basis[n_max + 1 :], kappa * t)
            )
            if np.abs(out - oracle[:, idx]).max() > 1e-9:
                propagator_ok = False

    # splitter vs symbolic binomial expansion
    splitter_ok = True
    for n_max in (2, 4, 6):
        dim = n_max + 1
        for n in range(dim):
            for m in range(dim):
                out = beam_splitter(number_state([n, m], n_max))
                if np.abs(out.amplitudes - multinomial_oracle(n, m, dim)).max() > 1e-9:
                    splitter_ok = False
    assert report(
        9,
        "propagator matches expm and splitter matches the symbolic expansion within 1e-9",
        propagator_ok and splitter_ok,
    )


def test_criterion_10_monte_carlo_soundness():
    shots, seed = 100_000, 20240101
    alpha, m, theta = 0.5, 3, math.pi / 2
    run = conditional_run(shots, seed, alpha, m, theta)

    exact = detector_statistics(mach_zehnder(cavity_ns_output(alpha, m).state, alpha, theta))
    expected = exact.marginal_d2 / exact.marginal_d2.sum() * shots
    observed = run.d2_counts.astype(float)
    keep = int(np.sum(expected >= 5))
    observed = np.concatenate([observed[:keep], [observed[keep:].sum()]])
    expected = np.concatenate([expected[:keep], [expected[keep:].sum()]])
    pvalue = scipy_stats.chisquare(observed, expected).pvalue

    p = run.d2_one_probability_exact
    sigma = math.sqrt(p * (1 - p) / shots)
    freq_ok = abs(run.d2_one_frequency - p) < 3 * sigma
    passed = pvalue > 0.01 and freq_ok
    assert report(
        10,
        f"chi-square p={pvalue:.3f} > 0.01; D2=1 frequency {run.d2_one_frequency:.5f} "
        f"within 3 sigma of exact {p:.5f} (leading-order estimate "
        f"{run.leading_order_estimate:.5f})",
        passed,
    )
