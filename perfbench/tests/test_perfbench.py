"""Tests of the benchmark itself: inputs, span arithmetic, and that every check bites.

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from jcsim import cli, interferometer, linear_optics
from jcsim.fock import FockCutoff, MultiModeState

BENCH = Path(__file__).resolve().parent.parent


def _equal(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    return bool(np.array_equal(a, b))


# -- inputs --------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_generates_identical_inputs(workload):
    assert _equal(workloads.generate_inputs(workload, 7), workloads.generate_inputs(workload, 7))
    assert not _equal(workloads.generate_inputs(workload, 7), workloads.generate_inputs(workload, 8))


def test_same_seed_builds_identical_states(tmp_path):
    first = workloads.setup("csf_cutoff_scan", 3, tmp_path)["scan"]
    second = workloads.setup("csf_cutoff_scan", 3, tmp_path)["scan"]
    for (n1, items1), (n2, items2) in zip(first, second):
        assert n1 == n2
        for a, b in zip(items1, items2):
            assert np.array_equal(a.state.amplitudes, b.state.amplitudes)
            assert a.state.is_normalized and a.tail == b.tail


def test_cli_state_file_is_seeded(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = Path(workloads.setup("cli_suite", 5, tmp_path / "a")["state"]).read_text()
    b = Path(workloads.setup("cli_suite", 5, tmp_path / "b")["state"]).read_text()
    assert a == b and MultiModeState.from_json(a).is_normalized


# -- spans ---------------------------------------------------------------------


def _span(span_id, name, start, end, parent, n_max=None):
    return [span_id, name, start, end, parent, n_max]


HAND_BUILT = [
    _span(0, "interferometer.mach_zehnder", 0.0, 10.0, -1),
    _span(1, "fock.tensor", 1.0, 4.0, 0),
    _span(2, "fock.coherent_state", 2.0, 3.0, 1),
    _span(3, "linear_optics.beam_splitter", 5.0, 9.0, 0, 12),
    _span(4, "linear_optics.beam_splitter", 11.0, 11.5, -1, 12),
]


def test_self_time_arithmetic_on_a_hand_built_tree():
    assert tracing.self_times(HAND_BUILT) == [3.0, 2.0, 1.0, 4.0, 0.5]
    figures = run.pass_figures([HAND_BUILT])
    assert figures["layer_s"] == {"interferometer": 3.0, "fock": 3.0, "linear_optics": 4.5}
    assert figures["self_s"]["fock.tensor"] == 2.0
    assert figures["inclusive"]["fock.tensor"] == 3.0


def test_pass_figures_split_cold_and_warm_per_process():
    figures = run.pass_figures([HAND_BUILT, HAND_BUILT[3:4]])
    assert figures["calls"]["linear_optics.beam_splitter"] == 3
    assert figures["cold"] == {12: 4.0}  # first call of the first process
    assert figures["warm"] == {12: 0.5}  # the second process's first call is cold again
    assert figures["layer_s"]["linear_optics"] == 8.5


def test_tracer_rebinds_every_name_and_nests_spans():
    original = linear_optics.beam_splitter
    state = interferometer.coherent_state(0.3, 4)
    tracer = tracing.Tracer()
    replaced = tracing.install(tracer.wrap)
    try:
        # the name imported into interferometer is rebound to the same wrapper
        assert interferometer.beam_splitter is linear_optics.beam_splitter
        assert interferometer.beam_splitter.__wrapped__ is original
        interferometer.mach_zehnder(state, 0.3, 1.0)
    finally:
        for module, attr, value in replaced:
            setattr(module, attr, value)
    assert interferometer.beam_splitter is original
    assert tracer.spans[0][tracing.NAME] == "interferometer.mach_zehnder"
    splitters = [s for s in tracer.spans if s[tracing.NAME] == "linear_optics.beam_splitter"]
    assert len(splitters) == 2 and all(s[tracing.PARENT] == 0 and s[tracing.N_MAX] == 4 for s in splitters)
    assert all(own >= 0 for own in tracing.self_times(tracer.spans))


# -- checks flag corrupted outputs -----------------------------------------------


def _logical_input(n_max, coeffs):
    expected = checks.csf_ideal_expected(n_max, coeffs)
    amps = np.zeros((n_max + 1) ** 4, dtype=np.complex128)
    amps[expected[0]] = coeffs
    return MultiModeState(4, FockCutoff(n_max), amps), expected


COEFFS = np.array([0.5, 0.5j, -0.5, 0.5])


def test_csf_ideal_check_flags_a_flipped_sign():
    state, expected = _logical_input(5, COEFFS)
    out, p = linear_optics.csf_gate(state, "ideal")
    assert checks.check_csf_ideal(expected, out.amplitudes, p) is None
    corrupted = out.amplitudes.copy()
    corrupted[expected[0][3]] *= -1
    assert checks.check_csf_ideal(expected, corrupted, p) is not None
    assert checks.check_csf_ideal(expected, out.amplitudes, 0.9) is not None


def test_csf_heralded_check_flags_norm_probability_and_fidelity():
    state, expected = _logical_input(5, COEFFS)
    out, p = linear_optics.csf_gate(state, "jcm", 3)
    assert checks.check_csf_heralded(expected, out.amplitudes, p) is None
    assert checks.check_csf_heralded(expected, 1.01 * out.amplitudes, p) is not None
    assert checks.check_csf_heralded(expected, out.amplitudes, 1.2) is not None
    # the unflipped input has fidelity |1 - 2 |c11|^2|^2 = 0.25 to the ideal output
    assert checks.check_csf_heralded(expected, state.amplitudes, p) is not None


def test_csf_truncated_check_flags_lost_norm(tmp_path):
    n_max, items = workloads.setup("csf_cutoff_scan", 1, tmp_path)["scan"][0]
    item = next(i for i in items if i.expected is None)
    assert item.tail > 0
    out, p = linear_optics.csf_gate(item.state, "jcm", 3)
    assert checks.check_csf_truncated(out.amplitudes, p, item.tail) is None
    assert checks.check_csf_truncated(0.5 * out.amplitudes, p, item.tail) is not None
    assert checks.check_csf_truncated(out.amplitudes, 1.5, item.tail) is not None


def test_chi2_pvalue_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    # tail bins expecting < 5 counts are pooled, and a pool still short of 5
    # joins the last full bin
    observed = np.array([480.0, 310.0, 150.0, 52.0, 6.0, 2.0, 0.0])
    expected = np.array([500.0, 300.0, 140.0, 50.0, 4.0, 3.0, 3.0])
    want = stats.chisquare([480.0, 310.0, 150.0, 52.0, 8.0], [500.0, 300.0, 140.0, 50.0, 10.0]).pvalue
    assert checks.chi2_pvalue(observed, expected) == pytest.approx(want, rel=1e-9)
    observed = np.array([1700334.0, 263722.0, 34459.0, 1357.0, 119.0, 6.0, 3.0, 0.0])
    expected = np.array([1.700e6, 2.638e5, 3.457e4, 1.371e3, 1.176e2, 6.853, 0.1869, 0.0026])
    pooled_obs = np.append(observed[:5], observed[5:].sum())
    pooled_exp = np.append(expected[:5], expected[5:].sum())
    want = stats.chi2.sf(((pooled_obs - pooled_exp) ** 2 / pooled_exp).sum(), 5)
    assert checks.chi2_pvalue(observed, expected) == pytest.approx(want, rel=1e-9)
    assert checks.chi2_pvalue([900.0, 100.0], [500.0, 500.0]) < 1e-12


def test_mz_shots_check_flags_biased_samples():
    alpha, theta, shots = 0.5, 1.0, 100_000
    cavity = interferometer.cavity_ns_output(alpha, 3, 12)
    joint = interferometer.detector_statistics(interferometer.mach_zehnder(cavity.state, alpha, theta)).joint
    report = interferometer.conditional_run(shots, 11, alpha, 3, theta, 12)
    args = (report.d2_counts, report.d2_one_frequency, report.d2_one_probability_exact)
    assert checks.check_mz_shots(joint, shots, *args) is None
    p = report.d2_one_probability_exact
    sigma = math.sqrt(p * (1 - p) / shots)
    assert checks.check_mz_shots(joint, shots, args[0], args[1] + 6 * sigma, args[2]) is not None
    skewed = report.d2_counts.copy()
    skewed[0] -= 2000
    skewed[1] += 2000
    assert checks.check_mz_shots(joint, shots, skewed, args[1], args[2]) is not None
    assert checks.check_mz_shots(joint, shots, args[0], args[1], args[2] + 1e-6) is not None


def test_sweep_checks_flag_bad_probabilities_and_model_mismatch():
    alpha, theta = 0.45, 2.2
    cavity = interferometer.cavity_ns_output(alpha, 3, 16)
    stats = interferometer.detector_statistics(interferometer.mach_zehnder(cavity.state, alpha, theta))
    norm2 = float(np.sum(np.abs(checks.coherent_amplitudes(alpha, 16)) ** 2))
    assert checks.check_joint(stats.joint, norm2) is None
    assert checks.check_joint(stats.joint, norm2 - 1e-6) is not None
    bad = stats.joint.copy()
    bad[0, 0] = np.nan
    assert checks.check_joint(bad, norm2) is not None
    bad = stats.joint.copy()
    bad[3, 3] = -1e-3
    bad[0, 0] += 1e-3
    assert checks.check_joint(bad, norm2) is not None

    assert checks.check_branch_model(stats.marginal_d1, stats.marginal_d2, alpha, theta, 3) is None
    # one extra photon on D1, as a sign error in the cavity would give
    shifted = np.roll(stats.marginal_d1, 1)
    assert checks.check_branch_model(shifted, stats.marginal_d2, alpha, theta, 3) is not None

    response = interferometer.f_functions(theta, alpha)
    assert checks.check_f_functions(response, theta, alpha) is None
    assert checks.check_f_functions(response, theta + 1e-6, alpha) is not None


def test_branch_model_matches_the_library_route():
    from jcsim.interferometer import cat_reference, detector_statistics, mach_zehnder

    alpha, theta = 0.5, math.pi / 2
    model = detector_statistics(mach_zehnder(cat_reference(-alpha, 16, exact_norm=True), alpha, theta))
    d1, d2 = checks.branch_model_marginals(alpha, theta, 3, 16)
    assert np.abs(d1 - model.marginal_d1).max() < 1e-9
    assert np.abs(d2 - model.marginal_d2).max() < 1e-9


def _cli_stdout(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


@pytest.mark.parametrize("name", ["table1", "fig4-pmf", "fig3-sweep", "loop-timing", "loop-protocol", "csf-verify", "mach-zehnder"])
def test_cli_check_accepts_the_readme_commands(name):
    argv = dict(workloads.CLI_COMMANDS)[name]
    code, stdout = _cli_stdout(argv)
    stats = {}
    reason, digest = checks.check_cli_output(name, code, stdout, stats)
    assert reason is None and len(digest) == 64


def test_cli_check_flags_nan_bad_csv_wrong_values_and_exit_codes():
    code, stdout = _cli_stdout(dict(workloads.CLI_COMMANDS)["loop-timing"])
    record = json.loads(stdout)
    record["results"]["gate_time_m1"] = float("nan")
    assert checks.check_cli_output("loop-timing", 0, json.dumps(record), {})[0] is not None
    record["results"]["gate_time_m1"] = 4.0e-4
    assert checks.check_cli_output("loop-timing", 0, json.dumps(record), {})[0] is not None
    assert checks.check_cli_output("loop-timing", 1, stdout, {})[0] is not None

    code, table = _cli_stdout(["table1"])
    assert checks.check_cli_output("table1", 0, table.replace("m,c2,d", "m,c,d"), {})[0] is not None
    lines = table.splitlines()
    lines[2] = lines[2].replace(lines[2].split(",")[2], "0.5")
    assert checks.check_cli_output("table1", 0, "\n".join(lines) + "\n", {})[0] is not None
    assert checks.check_cli_output("table1", 0, table.replace(lines[3].split(",")[1], "nan"), {})[0] is not None


def test_cross_pass_check_flags_a_changed_payload():
    same = [{"stats": {"digests": {"table1": "a", "fig4-pmf": "b"}}}] * 2
    assert run.cross_pass_failures(same) == []
    changed = same + [{"stats": {"digests": {"table1": "a", "fig4-pmf": "c"}}}]
    assert len(run.cross_pass_failures(changed)) == 1


# -- contract ------------------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mz_shots", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
