import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import renormalize

from jcsim import cli
from jcsim.cli import _emit, _json_default, build_parser, main
from jcsim.fock import coherent_state
from jcsim.interferometer import (
    _heralded_cavity,
    _theta_coefficients,
    cavity_ns_output,
    conditional_run,
    mach_zehnder,
)
from jcsim.linear_optics import _splitter_blocks

ROOT = Path(__file__).resolve().parents[1]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_record(path):
    return json.loads(path.read_text())


def state_file(tmp_path, alpha=0.5):
    path = tmp_path / "state.json"
    path.write_text(renormalize(coherent_state(alpha, 12)).to_json())
    return path


# -- table1 ------------------------------------------------------------------


def test_table1_csv(capsys):
    code, out, _ = run_cli(["table1"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,c2,d"
    assert len(lines) == 6
    rows = [line.split(",") for line in lines[1:]]
    reference = [(0.633, -0.606), (0.138, 0.928), (0.988, 0.111), (0.0247, -0.988), (0.828, 0.414)]
    for row, (c2, d) in zip(rows, reference):
        assert abs(float(row[1]) - c2) < 5e-4
        assert abs(float(row[2]) - d) < 5e-4


def test_table1_json_record(tmp_path, capsys):
    out_path = tmp_path / "t.json"
    code, _, _ = run_cli(["table1", "--format", "json", "--out", str(out_path)], capsys)
    assert code == 0
    record = read_record(out_path)
    assert record["schema"] == 1
    assert record["command"] == "table1"
    assert len(record["results"]["rows"]) == 5
    assert "timestamp" in record and "version" in record


@pytest.mark.parametrize(
    "argv",
    [["table1"], ["fig3-sweep", "--steps", "16"], ["fig4-pmf", "--max-n", "4"]],
    ids=["table1", "fig3-sweep", "fig4-pmf"],
)
def test_csv_renders_the_json_rows(argv, capsys):
    code, csv_out, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert code == 0
    code, json_out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    rows = json.loads(json_out)["results"]["rows"]
    header, *lines = csv_out.splitlines()
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        cells = dict(zip(header.split(","), line.split(",")))
        assert cells.keys() == row.keys()
        for key, value in row.items():
            # 6 significant digits
            assert float(cells[key]) == pytest.approx(value, rel=5e-6, abs=0)


README_COMMANDS = {
    "table1": ["table1"],
    "ns-gate": ["ns-gate", "--m", "3", "--input", "{state}", "--phase"],
    "csf-verify": ["csf-verify"],
    "csf-verify-jcm": ["csf-verify", "--jcm-m", "3"],
    "mach-zehnder": [
        "mach-zehnder", "--alpha", "0.5", "--theta", "1.5708", "--m", "3",
        "--shots", "100000", "--seed", "7",
    ],
    "fig3-sweep": ["fig3-sweep", "--steps", "256"],
    "fig4-pmf": ["fig4-pmf"],
    "loop-timing": ["loop-timing", "--wavelength", "1.39724e-2", "--kappa", "14285.714"],
    "loop-protocol": ["loop-protocol", "--kappa", "14285.714", "--m", "1"],
}


@pytest.mark.parametrize("argv", README_COMMANDS.values(), ids=README_COMMANDS.keys())
def test_config_echoes_every_parsed_flag(argv, tmp_path, capsys):
    argv = [str(state_file(tmp_path)) if a == "{state}" else a for a in argv]
    parsed = vars(build_parser().parse_args(argv))
    if "format" in parsed:
        argv = argv + ["--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    config = json.loads(out)["config"]
    flags = {k: v for k, v in parsed.items() if k not in ("command", "format", "out")}
    assert config == json.loads(json.dumps(flags, default=_json_default))
    given = {a[2:].replace("-", "_") for a in argv if a.startswith("--")}
    assert given - {"format"} <= config.keys()


def test_json_default_refuses_a_type_it_does_not_know():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        json.dumps({"rows": {1, 2}}, default=_json_default)


def test_out_to_directory_is_runtime_error(tmp_path, capsys):
    code, out, err = run_cli(["table1", "--out", str(tmp_path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# -- ns-gate -----------------------------------------------------------------


def test_ns_gate_missing_input_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ns-gate", "--m", "1"])
    assert exc.value.code == 2


def test_ns_gate_run(tmp_path, capsys):
    out_path = tmp_path / "ns.json"
    code, _, _ = run_cli(
        ["ns-gate", "--m", "3", "--input", str(state_file(tmp_path)), "--phase", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    record = read_record(out_path)
    results = record["results"]
    assert results["m"] == 3
    assert abs(results["c_m_squared"] - 0.0247) < 5e-4
    assert 0.99 < results["success_probability"] <= 1.0
    assert results["output"]["mode_count"] == 1


def test_ns_gate_bad_input_file_is_runtime_error(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(["ns-gate", "--m", "1", "--input", str(missing)], capsys)
    assert code == 1
    assert "error" in err


def test_ns_gate_non_finite_amplitude_is_runtime_error(tmp_path, capsys):
    payload = json.loads(state_file(tmp_path).read_text())
    payload["amplitudes"][1][0] = math.nan  # json writes and reads a NaN token
    path = tmp_path / "nan_state.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["ns-gate", "--m", "1", "--input", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert_one_error_line(err)
    assert "finite" in err


LAYOUT = '"amplitudes": [[re, im], ...]'


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"mode_count": 1, "n_max": 2, "amplitudes": [["1", 0], [0, 0], [0, 0]]}, LAYOUT),
        ([[1, 0], [0, 0], [0, 0]], LAYOUT),
        ({"mode_count": 1, "amplitudes": [[1, 0], [0, 0], [0, 0]]}, LAYOUT),
        ({"mode_count": 1, "n_max": 2, "amplitudes": [[1, 0, 0], [0, 0], [0, 0]]}, LAYOUT),
        ({"mode_count": 1, "n_max": 2, "amplitudes": [[10**400, 0], [0, 0], [0, 0]]}, "finite"),
        ({"mode_count": 10**7, "n_max": 2, "amplitudes": [[1, 0]]}, "mode_count 10000000"),
    ],
    ids=[
        "string-amplitude",
        "top-level-list",
        "missing-n-max",
        "three-element-pair",
        "integer-beyond-float-range",
        "mode-count-beyond-amplitudes",
    ],
)
def test_ns_gate_malformed_state_file_is_runtime_error(payload, message, tmp_path, capsys):
    path = tmp_path / "bad_state.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["ns-gate", "--m", "1", "--input", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert_one_error_line(err)
    assert message in err


# -- csf-verify ---------------------------------------------------------------


def test_csf_verify_ideal(capsys):
    code, out, _ = run_cli(["csf-verify"], capsys)
    assert code == 0
    record = json.loads(out)
    table = record["results"]["truth_table"]
    assert [row["input"] for row in table] == ["00", "01", "10", "11"]
    signs = {row["input"]: row["amplitudes"][row["input"]][0] for row in table}
    assert signs["00"] == pytest.approx(1.0, abs=1e-9)
    assert signs["11"] == pytest.approx(-1.0, abs=1e-9)
    assert all(row["success_probability"] == pytest.approx(1.0) for row in table)


def test_csf_verify_heralded(capsys):
    code, out, _ = run_cli(["csf-verify", "--jcm-m", "3"], capsys)
    assert code == 0
    table = json.loads(out)["results"]["truth_table"]
    probs = {row["input"]: row["success_probability"] for row in table}
    assert probs["01"] == pytest.approx(0.97528, abs=1e-4)
    assert probs["11"] == pytest.approx(1.0, abs=1e-9)


# -- mach-zehnder ---------------------------------------------------------------


def test_mach_zehnder_requires_seed_for_sampling(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mach-zehnder", "--alpha", "0.5", "--theta", "1.5707963", "--shots", "10"])
    assert exc.value.code == 2


def test_mach_zehnder_negative_seed_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mach-zehnder", "--alpha", "0.5", "--theta", "1", "--shots", "10", "--seed", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "--seed must be >= 0" in captured.err


def test_mach_zehnder_deterministic_results(tmp_path, capsys):
    argv = [
        "mach-zehnder",
        "--alpha", "0.5",
        "--theta", str(math.pi / 2),
        "--m", "3",
        "--shots", "5000",
        "--seed", "42",
    ]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(argv + ["--out", str(path)], capsys)
        assert code == 0
    records = [read_record(p) for p in paths]
    payloads = [json.dumps(r["results"], sort_keys=True) for r in records]
    assert payloads[0] == payloads[1]
    results = records[0]["results"]
    assert abs(results["response"]["mu1"] - 0.4665) < 5e-5
    assert abs(results["response"]["mu2"] - 0.03349) < 5e-5
    assert results["monte_carlo"]["seed"] == 42
    assert sum(results["monte_carlo"]["d1_counts"]) == 5000
    assert abs(results["monte_carlo"]["leading_order_estimate"] - 0.07315) < 5e-5


def test_mach_zehnder_warm_cavity_gives_the_cold_results(capsys):
    argv = ["mach-zehnder", "--alpha", "0.5", "--theta", "1.5708", "--m", "3",
            "--shots", "100000", "--seed", "7"]
    _heralded_cavity.cache_clear()
    payloads = []
    for _ in range(2):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        payloads.append(json.dumps(json.loads(out)["results"], sort_keys=True))
    info = _heralded_cavity.cache_info()
    assert (info.misses, info.hits) == (1, 1)  # the first run fills, the second reuses
    info = _theta_coefficients.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert payloads[0] == payloads[1]


def test_mach_zehnder_monte_carlo_matches_conditional_run(capsys):
    code, out, _ = run_cli(
        ["mach-zehnder", "--alpha", "0.5", "--theta", "1.5708", "--m", "3",
         "--shots", "5000", "--seed", "42"],
        capsys,
    )
    assert code == 0
    mc = json.loads(out)["results"]["monte_carlo"]
    report = conditional_run(5000, 42, 0.5, 3, 1.5708)
    expected = {key: getattr(report, key) for key in mc}
    assert mc == json.loads(json.dumps(expected, default=_json_default))


def assert_one_error_line(err):
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1


@pytest.mark.parametrize(
    "extra",
    [
        ["--alpha", "0", "--theta", "1", "--shots", "10", "--seed", "1"],
        ["--alpha", "0.5", "--theta", "1", "--shots", "100000000000000000000", "--seed", "1"],
    ],
    ids=["unreachable-condition", "shots-beyond-int64"],
)
def test_mach_zehnder_sampler_domain_is_runtime_error(extra, capsys):
    code, out, err = run_cli(["mach-zehnder", *extra], capsys)
    assert code == 1
    assert out == ""
    assert_one_error_line(err)


def test_mach_zehnder_negative_shots_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mach-zehnder", "--alpha", "0.5", "--theta", "1", "--shots", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "--shots must be >= 0" in captured.err


@pytest.mark.parametrize(
    "extra",
    [
        ["--alpha", "0.5", "--theta", "inf"],
        ["--alpha", "nan", "--theta", "1"],
        ["--alpha", "0.5+infj", "--theta", "1", "--shots", "10", "--seed", "1"],
    ],
    ids=["theta-inf", "alpha-nan", "alpha-imag-inf"],
)
def test_mach_zehnder_non_finite_input_is_usage_error(extra, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mach-zehnder", *extra])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)


def test_mach_zehnder_overflowing_theta_is_runtime_error(capsys):
    # theta is finite, but its phase on |n_max> is not
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            ["mach-zehnder", "--alpha", "0.5", "--theta", "1e308", "--m", "3"], capsys
        )
    assert code == 1
    assert out == ""
    assert caught == []
    assert len(err.splitlines()) == 1
    assert_one_error_line(err)
    assert "theta * n_max must be finite" in err


def test_emit_refuses_nan_tokens(capsys):
    with pytest.raises(ValueError):
        _emit(argparse.Namespace(command="mach-zehnder", out=None), {"x": math.nan})
    assert capsys.readouterr().out == ""


def test_mach_zehnder_exact_only_run(capsys):
    code, out, _ = run_cli(
        ["mach-zehnder", "--alpha", "0.5", "--theta", "0.0", "--m", "1"], capsys
    )
    assert code == 0
    record = json.loads(out)
    assert "monte_carlo" not in record["results"]
    assert np.isclose(sum(record["results"]["exact"]["marginal_d1"]), 1.0, atol=1e-9)


@pytest.mark.parametrize(
    "alpha, n_max, lost",
    [
        ("0.5", "6", "9.73e-09"),
        ("0.99", "6", "7.36e-05"),
        ("0.99", "8", "9.56e-07"),
        ("0.99", "10", "8.2e-09"),
    ],
)
def test_mach_zehnder_input_cut_by_the_cutoff_is_runtime_error(alpha, n_max, lost, capsys):
    code, out, err = run_cli(
        ["mach-zehnder", "--alpha", alpha, "--theta", "1", "--n-max", n_max], capsys
    )
    assert code == 1
    assert out == ""
    assert_one_error_line(err)
    assert f"|alpha| = {alpha} loses {lost} of its mass above n_max = {n_max}" in err
    assert "raise --n-max" in err


# -- sweeps and tables -------------------------------------------------------------


def test_fig3_sweep_peak(capsys):
    code, out, _ = run_cli(["fig3-sweep", "--steps", "256"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta,abs_f1,abs_f2"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert len(rows) == 256
    best = max(rows, key=lambda row: row[1])
    # CSV carries 6 significant digits
    assert best[0] == pytest.approx(math.pi / 2, abs=1e-4)
    assert best[1] == pytest.approx(2.732, abs=5e-4)


@pytest.mark.parametrize(
    "argv",
    [["fig3-sweep", "--steps", "0"], ["fig3-sweep", "--steps", "-1"], ["fig4-pmf", "--max-n", "-1"]],
    ids=["steps-zero", "steps-negative", "max-n-negative"],
)
def test_empty_table_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)


@pytest.mark.parametrize(
    "command, flag, largest",
    [("fig3-sweep", "--steps", cli.MAX_ROWS), ("fig4-pmf", "--max-n", cli.MAX_ROWS - 1)],
)
def test_row_count_is_bounded_at_parse_time(command, flag, largest, monkeypatch, capsys):
    # the largest admitted value gives MAX_ROWS rows; one more row exits 2
    emitted = []
    monkeypatch.setattr(cli, "_emit", lambda args, results: emitted.append(results["rows"]))
    assert main([command, flag, str(largest)]) == 0
    assert len(emitted[0]) == cli.MAX_ROWS
    with pytest.raises(SystemExit) as exc:
        main([command, flag, str(largest + 1)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert flag in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["fig4-pmf", "--mu1", "nan"],
        ["fig4-pmf", "--mu2", "inf"],
        ["loop-timing", "--wavelength", "nan", "--kappa", "1e4"],
        ["loop-timing", "--wavelength", "inf", "--kappa", "1e4"],
        ["loop-timing", "--wavelength", "1.39724e-2", "--kappa", "1e4", "--pc-response", "nan"],
        ["loop-timing", "--wavelength", "1e-300", "--kappa", "1e-300"],
        ["loop-protocol", "--kappa", "0", "--m", "1"],
        ["loop-protocol", "--kappa", "-1", "--m", "1"],
    ],
    ids=[
        "fig4-pmf-mu-nan",
        "fig4-pmf-mu-inf",
        "loop-timing-wavelength-nan",
        "loop-timing-wavelength-inf",
        "loop-timing-pc-response-nan",
        "loop-timing-survival-overflow",
        "loop-protocol-kappa-zero",
        "loop-protocol-kappa-negative",
    ],
)
def test_nan_domain_is_runtime_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert_one_error_line(err)
    assert "must be" in err


def test_fig4_pmf_values(capsys):
    code, out, _ = run_cli(["fig4-pmf"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,p_mu1,p_mu2"
    rows = {int(float(line.split(",")[0])): line.split(",") for line in lines[1:]}
    assert abs(float(rows[1][1]) - 0.2926) < 5e-5
    assert abs(float(rows[2][1]) - 0.06825) < 5e-5
    assert abs(float(rows[1][2]) - 0.03239) < 5e-5
    assert abs(float(rows[2][2]) - 0.0005424) < 5e-6


# -- loop subcommands ----------------------------------------------------------------


def test_loop_timing_record(capsys):
    code, out, _ = run_cli(
        ["loop-timing", "--wavelength", "1.39724e-2", "--kappa", "14285.714285714286"],
        capsys,
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["pc_response_required"] == pytest.approx(2.330e-11, rel=5e-3)
    assert results["gate_time_m1"] == pytest.approx(4.67e-4, rel=5e-3)
    assert results["gate_time_m3"] == pytest.approx(1.09e-3, rel=5e-3)
    assert results["survival_m1_scientific"].endswith("e-221147")


def test_loop_timing_round_trip_underflow_is_runtime_error(capsys):
    code, out, err = run_cli(["loop-timing", "--wavelength", "1e-320", "--kappa", "1"], capsys)
    assert code == 1
    assert out == ""
    assert_one_error_line(err)
    assert "round-trip time" in err


def test_loop_protocol_canonical(capsys):
    code, out, _ = run_cli(
        ["loop-protocol", "--kappa", "14285.714285714286", "--m", "1"], capsys
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["exit_phase"] == 3
    assert results["steps"][-1]["path"] == "a"
    assert results["steps"][-1]["polarization"] == "H"


def test_loop_protocol_from_schedule_file(tmp_path, capsys):
    schedule = [
        {"pc_on": True, "duration": 1e-9},
        {"pc_on": False, "duration": 4.665e-4},
        {"pc_on": True, "duration": 1e-9},
    ]
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(schedule))
    code, out, _ = run_cli(["loop-protocol", "--schedule", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["results"]["interaction_window"] == pytest.approx(4.665e-4)


def test_loop_protocol_violation_is_runtime_error(capsys):
    schedule = json.dumps(
        [
            {"pc_on": False, "duration": 1e-9},
            {"pc_on": False, "duration": 1e-4},
            {"pc_on": True, "duration": 1e-9},
        ]
    )
    code, _, err = run_cli(["loop-protocol", "--schedule", schedule], capsys)
    assert code == 1
    assert "injection" in err


@pytest.mark.parametrize(
    "schedule",
    [
        '[1,2,3]',
        '{"a": 1}',
        '[{"pc_on": true}]',
        '[{"pc_on": true, "duration": [1]}]',
        '[{"pc_on": "false", "duration": 1e-9}]',
        '[{"pc_on": true, "duration": 1e-9}, {"pc_on": false, "duration": %s}, '
        '{"pc_on": true, "duration": 1e-9}]' % ("1" * 401),
        '[{"pc_on": true, "duration": 1e-9}, {"pc_on": false, "duration": 1e999}, '
        '{"pc_on": true, "duration": 1e-9}]',
        '[{"pc_on": true, "duration": true}, {"pc_on": false, "duration": 1e-6}, '
        '{"pc_on": true, "duration": true}]',
        '[{"pc_on": true, "duration": 1e-9}, {"pc_on": false, "duration": 1e-6}]',
        '[{"pc_on": true, "duration": 1e-9}, {"pc_on": false, "duration": 1e-6}, '
        '{"pc_on": true, "duration": 1e-9}, {"pc_on": false, "duration": 1e-6}]',
    ],
    ids=[
        "list-of-ints",
        "object",
        "missing-duration",
        "non-numeric-duration",
        "string-pc-on",
        "integer-beyond-float-range",
        "infinite-duration",
        "boolean-duration",
        "two-phases",
        "four-phases",
    ],
)
def test_loop_protocol_malformed_schedule_is_runtime_error(schedule, capsys):
    code, out, err = run_cli(["loop-protocol", "--schedule", schedule], capsys)
    assert code == 1
    assert out == ""
    assert_one_error_line(err)
    assert "schedule" in err


def test_loop_protocol_needs_schedule_or_canonical_args(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["loop-protocol"])
    assert exc.value.code == 2


WINDOW_SCHEDULE = json.dumps(
    [
        {"pc_on": True, "duration": 1e-9},
        {"pc_on": False, "duration": 1e-4},
        {"pc_on": True, "duration": 1e-9},
    ]
)


@pytest.mark.parametrize(
    "argv",
    [
        ["mach-zehnder", "--alpha", "0.5", "--theta", "1", "--seed", "7"],
        ["loop-protocol", "--schedule", WINDOW_SCHEDULE, "--kappa", "14285.714", "--m", "3"],
        ["loop-protocol", "--schedule", WINDOW_SCHEDULE, "--m", "3"],
    ],
    ids=[
        "mach-zehnder-seed-without-shots",
        "loop-protocol-schedule-and-canonical",
        "loop-protocol-schedule-and-m",
    ],
)
def test_flag_that_would_not_run_is_usage_error(argv, capsys):
    # echoed in ``config`` it would read as if it had shaped the results
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)


HUGE_M = str(10**400)


@pytest.mark.parametrize(
    "argv",
    [
        ["ns-gate", "--m", HUGE_M, "--input"],
        ["csf-verify", "--jcm-m", HUGE_M],
        ["mach-zehnder", "--alpha", "0.5", "--theta", "1", "--m", HUGE_M],
        ["loop-protocol", "--kappa", "1", "--m", HUGE_M],
    ],
    ids=["ns-gate", "csf-verify", "mach-zehnder", "loop-protocol"],
)
def test_m_beyond_float_range_is_runtime_error(argv, tmp_path, capsys):
    if argv[-1] == "--input":
        argv = [*argv, str(state_file(tmp_path))]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert_one_error_line(err)
    assert "m must be an integer in [0, 4194304]" in err


def test_m_whose_pulse_area_rounds_away_is_runtime_error(capsys):
    # at m = 1e20 the heralded gate would show no sign flip at all
    code, out, err = run_cli(["csf-verify", "--jcm-m", str(10**20)], capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert_one_error_line(err)


def test_truncated_coherent_input_prints_one_error_line():
    # a fresh process, so stderr holds everything the run prints
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["mach-zehnder", "--alpha", "0.9", "--theta", "1", "--n-max", "3"]
    run = subprocess.run(
        [sys.executable, "-m", "jcsim.cli", *argv], env=env, capture_output=True, text=True
    )
    assert run.returncode == 1
    assert run.stdout == ""
    assert len(run.stderr.splitlines()) == 1
    assert run.stderr.startswith("error: a coherent input of |alpha| = 0.9 loses")


@pytest.mark.parametrize("n_max", ["12", "19", "40", "110"])
def test_mach_zehnder_results_do_not_depend_on_the_blas_thread_count(n_max):
    # from the default cutoff to the largest admitted one: the theta table
    # grows from about 1,200 entries to about 690,000, far past the 4096 at
    # which OpenBLAS threads a complex matrix-vector product
    argv = ["mach-zehnder", "--alpha", "0.5", "--theta", "1", "--n-max", n_max]
    results = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": threads}
        run = subprocess.run(
            [sys.executable, "-m", "jcsim.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        results.append(json.dumps(json.loads(run.stdout)["results"]))
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["csf-verify", "--n-max", "1"],
        ["csf-verify", "--n-max", "six"],
        ["csf-verify", "--n-max", "6"],
        ["mach-zehnder", "--alpha", "0.5", "--theta", "1", "--n-max", "1"],
        ["mach-zehnder", "--alpha", "0.5", "--theta", "1", "--n-max", "-3"],
    ],
    ids=[
        "csf-verify-one",
        "csf-verify-not-int",
        "csf-verify-has-no-cutoff",
        "mach-zehnder-one",
        "mach-zehnder-negative",
    ],
)
def test_n_max_below_two_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "--n-max" in captured.err


@pytest.mark.parametrize(
    "n_max",
    ["111", "161", "203", "2048"],
    ids=["mach-zehnder-111", "mach-zehnder-161", "mach-zehnder-203", "mach-zehnder-2048"],
)
def test_n_max_beyond_amplitude_budget_is_usage_error(n_max, monkeypatch, capsys):
    # the cold theta-polynomial build's bytes, computed, never allocated
    assert 48 * (int(n_max) + 1) ** 3 > cli.MAX_ARRAY_BYTES
    for handler in ("cavity_ns_output", "mach_zehnder"):
        monkeypatch.setattr(cli, handler, lambda *a, **k: pytest.fail("state was built"))
    argv = ["mach-zehnder", "--alpha", "0.5", "--theta", "1", "--n-max", n_max]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "budget" in captured.err


def test_amplitude_budget_admits_the_benchmark_cutoffs():
    parser = build_parser()
    mz = ["mach-zehnder", "--alpha", "0.5", "--theta", "1", "--n-max"]
    for n_max in (12, 16, 110):
        assert parser.parse_args([*mz, str(n_max)]).n_max == n_max


def test_cold_mach_zehnder_at_the_largest_admitted_n_max_fits_the_budget():
    # the budget counts everything alive at once in a cold build, not only
    # its largest array: the splitter blocks, the theta polynomial and the
    # second splitter's labelled input, stacks and output
    n_max = 12
    while True:
        try:
            cli._n_max(str(n_max + 1))
        except argparse.ArgumentTypeError:
            break
        n_max += 1
    mz = ["mach-zehnder", "--alpha", "0.5", "--theta", "1.5708", "--n-max", str(n_max)]
    assert build_parser().parse_args(mz).n_max == n_max
    state = cavity_ns_output(0.5, 3, n_max).state
    _splitter_blocks.cache_clear()
    tracemalloc.start()
    try:
        mach_zehnder(state, 0.5, 1.5708)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= cli.MAX_ARRAY_BYTES


def test_handler_bug_is_not_reported_as_user_error(monkeypatch):
    def broken():
        return {}["mistyped key"]

    monkeypatch.setattr(cli, "table1", broken)
    with pytest.raises(KeyError):
        main(["table1"])


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


# -- numeric flags at the edges of the float range --------------------------------------

EDGES = st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-320, 2.2e-308, 1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan]
)
NUMBERS = EDGES | st.floats()
COUNTS = st.integers(-3, 200)


def _command(name, **flags):
    # "--flag=value", so a value such as "-inf" is not read as an option
    return [name, *(f"--{flag.replace('_', '-')}={value}" for flag, value in flags.items())]


NUMERIC_COMMANDS = st.one_of(
    st.builds(
        _command,
        st.just("fig4-pmf"),
        mu1=NUMBERS,
        mu2=NUMBERS,
        max_n=COUNTS,
        format=st.just("json"),
    ),
    st.builds(
        _command,
        st.just("loop-timing"),
        wavelength=NUMBERS,
        kappa=NUMBERS,
        loss_pc=NUMBERS,
        loss_pbs=NUMBERS,
        pc_response=NUMBERS,
    ),
    st.builds(_command, st.just("loop-protocol"), kappa=NUMBERS, m=COUNTS),
    st.builds(
        _command,
        st.just("mach-zehnder"),
        alpha=st.builds(complex, NUMBERS, NUMBERS),
        theta=NUMBERS,
        m=COUNTS,
        n_max=st.integers(0, 12),
    ),
)


def _no_constants(token):
    raise AssertionError(f"non-standard JSON constant {token}")


@given(NUMERIC_COMMANDS)
@example(["fig4-pmf", "--format=json", "--max-n=200"])
@example(["fig4-pmf", "--format=json", "--mu1=1e300", "--max-n=3"])
@example(["loop-timing", "--wavelength=1e-320", "--kappa=1"])
@example(["mach-zehnder", "--alpha=1.7e308+1.7e308j", "--theta=0"])
@example(["mach-zehnder", "--alpha=0.9", "--theta=0", "--n-max=2"])
@settings(derandomize=True, deadline=None, max_examples=300)
def test_numeric_flags_exit_cleanly_with_strict_json(argv):
    assert_exits_cleanly_with_strict_json(argv)


def assert_exits_cleanly_with_strict_json(argv):
    """``main(argv)`` exits 0, 1 or 2 without a traceback; any stdout is strict JSON.

    A runtime error (exit 1) prints exactly one stderr line, its ``error: `` message.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_no_constants)


# -- state and schedule files -----------------------------------------------------------

JSON_NUMBERS = NUMBERS | st.integers() | st.sampled_from([2**63, 10**400, -(10**400)])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | JSON_NUMBERS | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=12,
)


def _one_mode_state(n_max, n, value):
    amplitudes = [[0.0, 0.0]] * (n_max + 1)
    amplitudes[min(n, n_max)] = value
    return {"mode_count": 1, "n_max": n_max, "amplitudes": amplitudes}


STATE_PAYLOADS = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries(
        {
            "mode_count": st.integers(-1, 3) | JSON_VALUES,
            "n_max": st.integers(-1, 4) | JSON_VALUES,
            "amplitudes": st.lists(
                st.lists(JSON_NUMBERS, min_size=2, max_size=2) | JSON_VALUES, max_size=30
            ),
        }
    ),
    st.builds(
        _one_mode_state,
        st.integers(2, 8),
        st.integers(0, 8),
        st.sampled_from([[1, 0], [0.0, -1.0], [0.6, 0.8]])
        | st.lists(NUMBERS, min_size=2, max_size=2),
    ),
)


def _three_phases(durations):
    return [{"pc_on": on, "duration": d} for on, d in zip((True, False, True), durations)]


CANONICAL_SHAPE = _three_phases([1e-9, 1e-7, 1e-9])
SCHEDULE_PAYLOADS = st.one_of(
    JSON_VALUES,
    st.lists(
        st.fixed_dictionaries(
            {"pc_on": st.booleans() | JSON_VALUES, "duration": JSON_NUMBERS | JSON_VALUES}
        ),
        max_size=4,
    ),
    st.builds(_three_phases, st.lists(JSON_NUMBERS, min_size=3, max_size=3)),
)
DEEP = ("[" * 100_000 + "]" * 100_000).encode()


def _file_contents(payloads):
    return payloads.map(lambda value: json.dumps(value).encode()) | st.binary(max_size=40)


@given(content=_file_contents(STATE_PAYLOADS), m=COUNTS)
@example(content=DEEP, m=1)
@example(content=json.dumps(_one_mode_state(4, 2, [1, 0])).encode(), m=3)
@settings(derandomize=True, deadline=None, max_examples=300)
def test_state_files_exit_cleanly_with_strict_json(tmp_path_factory, content, m):
    path = tmp_path_factory.getbasetemp() / "fuzzed_state.json"
    path.write_bytes(content)
    assert_exits_cleanly_with_strict_json(["ns-gate", f"--m={m}", f"--input={path}"])


@given(text=SCHEDULE_PAYLOADS.map(json.dumps) | st.text(max_size=40))
@example(text=DEEP.decode())
@example(text=json.dumps(CANONICAL_SHAPE))
@settings(derandomize=True, deadline=None, max_examples=300)
def test_inline_schedules_exit_cleanly_with_strict_json(text):
    assert_exits_cleanly_with_strict_json(["loop-protocol", f"--schedule={text}"])


@given(content=_file_contents(SCHEDULE_PAYLOADS))
@example(content=DEEP)
@settings(derandomize=True, deadline=None, max_examples=300)
def test_schedule_files_exit_cleanly_with_strict_json(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzzed_schedule.json"
    path.write_bytes(content)
    assert_exits_cleanly_with_strict_json(["loop-protocol", f"--schedule={path}"])
