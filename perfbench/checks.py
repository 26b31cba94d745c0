"""Per-operation correctness checks.

Each check returns ``None`` when the output is correct and a one-line
reason otherwise.  References are closed forms computed here with numpy,
never by calling jcsim, so a traced run records no spans for them and a
defect shared by two library routes cannot hide.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# csf_cutoff_scan
IDEAL_TOL = 1e-12
NORM_TOL = 1e-9
PROB_TOL = 1e-12  # roundoff allowed on a probability computed as a squared norm
HERALDED_FIDELITY_MIN = 0.976  # the acceptance criterion 06 pin
# mz_shots: looser than acceptance criterion 10 (3 sigma, p > 0.01) so that
# a correct change to the sampler's random stream does not trip by chance
FREQ_SIGMAS = 5.0
CHI2_PVALUE_MIN = 1e-4
# mz_theta_sweep
SUM_TOL = 1e-9
# cli_suite: CSV carries 6 significant digits
CSV_RTOL = 1e-5


def logical_index(n_max: int, occupations) -> int:
    dim = n_max + 1
    index = 0
    for n in occupations:
        index = index * dim + n
    return index


def csf_ideal_expected(n_max: int, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Ideal output of sum_jk coeffs[2j+k] |jbar kbar>: the |1bar 1bar> sign flips.

    Returned sparse, as (flat indices, amplitudes); every other amplitude is 0.
    """
    indices, values = [], []
    for j in (0, 1):
        for k in (0, 1):
            rails = ((0, 1) if j == 0 else (1, 0)) + ((0, 1) if k == 0 else (1, 0))
            indices.append(logical_index(n_max, rails))
            values.append((-1) ** (j * k) * coeffs[2 * j + k])
    return np.array(indices), np.array(values, dtype=np.complex128)


def check_csf_ideal(expected, out: np.ndarray, herald_p: float):
    indices, values = expected
    off_support = np.abs(out)
    off_support[indices] = 0.0
    err = max(float(off_support.max()), float(np.abs(out[indices] - values).max()))
    if not err <= IDEAL_TOL:
        return f"ideal gate off the sign-flipped input by {err:.3e}"
    if not abs(herald_p - 1.0) <= IDEAL_TOL:
        return f"ideal gate herald probability {herald_p!r} is not 1"
    return None


def check_csf_heralded(expected, out: np.ndarray, herald_p: float):
    indices, values = expected
    norm2 = float(np.vdot(out, out).real)
    if not abs(norm2 - 1.0) <= NORM_TOL:
        return f"heralded output norm^2 {norm2!r} is not 1"
    if not -PROB_TOL <= herald_p <= 1.0 + PROB_TOL:
        return f"herald probability {herald_p!r} outside [0, 1]"
    fidelity = abs(np.vdot(values, out[indices])) ** 2
    if not fidelity >= HERALDED_FIDELITY_MIN:
        return f"heralded fidelity {fidelity:.6f} below {HERALDED_FIDELITY_MIN}"
    return None


def check_csf_truncated(out: np.ndarray, herald_p: float, tail: float):
    """Norm bookkeeping for an input with mass ``tail`` above n_max on the mixed rails.

    The splitter is exact on every photon-number sector up to n_max and a
    contraction above it, and the gate renormalizes after the herald, so
    the output keeps norm^2 in [1 - tail / herald_p, 1].
    """
    if not 0.0 < herald_p <= 1.0 + PROB_TOL:
        return f"herald probability {herald_p!r} outside (0, 1]"
    norm2 = float(np.vdot(out, out).real)
    low = 1.0 - tail / herald_p - NORM_TOL
    if not low <= norm2 <= 1.0 + NORM_TOL:
        return f"output norm^2 {norm2!r} outside [{low!r}, 1] for truncated mass {tail:.3e}"
    return None


# -- mz_shots ----------------------------------------------------------------


def _gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) (series / continued fraction)."""
    if x <= 0.0:
        return 1.0
    log_prefactor = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        denom = a
        while abs(term) > abs(total) * 1e-16:
            denom += 1.0
            term *= x / denom
            total += term
        return max(0.0, 1.0 - total * math.exp(log_prefactor))
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = tiny if abs(d) < tiny else d
        c = b + an / c
        c = tiny if abs(c) < tiny else c
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(log_prefactor) * h


def chi2_pvalue(observed, expected) -> float:
    """Pearson chi-square p-value over bins of expected count >= 5.

    The thin tail bins are pooled, and the pool joins the last full bin when
    it alone would expect fewer than 5 counts: a bin expecting a fraction of
    a count is far from the chi-square approximation.
    """
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    keep = int(np.sum(expected >= 5))
    if expected[keep:].sum() < 5:
        keep -= 1
    observed = np.concatenate([observed[:keep], [observed[keep:].sum()]])
    expected = np.concatenate([expected[:keep], [expected[keep:].sum()]])
    statistic = float(((observed - expected) ** 2 / expected).sum())
    return _gamma_q((expected.size - 1) / 2.0, statistic / 2.0)


def check_mz_shots(joint: np.ndarray, shots: int, d2_counts, d2_one_frequency, d2_one_exact):
    """Sampled D2 counts against the exact joint table of the same point."""
    p_d2 = joint.sum(axis=0) / joint.sum()
    p_one = float(p_d2[1])
    if not abs(d2_one_exact - float(joint[:, 1].sum())) <= 1e-12:
        return f"reported exact P(D2=1) {d2_one_exact!r} differs from the chain's"
    sigma = math.sqrt(p_one * (1.0 - p_one) / shots)
    if not abs(d2_one_frequency - p_one) <= FREQ_SIGMAS * sigma:
        return f"D2=1 frequency {d2_one_frequency!r} beyond {FREQ_SIGMAS} sigma of {p_one!r}"
    counts = np.asarray(d2_counts)
    if int(counts.sum()) != shots:
        return f"D2 histogram holds {int(counts.sum())} shots, expected {shots}"
    pvalue = chi2_pvalue(counts, p_d2 * shots)
    if not pvalue > CHI2_PVALUE_MIN:
        return f"D2 histogram chi-square p-value {pvalue:.3e} <= {CHI2_PVALUE_MIN}"
    return None


# -- mz_theta_sweep -------------------------------------------------------------


def coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """exp(-|alpha|^2/2) alpha^n / sqrt(n!) for n <= n_max (not renormalized)."""
    n = np.arange(n_max + 1)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n_max + 1)))])
    return np.exp(-abs(alpha) ** 2 / 2) * complex(alpha) ** n / np.exp(0.5 * log_fact)


def check_joint(joint: np.ndarray, input_norm2: float):
    if not (np.all(joint >= 0.0) and np.all(joint <= 1.0 + PROB_TOL)):
        return "joint probabilities outside [0, 1]"
    total = float(joint.sum())
    if not abs(total - input_norm2) <= SUM_TOL:
        return f"joint probabilities sum to {total!r}, input norm^2 is {input_norm2!r}"
    return None


def branch_model_marginals(alpha: float, theta: float, m: int, n_max: int):
    """Detector marginals of the two-coherent-branch model of the cavity output.

    The cavity output is modelled as the normalized half-sum of coherent
    states at phases +-pi/3 with amplitude sign(d(m)) alpha; each branch
    pair (beta, alpha) leaves the Mach-Zehnder as the coherent pair
    ([(e^{i theta}+1) beta + (e^{i theta}-1) alpha] / 2,
     [(e^{i theta}-1) beta + (e^{i theta}+1) alpha] / 2).
    """
    d_m = math.cos((2 * m + 1) * math.pi / math.sqrt(2))
    model_alpha = math.copysign(alpha, d_m)
    rot = complex(math.cos(theta), math.sin(theta))
    state = np.zeros((n_max + 1, n_max + 1), dtype=np.complex128)
    for sign in (1, -1):
        beta = model_alpha * complex(math.cos(sign * math.pi / 3), math.sin(sign * math.pi / 3))
        upper = ((rot + 1) * beta + (rot - 1) * alpha) / 2
        lower = ((rot - 1) * beta + (rot + 1) * alpha) / 2
        state += np.outer(coherent_amplitudes(upper, n_max), coherent_amplitudes(lower, n_max))
    probs = np.abs(state) ** 2
    probs /= probs.sum()
    return probs.sum(axis=1), probs.sum(axis=0)


def check_branch_model(marginal_d1, marginal_d2, alpha: float, theta: float, m: int):
    """Simulated marginals within the alpha^2 budget of acceptance criterion 05."""
    n_max = len(marginal_d1) - 1
    model_d1, model_d2 = branch_model_marginals(alpha, theta, m, n_max)
    tv = max(
        0.5 * float(np.abs(np.asarray(marginal_d1) - model_d1).sum()),
        0.5 * float(np.abs(np.asarray(marginal_d2) - model_d2).sum()),
    )
    if not tv < alpha**2:
        return f"marginals {tv:.4f} (total variation) from the branch model, budget {alpha**2:.4f}"
    return None


def response_functions(theta: float):
    rot = complex(math.cos(theta), math.sin(theta))
    plus = complex(0.5, math.sqrt(3) / 2)
    minus = plus.conjugate()
    return (
        (rot + 1) * plus + (rot - 1),
        (rot - 1) * plus + (rot + 1),
        (rot + 1) * minus + (rot - 1),
        (rot - 1) * minus + (rot + 1),
    )


def check_f_functions(response, theta: float, alpha: float):
    got = (response.f1, response.f2, response.f3, response.f4)
    want = response_functions(theta)
    if not max(abs(g - w) for g, w in zip(got, want)) <= 1e-12:
        return "response functions F1..F4 off their closed form"
    if not abs(response.mu1 - abs(alpha * want[0] / 2) ** 2) <= 1e-12:
        return "Poisson mean mu1 off |alpha F1 / 2|^2"
    return None


# -- cli_suite ---------------------------------------------------------------


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def parse_strict_json(text: str) -> dict:
    """json.loads that rejects NaN and Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


CSV_HEADERS = {
    "table1": ["m", "c2", "d"],
    "fig3-sweep": ["theta", "abs_f1", "abs_f2"],
    "fig4-pmf": ["n", "p_mu1", "p_mu2"],
}


def _close(got: float, want: float, rtol: float = CSV_RTOL) -> bool:
    return abs(got - want) <= rtol * abs(want) + 1e-12


def _csv_rows(command: str, text: str) -> list[list[float]]:
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    if header != CSV_HEADERS[command]:
        raise ValueError(f"CSV header {header} is not {CSV_HEADERS[command]}")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    if not all(len(row) == len(header) and all(map(math.isfinite, row)) for row in rows):
        raise ValueError("CSV row with a missing or non-finite field")
    return rows


def _poisson(n: int, mu: float) -> float:
    return math.exp(-mu) * mu**n / math.factorial(n)


def closed_form_rows(command: str) -> list[list[float]]:
    """The CSV rows the README arguments must produce."""
    if command == "table1":
        rows = []
        for m in range(5):
            angle = (2 * m + 1) * math.pi / math.sqrt(2)
            rows.append([m, math.sin(angle) ** 2, math.cos(angle)])
        return rows
    if command == "fig4-pmf":
        mu1, mu2 = 0.4665, 0.03349  # the CLI defaults
        return [[n, _poisson(n, mu1), _poisson(n, mu2)] for n in range(3)]
    if command == "fig3-sweep":
        rows = []
        for k in range(256):
            theta = 2 * math.pi * k / 256
            f1, f2, _, _ = response_functions(theta)
            rows.append([theta, abs(f1), abs(f2)])
        return rows
    raise KeyError(command)


def loop_timing_expected(wavelength: float, kappa: float, loss_pc=0.04, loss_pbs=0.01) -> dict:
    c = 2.998e8
    width = wavelength / 2
    round_trip = 2 * width / c
    per_pass = math.log10(1 - loss_pc) + math.log10(1 - loss_pbs)
    out = {"cavity_width": width, "pc_response_required": width / c}
    for m in (1, 3):
        gate = (2 * m + 1) * math.pi / (math.sqrt(2) * kappa)
        out[f"gate_time_m{m}"] = gate
        out[f"round_trips_m{m}"] = gate / round_trip
        out[f"survival_log10_m{m}"] = gate / round_trip * per_pass
    return out


def _check_json_results(command: str, results: dict, stats: dict) -> None:
    """Closed-form and invariant checks on one command's JSON results."""
    if command == "loop-timing":
        for key, want in loop_timing_expected(1.39724e-2, 14285.714).items():
            if not _close(results[key], want, 1e-9):
                raise ValueError(f"{key} = {results[key]!r}, closed form {want!r}")
    elif command == "loop-protocol":
        if results["exit_phase"] != 3:
            raise ValueError(f"exit phase {results['exit_phase']!r} is not 3")
    elif command == "ns-gate":
        amps = np.array(results["output"]["amplitudes"], dtype=float)
        norm2 = float((amps**2).sum())
        if not abs(norm2 - 1.0) <= NORM_TOL:
            raise ValueError(f"ns-gate output norm^2 {norm2!r} is not 1")
        if not -PROB_TOL <= results["success_probability"] <= 1.0 + PROB_TOL:
            raise ValueError("ns-gate success probability outside [0, 1]")
    elif command == "csf-verify":
        heralds = []
        for row in results["truth_table"]:
            j, k = int(row["input"][0]), int(row["input"][1])
            re, im = row["amplitudes"][row["input"]]
            if not (-1) ** (j * k) * re >= math.sqrt(HERALDED_FIDELITY_MIN) or abs(im) > 1e-9:
                raise ValueError(f"truth-table row {row['input']} keeps amplitude {re!r}{im:+}j")
            if not -PROB_TOL <= row["success_probability"] <= 1.0 + PROB_TOL:
                raise ValueError("truth-table herald probability outside [0, 1]")
            heralds.append(row["success_probability"])
        stats["herald_sum"] = stats.get("herald_sum", 0.0) + sum(heralds)
        stats["herald_n"] = stats.get("herald_n", 0) + len(heralds)
    elif command == "mach-zehnder":
        mc = results["monte_carlo"]
        p = mc["d2_one_probability_exact"]
        sigma = math.sqrt(p * (1 - p) / mc["shots"])
        if not abs(mc["d2_one_frequency"] - p) <= FREQ_SIGMAS * sigma:
            raise ValueError(f"D2=1 frequency {mc['d2_one_frequency']!r} beyond 5 sigma of {p!r}")
        stats["shots"] = stats.get("shots", 0) + mc["shots"]
        stats["useful"] = stats.get("useful", 0) + mc["d2_counts"][1]


def check_cli_output(command: str, returncode: int, stdout: str, stats: dict):
    """Check one CLI run; returns (reason or None, digest of its results payload)."""
    if returncode != 0:
        return f"exit code {returncode}", None
    try:
        if command in CSV_HEADERS:
            rows = _csv_rows(command, stdout)
            want = closed_form_rows(command)
            if len(rows) != len(want) or not all(
                _close(g, w) for row, ref in zip(rows, want) for g, w in zip(row, ref)
            ):
                raise ValueError("CSV values differ from the closed form")
            payload = stdout
        else:
            record = parse_strict_json(stdout)
            if record.get("command") != command:
                raise ValueError(f"record names command {record.get('command')!r}")
            _check_json_results(command, record["results"], stats)
            payload = json.dumps(record["results"], sort_keys=True)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}", None
    return None, hashlib.sha256(payload.encode()).hexdigest()
