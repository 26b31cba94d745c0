"""Weak-coherent-light verification of the sign-shift cavity.

A weak coherent state |alpha| < 1 is sent through the heralded cavity gate
(no compensating phase shifter, so the one-photon amplitude keeps its
d(m) factor), then interferes with a fresh reference |alpha> on a
Mach-Zehnder built from two forward 50:50 splitters around a variable
phase theta on the upper path.

For purely coherent inputs the interferometer acts arm-wise,

    (alpha, beta)  ->  ( [(e^{i theta}+1) alpha + (e^{i theta}-1) beta] / 2,
                         [(e^{i theta}-1) alpha + (e^{i theta}+1) beta] / 2 ),

and the cavity output is well approximated (error O(|alpha|^2) in fidelity)
by an equal superposition of two coherent states of phases +-pi/3.  Pushing
each of those branches through the arm-wise map yields the four response
functions F1..F4 of theta; photon counting per branch is then Poissonian
with means |alpha F_k(theta) / 2|^2.  Detector D1 watches the upper path
(mode 0), D2 the lower (mode 1).

The cavity output depends on (alpha, m, n_max) but not on theta, so it is
computed once per key and shared read-only: a theta sweep at fixed alpha runs
the heralded gate once, and every point after the first reuses it.  The
Mach-Zehnder's half before the phase (reference |alpha>, product state, first
splitter) is shared the same way per (input state, alpha, n_max), so a point
after the first pays for the phase and one splitter.  A warm point builds no
reference, so ``coherent_state``'s ``|alpha|^2 > n_max/4`` warning fires on a
cold call only.

Exact joint counting statistics are computed from the simulated two-mode
state.  The Monte Carlo detection record is one multinomial draw of the
whole joint count table from that distribution, so its cost does not grow
with the shot count and its only randomness is shot noise under a
caller-supplied seed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch
from .fock import (
    NORMALIZATION_TOL,
    FockCutoff,
    MultiModeState,
    as_cutoff,
    coherent_state,
    renormalize,
    tensor,
)
from .jcm import ns_gate
from .linear_optics import beam_splitter


@dataclass(frozen=True)
class CavityOutput:
    """Heralded cavity state for a weak coherent input."""

    state: MultiModeState
    error_mass: float  # weight outside span{|0>, |1>, |2>}


def cavity_ns_output(alpha: complex, m: int, cutoff: int | FockCutoff = 12) -> CavityOutput:
    """Run the heralded gate on |alpha| < 1 without the phase compensator.

    The truncated coherent input is passed on unrenormalized, so the cutoff
    must hold all but ``NORMALIZATION_TOL`` of its mass.  The output is
    computed once per (alpha, m, n_max) and shared: keys compare by value,
    so ``0.5``, ``0.5+0j`` and ``np.float64(0.5)`` hit one entry, and its
    state is read-only.  A call that raises stores nothing.
    """
    return _heralded_cavity(complex(alpha), m, as_cutoff(cutoff))


@lru_cache(maxsize=64)
def _heralded_cavity(alpha: complex, m: int, cutoff: FockCutoff) -> CavityOutput:
    """The body of :func:`cavity_ns_output`, cached per normalized key.

    The cache sits on this private helper so that the public function stays
    a plain function, which the benchmark's tracer wraps on every call.  An
    entry holds n_max + 1 amplitudes: 64 of them at the CLI's largest
    n_max, 202, take about 0.2 MB.
    """
    size = math.hypot(alpha.real, alpha.imag)  # abs(alpha) raises beyond the float range
    if size >= 1:
        raise ValueError(f"weak-light regime requires |alpha| < 1, got {size}")
    photons = coherent_state(alpha, cutoff)
    lost = 1.0 - photons.norm_squared()
    if lost > NORMALIZATION_TOL:  # the gate takes normalized states only
        raise ValueError(
            f"a coherent input of |alpha| = {size:g} loses {lost:.3g} of its mass above "
            f"n_max = {photons.cutoff.n_max}; raise --n-max"
        )
    result = ns_gate(photons, m, apply_compensating_phase=False)
    probs = np.abs(result.output.amplitudes) ** 2
    error_mass = float(probs[3:].sum())
    return CavityOutput(result.output, error_mass)


def cat_reference(
    alpha: complex, cutoff: int | FockCutoff = 12, exact_norm: bool = False
) -> MultiModeState:
    """Half-sum of coherent states at phases +-pi/3.

    With ``exact_norm`` unset the bare 1/2 prefactor is kept, so the vector
    is subnormalized by the non-orthogonality of the two branches; set the
    flag to get the unit-norm version.
    """
    cutoff = as_cutoff(cutoff)
    plus = coherent_state(cmath.exp(1j * math.pi / 3) * alpha, cutoff)
    minus = coherent_state(cmath.exp(-1j * math.pi / 3) * alpha, cutoff)
    state = plus.with_amplitudes(0.5 * (plus.amplitudes + minus.amplitudes))
    return renormalize(state) if exact_norm else state


@dataclass(frozen=True)
class InterferometerResponse:
    """Branch responses at phase theta and the derived Poisson means."""

    theta: float
    f1: complex
    f2: complex
    f3: complex
    f4: complex
    mu1: float  # |alpha f1 / 2|^2
    mu2: float  # |alpha f2 / 2|^2


def f_functions(theta: float, alpha: complex = 0j) -> InterferometerResponse:
    """The four branch response functions, plus counting means at ``alpha``."""
    rot = cmath.exp(1j * theta)
    plus = cmath.exp(1j * math.pi / 3)
    minus = cmath.exp(-1j * math.pi / 3)
    f1 = (rot + 1) * plus + (rot - 1)
    f2 = (rot - 1) * plus + (rot + 1)
    f3 = (rot + 1) * minus + (rot - 1)
    f4 = (rot - 1) * minus + (rot + 1)
    mu1 = abs(alpha * f1 / 2) ** 2
    mu2 = abs(alpha * f2 / 2) ** 2
    return InterferometerResponse(theta, f1, f2, f3, f4, mu1, mu2)


def mach_zehnder(
    input_a1: MultiModeState, alpha_a2: complex, theta: float
) -> MultiModeState:
    """Interfere a single-mode state with a reference coherent state.

    Splitter, phase theta on the upper path, splitter again (both with the
    same forward convention).  Returns the two-mode output state.  The half
    before the phase, the reference |alpha_a2>, its product with the input
    and the first splitter, does not depend on theta: it is computed once
    per (input, alpha_a2, n_max) and shared, so each further theta runs only
    the phase and the second splitter.  Keys compare by value: an equal
    input that is a different object, or ``0.5``, ``0.5+0j`` and
    ``np.float64(0.5)``, hit one entry.  A warm call builds no reference, so
    ``coherent_state``'s ``|alpha|^2 > n_max/4`` warning fires on a cold
    call only.
    """
    if input_a1.mode_count != 1:
        raise DimensionMismatch("upper-path input must be a single-mode state")
    if not math.isfinite(float(theta) * input_a1.cutoff.n_max):  # the top phase n_max theta
        raise ValueError(f"theta * n_max must be finite, got theta {theta}")
    state = _reference_mix(input_a1.amplitudes.tobytes(), complex(alpha_a2), input_a1.cutoff)
    phases = np.exp(1j * theta * np.arange(state.cutoff.dim))  # |n> -> e^{i n theta}|n>
    tens = state.as_tensor() * phases[:, None]
    return beam_splitter(state.with_amplitudes(tens.reshape(-1)), 0, 1)


@lru_cache(maxsize=16)
def _reference_mix(input_a1: bytes, alpha_a2: complex, cutoff: FockCutoff) -> MultiModeState:
    """The theta-independent half of :func:`mach_zehnder`, cached per key.

    Private, so that the public function stays plain for the benchmark's
    tracer.  An entry holds dim^2 amplitudes, 16 dim^2 bytes: 16 of them at
    the CLI's largest n_max, 202, take about 10.6 MB.
    """
    upper = MultiModeState(1, cutoff, np.frombuffer(input_a1, dtype=np.complex128))
    return beam_splitter(tensor(upper, coherent_state(alpha_a2, cutoff)), 0, 1)


@dataclass(frozen=True)
class DetectorStatistics:
    """Exact joint and marginal photon-count distributions of two detectors."""

    joint: np.ndarray        # joint[n1, n2] = P(D1 = n1, D2 = n2)
    marginal_d1: np.ndarray
    marginal_d2: np.ndarray

    @property
    def mean_d1(self) -> float:
        return float(np.arange(self.marginal_d1.size) @ self.marginal_d1)

    @property
    def mean_d2(self) -> float:
        return float(np.arange(self.marginal_d2.size) @ self.marginal_d2)


def detector_statistics(s: MultiModeState) -> DetectorStatistics:
    """Counting statistics of an ideal number-resolving detector pair."""
    if s.mode_count != 2:
        raise DimensionMismatch("detector pair expects a two-mode state")
    joint = np.abs(s.as_tensor()) ** 2
    joint.setflags(write=False)
    return DetectorStatistics(joint, joint.sum(axis=1), joint.sum(axis=0))


def poisson_pmf(n: int, mu: float) -> float:
    """exp(-mu) mu^n / n! for n = 0, 1, 2, ..."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if not 0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and non-negative, got {mu}")
    if mu == 0:
        return float(n == 0)
    # in logs, so neither mu**n nor n! overflows; a vanishing term is 0.0
    return math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))


@dataclass(frozen=True)
class ConditionedReport:
    """Monte Carlo detection record conditioned on D2 seeing one photon."""

    shots: int
    seed: int
    d1_counts: np.ndarray                # unconditioned D1 histogram
    d2_counts: np.ndarray                # unconditioned D2 histogram
    conditioned_d1_counts: np.ndarray    # D1 histogram over shots with D2 = 1
    d2_one_frequency: float              # empirical P(D2 = 1)
    d2_one_probability_exact: float
    conditioned_d1_exact: np.ndarray
    leading_order_estimate: float        # branch-weight estimate of P(D2 = 1)


def sample_conditioned(
    stats: DetectorStatistics,
    shots: int,
    seed: int,
    alpha: complex,
    theta: float,
) -> ConditionedReport:
    """Draw a detection record from ``stats`` and aggregate the D2 = 1 slice.

    One multinomial draw of ``shots`` over the joint distribution gives the
    joint count table counts[n1, n2] exactly in distribution; every figure
    of the record is read from that table, so results are deterministic for
    a fixed seed and the cost does not depend on ``shots``.  The
    leading-order estimate of the conditioning frequency is the dominant
    branch weight 1/4 times the Poisson probability of one photon at that
    branch's mean; ``alpha`` and ``theta`` are the run the statistics came
    from.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if shots > 2**63 - 1:  # the multinomial counts are int64
        raise ValueError(f"shots must be <= 2**63 - 1, got {shots}")
    exact_p_one = float(stats.marginal_d2[1])
    if not exact_p_one > 0:
        raise ValueError(
            f"cannot condition on D2 = 1: its exact probability is {exact_p_one}"
        )
    dim = stats.joint.shape[0]

    flat = stats.joint.reshape(-1)
    flat = flat / flat.sum()  # strip truncation deficit for the sampler
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, flat).reshape(dim, dim)
    d2_counts = counts.sum(axis=0)

    response = f_functions(theta, alpha)
    mu_dominant = abs(alpha * response.f4 / 2) ** 2
    estimate = poisson_pmf(1, mu_dominant) / 4

    return ConditionedReport(
        shots=shots,
        seed=seed,
        d1_counts=counts.sum(axis=1),
        d2_counts=d2_counts,
        conditioned_d1_counts=counts[:, 1],
        d2_one_frequency=float(d2_counts[1] / shots),
        d2_one_probability_exact=exact_p_one,
        conditioned_d1_exact=stats.joint[:, 1] / exact_p_one,
        leading_order_estimate=float(estimate),
    )


def conditional_run(
    shots: int,
    seed: int,
    alpha: complex,
    m: int,
    theta: float,
    cutoff: int | FockCutoff = 12,
) -> ConditionedReport:
    """Run cavity, Mach-Zehnder and detection, then sample the record.

    The detection record is drawn by :func:`sample_conditioned` from the
    exact two-mode counting distribution of the full
    cavity-plus-interferometer run.  The cavity comes from
    :func:`cavity_ns_output`'s per-(alpha, m, n_max) store, so a caller that
    already ran the cavity at these arguments does not pay for it twice.
    """
    cavity = cavity_ns_output(alpha, m, cutoff)
    stats = detector_statistics(mach_zehnder(cavity.state, alpha, theta))
    return sample_conditioned(stats, shots, seed, alpha, theta)
