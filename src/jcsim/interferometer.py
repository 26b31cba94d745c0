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
the heralded gate once, and every point after the first reuses it.

Every element of the Mach-Zehnder conserves photon number sector by sector
(Campos, Saleh & Teich, PRA 40, 1371 (1989)), and the phase multiplies the
upper path's n photons by e^{i n theta}.  So the output is a polynomial of
degree n_max in e^{i theta} (the SU(2) view of Yurke, McCall & Klauder, PRA
33, 4033 (1986)): out(theta) = sum_n e^{i n theta} C[n], with C[n] = B Pi_n B
(input x |alpha>), B the splitter and Pi_n the projection onto n photons in
the upper path.  The coefficients are built once per (input state, alpha,
n_max), by the first splitter and then the second on a copy of its output
that carries n as a third, trailing mode's label, so both splitters mix
modes (0, 1).  They are shared read-only as a table with one row per kept
pair n_0 + n_1 <= n_max and one column per n.  A call, cold or warm,
multiplies that table by the phases, so a warm call runs no splitter and
builds no reference.  Each output amplitude is then one dot
product over the photon numbers: OpenBLAS may share the outputs among
threads but never splits one, so the output does not depend on the BLAS
thread count.

Exact joint counting statistics are computed from the simulated two-mode
state.  Each detector's marginal is reduced from them on its first read, so
a caller that reads only the joint table pays for no reduction.  The Monte
Carlo detection record is one multinomial draw of the whole joint count
table from that distribution, so its cost does not grow with the shot count
and its only randomness is shot noise under a caller-supplied seed.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .fock import (
    NORMALIZATION_TOL,
    FockCutoff,
    MultiModeState,
    as_cutoff,
    coherent_state,
    tensor,
)
from .jcm import ns_gate
from .linear_optics import beam_splitter


#: The branch phases e^{+-i pi/3} of the cavity's two-coherent-state model.
_BRANCH_PLUS = cmath.exp(1j * math.pi / 3)
_BRANCH_MINUS = cmath.exp(-1j * math.pi / 3)


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
    n_max, 110, take about 0.1 MB.
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
    plus = coherent_state(_BRANCH_PLUS * alpha, cutoff)
    minus = coherent_state(_BRANCH_MINUS * alpha, cutoff)
    amps = 0.5 * (plus.amplitudes + minus.amplitudes)
    if exact_norm:
        norm = math.sqrt(float(np.vdot(amps, amps).real))
        if norm == 0.0:
            raise ValueError(f"the cat reference at alpha {alpha} is 0 inside n_max {cutoff.n_max}")
        amps = amps / norm
    return MultiModeState(1, cutoff, amps)


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
    f1 = (rot + 1) * _BRANCH_PLUS + (rot - 1)
    f2 = (rot - 1) * _BRANCH_PLUS + (rot + 1)
    f3 = (rot + 1) * _BRANCH_MINUS + (rot - 1)
    f4 = (rot - 1) * _BRANCH_MINUS + (rot + 1)
    mu1 = abs(alpha * f1 / 2) ** 2
    mu2 = abs(alpha * f2 / 2) ** 2
    return InterferometerResponse(theta, f1, f2, f3, f4, mu1, mu2)


def mach_zehnder(
    input_a1: MultiModeState, alpha_a2: complex, theta: float
) -> MultiModeState:
    """Interfere a single-mode state with a reference coherent state.

    Splitter, phase theta on the upper path, splitter again (both with the
    same forward convention).  Returns the two-mode output state.  The output
    is a polynomial in e^{i theta} whose coefficients, one per upper-path
    photon number n = 0..n_max, do not depend on theta: they are built once
    per (input, alpha_a2, n_max) and shared, and each call sums them with the
    phases e^{i n theta}.  So a warm call runs no splitter and builds no
    reference.  Keys compare by value: an equal input that is a different
    object, or ``0.5``, ``0.5+0j`` and ``np.float64(0.5)``, hit one entry.
    """
    if input_a1.mode_count != 1:
        raise ValueError("upper-path input must be a single-mode state")
    if not math.isfinite(float(theta) * input_a1.cutoff.n_max):  # the top phase n_max theta
        raise ValueError(f"theta * n_max must be finite, got theta {theta}")
    cutoff = input_a1.cutoff
    photons, kept, table = _theta_coefficients(
        input_a1.amplitudes.tobytes(), complex(alpha_a2), cutoff
    )
    out = np.zeros(cutoff.dim**2, dtype=np.complex128)
    # one dot product per kept output amplitude, never split across threads
    out[kept] = table @ np.exp(1j * theta * photons)
    return MultiModeState(2, cutoff, out)


@lru_cache(maxsize=4)
def _theta_coefficients(
    input_a1: bytes, alpha_a2: complex, cutoff: FockCutoff
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The theta polynomial of :func:`mach_zehnder`, cached per key.

    Returns the triple (photons, kept, table): the photon numbers 0..n_max
    that theta multiplies; the flat two-mode indices, in row-major order,
    of the kept pairs n_0 + n_1 <= n_max, the only ones a splitter leaves
    nonzero; and the C-contiguous (dim(dim+1)/2, dim) table whose column n
    holds C[n] = B Pi_n F on those pairs.  Every array is read-only.  F is
    the first splitter's output.  The second splitter builds every column at
    once: it mixes modes (0, 1) of the three-mode state L[a, b, n] =
    delta_na F[a, b], whose mode 2 only labels the upper-path photon number
    that theta multiplies, so the kept rows of its output, read flat, are
    the table.  Private, so that the public function stays plain for the
    benchmark's tracer, which sees both splitters of a cold call.

    L takes 16 dim^3 bytes, the largest array of the Mach-Zehnder.  With the
    second splitter's gathered and mixed stacks (about 8 dim^3 bytes each)
    and its output (16 dim^3), a cold build peaks near 48 dim^3 bytes, which
    the CLI budgets.  An entry takes 8 dim^2 (dim + 1) bytes for the table,
    4 dim (dim + 1) for its indices and 8 dim for the photon numbers: 43.0 KB
    at n_max 16 and 11.1 MB at the CLI's largest n_max, 110, so the store
    keeps four.
    """
    upper = MultiModeState(1, cutoff, np.frombuffer(input_a1, dtype=np.complex128))
    if not np.isfinite(upper.amplitudes).all():
        raise ValueError("the Mach-Zehnder input amplitudes must be finite")
    first = beam_splitter(tensor(upper, coherent_state(alpha_a2, cutoff)))
    dim = cutoff.dim
    photons = np.arange(dim)
    labelled = np.zeros((dim, dim, dim), dtype=np.complex128)
    labelled[photons, :, photons] = first.as_tensor()
    mixed = beam_splitter(MultiModeState(3, cutoff, labelled.reshape(-1)))
    kept = np.flatnonzero(np.add.outer(photons, photons) <= cutoff.n_max)
    table = mixed.amplitudes.reshape(dim * dim, dim)[kept]
    for array in (photons, kept, table):
        array.setflags(write=False)
    return photons, kept, table


@dataclass(frozen=True)
class DetectorStatistics:
    """Exact joint and marginal photon-count distributions of two detectors.

    Each marginal is reduced from the joint table on its first read and kept.
    """

    joint: np.ndarray        # joint[n1, n2] = P(D1 = n1, D2 = n2)

    @cached_property
    def marginal_d1(self) -> np.ndarray:
        return self.joint.sum(axis=1)

    @cached_property
    def marginal_d2(self) -> np.ndarray:
        return self.joint.sum(axis=0)

    @property
    def mean_d1(self) -> float:
        return float(np.arange(self.marginal_d1.size) @ self.marginal_d1)

    @property
    def mean_d2(self) -> float:
        return float(np.arange(self.marginal_d2.size) @ self.marginal_d2)


def detector_statistics(s: MultiModeState) -> DetectorStatistics:
    """Counting statistics of an ideal number-resolving detector pair."""
    if s.mode_count != 2:
        raise ValueError("detector pair expects a two-mode state")
    joint = np.abs(s.as_tensor()) ** 2
    joint.setflags(write=False)
    return DetectorStatistics(joint)


def poisson_pmf(n: int, mu: float) -> float:
    """exp(-mu) mu^n / n! for n = 0, 1, 2, ..."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"n must be a non-negative integer, got {n!r}") from None
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
    from.  ``shots`` and ``seed`` must be integers; numpy integers pass.
    """
    try:
        shots, seed = operator.index(shots), operator.index(seed)
    except TypeError:
        raise ValueError(f"shots and seed must be integers, got {shots!r} and {seed!r}") from None
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
