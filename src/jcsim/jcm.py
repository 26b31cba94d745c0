"""Resonant two-level-atom / single-mode dynamics and the sign-shift gate.

The coupling generator kappa*(sigma_+ a + sigma_- a†) conserves the total
excitation number N = (photon number) + (1 if the atom is excited), so its
propagator U(t) = exp(-i t H) is block diagonal: a 1x1 identity block on
|g,0> and, for each N >= 1, a 2x2 rotation on {|e,N-1>, |g,N>},

    [[ cos(sqrt(N) |k| t),        -i sin(sqrt(N) |k| t) ],
     [ -i sin(sqrt(N) |k| t),         cos(sqrt(N) |k| t) ]].

U depends on the pulse area |kappa| t alone.  The phase phi of kappa is a
choice of phase for |e>: U_phi = D U_0 D^dagger with D = e^{i phi} on |e>,
so phi = 0 loses nothing (it leaves the ground block untouched and only
rotates the |e> amplitudes).  The blocks are built in closed form, so the
evolution is unitary to machine precision with no truncation artifacts.
The top orphan state |e, n_max> (whose partner |g, n_max+1> lies beyond the
cutoff) is held fixed, which is exactly what the dense matrix exponential
of the truncated generator does.

Sign-shift protocol: evolve |g> (x) (photon state) for the pulse area

    |kappa| t_m = (2m+1) pi / sqrt(2),   m = 0, 1, 2, ...

and keep only runs where the atom is detected in |g>.  At t_m the
two-photon component picks up exactly -1 while the single-photon component
is scaled by d(m) = cos((2m+1) pi / sqrt(2)); the run fails (atom found in
|e>) with probability |c(m)|^2 = 1 - d(m)^2 per unit of single-photon
weight.  Because U(t_m) is block diagonal, one propagation of
|g> (x) sum_n |n> holds the whole post-selected diagonal in its ground
block, and c(m), d(m) in its one-excitation block; every quantity of the
gate is read from that propagation, which is cached per (m, cutoff) and
shared read-only by every caller.  For negative d(m) (e.g. the m=3 route)
a lossless (-1)^n phase shifter restores the |1> sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, ZeroStateError
from .fock import FockCutoff, MultiModeState, as_cutoff


@dataclass(frozen=True, eq=False)
class AtomFieldState:
    """Atom (x) single field mode, as a vector over {|g,n>} then {|e,n>}.

    The amplitude layout is the ground block for n = 0..n_max followed by
    the excited block for n = 0..n_max.
    """

    cutoff: FockCutoff
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2 * self.cutoff.dim,):
            raise DimensionMismatch(
                f"expected {2 * self.cutoff.dim} amplitudes, got shape {amps.shape}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def g_block(self) -> np.ndarray:
        return self.amplitudes[: self.cutoff.dim]

    @property
    def e_block(self) -> np.ndarray:
        return self.amplitudes[self.cutoff.dim :]


def jcm_propagate(s: AtomFieldState, kappa_t: float) -> AtomFieldState:
    """Apply the exact propagator at pulse area ``kappa_t`` = |kappa| t, block by block."""
    if not 0 <= kappa_t < math.inf:
        raise ValueError(f"kappa_t must be non-negative and finite, got {kappa_t}")
    dim = s.cutoff.dim
    g, e = s.g_block, s.e_block
    theta = np.sqrt(np.arange(1, dim)) * kappa_t
    c, sn = np.cos(theta), np.sin(theta)

    out = np.empty(2 * dim, dtype=np.complex128)
    out[0] = g[0]                       # N = 0 block
    out[2 * dim - 1] = e[dim - 1]       # orphan |e, n_max>, partner truncated
    # N = 1..n_max blocks on (|g,N>, |e,N-1>)
    out[1:dim] = c * g[1:] - 1j * sn * e[: dim - 1]
    out[dim : 2 * dim - 1] = -1j * sn * g[1:] + c * e[: dim - 1]
    return AtomFieldState(s.cutoff, out)


def ns_gate_times(kappa_abs: float, m: int) -> float:
    """Interaction time (2m+1) pi / (sqrt(2) kappa_abs) for the sign flip."""
    if m < 0:
        raise ValueError(f"m must be a non-negative integer, got {m}")
    if not 0 < kappa_abs < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa_abs}")
    try:
        half_turns = float(2 * m + 1)
    except OverflowError:  # an integer m beyond the float range
        raise ValueError("m must be within the float range") from None
    return half_turns * math.pi / (math.sqrt(2) * kappa_abs)


@lru_cache(maxsize=64)
def _heralded_propagation(m: int, cutoff: FockCutoff) -> AtomFieldState:
    """U(t_m) (|g> (x) sum_n |n>), cached per (m, cutoff).

    The ground block is the post-selected diagonal; the |1> sector gives
    c(m) in ``e_block[0]`` and d(m) in ``g_block[1]``.  The amplitudes are
    read-only, so every caller shares the one cached state.
    """
    start = AtomFieldState(cutoff, np.concatenate([np.ones(cutoff.dim), np.zeros(cutoff.dim)]))
    return jcm_propagate(start, ns_gate_times(1.0, m))


def cm_dm(m: int) -> tuple[complex, float]:
    """Leak amplitude c(m) and survival coefficient d(m) of the |1> sector.

    U(t_m)|g,1> = c(m)|e,0> + d(m)|g,1>, read from the propagator.
    """
    evolved = _heralded_propagation(m, FockCutoff(2))
    return complex(evolved.e_block[0]), float(evolved.g_block[1].real)


def ns_post_selected_diagonal(m: int, cutoff: int | FockCutoff) -> np.ndarray:
    """Diagonal photon-number action of the gate heralded on the atom in |g>.

    Entry n is <g,n| U(t_m) |g,n>, the factor by which post-selection on
    the ground state scales the photon amplitude on |n>.
    """
    return _heralded_propagation(m, as_cutoff(cutoff)).g_block


@dataclass(frozen=True)
class NSGateResult:
    """Post-selected gate output together with the herald probability."""

    output: MultiModeState
    success_probability: float


def ns_gate(
    input_state: MultiModeState, m: int, apply_compensating_phase: bool = False
) -> NSGateResult:
    """Run the atom-field protocol and post-select the atom in |g>.

    Scales the input by the post-selected diagonal of U(t_m), renormalizes,
    and optionally applies the (-1)^n compensator.  The success probability
    is the squared norm of the unnormalized projection.
    """
    if input_state.mode_count != 1:
        raise DimensionMismatch("the gate acts on a single-mode state")
    if not input_state.is_normalized:
        raise ValueError("input state must be normalized")
    surviving = input_state.amplitudes * _heralded_propagation(m, input_state.cutoff).g_block
    success_probability = float(np.vdot(surviving, surviving).real)
    if success_probability == 0.0:
        raise ZeroStateError("atom is never found in |g>; nothing to post-select")
    amps = surviving / math.sqrt(success_probability)
    if apply_compensating_phase:
        amps = amps * (-1.0) ** np.arange(input_state.cutoff.dim)
    return NSGateResult(input_state.with_amplitudes(amps), success_probability)


def table1() -> list[tuple[int, float, float]]:
    """Rows (m, |c(m)|^2, d(m)) for m = 0..4."""
    rows = []
    for m in range(5):
        c, d = cm_dm(m)
        rows.append((m, abs(c) ** 2, d))
    return rows
