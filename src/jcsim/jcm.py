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
gate is read from that one propagation.  :func:`_sign_shift_diagonal` adds
a lossless (-1)^n phase shifter, restoring the |1> sign, exactly when d(m) < 0
(as at m = 0, 3), for ``ns_gate`` and the sign-flip network alike.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .fock import FockCutoff, MultiModeState, as_cutoff


def jcm_propagate(
    ground: np.ndarray, excited: np.ndarray, kappa_t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the exact propagator at pulse area ``kappa_t`` = |kappa| t, block by block.

    ``ground`` and ``excited`` hold the |g,n> and |e,n> amplitudes for
    n = 0..n_max.  Returns the evolved (ground, excited) pair as read-only
    complex128 arrays.
    """
    g = np.asarray(ground, dtype=np.complex128)
    e = np.asarray(excited, dtype=np.complex128)
    if g.ndim != 1 or g.shape != e.shape or not g.size:
        raise ValueError(
            f"the ground and excited blocks must be equal-length non-empty 1-D arrays, "
            f"got shapes {g.shape} and {e.shape}"
        )
    if not 0 <= kappa_t < math.inf:
        raise ValueError(f"kappa_t must be non-negative and finite, got {kappa_t}")
    theta = np.sqrt(np.arange(1, g.size)) * kappa_t
    c, sn = np.cos(theta), np.sin(theta)

    g_out, e_out = np.empty_like(g), np.empty_like(e)
    g_out[0] = g[0]       # N = 0 block
    e_out[-1] = e[-1]     # orphan |e, n_max>, partner truncated
    # N = 1..n_max blocks on (|g,N>, |e,N-1>)
    g_out[1:] = c * g[1:] - 1j * sn * e[:-1]
    e_out[:-1] = -1j * sn * g[1:] + c * e[:-1]
    g_out.setflags(write=False)
    e_out.setflags(write=False)
    return g_out, e_out


#: Largest admitted m.  A large m loses the pulse area (2m+1) pi / sqrt(2)
#: to rounding: the two-photon entry is exactly -1 for every m < 7552414 but
#: reads -0.81 at m = 1e15, and 2**22 stays below the first miss.
MAX_M = 2**22


def ns_gate_times(kappa_abs: float, m: int) -> float:
    """Interaction time (2m+1) pi / (sqrt(2) kappa_abs) for the sign flip."""
    try:
        m = operator.index(m)  # refuses 2.5, 3.0, nan and "3"; takes np.int64
    except TypeError:
        raise ValueError(f"m must be a non-negative integer, got {m!r}") from None
    if not 0 <= m <= MAX_M:  # m itself is not formatted: str() refuses > 4300 digits
        raise ValueError(f"m must be an integer in [0, {MAX_M}]")
    if not 0 < kappa_abs < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa_abs}")
    return (2 * m + 1) * math.pi / (math.sqrt(2) * kappa_abs)


def _heralded_propagation(m: int, cutoff: FockCutoff) -> tuple[np.ndarray, np.ndarray]:
    """The (ground, excited) blocks of U(t_m) (|g> (x) sum_n |n>), one propagation at t_m.

    The ground block is the post-selected diagonal; the |1> sector gives
    c(m) in ``excited[0]`` and d(m) in ``ground[1]``.
    """
    return jcm_propagate(np.ones(cutoff.dim), np.zeros(cutoff.dim), ns_gate_times(1.0, m))


def cm_dm(m: int) -> tuple[complex, float]:
    """Leak amplitude c(m) and survival coefficient d(m) of the |1> sector.

    U(t_m)|g,1> = c(m)|e,0> + d(m)|g,1>, read from the propagator.
    """
    ground, excited = _heralded_propagation(m, FockCutoff(2))
    return complex(excited[0]), float(ground[1].real)


def ns_post_selected_diagonal(m: int, cutoff: int | FockCutoff) -> np.ndarray:
    """Diagonal photon-number action of the gate heralded on the atom in |g>.

    Entry n is <g,n| U(t_m) |g,n>, the factor by which post-selection on
    the ground state scales the photon amplitude on |n>.
    """
    return _heralded_propagation(m, as_cutoff(cutoff))[0]


def _sign_shift_diagonal(ns_mode: str, m: int, cutoff: FockCutoff) -> np.ndarray:
    """The sign-shift gate's post-selected action s[n] on photon number n = 0..n_max.

    ``"ideal"`` is (1, 1, -1, 1, ...).  ``"jcm"`` is the heralded cavity's
    diagonal <g,n| U(t_m) |g,n>, times the (-1)^n compensator when
    d(m) = s[1] < 0; it is real, as the propagator runs at coupling phase 0.
    The network folds s into its real blocks, so a diagonal with a nonzero
    imaginary part is refused, not truncated.  Any other ``ns_mode`` is
    refused too.
    """
    if ns_mode == "ideal":
        diag = np.ones(cutoff.dim)
        diag[2] = -1.0
        return diag
    if ns_mode != "jcm":
        raise ValueError(f"ns_mode must be 'ideal' or 'jcm', got {ns_mode!r}")
    heralded = ns_post_selected_diagonal(m, cutoff)
    if np.any(heralded.imag):
        raise ValueError("the sign-shift diagonal is complex; the network folds only a real one")
    diag = heralded.real
    if diag[1] < 0:  # d(m) < 0
        diag = diag * (-1.0) ** np.arange(cutoff.dim)
    return diag


def ns_gate(
    input_state: MultiModeState, m: int, apply_compensating_phase: bool = False
) -> tuple[MultiModeState, float]:
    """Run the atom-field protocol and post-select the atom in |g>.

    Scales the input by the post-selected diagonal of U(t_m), sign-corrected
    by :func:`_sign_shift_diagonal` if asked, and renormalizes.  Returns the
    output state and the herald probability, the squared norm of the
    unnormalized projection.
    """
    if input_state.mode_count != 1:
        raise ValueError("the gate acts on a single-mode state")
    if not input_state.is_normalized:
        raise ValueError("input state must be normalized")
    if apply_compensating_phase:
        diag = _sign_shift_diagonal("jcm", m, input_state.cutoff)
    else:
        diag = ns_post_selected_diagonal(m, input_state.cutoff)
    surviving = input_state.amplitudes * diag
    success_probability = float(np.vdot(surviving, surviving).real)
    if success_probability == 0.0:
        raise ValueError("atom is never found in |g>; nothing to post-select")
    amps = surviving / math.sqrt(success_probability)
    return input_state.with_amplitudes(amps), success_probability


def table1() -> list[tuple[int, float, float]]:
    """Rows (m, |c(m)|^2, d(m)) for m = 0..4."""
    rows = []
    for m in range(5):
        c, d = cm_dm(m)
        rows.append((m, abs(c) ** 2, d))
    return rows
