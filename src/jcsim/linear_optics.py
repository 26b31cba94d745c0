"""Mode-wise linear optics on number states and the dual-rail sign-flip net.

Beam splitter convention (fixed throughout): the creation operators of the
two addressed modes transform as

    a_i†  ->  (a_i† + a_j†) / sqrt(2),
    a_j†  ->  (a_i† - a_j†) / sqrt(2),

i.e. the symmetric real 50:50 mixing.  This single-particle matrix is a
Hadamard, so the induced Fock-space unitary is real, symmetric, and its own
inverse: applying the splitter twice is the identity.  Truncation means the
exact splitter acts on |n, m> and each mode is then cut at n_max, so the
result is exact whenever the input's total photon number is at most n_max.

The splitter conserves the total photon number N, so it acts as one block
per sector.  The two-mode grid is read in rows of fixed (p + q) mod dim,
dim = n_max + 1: sector N (p = 0..N) and sector N + dim (p = N+1..n_max)
together hold exactly dim amplitudes, so one batched matmul over dim
blocks of dim x dim needs no buffer larger than the state.

A dual-rail qubit stores one photon across a pair of paths:
|0bar> = |0>|1> and |1bar> = |1>|0>.  The conditional sign-flip network
mixes the two "1" rails on a 50:50 splitter, applies a sign-shift gate to
each, and unmixes with the same splitter, negating exactly the
|1bar>|1bar> amplitude.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from . import jcm
from .errors import DimensionMismatch, ModeIndexOutOfRange
from .fock import FockCutoff, MultiModeState, number_state, renormalize


def _sector_blocks(max_total: int) -> Iterator[np.ndarray]:
    """Yield the exact splitter block of each sector N = 0..max_total.

    Block N acts on the basis |p, N - p>, p = 0..N.  Peeling one photon off
    each side, N |p, q> = sqrt(p) a_i†|p-1, q> + sqrt(q) a_j†|p, q-1>, and
    the splitter maps a_i†, a_j† to (a_i† +- a_j†)/sqrt(2), so block N is
    V (block N-1 (x) H) V†, with H the one-photon Hadamard and V the
    photon-adding map, V V† = 1.  That step cannot amplify earlier rounding,
    so the error grows only linearly in N, unlike building columns from the
    vacuum with creation operators alone.
    """
    block = np.ones((1, 1))
    yield block
    for total in range(1, max_total + 1):
        p = np.arange(total + 1)
        on_i, on_j = np.sqrt(p), np.sqrt(total - p)
        prev = np.pad(block, 1)  # prev[p' + 1, p + 1] = previous block[p', p]
        block = (
            on_i * (on_i[:, None] * prev[:-1, :-1] + on_j[:, None] * prev[1:, :-1])
            + on_j * (on_i[:, None] * prev[:-1, 1:] - on_j[:, None] * prev[1:, 1:])
        ) / (total * math.sqrt(2))
        yield block


@lru_cache(maxsize=8)
def _splitter_blocks(dim: int) -> np.ndarray:
    """Per-row splitter blocks, ``blocks[r, p_out, p_in]`` on rows (p + q) % dim = r.

    Row r holds sector r (p = 0..r) and sector r + dim (p = r+1..dim-1),
    each cut to the occupations p, N - p < dim that the state can hold.
    """
    blocks = np.zeros((dim, dim, dim))
    for total, block in enumerate(_sector_blocks(2 * dim - 2)):
        lo, hi = max(0, total - dim + 1), min(total, dim - 1) + 1
        blocks[total % dim, lo:hi, lo:hi] = block[lo:hi, lo:hi]
    blocks.setflags(write=False)
    return blocks


def beam_splitter(s: MultiModeState, mode_i: int, mode_j: int) -> MultiModeState:
    """Apply the 50:50 splitter to modes (mode_i, mode_j); mode_i carries the plus arm."""
    for mode in (mode_i, mode_j):
        if not 0 <= mode < s.mode_count:
            raise ModeIndexOutOfRange(f"mode {mode} outside [0, {s.mode_count - 1}]")
    if mode_i == mode_j:
        raise ValueError("beam splitter needs two distinct modes")
    dim = s.cutoff.dim
    p = np.arange(dim)
    q = (p[:, None] - p) % dim  # row r, slot p addresses |p, q[r, p]>
    pair = (mode_i, mode_j)
    tens = np.moveaxis(s.as_tensor(), pair, (0, 1))
    # The blocks are real, so they mix real and imaginary parts as separate columns.
    mixed = _splitter_blocks(dim) @ tens[p, q].reshape(dim, dim, -1).view(np.float64)
    out = np.empty_like(s.as_tensor())
    np.moveaxis(out, pair, (0, 1))[p, q] = mixed.view(np.complex128).reshape(tens.shape)
    return s.with_amplitudes(out.reshape(-1))


# -- conditional sign flip ---------------------------------------------------

#: Rail occupations of logical bit b: |0bar> = |0>|1>, |1bar> = |1>|0>.
_RAILS = ((0, 1), (1, 0))

# Modes x1 and y1 of the two-qubit register (x1, x2, y1, y2).
_RAIL_X1, _RAIL_Y1 = 0, 2


def logical_basis_state(j: int, k: int, cutoff: int | FockCutoff = 12) -> MultiModeState:
    """|jbar>|kbar> on the four-mode register (x1, x2, y1, y2)."""
    if j not in (0, 1) or k not in (0, 1):
        raise ValueError("logical labels must be 0 or 1")
    return number_state(_RAILS[j] + _RAILS[k], cutoff)


def csf_gate(
    s: MultiModeState, ns_mode: str = "ideal", m: int = 3
) -> tuple[MultiModeState, float]:
    """Conditional sign flip on two dual-rail qubits (modes x1,x2,y1,y2).

    Splitter on (x1, y1), a sign-shift gate on each of x1 and y1, then the
    same splitter again (it is its own inverse).  ``ns_mode`` selects the
    exact gate (``"ideal"``) or the atom-heralded realization (``"jcm"``) at
    index ``m`` >= 0; in the latter case both atoms must be found in |g> and
    the returned probability is the compound herald probability (1 for the
    ideal gate).  The heralded gate includes the compensating (-1)^n phase
    shifter whenever d(m) < 0, so the logical signs hold at every m.
    """
    if s.mode_count != 4:
        raise DimensionMismatch("the network acts on four modes (x1, x2, y1, y2)")
    if not s.is_normalized:
        raise ValueError("input state must be normalized")
    dim = s.cutoff.dim

    if ns_mode == "ideal":
        diag = np.ones(dim, dtype=np.complex128)
        diag[2] = -1.0
    elif ns_mode == "jcm":
        diag = jcm.ns_post_selected_diagonal(m, s.cutoff)
        if diag[1].real < 0:  # d(m) < 0
            diag = diag * (-1.0) ** np.arange(dim)
    else:
        raise ValueError(f"ns_mode must be 'ideal' or 'jcm', got {ns_mode!r}")

    out = beam_splitter(s, _RAIL_X1, _RAIL_Y1)
    tens = out.as_tensor() * diag[:, None, None, None] * diag[None, None, :, None]
    out = out.with_amplitudes(tens.reshape(-1))
    success_probability = out.norm_squared()
    out = renormalize(out)
    out = beam_splitter(out, _RAIL_X1, _RAIL_Y1)
    return out, float(success_probability)


def csf_truth_table(
    ns_mode: str = "ideal", m: int = 3, cutoff: int | FockCutoff = 6
) -> list[dict]:
    """Gate action on the four logical basis states, with herald probabilities."""
    rows = []
    for j in (0, 1):
        for k in (0, 1):
            state_in = logical_basis_state(j, k, cutoff)
            state_out, probability = csf_gate(state_in, ns_mode=ns_mode, m=m)
            amplitudes = {
                f"{a}{b}": state_out.amplitude(_RAILS[a] + _RAILS[b])
                for a in (0, 1)
                for b in (0, 1)
            }
            kept = sum(abs(z) ** 2 for z in amplitudes.values())
            rows.append(
                {
                    "input": f"{j}{k}",
                    "amplitudes": amplitudes,
                    "success_probability": probability,
                    "leakage": max(0.0, state_out.norm_squared() - kept),
                }
            )
    return rows
