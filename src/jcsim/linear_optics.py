"""Mode-wise linear optics on number states and the dual-rail sign-flip net.

Beam splitter convention (fixed throughout): the creation operators of the
two addressed modes transform as

    a_i†  ->  (a_i† + a_j†) / sqrt(2),
    a_j†  ->  (a_i† - a_j†) / sqrt(2),

i.e. the symmetric real 50:50 mixing.  This single-particle matrix is a
Hadamard, so the induced Fock-space unitary is real, symmetric, and its own
inverse: applying the splitter twice is the identity.

The splitter conserves the pair's total photon number N = n_i + n_j, so it
acts as one SU(2) rotation per sector (Campos, Saleh & Teich, PRA 40, 1371
(1989)).  Truncation has one meaning: a splitter keeps the pair's sectors
N <= n_max, rotates each of them exactly, and sets every amplitude with
N > n_max to zero.  On the kept sectors it is the exact unitary, so it keeps
their norm and applying it twice is the projection onto N <= n_max.  The
pair's mass above n_max is cut by the first splitter that meets it; a later
splitter on the same pair cuts nothing more.

The blocks are stored folded, so that only the kept sectors are gathered,
mixed and carried.  With dim = n_max + 1 there are ceil(dim / 2) rows of
dim + 1 slots: row r holds sector r in slots 0..r and sector n_max - r
in slots r+1..n_max+1, so the two sectors fill the row exactly.  When n_max
is even the lone middle sector n_max / 2 leaves padding at the tail of the
last row, and pad slots meet zero rows and columns.  One batched matmul over
the rows rotates every kept sector; the first dim (dim + 1) / 2 slots, read
flat, are the kept pairs, each once.  The blocks are cached per dim together
with the (p, q) indices that gather each row.  A pass gathers the kept pairs
into a real (row, slot, rest) stack, multiplies, and scatters the kept slots
into a fresh zeroed state, whose zeros are the amplitudes above n_max.

A dual-rail qubit stores one photon across a pair of paths:
|0bar> = |0>|1> and |1bar> = |1>|0>.  The conditional sign-flip network
mixes the two "1" rails on a 50:50 splitter, applies a sign-shift gate to
each, and unmixes with the same splitter, negating exactly the
|1bar>|1bar> amplitude.  All three steps act on the (x1, y1) pair alone and
conserve its photon number, so the network is one pass: one gather, the
first splitter with the sign shifts folded into its blocks as a factor per
(row, slot), the herald probability, the second splitter with the 1/sqrt
scaling folded into its blocks, and one scatter into a fresh state.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from . import jcm
from .errors import DimensionMismatch, ModeIndexOutOfRange, ZeroStateError
from .fock import FockCutoff, MultiModeState, number_state


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


@lru_cache(maxsize=4)
def _splitter_blocks(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Folded splitter blocks and the gather indices (p, q) of their slots.

    ``blocks[r, out, in]`` acts on row r, the amplitudes |p[r, s], q[r, s]>
    over slots s = 0..dim.  Sector N <= n_max / 2 sits in row N from slot 0,
    sector N > n_max / 2 in row n_max - N from slot n_max - N + 1, each with
    its exact block.  Pad slots, the tail of the last row when n_max is even,
    gather |0, 0> and meet zero rows and columns.  All three arrays are
    read-only.

    The blocks take about 4 dim^3 bytes.  No caller uses more than three
    dimensions, and the cache keeps four: at the CLI's largest admitted
    n_max, 202, that is at most 4 x 34 MB, about 136 MB.
    """
    n_max = dim - 1
    row_count = (dim + 1) // 2
    blocks = np.zeros((row_count, dim + 1, dim + 1))
    p = np.zeros((row_count, dim + 1), dtype=np.intp)
    q = np.zeros((row_count, dim + 1), dtype=np.intp)
    for total, block in enumerate(_sector_blocks(n_max)):
        row, start = (total, 0) if 2 * total <= n_max else (n_max - total, dim - total)
        kept = slice(start, start + total + 1)
        blocks[row, kept, kept] = block
        p[row, kept] = np.arange(total + 1)
        q[row, kept] = total - p[row, kept]
    for array in (blocks, p, q):
        array.setflags(write=False)
    return blocks, p, q


def _pair_axes(mode_count: int, mode_i: int, mode_j: int) -> tuple[int, ...]:
    """Axis order with the addressed pair first, then the other modes in order."""
    return (mode_i, mode_j, *(k for k in range(mode_count) if k not in (mode_i, mode_j)))


def _gather(s: MultiModeState, axes: tuple[int, ...], p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The pair's kept amplitudes as a real (row, slot, rest) stack, a new buffer.

    Slot s of row r holds |p[r, s], q[r, s]> of the pair, over every
    occupation of the other modes; pairs above n_max are never read.  The
    blocks are real, so they mix real and imaginary parts as separate
    columns.
    """
    return s.as_tensor().transpose(axes)[p, q].reshape(*p.shape, -1).view(np.float64)


def _scatter(
    s: MultiModeState, axes: tuple[int, ...], p: np.ndarray, q: np.ndarray, rows: np.ndarray
) -> MultiModeState:
    """New state shaped like ``s`` holding ``rows``, laid out as :func:`_gather` reads them.

    The first dim (dim + 1) / 2 slots, read flat, are written into a fresh
    zeroed state; the pads are dropped, and every pair above n_max keeps the
    allocation's zero.
    """
    dim = s.cutoff.dim
    kept = dim * (dim + 1) // 2
    out = np.zeros(s.as_tensor().shape, dtype=np.complex128)
    pair_first = out.transpose(axes)
    flat = rows.view(np.complex128).reshape(p.size, *pair_first.shape[2:])
    pair_first[p.reshape(-1)[:kept], q.reshape(-1)[:kept]] = flat[:kept]
    return s.with_amplitudes(out.reshape(-1))


def beam_splitter(s: MultiModeState, mode_i: int, mode_j: int) -> MultiModeState:
    """Apply the 50:50 splitter to modes (mode_i, mode_j); mode_i carries the plus arm."""
    for mode in (mode_i, mode_j):
        if not 0 <= mode < s.mode_count:
            raise ModeIndexOutOfRange(f"mode {mode} outside [0, {s.mode_count - 1}]")
    if mode_i == mode_j:
        raise ValueError("beam splitter needs two distinct modes")
    blocks, p, q = _splitter_blocks(s.cutoff.dim)
    axes = _pair_axes(s.mode_count, mode_i, mode_j)
    return _scatter(s, axes, p, q, blocks @ _gather(s, axes, p, q))


# -- conditional sign flip ---------------------------------------------------

#: Rail occupations of logical bit b: |0bar> = |0>|1>, |1bar> = |1>|0>.
_RAILS = ((0, 1), (1, 0))

# The pair (x1, y1) of the two-qubit register (x1, x2, y1, y2) first, then x2, y2.
_CSF_AXES = _pair_axes(4, 0, 2)


def logical_basis_state(j: int, k: int, cutoff: int | FockCutoff) -> MultiModeState:
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
    the returned probability is the compound herald probability.  Input mass
    with n_x1 + n_y1 > n_max lies outside the model: the first splitter cuts
    it, so the probability is at most 1 minus that mass, and equal to it for
    the ideal gate.  The heralded gate includes the compensating (-1)^n phase
    shifter whenever d(m) < 0, so the logical signs hold at every m.

    The network runs as one pass over the (x1, y1) pair: its kept sectors
    are gathered once into the splitter's folded rows and mixed by blocks
    whose output slots carry the two sign-shift diagonals (slot s of row r
    holds |p[r, s], q[r, s]>), so the sign shifts cost no pass over the
    state.  The squared norm of the mixed rows is the herald probability.
    The second splitter runs with its blocks scaled by 1/sqrt of that
    probability, into the gathered buffer, the mixed buffer is freed, and
    the rows are scattered once into a fresh state.  Each row stack is about
    half a state, so a call peaks near 1.5 state-sized buffers.
    """
    if s.mode_count != 4:
        raise DimensionMismatch("the network acts on four modes (x1, x2, y1, y2)")
    if not s.is_normalized:
        raise ValueError("input state must be normalized")
    dim = s.cutoff.dim

    if ns_mode == "ideal":
        diag = np.ones(dim)
        diag[2] = -1.0
    elif ns_mode == "jcm":
        # real at coupling phase 0, so it scales the real stack directly
        diag = jcm.ns_post_selected_diagonal(m, s.cutoff).real
        if diag[1] < 0:  # d(m) < 0
            diag = diag * (-1.0) ** np.arange(dim)
    else:
        raise ValueError(f"ns_mode must be 'ideal' or 'jcm', got {ns_mode!r}")

    blocks, p, q = _splitter_blocks(dim)
    rows = _gather(s, _CSF_AXES, p, q)
    mixed = (blocks * (diag[p] * diag[q])[:, :, None]) @ rows
    success_probability = float(np.vdot(mixed, mixed))
    if success_probability == 0.0:
        raise ZeroStateError("nothing survives the cutoff and the sign-shift heralds")
    np.matmul(blocks / math.sqrt(success_probability), mixed, out=rows)
    del mixed
    return _scatter(s, _CSF_AXES, p, q, rows), success_probability


def csf_truth_table(ns_mode: str = "ideal", m: int = 3) -> list[dict]:
    """Gate action on the four logical basis states, with herald probabilities.

    Exact at n_max 2, the smallest cutoff: each input holds at most two
    photons on (x1, y1), and every stage conserves that pair's photon number.
    """
    rows = []
    for j in (0, 1):
        for k in (0, 1):
            state_in = logical_basis_state(j, k, 2)
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
