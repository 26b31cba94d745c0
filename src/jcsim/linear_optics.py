"""Mode-wise linear optics on number states and the dual-rail sign-flip net.

Beam splitter convention (fixed throughout): the splitter mixes the
leading pair of modes, 0 and 1, and their creation operators transform as

    a_0†  ->  (a_0† + a_1†) / sqrt(2),
    a_1†  ->  (a_0† - a_1†) / sqrt(2),

i.e. the symmetric real 50:50 mixing; any further modes are spectators.
This single-particle matrix is a Hadamard, so the induced Fock-space unitary
is real, symmetric, and its own inverse: applying the splitter twice is the
identity.

The splitter conserves the pair's total photon number N = n_0 + n_1, so it
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
with the flat pair index n_0 dim + n_1 of each slot and a view of each
sector's block.  The pair leads the state, so a splitter pass reads it as
(pair, rest) with no transpose: it gathers the kept pairs into a real
(row, slot, rest) stack, multiplies, and scatters the kept slots into a
fresh zeroed state, whose zeros are the amplitudes above n_max.

A dual-rail qubit stores one photon across a pair of paths:
|0bar> = |0>|1> and |1bar> = |1>|0>.  The conditional sign-flip network
mixes the two "1" rails on a 50:50 splitter, applies a sign-shift gate to
each, and unmixes with the same splitter, negating exactly the
|1bar>|1bar> amplitude.  All three steps act on the (x1, y1) pair alone and
conserve its photon number, so the network multiplies each sector where it
lies in the state, with no gather and no scatter: the first splitter, with
the sign shifts as a factor per output row of each block, writes every
sector into one compact buffer of the kept pairs; its squared norm is the
herald probability; the second splitter, scaled by 1/sqrt of it, writes
each sector from that buffer into a fresh zeroed state.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from . import jcm
from .fock import FockCutoff, MultiModeState, number_state


def _sector_blocks(max_total: int) -> Iterator[np.ndarray]:
    """Yield the exact splitter block of each sector N = 0..max_total.

    Block N acts on the basis |p, N - p>, p = 0..N.  Peeling one photon off
    each side, N |p, q> = sqrt(p) a_0†|p-1, q> + sqrt(q) a_1†|p, q-1>, and
    the splitter maps a_0†, a_1† to (a_0† +- a_1†)/sqrt(2), so block N is
    V (block N-1 (x) H) V†, with H the one-photon Hadamard and V the
    photon-adding map, V V† = 1.  That step cannot amplify earlier rounding,
    so the error grows only linearly in N, unlike building columns from the
    vacuum with creation operators alone.
    """
    # Block N - 1 sits at [1:N+1, 1:N+1] of one zeroed buffer.  Blocks grow,
    # so row and column N + 1 are still zero when block N reads them.
    framed = np.zeros((max_total + 2, max_total + 2))
    block = np.ones((1, 1))
    yield block
    for total in range(1, max_total + 1):
        p = np.arange(total + 1)
        on_i, on_j = np.sqrt(p), np.sqrt(total - p)
        framed[1 : total + 1, 1 : total + 1] = block
        prev = framed[: total + 2, : total + 2]  # prev[p' + 1, p + 1] = previous block[p', p]
        block = (
            on_i * (on_i[:, None] * prev[:-1, :-1] + on_j[:, None] * prev[1:, :-1])
            + on_j * (on_i[:, None] * prev[:-1, 1:] - on_j[:, None] * prev[1:, 1:])
        ) / (total * math.sqrt(2))
        yield block


@lru_cache(maxsize=4)
def _splitter_blocks(dim: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Folded splitter blocks, the flat pair index of their slots, and each sector's block.

    ``blocks[r, out, in]`` acts on row r, the amplitudes of the pairs
    ``pairs[r, s]`` over slots s = 0..dim, where pair |p, q> has flat index
    p dim + q.  Sector N <= n_max / 2 sits in row N from slot 0, sector
    N > n_max / 2 in row n_max - N from slot n_max - N + 1, each with its
    exact block; its pairs |p, N - p> are N + n_max p, p = 0..N.  Pad slots,
    the tail of the last row when n_max is even, hold index 0, gather |0, 0>
    and meet zero rows and columns.  ``sectors[N]`` is sector N's block
    where the fold put it, a view into ``blocks``, acting on |p, N - p>,
    p = 0..N.  Every array is read-only.

    The blocks take about 4 dim^3 bytes; the sector views add none.  No
    caller uses more than three dimensions, and the cache keeps four: at the
    CLI's largest admitted n_max, 110, that is at most 4 x 5.6 MB, about
    22 MB.
    """
    n_max = dim - 1
    row_count = (dim + 1) // 2
    blocks = np.zeros((row_count, dim + 1, dim + 1))
    pairs = np.zeros((row_count, dim + 1), dtype=np.intp)
    sectors = []
    for total, block in enumerate(_sector_blocks(n_max)):
        row, start = (total, 0) if 2 * total <= n_max else (n_max - total, dim - total)
        kept = slice(start, start + total + 1)
        sectors.append(blocks[row, kept, kept])
        sectors[-1][...] = block
        pairs[row, kept] = total + n_max * np.arange(total + 1)
    for array in (blocks, pairs, *sectors):
        array.setflags(write=False)
    return blocks, pairs, tuple(sectors)


def beam_splitter(s: MultiModeState) -> MultiModeState:
    """Apply the 50:50 splitter to modes (0, 1); mode 0 carries the plus arm.

    The state is read as (pair, rest), the pair flattened to n_0 dim + n_1
    and the later modes to rest.  The kept pairs are gathered into a real
    (row, slot, rest) stack, the blocks being real so they mix real and
    imaginary parts as separate columns; one batched product rotates every
    row, and the first dim (dim + 1) / 2 slots, read flat, are scattered
    into a fresh zeroed state.  Pads are dropped, and every pair above n_max
    keeps the allocation's zero.
    """
    if s.mode_count < 2:
        raise ValueError(f"the splitter mixes modes 0 and 1, got {s.mode_count} mode")
    dim = s.cutoff.dim
    blocks, pairs, _ = _splitter_blocks(dim)
    rows = blocks @ s.amplitudes.reshape(dim * dim, -1)[pairs].view(np.float64)
    kept = dim * (dim + 1) // 2
    out = np.zeros(s.amplitudes.size, dtype=np.complex128)
    mixed = rows.view(np.complex128).reshape(pairs.size, -1)
    out.reshape(dim * dim, -1)[pairs.reshape(-1)[:kept]] = mixed[:kept]
    return s.with_amplitudes(out)


# -- conditional sign flip ---------------------------------------------------

#: Rail occupations of logical bit b: |0bar> = |0>|1>, |1bar> = |1>|0>.
_RAILS = ((0, 1), (1, 0))


def logical_basis_state(j: int, k: int, cutoff: int | FockCutoff) -> MultiModeState:
    """|jbar>|kbar> on the four-mode register (x1, x2, y1, y2)."""
    if j not in (0, 1) or k not in (0, 1):
        raise ValueError("logical labels must be 0 or 1")
    return number_state(_RAILS[j] + _RAILS[k], cutoff)


def _sector_view(amplitudes: np.ndarray, dim: int, total: int) -> np.ndarray:
    """Sector N = ``total`` of a four-mode register's (x1, y1) pair, as a view.

    A float64 view of the flat ``amplitudes``, indexed (x2, p, y2 re/im):
    element [x2, p, 2 y2 + c] is the real (c = 0) or imaginary (c = 1) part
    of |p, x2, N - p, y2>.  Raising p moves x1 up and y1 down, a step of
    dim^3 - dim amplitudes, so each [x2] core is an (N + 1) x 2 dim matrix
    with unit inner stride that BLAS reads and writes in place.  The buffer
    checks the view's bounds.
    """
    return np.ndarray(
        (dim, total + 1, 2 * dim),
        np.float64,
        amplitudes,
        16 * total * dim,
        (16 * dim**2, 16 * (dim**3 - dim), 8),
    )


def csf_gate(
    s: MultiModeState, ns_mode: str = "ideal", m: int = 3
) -> tuple[MultiModeState, float]:
    """Conditional sign flip on two dual-rail qubits (modes x1,x2,y1,y2).

    Splitter on (x1, y1), a sign-shift gate on each of x1 and y1, then the
    same splitter again (it is its own inverse).  ``ns_mode`` selects, through
    :func:`jcm._sign_shift_diagonal`, the exact gate (``"ideal"``) or the
    atom-heralded realization (``"jcm"``) at integer index ``m`` >= 0; in
    the latter case both atoms must be found in |g> and the returned
    probability is the compound herald probability.  Input mass
    with n_x1 + n_y1 > n_max lies outside the model: the first splitter cuts
    it, so the probability is at most 1 minus that mass, and equal to it for
    the ideal gate.  The heralded gate is ``jcm.ns_gate`` with its compensator,
    the (-1)^n shifter whenever d(m) < 0, so the logical signs hold at every m.

    The network multiplies each sector N of the (x1, y1) pair where it lies
    (see :func:`_sector_view`).  The first splitter's blocks, their output
    rows scaled by the two sign-shift diagonals, write every sector into its
    slice of one compact buffer of the kept pairs, about half a state, so the
    sign shifts cost no pass over the state.  The squared norm of that buffer
    is the herald probability.  The second splitter, its blocks scaled by
    1/sqrt of that probability, writes each slice into the same sector of a
    fresh zeroed state, whose zeros are the pairs above n_max.  A call peaks
    near 1.5 state-sized buffers.
    """
    if s.mode_count != 4:
        raise ValueError("the network acts on four modes (x1, x2, y1, y2)")
    if not s.is_normalized:
        raise ValueError("input state must be normalized")
    diag = jcm._sign_shift_diagonal(ns_mode, m, s.cutoff)
    dim = s.cutoff.dim
    *_, sectors = _splitter_blocks(dim)
    mixed = np.empty(dim**3 * (dim + 1))
    parts = []
    for total, block in enumerate(sectors):
        start = dim**2 * total * (total + 1)  # 2 dim^2 (0 + 1 + ... + total)
        part = mixed[start : start + 2 * dim**2 * (total + 1)].reshape(dim, total + 1, 2 * dim)
        shift = diag[: total + 1] * diag[total::-1]  # s[p] s[N - p]
        np.matmul(block * shift[:, None], _sector_view(s.amplitudes, dim, total), out=part)
        parts.append(part)
    # a fixed-order sum that calls no BLAS: np.vdot splits it across threads
    success_probability = float(np.einsum("i,i->", mixed, mixed))
    if success_probability == 0.0:
        raise ValueError("nothing survives the cutoff and the sign-shift heralds")
    root = math.sqrt(success_probability)
    out = np.zeros(dim**4, dtype=np.complex128)
    for total, (block, part) in enumerate(zip(sectors, parts)):
        np.matmul(block / root, part, out=_sector_view(out, dim, total))
    return s.with_amplitudes(out), success_probability


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
