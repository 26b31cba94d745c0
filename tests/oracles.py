"""Independent reference routes used by the test suite.

These deliberately avoid the package's own block/ladder constructions:
the atom-field propagator is rebuilt as a dense matrix exponential and the
splitter as an exact symbolic binomial expansion, so each checks the
production code through arithmetic it does not share.  The coherent
splitting-law check lives here too: only the tests use it.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from jcsim.fock import as_cutoff, coherent_state, tensor
from jcsim.linear_optics import BeamSplitterSpec, beam_splitter


def dense_propagator(n_max, kappa_abs, kappa_phase, t):
    """Matrix exponential of -i t (kappa sigma_+ a + conj(kappa) sigma_- a†).

    Laid out as the ground block then the excited block, matching
    AtomFieldState.amplitudes.
    """
    dim = n_max + 1
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    kappa = kappa_abs * np.exp(1j * kappa_phase)
    raise_atom = np.array([[0, 0], [1, 0]])  # |e><g| on basis (g, e)
    h = kappa * np.kron(raise_atom, a) + np.conj(kappa) * np.kron(
        raise_atom.T, a.conj().T
    )
    return expm(-1j * t * h)


def multinomial_oracle(n, m, dim):
    """Symbolic expansion of [(a1+a2)/sqrt2]^n [(a1-a2)/sqrt2]^m |0,0>.

    Exact binomial double sum: each output amplitude is summed in sympy
    arithmetic and evaluated to a float once, so cancelling terms leave no
    roundoff.  Occupations at or above ``dim`` are dropped, matching the
    truncation semantics of the simulator.
    """
    import sympy as sp

    prefactor = sp.Rational(1, 2) ** sp.Rational(n + m, 2) / sp.sqrt(
        sp.factorial(n) * sp.factorial(m)
    )
    sums = {}
    for k in range(n + 1):
        for l in range(m + 1):
            p = k + l
            q = n + m - k - l
            if p >= dim or q >= dim:
                continue
            coeff = (
                sp.binomial(n, k)
                * sp.binomial(m, l)
                * (-1) ** (m - l)
                * sp.sqrt(sp.factorial(p) * sp.factorial(q))
            )
            sums[p * dim + q] = sums.get(p * dim + q, 0) + coeff
    out = np.zeros(dim * dim, dtype=complex)
    for index, total in sums.items():
        out[index] = float(sp.N(prefactor * total, 30))
    return out


@dataclass(frozen=True)
class CoherentSplitReport:
    """Fock-space splitter output versus the closed-form coherent pair."""

    alpha_in: complex
    beta_in: complex
    predicted_plus: complex
    predicted_minus: complex
    deviation_norm: float


def coherent_bs_law_check(alpha, beta, cutoff=12):
    """Check the splitter sends |alpha>|beta> to |(a+b)/sqrt2>|(a-b)/sqrt2>.

    Returns the L2 deviation between the simulated two-mode output and the
    predicted coherent product; nonzero only through truncation.
    """
    cutoff = as_cutoff(cutoff)
    state = tensor(coherent_state(alpha, cutoff), coherent_state(beta, cutoff))
    out = beam_splitter(state, BeamSplitterSpec(0, 1))
    plus = (alpha + beta) / math.sqrt(2)
    minus = (alpha - beta) / math.sqrt(2)
    predicted = tensor(coherent_state(plus, cutoff), coherent_state(minus, cutoff))
    deviation = float(np.linalg.norm(out.amplitudes - predicted.amplitudes))
    return CoherentSplitReport(complex(alpha), complex(beta), plus, minus, deviation)
