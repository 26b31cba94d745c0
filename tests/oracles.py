"""Independent reference routes used by the test suite.

These deliberately avoid the package's own block/ladder constructions:
the atom-field propagator is rebuilt as a dense matrix exponential, the
heralded gate's action as the closed-form cosine and sine of the gate
angle, the splitter as an exact symbolic binomial expansion per sector, the
sign-flip network as three separate passes over the whole state (on the
package's sign-shift diagonal, which the tests hold to the closed form on
its own), and the Mach-Zehnder both as its splitter, phase and splitter run
in turn at each theta and as the closed form of a coherent reference, which
runs no splitter, so each checks the production code through arithmetic it
does not share.  Coherent amplitudes are evaluated in 50-digit ``mpmath``
from the power and factorial the package's running product avoids.  The
coherent splitting-law check and ``renormalize`` live here too: only the
tests use them.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np
from scipy.linalg import expm

from jcsim.fock import as_cutoff, coherent_state, tensor
from jcsim.jcm import _sign_shift_diagonal
from jcsim.linear_optics import beam_splitter


def renormalize(s):
    """``s`` scaled to unit norm, direction and global phase kept."""
    norm = math.sqrt(s.norm_squared())
    if norm == 0.0:
        raise ValueError("cannot renormalize the zero vector")
    return s.with_amplitudes(s.amplitudes / norm)


def coherent_amplitudes_mp(alpha, n_max):
    """exp(-|alpha|^2/2) alpha^n / sqrt(n!) for n <= n_max, as 50-digit ``mpc`` values."""
    with mpmath.workdps(50):
        a = mpmath.mpc(complex(alpha))
        weight = mpmath.exp(-abs(a) ** 2 / 2)
        return [+(weight * a**n / mpmath.sqrt(mpmath.factorial(n))) for n in range(n_max + 1)]


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


def ns_diagonal_closed_form(m, n_max):
    """<g,n| U(t_m) |g,n> = cos(sqrt(n) (2m+1) pi / sqrt(2)) for n = 0..n_max."""
    n = np.arange(n_max + 1)
    return np.cos(np.sqrt(n) * (2 * m + 1) * math.pi / math.sqrt(2))


def cm_dm_closed_form(m):
    """(c(m), d(m)) with U(t_m)|g,1> = c(m)|e,0> + d(m)|g,1>, at coupling phase 0."""
    angle = (2 * m + 1) * math.pi / math.sqrt(2)
    return -1j * math.sin(angle), math.cos(angle)


def csf_composed_reference(s, ns_mode="ideal", m=3):
    """The sign-flip network as separate passes over the whole 4-mode state.

    ``beam_splitter`` on (x1, y1), the package's sign-shift diagonal on
    each of x1 and y1 of the tensor, ``renormalize``, then ``beam_splitter``
    again.  The splitter mixes the leading pair, so axes 1 and 2 are swapped
    around each splitter to bring (x1, y1) to the front.  Returns the output
    state and the herald probability, the squared norm before renormalizing.
    The diagonal itself is checked against :func:`ns_diagonal_closed_form`
    on its own.
    """

    def split_x1_y1(state):
        front = state.with_amplitudes(state.as_tensor().swapaxes(1, 2).reshape(-1))
        return state.with_amplitudes(beam_splitter(front).as_tensor().swapaxes(1, 2).reshape(-1))

    diag = _sign_shift_diagonal(ns_mode, m, s.cutoff)
    out = split_x1_y1(s)
    tens = out.as_tensor() * diag[:, None, None, None] * diag[None, None, :, None]
    out = out.with_amplitudes(tens.reshape(-1))
    probability = out.norm_squared()
    return split_x1_y1(renormalize(out)), probability


def mach_zehnder_chain(input_a1, alpha, theta):
    """The Mach-Zehnder's three elements run in turn at one theta.

    ``beam_splitter`` on the input and a fresh |alpha>, the phase
    e^{i n theta} on mode 0's n photons, then ``beam_splitter`` again.
    """
    cutoff = input_a1.cutoff
    first = beam_splitter(tensor(input_a1, coherent_state(alpha, cutoff)))
    phases = np.exp(1j * theta * np.arange(cutoff.dim))
    tens = first.as_tensor() * phases[:, None]
    return beam_splitter(first.with_amplitudes(tens.reshape(-1)))


def _displacement_ladder(beta, dim):
    """M[a, i] = beta^(a-i) sqrt(a!/i!) / (a-i)! for a >= i, 0 above the diagonal.

    Built down each column by M[a+1, i] = M[a, i] beta sqrt(a+1) / (a+1-i),
    so no factorial is formed.
    """
    ladder = np.zeros((dim, dim), dtype=complex)
    ladder[0, 0] = 1.0
    for a in range(dim - 1):
        i = np.arange(a + 1)
        ladder[a + 1, : a + 1] = ladder[a, : a + 1] * beta * math.sqrt(a + 1) / (a + 1 - i)
        ladder[a + 1, a + 1] = 1.0
    return ladder


def mach_zehnder_closed_form(input_a1, alpha, theta):
    """The Mach-Zehnder output from the closed form of its coherent reference.

    With u, v = (e^{i theta} +- 1)/2 the interferometer maps a0† to
    u a0† + v a1† and a1† to v a0† + u a1†, so |alpha> on mode 1 leaves as
    |v alpha>|u alpha> and the input's |k> as (u a0† + v a1†)^k/sqrt(k!)
    (Yurke, McCall & Klauder, PRA 33, 4033 (1986)).  On the kept pairs
    a + b <= n_max the output is e^{-|alpha|^2/2} M(v alpha) P M(u alpha)^T,
    with P[i, j] = c_{i+j} sqrt(C(i+j, i)) u^i v^j; M is lower-triangular,
    so entry (a, b) reads only c_k with k <= a + b.  Returns the flat
    two-mode amplitudes, 0 above n_max.
    """
    dim = input_a1.cutoff.dim
    rot = np.exp(1j * theta)
    u, v = (rot + 1) / 2, (rot - 1) / 2
    n = np.arange(dim)
    total = np.add.outer(n, n)
    c = np.concatenate([input_a1.amplitudes, np.zeros(dim - 1)])  # c_k = 0 past n_max
    coeffs = c[total] * _sqrt_binomials(dim) * np.outer(u**n, v**n)
    out = math.exp(-abs(alpha) ** 2 / 2) * (
        _displacement_ladder(v * alpha, dim) @ coeffs @ _displacement_ladder(u * alpha, dim).T
    )
    out[total > dim - 1] = 0
    return out.reshape(-1)


@lru_cache
def _sqrt_binomials(dim):
    """sqrt(C(i+j, i)) on the dim x dim grid, from exact integer binomials."""
    return np.array([[math.sqrt(math.comb(i + j, i)) for j in range(dim)] for i in range(dim)])


def multinomial_oracle(n, m, dim):
    """Symbolic expansion of [(a1+a2)/sqrt2]^n [(a1-a2)/sqrt2]^m |0,0>.

    Exact binomial double sum: each output amplitude is summed in sympy
    arithmetic and evaluated to a float once, so cancelling terms leave no
    roundoff.  A pair with n + m above n_max = dim - 1 lies outside the
    simulator's model, so its column is all zeros.
    """
    import sympy as sp

    out = np.zeros(dim * dim, dtype=complex)
    if n + m >= dim:
        return out

    prefactor = sp.Rational(1, 2) ** sp.Rational(n + m, 2) / sp.sqrt(
        sp.factorial(n) * sp.factorial(m)
    )
    sums = {}
    for k in range(n + 1):
        for l in range(m + 1):
            p = k + l
            q = n + m - k - l
            coeff = (
                sp.binomial(n, k)
                * sp.binomial(m, l)
                * (-1) ** (m - l)
                * sp.sqrt(sp.factorial(p) * sp.factorial(q))
            )
            sums[p * dim + q] = sums.get(p * dim + q, 0) + coeff
    for index, total in sums.items():
        out[index] = float(sp.N(prefactor * total, 30))
    return out


def pair_above_cutoff(cutoff):
    """Flat mask of the two-mode grid where n_0 + n_1 > n_max, outside the model."""
    cutoff = as_cutoff(cutoff)
    n = np.arange(cutoff.dim)
    return (n[:, None] + n > cutoff.n_max).reshape(-1)


@dataclass(frozen=True)
class CoherentSplitReport:
    """Fock-space splitter output versus the closed-form coherent pair."""

    alpha_in: complex
    beta_in: complex
    predicted_plus: complex
    predicted_minus: complex
    deviation_norm: float
    outside_norm: float


def coherent_bs_law_check(alpha, beta, cutoff=12):
    """Check the splitter sends |alpha>|beta> to |(a+b)/sqrt2>|(a-b)/sqrt2>.

    The splitter rotates each sector N <= n_max exactly and cuts the rest,
    so the output matches the predicted coherent product on those sectors
    and holds nothing above them.  Returns the L2 deviation on the kept
    sectors, a rounding error, and the output's norm above n_max, which is
    exactly 0.
    """
    cutoff = as_cutoff(cutoff)
    state = tensor(coherent_state(alpha, cutoff), coherent_state(beta, cutoff))
    out = beam_splitter(state).amplitudes
    plus = (alpha + beta) / math.sqrt(2)
    minus = (alpha - beta) / math.sqrt(2)
    predicted = tensor(coherent_state(plus, cutoff), coherent_state(minus, cutoff))
    outside = pair_above_cutoff(cutoff)
    deviation = float(np.linalg.norm((out - predicted.amplitudes)[~outside]))
    return CoherentSplitReport(
        complex(alpha), complex(beta), plus, minus, deviation, float(np.linalg.norm(out[outside]))
    )
