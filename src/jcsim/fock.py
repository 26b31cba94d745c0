"""Truncated Fock-space representation of one or more bosonic modes.

Every state is a dense complex vector over the multimode number basis
|n_1, ..., n_k> with each n_i <= n_max.  The flat index is row-major with
mode 0 slowest,

    index(n_1, ..., n_k) = n_1 * (n_max+1)**(k-1) + ... + n_k,

and this ordering is part of the serialization contract: a state written
to JSON on one machine reconstructs identically on another.

Coherent amplitudes are plain complex scalars.  Coherent states are stored
truncated but *not* renormalized, so the squared norm directly exposes the
truncation deficit; a caller that needs a unit vector divides by the norm
itself, as ``jcm.ns_gate`` does after its herald.

States are immutable values: every operation returns a new state and the
underlying numpy buffers are marked read-only.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

#: Tolerance on |norm^2 - 1| below which a state counts as normalized.
NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class FockCutoff:
    """Maximum photon number retained per mode."""

    n_max: int

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "n_max", operator.index(self.n_max))
        except TypeError:
            raise ValueError(f"n_max must be an integer, got {self.n_max!r}") from None
        if self.n_max < 2:
            raise ValueError(
                f"n_max must be >= 2 (two-photon states are essential), got {self.n_max}"
            )

    @property
    def dim(self) -> int:
        """Single-mode dimension n_max + 1."""
        return self.n_max + 1


def as_cutoff(cutoff: int | FockCutoff) -> FockCutoff:
    """Coerce a bare integer into a :class:`FockCutoff`."""
    if isinstance(cutoff, FockCutoff):
        return cutoff
    return FockCutoff(cutoff)


@dataclass(frozen=True, eq=False)
class MultiModeState:
    """Dense state vector over the truncated multimode number basis."""

    mode_count: int
    cutoff: FockCutoff
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.cutoff, FockCutoff):
            raise ValueError(f"cutoff must be a FockCutoff, got {self.cutoff!r}")
        if type(self.mode_count) is not int:  # every state passes here; skip the common case
            try:
                mode_count = operator.index(self.mode_count)
            except TypeError:
                message = f"mode_count must be an integer, got {self.mode_count!r}"
                raise ValueError(message) from None
            object.__setattr__(self, "mode_count", mode_count)
        if self.mode_count < 1:
            raise ValueError(f"mode_count must be >= 1, got {self.mode_count}")
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        # dim >= 3, so past this bound dim**mode_count > 2**mode_count > amps.size
        if self.mode_count > amps.size.bit_length():
            raise ValueError(
                f"mode_count {self.mode_count} needs more than the {amps.size} amplitude(s) given"
            )
        expected = self.cutoff.dim**self.mode_count
        if amps.shape != (expected,):
            raise ValueError(
                f"expected {expected} amplitudes for {self.mode_count} mode(s) "
                f"at n_max={self.cutoff.n_max}, got shape {amps.shape}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    # -- basic geometry ------------------------------------------------

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm_squared() - 1.0) <= NORMALIZATION_TOL

    def as_tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per mode (read-only view)."""
        dim = self.cutoff.dim
        return self.amplitudes.reshape((dim,) * self.mode_count)

    def amplitude(self, occupations: Sequence[int]) -> complex:
        """Amplitude on the basis state |n_1, ..., n_k>."""
        if len(occupations) != self.mode_count:
            raise ValueError(
                f"expected {self.mode_count} occupation numbers, got {len(occupations)}"
            )
        return complex(self.amplitudes[_flat_index(occupations, self.cutoff)])

    def with_amplitudes(self, amplitudes: np.ndarray) -> "MultiModeState":
        """New state with the same shape but different amplitudes."""
        return MultiModeState(self.mode_count, self.cutoff, amplitudes)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON-ready dict {mode_count, n_max, amplitudes: [[re, im], ...]}."""
        return {
            "mode_count": self.mode_count,
            "n_max": self.cutoff.n_max,
            "amplitudes": [[z.real, z.imag] for z in self.amplitudes],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "MultiModeState":
        """Parse the layout :meth:`to_json` writes; anything else is a ValueError."""
        try:
            payload = json.loads(text)
        except RecursionError:  # nested deeper than the stack; no state layout is
            payload = None
        if not (
            isinstance(payload, dict)
            and type(payload.get("mode_count")) is int
            and type(payload.get("n_max")) is int
            and isinstance(payload.get("amplitudes"), list)
            and all(
                isinstance(z, list) and len(z) == 2 and all(type(x) in (int, float) for x in z)
                for z in payload["amplitudes"]
            )
        ):
            raise ValueError(
                'a state file is a JSON object {"mode_count": int, "n_max": int, '
                '"amplitudes": [[re, im], ...]} with numeric re and im'
            )
        try:
            amps = np.array([complex(re, im) for re, im in payload["amplitudes"]])
        except OverflowError:  # an integer beyond the float range
            amps = np.array([math.inf])
        if not np.isfinite(amps).all():
            raise ValueError("state amplitudes must be finite (no NaN or infinity)")
        return cls(payload["mode_count"], FockCutoff(payload["n_max"]), amps)


def _flat_index(occupations: Sequence[int], cutoff: FockCutoff) -> int:
    """Row-major index of |n_1, ..., n_k>, each occupation checked against the cutoff."""
    idx = 0
    for n in occupations:
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError(f"occupation {n!r} is not an integer") from None
        if not 0 <= n <= cutoff.n_max:
            raise ValueError(f"occupation {n} outside [0, {cutoff.n_max}]")
        idx = idx * cutoff.dim + n
    return idx


# -- constructors --------------------------------------------------------


def number_state(ns: Sequence[int], cutoff: int | FockCutoff) -> MultiModeState:
    """The basis state |n_1, ..., n_k>."""
    cutoff = as_cutoff(cutoff)
    amps = np.zeros(cutoff.dim ** len(ns), dtype=np.complex128)
    amps[_flat_index(ns, cutoff)] = 1.0
    return MultiModeState(len(ns), cutoff, amps)


def coherent_state(alpha: complex, cutoff: int | FockCutoff) -> MultiModeState:
    """Single-mode coherent state, truncated at n_max and not renormalized.

    Amplitudes are a_n = exp(-|alpha|^2/2) alpha^n / sqrt(n!) for n <= n_max,
    so ``norm_squared`` reports 1 minus the truncated Poisson tail; a caller
    that needs the mass whole checks it there, as ``cavity_ns_output`` does.
    A NaN or infinite alpha is refused.  The amplitudes are one running
    product, a_n = a_{n-1} alpha / sqrt(n), no partial product above 1.  Their
    relative error is about 5e-15 up to n_max 400, plus |alpha|^2 * 1e-16 from
    rounding |alpha|^2 in a_0, which is subnormal past |alpha| = 37.6 and 0
    past 38.6.
    """
    cutoff = as_cutoff(cutoff)
    alpha = complex(alpha)
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    s = math.hypot(alpha.real, alpha.imag)  # s * s past the float range is inf, a_0 then 0
    steps = alpha / np.sqrt(np.arange(1, cutoff.dim))
    return MultiModeState(1, cutoff, np.cumprod(np.concatenate([[np.exp(-s * s / 2)], steps])))


# -- operations -----------------------------------------------------------


def tensor(a: MultiModeState, b: MultiModeState) -> MultiModeState:
    """Tensor product; modes of ``a`` come first (and stay slowest)."""
    if a.cutoff != b.cutoff:
        raise ValueError(
            f"cutoffs differ: n_max={a.cutoff.n_max} vs n_max={b.cutoff.n_max}"
        )
    amps = np.multiply.outer(a.amplitudes, b.amplitudes).reshape(-1)
    return MultiModeState(a.mode_count + b.mode_count, a.cutoff, amps)

