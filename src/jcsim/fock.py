"""Truncated Fock-space representation of one or more bosonic modes.

Every state is a dense complex vector over the multimode number basis
|n_1, ..., n_k> with each n_i <= n_max.  The flat index is row-major with
mode 0 slowest,

    index(n_1, ..., n_k) = n_1 * (n_max+1)**(k-1) + ... + n_k,

and this ordering is part of the serialization contract: a state written
to JSON on one machine reconstructs identically on another.

Coherent amplitudes are plain complex scalars.  Coherent states are stored
truncated but *not* renormalized, so the squared norm directly exposes the
truncation deficit; callers that need a unit vector apply ``renormalize``
explicitly.

States are immutable values: every operation returns a new state and the
underlying numpy buffers are marked read-only.  Coherent states share one
cached, read-only table of n and sqrt(n!) per dimension.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    CutoffMismatch,
    DimensionMismatch,
    OccupationExceedsCutoff,
    ZeroStateError,
)

#: Tolerance on |norm^2 - 1| below which a state counts as normalized.
NORMALIZATION_TOL = 1e-9


@dataclass(frozen=True)
class FockCutoff:
    """Maximum photon number retained per mode."""

    n_max: int

    def __post_init__(self) -> None:
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
    return FockCutoff(int(cutoff))


@dataclass(frozen=True, eq=False)
class MultiModeState:
    """Dense state vector over the truncated multimode number basis."""

    mode_count: int
    cutoff: FockCutoff
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.mode_count < 1:
            raise ValueError(f"mode_count must be >= 1, got {self.mode_count}")
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        # dim >= 3, so past this bound dim**mode_count > 2**mode_count > amps.size
        if self.mode_count > amps.size.bit_length():
            raise DimensionMismatch(
                f"mode_count {self.mode_count} needs more than the {amps.size} amplitude(s) given"
            )
        expected = self.cutoff.dim**self.mode_count
        if amps.shape != (expected,):
            raise DimensionMismatch(
                f"expected {expected} amplitudes for {self.mode_count} mode(s) "
                f"at n_max={self.cutoff.n_max}, got shape {amps.shape}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    # -- basic geometry ------------------------------------------------

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

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
            raise DimensionMismatch(
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
        payload = json.loads(text)
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
        if not 0 <= int(n) <= cutoff.n_max:
            raise OccupationExceedsCutoff(f"occupation {n} outside [0, {cutoff.n_max}]")
        idx = idx * cutoff.dim + int(n)
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

    Amplitudes are exp(-|alpha|^2/2) alpha^n / sqrt(n!) for n <= n_max, so
    ``norm_squared`` reports 1 minus the truncated Poisson tail.
    """
    cutoff = as_cutoff(cutoff)
    alpha = complex(alpha)
    mean = abs(alpha) ** 2
    if mean > cutoff.n_max / 4:
        warnings.warn(
            f"|alpha|^2 = {mean:.3g} exceeds n_max/4 = {cutoff.n_max / 4:.3g}; "
            "truncation error grows rapidly in this regime",
            stacklevel=2,
        )
    n, sqrt_factorials = _number_and_sqrt_factorials(cutoff.dim)
    amps = np.exp(-mean / 2) * alpha**n / sqrt_factorials
    return MultiModeState(1, cutoff, amps)


@lru_cache(maxsize=64)
def _number_and_sqrt_factorials(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n = 0..dim-1 and sqrt(n!), the latter as exp(0.5 * sum(log k))."""
    n = np.arange(dim)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, dim))]))
    sqrt_factorials = np.exp(0.5 * log_fact)
    n.setflags(write=False)
    sqrt_factorials.setflags(write=False)
    return n, sqrt_factorials


# -- operations -----------------------------------------------------------


def renormalize(s: MultiModeState) -> MultiModeState:
    """Scale to unit norm, preserving direction and global phase."""
    nrm = s.norm()
    if nrm == 0.0:
        raise ZeroStateError("cannot renormalize the zero vector")
    return s.with_amplitudes(s.amplitudes / nrm)


def tensor(a: MultiModeState, b: MultiModeState) -> MultiModeState:
    """Tensor product; modes of ``a`` come first (and stay slowest)."""
    if a.cutoff != b.cutoff:
        raise CutoffMismatch(
            f"cutoffs differ: n_max={a.cutoff.n_max} vs n_max={b.cutoff.n_max}"
        )
    amps = np.multiply.outer(a.amplitudes, b.amplitudes).reshape(-1)
    return MultiModeState(a.mode_count + b.mode_count, a.cutoff, amps)

