"""Exception types shared by the state-vector machinery.

Exit codes of the command line: 2 for a usage error, which argparse reports
before any work starts (a missing flag, or a value outside a flag's domain
such as ``--n-max 1``); 1 for a :class:`SimulatorError`, a ``ValueError``
(input outside a function's domain, a malformed state or schedule file) or
an ``OSError``, which ``jcsim.cli.main`` prints as one ``error:`` line.  Any
other exception is a bug and propagates with its traceback.
"""


class SimulatorError(Exception):
    """Base class for all simulator errors."""


class OccupationExceedsCutoff(SimulatorError):
    """An occupation number exceeds the per-mode truncation bound."""


class DimensionMismatch(SimulatorError):
    """Two states do not live in the same truncated Hilbert space."""


class CutoffMismatch(SimulatorError):
    """Tensor factors carry different per-mode cutoffs."""


class ZeroStateError(SimulatorError):
    """Renormalization of the zero vector was requested.

    Raised when a post-selection projects onto an outcome of probability
    zero, so there is no surviving state to renormalize.
    """


class ModeIndexOutOfRange(SimulatorError):
    """A mode index does not address any mode of the state."""
