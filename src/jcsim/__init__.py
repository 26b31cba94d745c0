"""Truncated Fock-space simulator for a cavity-mediated sign-shift gate.

The package covers four layers: exact atom-field dynamics realizing the
photon-number sign shift (:mod:`jcsim.jcm`), linear optics and the
dual-rail conditional sign-flip network (:mod:`jcsim.linear_optics`), the
weak-coherent-light interferometric verification
(:mod:`jcsim.interferometer`), and the polarization loop cavity with its
timing/loss feasibility analysis (:mod:`jcsim.loop_circuit`), all on the
shared state representation of :mod:`jcsim.fock`.
"""

__version__ = "0.1.0"

from .errors import (
    CutoffMismatch,
    DimensionMismatch,
    ModeIndexOutOfRange,
    OccupationExceedsCutoff,
    SimulatorError,
    ZeroStateError,
)
from .fock import (
    FockCutoff,
    MultiModeState,
    coherent_state,
    number_state,
    renormalize,
    tensor,
)
from .jcm import (
    AtomFieldState,
    JCMParams,
    NSGateResult,
    cm_dm,
    jcm_propagate,
    ns_gate,
    ns_gate_times,
    table1,
)
from .linear_optics import beam_splitter, csf_gate
from .interferometer import (
    CavityOutput,
    InterferometerResponse,
    cat_reference,
    cavity_ns_output,
    conditional_run,
    detector_statistics,
    f_functions,
    mach_zehnder,
    poisson_pmf,
)
from .loop_circuit import (
    LoopPhase,
    LoopSchedule,
    LoopTimingReport,
    ProtocolViolation,
    canonical_schedule,
    run_loop_protocol,
    timing_report,
)
