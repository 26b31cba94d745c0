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

# ``import jcsim`` loads every layer; the names live in the layer modules.
from . import fock, interferometer, jcm, linear_optics, loop_circuit
