"""Fidelity estimation via Pauli sampling.

Modules:
  f2          -- Paulis as word pairs (ax, az) and their symplectic
                 product, the Pauli-expectation kernel, FWHT, batched F2 rank
  states      -- the two state types (pure StateVector; Mixture of pure
                 members plus white noise), state construction, phase
                 stripping, depolarizing noise, Born laws
  magic       -- l-norms, stabilizer Renyi entropies, hypergraph rank
                 brackets on the 1/2-DFE second moment, Haar closed forms,
                 the stripped-l1 quadrature
  samplers    -- l_2a phase-point samplers (exact, phase-state, Dicke,
                 Bell-circuit, MPS)
  estimation  -- alpha-DFE, fan-out FE, nonlinear DFE, aggregation
  tomography  -- MUB-based l2 state tomography
  cli         -- experiment runners (`fidest` entry point)

The package namespace re-exports the errors, the Pauli algebra of ``f2``
and the states of ``states``; the other modules are imported by name.
"""

__version__ = "0.1.0"

from .errors import (CapExceededError, ConfigError, DimensionError,
                     NumericalHealthError)
from .f2 import (CoeffVector, f2_rank, fwht, pauli_coefficients,
                 pauli_expectation_rows, symplectic_product)
from .states import (Mixture, PhaseFunction, RealMPS, StateVector,
                     density_matrix, depolarize, dicke_state, exact_fidelity,
                     haar_random, hypergraph_state, mps_to_statevector,
                     phase_state, phase_strip, random_real_mps)

__all__ = [
    "__version__",
    "CapExceededError", "ConfigError", "DimensionError",
    "NumericalHealthError",
    "CoeffVector", "f2_rank", "fwht", "pauli_coefficients",
    "pauli_expectation_rows", "symplectic_product",
    "Mixture", "PhaseFunction", "RealMPS", "StateVector", "density_matrix",
    "depolarize", "dicke_state", "exact_fidelity", "haar_random",
    "hypergraph_state", "mps_to_statevector", "phase_state", "phase_strip",
    "random_real_mps",
]
