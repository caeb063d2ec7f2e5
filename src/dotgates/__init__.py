"""Simulator for optically driven spin gates in a coupled quantum-dot pair.

The package splits into four layers:

* :mod:`dotgates.operators` - labelled states, operators, and frame tags;
* :mod:`dotgates.model`     - the dot-pair level scheme, pulses, and one
  :class:`~dotgates.model.DrivenBlock` factory per decoupled spin block;
* :mod:`dotgates.dynamics`  - Schrodinger/Lindblad propagation (exact
  where the input's structure allows, adaptive otherwise), the exact
  reference propagator, and phase tracking along trajectories;
* :mod:`dotgates.gates`     - the gate protocols (controlled-phase,
  shelved Z rotation, Raman spin flip) with their reports.

:mod:`dotgates.cli` exposes the same runners as the ``dotgates`` command.
"""

from .operators import (
    HBAR_MEV_PS,
    LAB_FRAME,
    Basis,
    BasisMismatchError,
    DensityMatrix,
    NotHermitianError,
    NotUnitaryError,
    OperatorMatrix,
    QuantumState,
    UnknownLabelError,
    basis_change,
    matrix_exponential,
    product_basis,
    projector,
    rotating_frame_tag,
    tensor,
)
from .model import (
    EFFECTIVE_TWO_LEVEL,
    PSI_SUBSPACE,
    RAMAN_LEVELS,
    SINGLE_DOT,
    SPECTATOR_A_IDLE,
    SPECTATOR_B_IDLE,
    TWO_DOT,
    ConditionReport,
    DotPairParams,
    DrivenBlock,
    GaussianPulse,
    LaserDrive,
    SquarePulse,
    check_conditions,
    effective_hamiltonian,
    lab_pair_generator,
    lab_psi_subspace_generator,
    lab_single_dot_generator,
    raman_hamiltonian,
    rwa_subspace_generator,
    spectator_generator,
    two_dot_excitations,
)
from .dynamics import (
    CollapseChannel,
    IntegrationError,
    IntegratorConfig,
    PhaseSeries,
    PhaseUndefinedError,
    Trajectory,
    accumulated_phase,
    concatenate_trajectories,
    evolve_expm,
    evolve_lindblad,
    evolve_schrodinger,
    to_lab_frame,
    to_rotating_frame,
)
from .gates import (
    GateReport,
    PulseAreaError,
    RamanParams,
    RamanReport,
    ZGateParams,
    ZRotationReport,
    analytic_11_evolution,
    commensurate_gate_time,
    cphase_fidelity,
    entangling_phase,
    gaussian_cphase_pulse,
    pi_pulse_time,
    raman_pi_time,
    raman_rate,
    run_cphase,
    run_raman_x,
    run_z_rotation,
    selectivity_fidelity,
    square_cphase_pulse,
    wrap_phase,
)

__version__ = "0.1.0"

# every name imported above is public, listed once; the submodules are not
__all__ = [name for name in dir() if not name.startswith("_")
           and name not in ("operators", "model", "dynamics", "gates")] + ["__version__"]
