"""Noisy state-vector simulation of the quantum sawtooth map: entanglement
echoes of a Bell pair, two-qubit subsystem entropy, fidelity, and the
extraction of their decay laws."""

__version__ = "0.1.0"

from .echo import EchoConfig, EchoRecord, initial_state, realization_rng, run_echo_curve, run_trace
from .echo import StateVector, fidelity, partial_trace_12
from .engine import BoundProgram, apply_program
from .fits import (
    FitResult,
    UnresolvedThreshold,
    entropy_rate,
    fidelity_rate,
    power_law_fit,
    threshold_time,
)
from .measures import (
    bell_density,
    binary_entropy,
    concurrence,
    eof,
    ergodic_entropy_reference,
    von_neumann_entropy,
    werner_state,
)
from .oracle import (
    align_global_phase,
    bit_reversal_permutation,
    dense_map_unitary,
    dft_matrix,
    program_unitary,
)
from .program import (
    ControlledPhase,
    GateProgram,
    Hadamard,
    MapParams,
    PhaseShift,
    free_rotation_program,
    gates_per_iteration,
    map_program,
    qft_program,
    quadratic_phase_program,
)
from .scaling import ScalingConfig, analyze_curve, run_scaling, summarize_curves, summarize_points

__all__ = [name for name in dir() if not name.startswith("_")]
