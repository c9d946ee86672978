"""Simulator for feedback-controlled adiabatic quantum computation.

Builds random diagonal problem Hamiltonians under a strong transverse bias,
propagates the Pechukas-Yukawa level dynamics to obtain the ground-state
curvature, evolves the wavefunction under linear or curvature-feedback
annealing schedules, and runs the seeded ensemble experiments (P versus T,
time-to-target scaling in qubit count, gain sweeps) behind the `aqcsim`
command-line tool.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateGroundError,
    FitUnderdeterminedError,
    IntegrationFailureError,
    NearDegeneracyError,
    ProfileFormatError,
    SimulationError,
    UnreachableTargetError,
)
from .hamiltonians import (
    EigenSystem,
    HamiltonianPair,
    build_bias,
    build_problem,
    default_bias_strength,
    make_pair,
    pair_from_seed,
    problem_ground_index,
    sample_epsilon,
    spectrum_at,
    total_hamiltonian,
)
from .spectral import (
    LevelFlow,
    curvature_from_spectrum,
    curvature_profile,
    init_spectrum,
    solve_levels,
)
from .evolution import (
    BackactionWindow,
    Instance,
    RunRecord,
    SchedulePlan,
    adiabatic_time,
    backaction_window_ok,
    build_schedule,
    min_gap,
)
from .experiments import (
    DeltaPResult,
    EnsembleSummary,
    InstanceRecord,
    PowerLawFit,
    ScalingCell,
    TargetResult,
    delta_p_sweep,
    instance_seed,
    make_instance,
    map_instances,
    scaling_study,
    sweep_T,
    time_to_target,
)
