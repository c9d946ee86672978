"""Simulator for feedback-controlled adiabatic quantum computation.

Builds random diagonal problem Hamiltonians under a strong transverse bias,
propagates the Pechukas-Yukawa level dynamics to obtain the ground-state
curvature, evolves the wavefunction under linear or curvature-feedback
annealing schedules, and runs the seeded ensemble experiments (P versus T,
time-to-target scaling in qubit count, gain sweeps) behind the `aqcsim`
command-line tool.

`import aqcsim` loads only the errors, the Hamiltonians and the spectral
layer (with the solver port it steps on).  The evolution and ensemble
layers, `aqcsim.evolution` and `aqcsim.experiments`, and the names
re-exported from them load on first access (module __getattr__), so a
curvature profile never imports them; `dir(aqcsim)` and
`from aqcsim import *` list them all the same.
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

# name -> the submodule it comes from, imported on first access (a submodule names itself)
_LAZY = {
    **dict.fromkeys(("evolution", "BackactionWindow", "Instance", "RunRecord", "SchedulePlan",
                     "adiabatic_time", "backaction_window_ok", "build_schedule", "min_gap"),
                    "evolution"),
    **dict.fromkeys(("experiments", "DeltaPResult", "EnsembleSummary", "InstanceRecord",
                     "PowerLawFit", "ScalingCell", "TargetResult", "delta_p_sweep",
                     "instance_seed", "make_instance", "map_instances", "scaling_study",
                     "sweep_T", "time_to_target"), "experiments"),
}

# the names imported above and the lazy ones: those `import aqcsim` bound when it loaded
# every layer
__all__ = sorted({*(name for name in globals() if not name.startswith("_")), *_LAZY})


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value  # later reads skip __getattr__
    return value


def __dir__():
    # the package's names, loaded or not, without the lazy loader's own
    return sorted({*globals(), *__all__} - {"_LAZY", "__all__", "__dir__", "__getattr__"})
