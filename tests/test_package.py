"""The package's public namespace: the names `import aqcsim` binds, loaded or not."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aqcsim

# submodule -> the names the package re-exports from it; the submodules are public too
PUBLIC = {
    "errors": ("DegenerateGroundError", "FitUnderdeterminedError", "IntegrationFailureError",
               "NearDegeneracyError", "ProfileFormatError", "SimulationError",
               "UnreachableTargetError"),
    "hamiltonians": ("EigenSystem", "HamiltonianPair", "build_bias", "build_problem",
                     "default_bias_strength", "make_pair", "pair_from_seed",
                     "problem_ground_index", "sample_epsilon", "spectrum_at",
                     "total_hamiltonian"),
    "spectral": ("LevelFlow", "curvature_from_spectrum", "curvature_profile", "init_spectrum",
                 "solve_levels"),
    "evolution": ("BackactionWindow", "Instance", "RunRecord", "SchedulePlan", "adiabatic_time",
                  "backaction_window_ok", "build_schedule", "min_gap"),
    "experiments": ("DeltaPResult", "EnsembleSummary", "InstanceRecord", "PowerLawFit",
                    "ScalingCell", "TargetResult", "delta_p_sweep", "instance_seed",
                    "make_instance", "map_instances", "scaling_study", "sweep_T",
                    "time_to_target"),
}
NAMES = sorted({*PUBLIC, *(name for names in PUBLIC.values() for name in names)})


def test_every_public_name_is_its_submodules_object():
    for module, names in PUBLIC.items():
        submodule = importlib.import_module(f"aqcsim.{module}")
        assert getattr(aqcsim, module) is submodule
        for name in names:
            assert getattr(aqcsim, name) is getattr(submodule, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        aqcsim.no_such_name


def test_dir_and_import_star_list_the_public_names_before_any_lazy_load():
    # in a fresh interpreter, where the evolution and ensemble layers are not loaded yet
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import json, sys\n"
        "import aqcsim\n"
        "listed = [name for name in dir(aqcsim) if not name.startswith('_')]\n"
        "unloaded = 'aqcsim.evolution' not in sys.modules\n"
        "star = {}\n"
        "exec('from aqcsim import *', star)\n"
        "print(json.dumps([listed, unloaded, sorted(set(star) - {'__builtins__'})]))\n"
    )
    path = os.pathsep.join([str(src), *filter(None, [os.environ.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=120, check=True)
    listed, unloaded, star = json.loads(out.stdout)
    assert listed == NAMES and unloaded
    assert star == NAMES
