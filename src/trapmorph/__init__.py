"""trapmorph: trap-deformation schedules for motional-state preparation.

Designs FAQUAD / local-adiabatic / linear ramps that morph a biased double
well into a harmonic well, and verifies them by time-dependent Schrödinger
propagation.  See the README for the physics and the CLI (`trapmorph`) for
the ready-made experiments.
"""

from .errors import TrapMorphError
from .grid import SpatialGrid
from .potential import (DeformationPath, PotentialParams, WellGeometry,
                        bias_for_target, geometry, max_target_bound,
                        path_for_target, quanta_number, small_bias_check)
from .eigen import EigenSet, couplings, eigensolve, localization
from .schedule import (AdiabaticityProfile, Schedule, build_profile,
                       invert_profile, linear_schedule)
from .propagate import (Drive, PropagationReport, Wavefunction, fidelity,
                        propagate, superposition_fidelity)
from .cache import cached_profile
from .scans import (Preset, ScanResult, ScanRow, beryllium_preset,
                    default_tf_grid, emit_csv, get_preset, mini_preset,
                    run_demultiplexing, run_scan, run_superposition)
from .units import AMU_SI, HBAR_SI, UnitSystem, beryllium_units

__version__ = "0.1.0"

# the phase kernels are plain numpy; kept as a name for result records
kernel_backend = "numpy"

__all__ = [
    "AMU_SI", "AdiabaticityProfile", "DeformationPath", "Drive", "EigenSet",
    "HBAR_SI", "PotentialParams", "Preset", "PropagationReport",
    "ScanResult", "ScanRow", "Schedule", "SpatialGrid", "TrapMorphError",
    "UnitSystem", "Wavefunction", "WellGeometry", "beryllium_preset",
    "beryllium_units", "bias_for_target", "build_profile", "cached_profile",
    "couplings", "default_tf_grid", "eigensolve",
    "emit_csv", "fidelity", "geometry", "get_preset", "invert_profile",
    "kernel_backend", "linear_schedule", "localization", "max_target_bound",
    "mini_preset", "path_for_target", "propagate",
    "quanta_number", "run_demultiplexing", "run_scan", "run_superposition",
    "small_bias_check", "superposition_fidelity", "__version__",
]
