"""Workbench for single-photon field dynamics on k-space mode grids.

Builds invariant one-photon mode amplitudes, synthesizes the positive-frequency
potential and fields they generate, and verifies the conservation laws the
construction promises: norm, continuity, helicity, gauge and boost invariance,
dielectric media, and emitter/detector lifecycles on a 1D line.
"""

__version__ = "0.1.0"

from .relativity import PolarizationBasis, polarization_bases
from .modes import (
    KGrid,
    ModeAmplitudes,
    measure_weights,
    norm,
    normalize,
    gaussian_packet,
    boost_amplitudes,
    gauge_shift,
)
from .fields import (
    SpatialGrid,
    FieldSnapshot,
    dual_grid,
    synthesize,
    maxwell_residual,
)
from .current import (
    CurrentField,
    number_density,
    current_density,
    helicity_density,
    photon_current,
    position_norm,
    continuity_residual,
)
from .medium import (
    MediumSpec,
    VACUUM,
    SourceEvent,
    current_in_medium,
    lifecycle_1d,
    LifecycleReport,
)
from .fock import (
    LadderPair,
    ladder_pair,
    basis_state,
    n_photon_state,
    commutator_expectation,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    parse_config,
    default_verify_config,
)
from .units import UnitSystem, unit_system
from .verify import CheckResult, Outcome, run_verify, write_verify_report
from .scenarios import run_scenario

__all__ = [
    "__version__",
    "PolarizationBasis",
    "polarization_bases",
    "KGrid",
    "ModeAmplitudes",
    "measure_weights",
    "norm",
    "normalize",
    "gaussian_packet",
    "boost_amplitudes",
    "gauge_shift",
    "SpatialGrid",
    "FieldSnapshot",
    "dual_grid",
    "synthesize",
    "maxwell_residual",
    "CurrentField",
    "number_density",
    "current_density",
    "helicity_density",
    "photon_current",
    "position_norm",
    "continuity_residual",
    "MediumSpec",
    "VACUUM",
    "SourceEvent",
    "current_in_medium",
    "lifecycle_1d",
    "LifecycleReport",
    "LadderPair",
    "ladder_pair",
    "basis_state",
    "n_photon_state",
    "commutator_expectation",
    "ConfigError",
    "ScenarioConfig",
    "parse_config",
    "default_verify_config",
    "UnitSystem",
    "unit_system",
    "CheckResult",
    "Outcome",
    "run_verify",
    "write_verify_report",
    "run_scenario",
]
