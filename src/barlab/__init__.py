"""Desk-scale laboratory for quasi-static damage of a 1D bar.

Three layers: closed-form energetics of the two-well density
(``envelope``), the regularized incremental evolution (``eps_evolution``)
and its vanishing-regularization limit (``limit_evolution``), and on top
the energetic diagnostics with the plasticity-vs-damage classifier
(``diagnostics``).  ``scenarios`` and ``cli`` wire these into runnable
experiments.  The package re-exports the public surface; every other
name lives in its module.
"""

from .diagnostics import (DAMAGE_ONLY, PERFECT_PLASTICITY,
                          classifier_consistency, cns_classify,
                          residual_series, yield_dissipation)
from .envelope import (MaterialParams, TwoWellParams, convex_envelope,
                       optimal_theta, raw_energy)
from .eps_evolution import run_eps
from .errors import ConfigError, NumericalError
from .limit_evolution import run_limit
from .loading import BoundaryDatum, refined_time_grid
from .scenarios import (DEFAULT_MATERIAL, PRESET_NAMES, ScenarioConfig,
                        emit_figures, parse_config, preset, preset_datum,
                        run_scenario_eps, run_scenario_limit, sweep_eps,
                        write_csv)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConfigError",
    "NumericalError",
    "TwoWellParams",
    "MaterialParams",
    "raw_energy",
    "convex_envelope",
    "optimal_theta",
    "BoundaryDatum",
    "refined_time_grid",
    "run_eps",
    "run_limit",
    "PERFECT_PLASTICITY",
    "DAMAGE_ONLY",
    "cns_classify",
    "classifier_consistency",
    "yield_dissipation",
    "residual_series",
    "DEFAULT_MATERIAL",
    "PRESET_NAMES",
    "preset_datum",
    "preset",
    "ScenarioConfig",
    "parse_config",
    "run_scenario_limit",
    "run_scenario_eps",
    "sweep_eps",
    "emit_figures",
    "write_csv",
]
