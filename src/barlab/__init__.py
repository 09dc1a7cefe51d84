"""Desk-scale laboratory for quasi-static damage of a 1D bar.

Three layers: closed-form energetics of the two-well density
(``envelope``), the regularized incremental evolution (``eps_evolution``)
and its vanishing-regularization limit (``limit_evolution``), and on top
the energetic diagnostics with the plasticity-vs-damage classifier
(``diagnostics``).  ``scenarios`` and ``cli`` wire these into runnable
experiments.
"""

from .diagnostics import (DAMAGE_ONLY, PERFECT_PLASTICITY, Classification,
                          ConsistencyReport, DiscreteDisplacement,
                          classifier_consistency, cns_classify,
                          competitor_family, dissipation,
                          fake_balance_residual_series, flow_rule_residual,
                          plasticity_energy_balance_residual, residual_series,
                          static_gamma_energy)
from .envelope import (MaterialParams, TwoWellParams, convex_envelope,
                       envelope_slope_bounds, gclosure_1d, mixture_energy,
                       optimal_theta, raw_energy, wbar_1d)
from .eps_evolution import (EpsState, EpsTrajectory, damage_mass,
                            incremental_step, initial_step, plateau_factor,
                            pristine_state, run_eps, total_energy)
from .errors import ConfigError, NumericalError
from .limit_evolution import (LimitState, LimitTrajectory,
                              initial_limit_state, limit_step,
                              mass_reconstruction, run_limit)
from .loading import BoundaryDatum, refined_time_grid, validate_time_grid
from .scenarios import (DEFAULT_MATERIAL, PRESET_NAMES, ScenarioConfig,
                        SweepReport, emit_figures, parse_config, preset,
                        preset_datum, run_scenario_eps, run_scenario_limit,
                        sweep_eps, textbook_damage, textbook_plasticity,
                        write_config, write_csv)

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
    "mixture_energy",
    "envelope_slope_bounds",
    "gclosure_1d",
    "wbar_1d",
    "BoundaryDatum",
    "refined_time_grid",
    "validate_time_grid",
    "EpsState",
    "EpsTrajectory",
    "pristine_state",
    "plateau_factor",
    "initial_step",
    "incremental_step",
    "run_eps",
    "total_energy",
    "damage_mass",
    "LimitState",
    "LimitTrajectory",
    "initial_limit_state",
    "limit_step",
    "run_limit",
    "mass_reconstruction",
    "PERFECT_PLASTICITY",
    "DAMAGE_ONLY",
    "Classification",
    "ConsistencyReport",
    "DiscreteDisplacement",
    "cns_classify",
    "classifier_consistency",
    "dissipation",
    "residual_series",
    "plasticity_energy_balance_residual",
    "fake_balance_residual_series",
    "flow_rule_residual",
    "static_gamma_energy",
    "competitor_family",
    "DEFAULT_MATERIAL",
    "PRESET_NAMES",
    "preset_datum",
    "preset",
    "ScenarioConfig",
    "parse_config",
    "write_config",
    "run_scenario_limit",
    "run_scenario_eps",
    "SweepReport",
    "sweep_eps",
    "textbook_plasticity",
    "textbook_damage",
    "emit_figures",
    "write_csv",
]
