"""Desk-scale laboratory for quasi-static damage of a 1D bar.

Three layers: closed-form energetics of the two-well density
(``envelope``), the regularized incremental evolution (``eps_evolution``)
and its vanishing-regularization limit (``limit_evolution``), and on top
the energetic diagnostics with the plasticity-vs-damage classifier
(``diagnostics``).  ``scenarios`` and ``cli`` wire these into runnable
experiments.  The package re-exports the public surface; every other
name lives in its module.

The package namespace is filled on first use (PEP 562): ``import barlab``
and ``import barlab.cli`` load no numpy, and the first read of any public
name imports its layers and binds all of them, as an eager import would.
Later reads are plain attribute lookups.
"""

__version__ = "0.1.0"

# The home module of every re-exported name, in the order of ``__all__``.
_HOMES = {
    "errors": ("ConfigError", "NumericalError"),
    "envelope": ("TwoWellParams", "MaterialParams", "raw_energy", "convex_envelope",
                 "optimal_theta"),
    "loading": ("BoundaryDatum", "refined_time_grid"),
    "eps_evolution": ("run_eps",),
    "limit_evolution": ("run_limit",),
    "diagnostics": ("PERFECT_PLASTICITY", "DAMAGE_ONLY", "cns_classify",
                    "classifier_consistency", "yield_dissipation", "residual_series"),
    "scenarios": ("DEFAULT_MATERIAL", "PRESET_NAMES", "preset_datum", "preset",
                  "ScenarioConfig", "parse_config", "run_scenario_limit", "run_scenario_eps",
                  "sweep_eps", "emit_figures", "write_csv"),
}

__all__ = ["__version__", *(name for names in _HOMES.values() for name in names)]


def __getattr__(name: str):
    # Called only for a name not yet bound: once the public names are bound, never for them.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    for home, names in _HOMES.items():
        mod = importlib.import_module(f".{home}", __name__)
        globals().update((n, getattr(mod, n)) for n in names)
    return globals()[name]
