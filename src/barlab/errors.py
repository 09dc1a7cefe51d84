"""Exception types shared across the package, and the one guard that raises a located error.

ConfigError covers everything a user can get wrong before any number is
crunched (bad files, bad preset names, inconsistent parameters).
Every NumericalError is a refusal located by _guard: the first time step
(and eps) at which an energy, a work or the plasticity ledger is not finite.
"""

from __future__ import annotations

__all__ = ["ConfigError", "NumericalError"]

_U = 2.0**-53  # unit roundoff of float64


class ConfigError(ValueError):
    """Invalid configuration, preset, or input file."""


class NumericalError(RuntimeError):
    """An invariant of a run was violated."""


def _guard(bad, grid, what: str, eps_list=None) -> None:
    # Raise at the first True of the array bad, one row of grid.size per eps of eps_list (if any).
    # Array methods, not numpy functions: this module imports no numpy, so the CLI starts without it.
    if bad.any():
        row, k = divmod(int(bad.argmax()), grid.size)
        where = f"time step {k} (t={float(grid[k])!r}): {what}"
        raise NumericalError(where if eps_list is None else f"eps={float(eps_list[row])!r}, {where}")
