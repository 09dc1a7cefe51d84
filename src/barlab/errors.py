"""Exception types shared across the package, and the one guard that raises a located error.

ConfigError covers everything a user can get wrong before any number is
crunched (bad files, bad preset names, inconsistent parameters).
NumericalError covers failures of the solvers themselves and violations
of internal invariants that should hold for every well-posed run.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ConfigError", "NumericalError"]

_U = 2.0**-53  # unit roundoff of float64


class ConfigError(ValueError):
    """Invalid configuration, preset, or input file."""


class NumericalError(RuntimeError):
    """A solver failed to converge or an internal invariant was violated."""


def _guard(bad: np.ndarray, grid: np.ndarray, what: str, eps_list=None) -> None:
    # Raise at the first True of bad, one row of grid.size per eps of eps_list (if any).
    if np.any(bad):
        row, k = divmod(int(np.argmax(bad)), grid.size)
        where = f"time step {k} (t={float(grid[k])!r}): {what}"
        raise NumericalError(where if eps_list is None else f"eps={float(eps_list[row])!r}, {where}")
