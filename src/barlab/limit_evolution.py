"""Effective evolution of the bar in the vanishing-regularization limit.

The limit model keeps a single internal variable: the accumulated
damage mass ``l >= 0``.  The bar responds like two springs in series,
``J = sigma * (l/a0 + L/a1)``, the stress is confined to the yield
interval ``[-s, s]`` with ``s = sqrt(2*kappa*a0)``, and ``l`` grows only
while the stress sits on the boundary of that interval.  The time loop is
this explicit return map per load sample alone, so every recorded state
is exact up to rounding; the clamp of rounding dust, the yield-interval
guard and the energy are read off the recorded arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import MaterialParams
from .errors import _guard
from .loading import BoundaryDatum, cumulative_work, validate_time_grid

__all__ = ["LimitTrajectory", "run_limit"]


def _limit_step(l_prev: float, m: MaterialParams, J: float) -> tuple[float, float]:
    """Return map of the effective model: ``(sigma, l)``, with ``l`` ratcheting up from ``l_prev``."""
    # The trial mass carries J at exactly the yield stress; it is positive exactly
    # when |J| > m.jump_threshold, the one test of the elastic limit.
    l = max(l_prev, m.a0 * (abs(J) - m.jump_threshold) / m.yield_stress)
    return J / (l / m.a0 + m.L / m.a1), l


@dataclass(frozen=True, eq=False)
class LimitTrajectory:
    """Recorded limit evolution with both energy accountings."""

    m: MaterialParams
    times: np.ndarray
    J: np.ndarray
    sigma: np.ndarray
    l: np.ndarray
    E_closed: np.ndarray
    E_integrated: np.ndarray
    work_cum: np.ndarray
    t0: float           # last recorded instant with l = 0


def run_limit(m: MaterialParams, w: BoundaryDatum, time_grid) -> LimitTrajectory:
    """Run the return map along ``w`` and record closed-form and integrated energies."""
    grid = validate_time_grid(w, time_grid)
    J = np.asarray(w.jump(grid), dtype=float)

    # The loop runs on Python floats; each column becomes an array once, at the end.
    sigma, mass = [], []
    l = 0.0
    for J_k in J.tolist():
        sigma_k, l = _limit_step(l, m, J_k)
        sigma.append(sigma_k)
        mass.append(l)
    sigma, mass = np.array(sigma), np.array(mass)
    # Analytically |sigma| <= s*; only rounding dust may poke out, and the clip puts it back on s*.
    s = m.yield_stress
    _guard(np.abs(sigma) > s * (1.0 + 1e-10), grid, "stress left the yield interval")
    sigma = np.clip(sigma, -s, s)
    # A jump too large for floats overflows the energy or the work: refuse it, with no numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        e_closed = 0.5 * J * sigma + m.kappa * mass
        work = cumulative_work(sigma, J)
    _guard(~(np.isfinite(e_closed) & np.isfinite(work)), grid, "energy or work is not finite")

    zero = np.flatnonzero(mass == 0.0)
    t0 = float(grid[zero[-1]]) if zero.size else float(grid[0])

    return LimitTrajectory(
        m=m,
        times=grid,
        J=J,
        sigma=sigma,
        l=mass,
        E_closed=e_closed,
        E_integrated=e_closed[0] + work,
        work_cum=work,
        t0=t0,
    )
