"""Effective evolution of the bar in the vanishing-regularization limit.

The limit model's state is the running maximum ``M`` of ``|J|``, started
at the jump threshold ``thr``: damage never heals.  The bar responds like
two springs in series, ``J = sigma * (l/a0 + L/a1)``, the stress is
confined to the yield interval ``[-s*, s*]`` with ``s* = sqrt(2*kappa*a0)``,
and the damage mass ``l = (M - thr) a0/s*`` grows only while the stress
sits on the boundary of that interval.  The time loop is this return map
per load sample alone; the mass and the energy are read off the recorded
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import MaterialParams
from .errors import _guard
from .loading import BoundaryDatum, cumulative_work, validate_time_grid

__all__ = ["LimitTrajectory", "run_limit"]


def _limit_step(M_prev: float, m: MaterialParams, J: float) -> tuple[float, float]:
    """Return map of the effective model: ``(sigma, M)``, with ``M`` the running maximum of ``|J|``."""
    # |J| <= M, so |J/M| <= 1 under correct rounding and |sigma| <= s* with no clamp.
    M = max(M_prev, abs(J))
    return m.yield_stress * (J / M), M


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

    # The loop runs on Python floats from M = thr, the pristine bar; each column becomes an array once, at the end.
    sigma, peak = [], []
    M = m.jump_threshold
    for J_k in J.tolist():
        sigma_k, M = _limit_step(M, m, J_k)
        sigma.append(sigma_k)
        peak.append(M)
    sigma = np.array(sigma)
    # A jump too large for floats overflows the mass, the energy or the work: refuse it, with no numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        mass = (np.array(peak) - m.jump_threshold) * (m.a0 / m.yield_stress)
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
