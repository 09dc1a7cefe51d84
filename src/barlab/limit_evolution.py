"""Effective evolution of the bar in the vanishing-regularization limit.

The limit model's state is the running maximum ``M`` of ``|J|``, started
at the jump threshold ``thr``: damage never heals.  The bar responds like
two springs in series, ``J = sigma * (l/a0 + L/a1)``, the stress is
confined to the yield interval ``[-s*, s*]`` with ``s* = sqrt(2*kappa*a0)``,
and the damage mass ``l = (M - thr) a0/s*`` grows only while the stress
sits on the boundary of that interval.  The time loop is the state
recursion ``M = max(M, |J|)`` alone; the stress ``s* (J/M)``, the mass,
the energy and the work are array formulas of the recorded ``M``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import MaterialParams
from .errors import _guard
from .loading import BoundaryDatum, cumulative_work, validate_time_grid

__all__ = ["LimitTrajectory", "run_limit"]


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
    t0: float           # last recorded instant with M = thr


def run_limit(m: MaterialParams, w: BoundaryDatum, time_grid) -> LimitTrajectory:
    """Run the state recursion along ``w`` and record closed-form and integrated energies.

    The loop carries only the running maximum ``M`` of ``|J|``, from ``M = thr``,
    the pristine bar; the stress ``s* (J/M)``, the mass ``(M - thr)(a0/s*)``, the
    energy and the work are read off the recorded ``M`` as arrays.
    """
    grid = validate_time_grid(w, time_grid)
    J = np.asarray(w.jump(grid), dtype=float)

    # The recursion runs on Python floats, with no call per step, and becomes an array once, at the end.
    # The comparison picks the float max(peak, J_k) picks: J_k only where J_k > peak.
    peak = thr = m.jump_threshold
    M = np.array([peak := (J_k if J_k > peak else peak) for J_k in np.abs(J).tolist()])
    # A jump too large for floats overflows the mass, the energy or the work: refuse it, with no numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        # |J| <= M, so |J/M| <= 1 under correct rounding and |sigma| <= s* with no clamp.
        sigma = m.yield_stress * (J / M)
        mass = (M - thr) * (m.a0 / m.yield_stress)
        e_closed = 0.5 * J * sigma + m.kappa * mass
        work = cumulative_work(sigma, J)
    _guard(~(np.isfinite(e_closed) & np.isfinite(work)), grid, "energy or work is not finite")

    # M rises from thr and never falls, so M == thr on a prefix of the grid; the mass can underflow to 0 past it.
    t0 = float(grid[max(np.count_nonzero(M == thr) - 1, 0)])

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
