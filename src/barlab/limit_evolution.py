"""Effective evolution of the bar in the vanishing-regularization limit.

The limit model keeps a single internal variable: the accumulated
damage mass ``l >= 0``.  The bar responds like two springs in series,
``J = sigma * (l/a0 + L/a1)``, the stress is confined to the yield
interval ``[-s, s]`` with ``s = sqrt(2*kappa*a0)``, and ``l`` grows only
while the stress sits on the boundary of that interval.  This gives an
explicit return map per load sample, so every recorded state is exact
up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import MaterialParams
from .errors import NumericalError, _guard
from .loading import BoundaryDatum, cumulative_work, validate_time_grid

__all__ = ["LimitTrajectory", "run_limit"]


def _limit_step(l_prev: float, m: MaterialParams, J: float, t: float) -> tuple[float, float, float]:
    """Return map of the effective model: ``(sigma, l, E)``, with ``l`` ratcheting up from ``l_prev``."""
    # The trial mass carries J at exactly the yield stress; it is positive exactly
    # when |J| > m.jump_threshold, the one test of the elastic limit.
    l = max(l_prev, m.a0 * (abs(J) - m.jump_threshold) / m.yield_stress)
    sigma = J / (l / m.a0 + m.L / m.a1)
    s = m.yield_stress
    if abs(sigma) > s:
        # Analytically |sigma| <= s always; only rounding dust may poke out.
        if abs(sigma) > s * (1.0 + 1e-10):
            raise NumericalError(f"stress {sigma!r} left the yield interval at t={t!r}")
        sigma = s if sigma > 0.0 else -s
    E = 0.5 * J * sigma + m.kappa * l
    return float(sigma), float(l), float(E)


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

    @property
    def p(self) -> np.ndarray:
        """Plastic mass ``sigma*l/a0``: the jump opening the damage mass carries."""
        return self.sigma * self.l / self.m.a0


def run_limit(m: MaterialParams, w: BoundaryDatum, time_grid) -> LimitTrajectory:
    """Run the return map along ``w`` and record closed-form and integrated energies."""
    grid = validate_time_grid(w, time_grid)
    J = np.asarray(w.jump(grid), dtype=float)

    # The loop runs on Python floats; each column becomes an array once, at the end.
    sigma, mass, e_closed = [], [], []
    l = 0.0
    for J_k, t in zip(J.tolist(), grid.tolist()):
        s, l, E = _limit_step(l, m, J_k, t)
        sigma.append(s)
        mass.append(l)
        e_closed.append(E)
    sigma, mass, e_closed = np.array(sigma), np.array(mass), np.array(e_closed)
    # A jump too large for floats overflows the energy or the work: refuse it, with no numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
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
