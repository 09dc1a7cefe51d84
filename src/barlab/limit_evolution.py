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
from .errors import NumericalError
from .loading import BoundaryDatum, check_horizon, cumulative_work, validate_time_grid

__all__ = [
    "LimitState",
    "LimitTrajectory",
    "initial_limit_state",
    "limit_step",
    "run_limit",
]


@dataclass(frozen=True)
class LimitState:
    """Effective state: stress, damage mass and energy."""

    t: float
    sigma: float
    l: float
    E: float


def _assemble(m: MaterialParams, t: float, J: float, l: float) -> LimitState:
    compliance = l / m.a0 + m.L / m.a1
    sigma = J / compliance
    s = m.yield_stress
    if abs(sigma) > s:
        # Analytically |sigma| <= s always; only rounding dust may poke out.
        if abs(sigma) > s * (1.0 + 1e-10):
            raise NumericalError(f"stress {sigma!r} left the yield interval at t={t!r}")
        sigma = s if sigma > 0.0 else -s
    E = 0.5 * J * sigma + m.kappa * l
    return LimitState(t=float(t), sigma=float(sigma), l=float(l), E=float(E))


def _trial_mass(m: MaterialParams, J: float) -> float:
    # Mass needed to carry J at exactly the yield stress; positive exactly when
    # |J| > m.jump_threshold, the one test of the elastic limit.
    return m.a0 * (abs(J) - m.jump_threshold) / m.yield_stress


def initial_limit_state(m: MaterialParams, J0: float, t: float = 0.0) -> LimitState:
    """Globally minimal state under the initial jump ``J0``.

    Purely elastic when ``|J0|`` is below ``m.jump_threshold``; otherwise
    the damage mass jumps so that the stress sits exactly at yield.
    """
    l0 = max(0.0, _trial_mass(m, J0))
    return _assemble(m, t, J0, l0)


def limit_step(prev: LimitState, m: MaterialParams, J_new: float, t_new: float) -> LimitState:
    """Return map of the effective model: ``l`` ratchets up, never down."""
    l_new = max(prev.l, _trial_mass(m, J_new))
    return _assemble(m, t_new, J_new, l_new)


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
    check_horizon(w, m.T)
    grid = validate_time_grid(w, time_grid)
    J = np.asarray(w.jump(grid), dtype=float)
    steps = grid.size

    sigma = np.zeros(steps)
    mass = np.zeros(steps)
    e_closed = np.zeros(steps)

    state = initial_limit_state(m, float(J[0]), t=float(grid[0]))
    sigma[0], mass[0], e_closed[0] = state.sigma, state.l, state.E
    for k in range(1, steps):
        state = limit_step(state, m, float(J[k]), float(grid[k]))
        sigma[k], mass[k], e_closed[k] = state.sigma, state.l, state.E
    work = cumulative_work(sigma, J)

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
