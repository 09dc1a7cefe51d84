"""Quasi-static damage evolution of the bar at a fixed regularization scale.

At scale ``eps`` the damaged phase keeps the small stiffness ``eps*a0``
while breaking costs ``kappa/eps`` per unit damaged volume.  Each time
step solves one incremental minimization: every cell may convert a
further fraction of its sound material into the weak phase, strains are
coupled only through the prescribed mean ``J(t)/L``, and the common
stress is the Lagrange multiplier of that constraint.

Per cell the relaxed incremental density is the convex envelope of a
two-well energy with wells ``(eps*a0/2, a_prev/2)`` and offset
``kappa*Theta_prev/eps``.  A consequence of the stiffness identity
``1/a = (1-Theta)/(eps*a0) + Theta/a1`` is that the plateau stress of
that envelope is the same for every cell and every step:
``sqrt(2*kappa*a0) * plateau_factor``.  The stress solve therefore has
three regimes (elastic, plateau, fully damaged) and the plateau regime
fixes the damage increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelope import MaterialParams
from .errors import NumericalError
from .loading import BoundaryDatum, cumulative_work, validate_time_grid

__all__ = [
    "EpsState",
    "EpsTrajectory",
    "plateau_factor",
    "pristine_state",
    "initial_step",
    "incremental_step",
    "run_eps",
    "damage_mass",
    "total_energy",
]

_IDENTITY_TOL = 1e-12
_RESIDUAL_TOL = 1e-12
_BOUND_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class EpsState:
    """Bar state at scale ``epsilon``: per-cell sound fraction and homogenized stiffness, plus the common stress."""

    epsilon: float
    t: float
    sigma: float
    theta: np.ndarray
    stiffness: np.ndarray

    @property
    def n_cells(self) -> int:
        return int(self.theta.size)


@dataclass(frozen=True, eq=False)
class EpsTrajectory:
    """Recorded run of the fixed-scale solver on a time grid.

    The run is homogeneous, so ``theta`` and ``stiffness`` are read-only
    broadcast views of one column with the shape ``(steps+1, cells)``;
    ``state_at`` returns writable copies.
    """

    m: MaterialParams
    epsilon: float
    times: np.ndarray
    J: np.ndarray
    sigma: np.ndarray
    theta: np.ndarray       # shape (steps+1, cells)
    stiffness: np.ndarray   # shape (steps+1, cells)
    energy: np.ndarray
    work_cum: np.ndarray
    eb_residual: np.ndarray
    l_eps: np.ndarray

    def state_at(self, k: int) -> EpsState:
        return EpsState(
            epsilon=self.epsilon,
            t=float(self.times[k]),
            sigma=float(self.sigma[k]),
            theta=self.theta[k].copy(),
            stiffness=self.stiffness[k].copy(),
        )


def plateau_factor(m: MaterialParams, eps: float) -> float:
    """Amplification ``sqrt(a1/(a1 - eps*a0))`` of the damage-onset stress at scale ``eps``."""
    _check_eps(m, eps)
    return math.sqrt(m.a1 / (m.a1 - eps * m.a0))


def _check_eps(m: MaterialParams, eps: float) -> None:
    if not 0.0 < eps:
        raise ValueError(f"need eps > 0, got {eps!r}")
    if not eps * m.a0 < m.a1:
        raise ValueError(f"need eps*a0 < a1, got eps*a0={eps * m.a0!r}, a1={m.a1!r}")


def pristine_state(m: MaterialParams, eps: float, n_cells: int) -> EpsState:
    """Undamaged bar: full sound fraction and stiffness ``a1`` in every cell."""
    _check_eps(m, eps)
    if n_cells < 1:
        raise ValueError(f"need at least one cell, got {n_cells!r}")
    return EpsState(
        epsilon=eps,
        t=0.0,
        sigma=0.0,
        theta=np.ones(n_cells),
        stiffness=np.full(n_cells, m.a1),
    )


def incremental_step(prev: EpsState, m: MaterialParams, J_new: float, t_new: float | None = None) -> EpsState:
    """Advance one load increment by incremental minimization.

    The load selects one of three regimes (elastic, plateau, fully
    damaged) in which the stress is known in closed form; the
    aggregate-strain residual of the updated cells certifies it, and the
    recorded state satisfies the structural identities to rounding.  On
    the plateau the damage increment is the same fraction of each cell's
    admissible range; the energy is affine there, and the common fraction
    keeps homogeneous data homogeneous while respecting every cell's
    bounds.  This per-cell update serves heterogeneous states; ``run_eps``
    scans homogeneous histories in closed form.
    """
    eps = prev.epsilon
    _check_eps(m, eps)
    weak = eps * m.a0
    n = prev.n_cells
    dx = m.L / n
    s_plateau = m.yield_stress * plateau_factor(m, eps)

    theta_prev = prev.theta
    a_prev = prev.stiffness
    live = theta_prev > 0.0

    # Aggregate strain window at the common plateau stress.  Dead cells
    # respond linearly with the weak stiffness on both edges.
    compliance_elastic = float((1.0 / a_prev).sum() * dx)
    agg_lo = s_plateau * compliance_elastic
    agg_hi = s_plateau * m.L / weak

    j_abs = abs(J_new)
    sign = 1.0 if J_new >= 0.0 else -1.0
    if j_abs <= agg_lo:
        sigma = J_new / compliance_elastic
        frac = np.zeros(n)
    elif j_abs >= agg_hi:
        sigma = J_new * weak / m.L
        frac = np.where(live, 1.0, 0.0)
    else:
        sigma = sign * s_plateau
        share = (j_abs - agg_lo) / (agg_hi - agg_lo)
        frac = np.where(live, share, 0.0)

    theta_new = (1.0 - frac) * theta_prev
    a_new = weak * a_prev / (frac * a_prev + (1.0 - frac) * weak)

    # The common stress must carry the imposed jump through the updated cells.
    residual = abs(sigma * float((1.0 / a_new).sum() * dx) - J_new)
    if residual > _RESIDUAL_TOL * max(j_abs, agg_lo):
        raise NumericalError(
            f"stress {sigma!r} leaves the aggregate-strain residual {residual!r} at J={J_new!r}"
        )

    # Stiffness identity: the homogenized modulus must stay the harmonic
    # mixture of the two pure phases at the current sound fraction.
    a_identity = 1.0 / ((1.0 - theta_new) / weak + theta_new / m.a1)
    if np.any(np.abs(a_new - a_identity) > _IDENTITY_TOL * a_new):
        raise NumericalError("stiffness identity violated after damage update")
    if np.any(theta_new > theta_prev) or np.any(a_new > a_prev * (1.0 + 1e-14)):
        raise NumericalError("damage update would heal the bar")

    return EpsState(
        epsilon=eps,
        t=prev.t if t_new is None else float(t_new),
        sigma=float(sigma),
        theta=theta_new,
        stiffness=a_new,
    )


def initial_step(m: MaterialParams, eps: float, n_cells: int, J0: float) -> EpsState:
    """State at the initial load: one incremental step from the pristine bar."""
    return incremental_step(pristine_state(m, eps, n_cells), m, J0, t_new=0.0)


def total_energy(state: EpsState, m: MaterialParams) -> float:
    """Stored elastic energy plus the accumulated breaking cost ``(kappa/eps) * (1 - Theta)``."""
    dx = m.L / state.n_cells
    elastic = float((state.sigma**2 / (2.0 * state.stiffness)).sum() * dx)
    broken = float((1.0 - state.theta).sum() * dx) * m.kappa / state.epsilon
    return elastic + broken


def damage_mass(state: EpsState, m: MaterialParams) -> float:
    """Rescaled damaged volume ``integral (1 - Theta)/eps dx``."""
    dx = m.L / state.n_cells
    return float((1.0 - state.theta).sum() * dx) / state.epsilon


def _guard(bad: np.ndarray, grid: np.ndarray, what: str) -> None:
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NumericalError(f"time step {k} (t={float(grid[k])!r}): {what}")


def run_eps(m: MaterialParams, eps: float, n_cells: int, w: BoundaryDatum,
            time_grid) -> EpsTrajectory:
    """Drive the bar through ``w`` on ``time_grid`` and record energetics.

    The run starts from the pristine bar and stays homogeneous, and every
    plateau update sets the stiffness to ``s_p L/|J|``.  The history is
    therefore a prefix scan: the stiffness is the running minimum of
    ``s_p L/|J|`` clipped to ``[eps*a0, a1]``, the stress is ``J*a/L`` and
    the sound fraction follows from the stiffness identity.

    Every step re-checks the closed form: the aggregate-strain residual,
    the stiffness identity and irreversibility, which the scan satisfies by
    construction and which therefore only catch rounding, and the running
    a-priori energy bound and the stress bounds.  A violation raises
    ``NumericalError`` naming the first offending step.  The independent
    reference is ``incremental_step`` replayed step by step
    (``tests/oracles.py::stepwise_run_eps``).
    """
    if abs(w.duration - m.T) > 1e-12:
        raise ValueError(f"loading ends at t={w.duration!r} but the horizon is T={m.T!r}")
    if n_cells < 1:
        raise ValueError(f"need at least one cell, got {n_cells!r}")
    grid = validate_time_grid(w, time_grid)
    J = np.asarray(w.jump(grid), dtype=float)
    s_plateau = m.yield_stress * plateau_factor(m, eps)
    weak = eps * m.a0
    L = m.L

    # |J| = 0 (or tiny) gives an infinite plateau stiffness, clipped to exactly a1.
    with np.errstate(divide="ignore", over="ignore"):
        a = np.clip(s_plateau * L / np.maximum.accumulate(np.abs(J)), weak, m.a1)
    sigma = J * a / L
    theta = (1.0 / weak - 1.0 / a) / (1.0 / weak - 1.0 / m.a1)
    l_eps = L * (1.0 - theta) / eps
    energy = L * sigma**2 / (2.0 * a) + m.kappa * l_eps
    work = cumulative_work(sigma, J)

    a_prev = np.concatenate([[m.a1], a[:-1]])
    theta_prev = np.concatenate([[1.0], theta[:-1]])
    _guard(np.abs(sigma * L / a - J) > _RESIDUAL_TOL * np.maximum(np.abs(J), s_plateau * L / a_prev),
           grid, "stress leaves an aggregate-strain residual")
    a_identity = 1.0 / ((1.0 - theta) / weak + theta / m.a1)
    _guard(np.abs(a - a_identity) > _IDENTITY_TOL * a, grid,
           "stiffness identity violated after damage update")
    _guard((theta > theta_prev) | (a > a_prev), grid, "damage update would heal the bar")
    # Running a-priori bound: each step can raise the energy by at most the
    # worst-case work of the increment.  The recursion
    # C_k = C_{k-1} + sqrt(2 a1 C_{k-1}/L)|dJ| + a1 dJ^2/(2L) is a perfect
    # square, so sqrt(C) grows by sqrt(a1/(2L))|dJ| per step.
    root = math.sqrt(energy[0]) + math.sqrt(m.a1 / (2.0 * L)) * np.concatenate(
        [[0.0], np.cumsum(np.abs(np.diff(J)))])
    # The slacks are relative to the bound and to the material's energy
    # and stress units, so the guards read the same in every unit system.
    _guard(energy > root**2 * (1.0 + _BOUND_SLACK) + _BOUND_SLACK * m.kappa * L, grid,
           "energy bound violated")
    _guard(np.abs(sigma) > math.sqrt(2.0 * m.a1 / L) * root * (1.0 + _BOUND_SLACK)
           + _BOUND_SLACK * m.yield_stress, grid, "stress bound violated")
    _guard((theta > 0.0) & (np.abs(sigma) > s_plateau * (1.0 + 1e-12)), grid,
           "stress exceeded the damage-onset plateau")

    shape = (grid.size, n_cells)
    return EpsTrajectory(
        m=m,
        epsilon=eps,
        times=grid,
        J=J,
        sigma=sigma,
        theta=np.broadcast_to(theta[:, None], shape),
        stiffness=np.broadcast_to(a[:, None], shape),
        energy=energy,
        work_cum=work,
        eb_residual=energy - energy[0] - work,
        l_eps=l_eps,
    )
