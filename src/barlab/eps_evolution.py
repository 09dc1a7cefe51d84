"""Quasi-static damage evolution of the bar at a fixed regularization scale.

At scale ``eps`` the damaged phase keeps the small stiffness ``eps*a0``
while breaking costs ``kappa/eps`` per unit damaged volume.  The
evolution is the incremental minimization of elastic plus breaking
energy: at each load every cell may convert a further fraction of its
sound material into the weak phase, strains are coupled only through the
prescribed gap ``J(t)``, and the common stress is the Lagrange
multiplier of that constraint.

A consequence of the stiffness identity
``1/a = (1-Theta)/(eps*a0) + Theta/a1`` is that the relaxed per-cell
density has the same plateau stress for every cell and every step,
``s_p = sqrt(2*kappa*a0) * plateau_factor``.  Each step is then elastic,
on the plateau or fully damaged, and a plateau step sets the stiffness of
the homogeneous bar to ``s_p*L/|J|``.  ``run_eps`` therefore computes the
whole history as a prefix scan of the running maximum of ``|J|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelope import MaterialParams
from .errors import NumericalError
from .loading import BoundaryDatum, check_horizon, cumulative_work, validate_time_grid

__all__ = ["EpsTrajectory", "plateau_factor", "run_eps"]

_IDENTITY_TOL = 1e-12
_RESIDUAL_TOL = 1e-12
_BOUND_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class EpsTrajectory:
    """Recorded run of the fixed-scale solver on a time grid.

    The run is homogeneous, so ``theta`` and ``stiffness`` are read-only
    broadcast views of one column with the shape ``(steps+1, cells)``.
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


def plateau_factor(m: MaterialParams, eps: float) -> float:
    """Amplification ``sqrt(a1/(a1 - eps*a0))`` of the damage-onset stress at scale ``eps``."""
    if not 0.0 < eps:
        raise ValueError(f"need eps > 0, got {eps!r}")
    if not eps * m.a0 < m.a1:
        raise ValueError(f"need eps*a0 < a1, got eps*a0={eps * m.a0!r}, a1={m.a1!r}")
    return math.sqrt(m.a1 / (m.a1 - eps * m.a0))


def _guard(bad: np.ndarray, grid: np.ndarray, what: str) -> None:
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NumericalError(f"time step {k} (t={float(grid[k])!r}): {what}")


def run_eps(m: MaterialParams, eps: float, n_cells: int, w: BoundaryDatum,
            time_grid) -> EpsTrajectory:
    """Drive the bar through ``w`` on ``time_grid`` and record energetics.

    The run starts from the pristine bar and stays homogeneous, so the
    history is a prefix scan: the stiffness is the running minimum of
    ``s_p L/|J|`` clipped to ``[eps*a0, a1]``, the stress is ``J*a/L`` and
    the sound fraction follows from the stiffness identity.

    Every step re-checks the closed form: the aggregate-strain residual,
    the stiffness identity and irreversibility, which the scan satisfies by
    construction and which therefore only catch rounding, and the running
    a-priori energy bound and the stress bounds.  A violation raises
    ``NumericalError`` naming the first offending step.  The independent
    reference is the per-cell incremental minimization replayed step by
    step (``tests/oracles.py::stepwise_run_eps``).
    """
    check_horizon(w, m.T)
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
