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
the homogeneous bar to ``s_p*L/|J|``.  The whole history is therefore a
prefix scan: the cell of ``envelope._frozen_cell`` frozen at the running
maximum of ``|J|`` and read at the current jump.  Only ``s_p`` and the weak
stiffness depend on ``eps``, so the scan runs on a leading eps axis: one
running maximum serves every eps of a sweep, and ``run_eps`` is the
one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelope import MaterialParams, _frozen_cell
from .errors import _U, _guard
from .loading import BoundaryDatum, _count, cumulative_work, validate_time_grid

__all__ = ["EpsTrajectory", "run_eps"]

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


def _scan(m: MaterialParams, eps_list, J: np.ndarray, grid: np.ndarray):
    """Histories ``(a, sigma, theta, l_eps, energy, work)``, one row per eps, of the jump ``J`` on ``grid``.

    Every eps passes ``plateau_factor`` before any array work; a guard's
    ``NumericalError`` names the eps of its row.
    """
    s_plateau, weak, a, sigma, theta, l_eps, energy = _frozen_cell(
        m, eps_list, J, np.maximum.accumulate(np.abs(J)))
    L = m.L
    # A jump too large for floats overflows, and the first guard names the step.
    with np.errstate(over="ignore", invalid="ignore"):
        work = cumulative_work(sigma, J)
    _guard(~(np.isfinite(energy) & np.isfinite(work)), grid, "energy or work is not finite", eps_list)

    a_prev = np.concatenate([np.full_like(weak, m.a1), a[:, :-1]], axis=1)
    theta_prev = np.concatenate([np.ones_like(weak), theta[:, :-1]], axis=1)
    _guard(np.abs(sigma * L / a - J) > _RESIDUAL_TOL * np.maximum(np.abs(J), s_plateau * L / a_prev),
           grid, "stress leaves an aggregate-strain residual", eps_list)
    a_identity = 1.0 / ((1.0 - theta) / weak + theta / m.a1)
    # theta's three roundings, at most 3u absolutely, reach a_identity through
    # (1 - theta)/weak as 3u a/weak relative to a (large for a small eps on a
    # stiff bar); the other roundings stay below 8u, inside _IDENTITY_TOL.
    _guard(np.abs(a - a_identity) > (_IDENTITY_TOL + 3.0 * _U * a / weak) * a, grid,
           "stiffness identity violated after damage update", eps_list)
    _guard((theta > theta_prev) | (a > a_prev), grid, "damage update would heal the bar", eps_list)
    # Running a-priori bound: each step can raise the energy by at most the
    # worst-case work of the increment.  The recursion
    # C_k = C_{k-1} + sqrt(2 a1 C_{k-1}/L)|dJ| + a1 dJ^2/(2L) is a perfect
    # square, so sqrt(C) grows by sqrt(a1/(2L))|dJ| per step.
    # The bounds grow like a1 J^2/L, the energy only like eps a0 J^2/L: a bound
    # may overflow while the energy and stress stay finite (first guard), and
    # then the infinite bound is truly above them, so its overflow is silent.
    with np.errstate(over="ignore"):
        root = np.sqrt(energy[:, :1]) + math.sqrt(m.a1 / (2.0 * L)) * np.concatenate(
            [[0.0], np.cumsum(np.abs(np.diff(J)))])
        # The slacks are relative to the bound and to the material's energy
        # and stress units, so the guards read the same in every unit system.
        _guard(energy > root**2 * (1.0 + _BOUND_SLACK) + _BOUND_SLACK * m.kappa * L, grid,
               "energy bound violated", eps_list)
        _guard(np.abs(sigma) > math.sqrt(2.0 * m.a1 / L) * root * (1.0 + _BOUND_SLACK)
               + _BOUND_SLACK * m.yield_stress, grid, "stress bound violated", eps_list)
    _guard((theta > 0.0) & (np.abs(sigma) > s_plateau * (1.0 + 1e-12)), grid,
           "stress exceeded the damage-onset plateau", eps_list)
    return a, sigma, theta, l_eps, energy, work


def run_eps(m: MaterialParams, eps: float, n_cells: int, w: BoundaryDatum,
            time_grid) -> EpsTrajectory:
    """Drive the bar through ``w`` on ``time_grid`` and record energetics.

    The run starts from the pristine bar and stays homogeneous, so the
    history is a prefix scan: the stiffness is the running minimum of
    ``s_p L/|J|`` clipped to ``[eps*a0, a1]``, the stress is ``J*a/L`` and
    the sound fraction follows from the stiffness identity.

    Every step re-checks the closed form: a finite energy and work, the
    aggregate-strain residual, the stiffness identity and irreversibility,
    which the scan satisfies by construction and which therefore only catch
    rounding, and the a-priori energy bound and the stress bounds.  A violation raises
    ``NumericalError`` naming ``eps`` and the first offending step.  The independent
    reference is the per-cell incremental minimization replayed step by
    step (``tests/oracles.py::stepwise_run_eps``).
    """
    _count("n_cells", n_cells)
    grid = validate_time_grid(w, time_grid)
    J = np.asarray(w.jump(grid), dtype=float)
    a, sigma, theta, l_eps, energy, work = (row[0] for row in _scan(m, (eps,), J, grid))
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
