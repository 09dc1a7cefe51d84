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
on the plateau or fully damaged, and the whole history is a prefix scan,
``envelope._frozen_cell``: the limit model's stress rule ``s* (J/N)`` read at
``N``, the running maximum of ``|J|`` over ``plateau_factor``, clipped to the
window from onset to full damage.  Only ``N`` and the weak stiffness depend on
``eps``, so the scan runs on a leading eps axis: one running maximum serves
every eps of a sweep, and ``run_eps`` is the one-row case.
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


def _bound_guards(m: MaterialParams, J, sigma, a, energy, grid, eps_list) -> None:
    """Guard the aggregate strain ``sigma L/a = J``, ``E/L <= root**2`` and ``|sigma| <= 2k root`` per eps row.

    The strain is read in jump units, ``(sigma/s*) thr (a1/a)``, to ``1e-12`` of
    ``|J|`` or of ``thr (a1/a)``, the jump at which the stiffness ``a`` carries ``s*``.  A step raises the
    energy by at most the worst-case work of its increment, a perfect square: ``root = sqrt(E(0)/L)
    + k cumsum|dJ|/L`` with ``k = sqrt(a1/2)``.  In these strain units with finite ``k, 2k > 0`` no term
    is negative, ``0*inf`` or ``inf - inf``: an overflow only makes a bound infinite, where it passes.
    """
    k, thr = math.sqrt(0.5 * m.a1), m.jump_threshold
    with np.errstate(over="ignore", invalid="ignore"):
        jump = thr * (m.a1 / a)
        _guard(np.abs(sigma / m.yield_stress * jump - J) > _RESIDUAL_TOL * np.maximum(np.abs(J), jump), grid,
               "stress leaves an aggregate-strain residual", eps_list)
        root = np.sqrt(energy[:, :1] / m.L) + k * np.concatenate([[0.0], np.cumsum(np.abs(np.diff(J)) / m.L)])
        _guard(energy / m.L > root**2 * (1.0 + _BOUND_SLACK) + _BOUND_SLACK * m.kappa, grid,
               "energy bound violated", eps_list)
        _guard(np.abs(sigma) > 2.0 * k * root * (1.0 + _BOUND_SLACK) + _BOUND_SLACK * m.yield_stress,
               grid, "stress bound violated", eps_list)


def _scan(m: MaterialParams, eps_list, J: np.ndarray, grid: np.ndarray):
    """Plateau stress ``s_p`` and histories ``(a, sigma, theta, l_eps, energy, work)``, per eps, of ``J``.

    Every eps passes ``plateau_factor`` before any array work; a guard's
    ``NumericalError`` names the eps of its row.
    """
    s_plateau, weak, a, sigma, theta, l_eps, energy = _frozen_cell(
        m, eps_list, J, np.maximum.accumulate(np.abs(J)))
    # A jump too large for floats overflows, and the first guard names the step.
    with np.errstate(over="ignore", invalid="ignore"):
        work = cumulative_work(sigma, J)
    _guard(~(np.isfinite(energy) & np.isfinite(work)), grid, "energy or work is not finite", eps_list)
    _bound_guards(m, J, sigma, a, energy, grid, eps_list)
    # In compliance form, exactly 1/a = (1 - theta)/weak + theta/a1.  theta's three roundings, at most
    # 3u absolutely, move the right side by 3u (1/weak - 1/a1) < 3u/weak (large for a small eps on a
    # stiff bar); the other roundings are relative to 1/a or to a term below it, inside _IDENTITY_TOL/a.
    # Nothing is linearized, so a sound fraction 1 - theta that rounds away still passes, and every
    # term is at most 1/weak, which plateau_factor keeps finite.
    compliance = (1.0 - theta) / weak + theta / m.a1
    _guard(np.abs(1.0 / a - compliance) > _IDENTITY_TOL / a + 3.0 * _U / weak, grid,
           "stiffness identity violated after damage update", eps_list)
    _guard((theta > 0.0) & (np.abs(sigma) > s_plateau * (1.0 + 1e-12)), grid,
           "stress exceeded the damage-onset plateau", eps_list)
    return s_plateau[:, 0], a, sigma, theta, l_eps, energy, work


def run_eps(m: MaterialParams, eps: float, n_cells: int, w: BoundaryDatum,
            time_grid) -> EpsTrajectory:
    """Drive the bar through ``w`` on ``time_grid`` and record energetics.

    The run starts from the pristine bar and stays homogeneous, so the
    history is a prefix scan, ``envelope._frozen_cell`` at the running maximum
    of ``|J|``: ``run_limit``'s stress rule read at ``N = M/plateau_factor``.
    Damage never heals by construction: each step from ``N`` to the stiffness
    and the sound fraction is monotone.

    Every step re-checks the closed form: a finite energy and work, the
    aggregate strain in jump units, the stiffness identity, and the a-priori
    energy bound and the stress bounds.  A violation raises
    ``NumericalError`` naming ``eps`` and the first offending step.  The independent
    reference is the per-cell incremental minimization replayed step by
    step (``tests/oracles.py::stepwise_run_eps``).
    """
    _count("n_cells", n_cells)
    grid = validate_time_grid(w, time_grid)
    J = np.asarray(w.jump(grid), dtype=float)
    _, a, sigma, theta, l_eps, energy, work = (row[0] for row in _scan(m, (eps,), J, grid))
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
