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
``envelope._frozen_cell``: the limit model's stress ``s* (J/n)`` and mass
``(n - thr)(a0/s*)`` times ``a1/(a1 - eps a0)`` at ``n``, the running maximum of
``|J|`` over ``plateau_factor`` clipped from onset to full damage.  Only ``n``
and the weak stiffness depend on ``eps``, so the scan runs on a leading eps
axis: one running maximum serves every eps of a sweep, ``run_eps`` one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import MaterialParams, _frozen_cell
from .errors import _guard
from .loading import BoundaryDatum, _count, cumulative_work, validate_time_grid

__all__ = ["EpsTrajectory", "run_eps"]


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
    """Plateau stress ``s_p`` and histories ``(a, sigma, theta, l_eps, energy, work)``, per eps, of ``J``.

    Every eps passes ``plateau_factor`` before any array work; the guard's
    ``NumericalError`` names the eps of its row.
    """
    s_plateau, a, sigma, theta, l_eps, energy = _frozen_cell(m, eps_list, J, np.maximum.accumulate(np.abs(J)))
    # A jump too large for floats overflows, and the guard names the first such step.
    with np.errstate(over="ignore", invalid="ignore"):
        work = cumulative_work(sigma, J)
    _guard(~(np.isfinite(energy) & np.isfinite(work)), grid, "energy or work is not finite", eps_list)
    return s_plateau[:, 0], a, sigma, theta, l_eps, energy, work


def run_eps(m: MaterialParams, eps: float, n_cells: int, w: BoundaryDatum,
            time_grid) -> EpsTrajectory:
    """Drive the bar through ``w`` on ``time_grid`` and record energetics.

    The run starts from the pristine bar and stays homogeneous, so the
    history is a prefix scan, ``envelope._frozen_cell`` at the running maximum
    of ``|J|``: ``run_limit``'s stress and mass, the mass times ``a1/(a1 - eps a0)``,
    read at ``N = M/plateau_factor``.  Damage never heals by construction: each
    step from ``N`` to the stiffness, the sound fraction and the mass is monotone.

    One guard, a finite energy and work, raises ``NumericalError`` naming ``eps`` and the first offending
    step; the closed form's identities and a-priori bounds are a property test's.  The reference is the
    per-cell incremental minimization replayed step by step (``tests/oracles.py::stepwise_run_eps``).
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
