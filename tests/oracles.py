"""Independent reference computations used by the tests.

Everything here is deliberately written from the defining formulas, not
by calling the package: brute minimization instead of closed forms,
quadrature instead of cumulative updates.  Slow but trustworthy.  The one
exception is ``stepwise_run_eps``, which chains the package's per-cell
step so that the closed-form scan of ``run_eps`` has a stepwise reference.
"""

from __future__ import annotations

import numpy as np


def vector_convex_min(f, lo, hi, iters: int = 140):
    """Componentwise bracketing minimizer of a convex objective on [lo, hi].

    ``f`` maps an array of abscissae to an array of values; each
    component is treated as an independent 1D problem.  Ternary search,
    so the bracket shrinks by 2/3 per iteration; 140 iterations leave a
    bracket width below 1e-20 on unit-scale intervals.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        keep_left = f(m1) <= f(m2)
        hi = np.where(keep_left, m2, hi)
        lo = np.where(keep_left, lo, m1)
    xm = 0.5 * (lo + hi)
    return xm, f(xm)


def mixture_objective(a: float, b: float, K: float, xi, theta):
    """K*theta + harmonic-mixture stiffness times xi**2, written out longhand."""
    xi = np.asarray(xi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    return K * theta + xi**2 / (theta / a + (1.0 - theta) / b)


def envelope_by_minimization(a: float, b: float, K: float, xi):
    """Convex envelope of min(K + a*xi**2, b*xi**2) via brute minimization over theta."""
    xi = np.asarray(xi, dtype=float)
    theta, value = vector_convex_min(
        lambda th: mixture_objective(a, b, K, xi, th),
        np.zeros_like(xi), np.ones_like(xi))
    return theta, value


def wbar_by_minimization(a1: float, s: float, xi, n_eta: int = 200001, span: float = 4.0):
    """inf over eta of (a1/2)(xi - eta)^2 + s|eta| on a fine grid around the strain."""
    xi = float(xi)
    reach = span * max(1.0, abs(xi))
    eta = np.linspace(-reach, reach, n_eta)
    return float(np.min(0.5 * a1 * (xi - eta) ** 2 + s * np.abs(eta)))


def initial_energy_routes(kappa: float, a0: float, a1: float, L: float, J0: float):
    """The two independent values the starting energy must equal.

    Route one: piecewise closed form (elastic below the threshold, affine
    growth above).  Route two: brute minimization over the damage mass of
    J^2/(2(l/a0 + L/a1)) + kappa*l.
    """
    s = np.sqrt(2.0 * kappa * a0)
    thr = s * L / a1
    if abs(J0) <= thr:
        closed = a1 * J0**2 / (2.0 * L)
    else:
        closed = s * abs(J0) - kappa * a0 * L / a1

    def total(l):
        return J0**2 / (2.0 * (l / a0 + L / a1)) + kappa * l

    hi = max(1.0, a0 * (abs(J0) / s + L / a1))
    _, minimized = vector_convex_min(total, np.zeros(1), np.full(1, hi))
    return float(closed), float(minimized[0])


def trapezoid_work(times, sigma, J):
    """Cumulative external work by the trapezoidal rule, recomputed from scratch."""
    times = np.asarray(times, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    J = np.asarray(J, dtype=float)
    sbar = 0.5 * (sigma[1:] + sigma[:-1])
    return np.concatenate([[0.0], np.cumsum(sbar * np.diff(J))])


def exhaustive_step_minimum(kappa: float, eps: float, a_weak: float,
                            theta_prev: np.ndarray, a_prev: np.ndarray,
                            dx: float, J_new: float, grid_points: int = 11):
    """Best incremental energy over a full per-cell damage-fraction grid.

    For each combination of per-cell fractions the strain profile itself
    is optimized exactly (quadratic with a linear constraint), so the
    returned value dominates every (fractions, strains) competitor on
    the grid.  Exponential in the cell count; keep n <= 4.
    """
    n = theta_prev.size
    fracs = np.linspace(0.0, 1.0, grid_points)
    grids = np.meshgrid(*([fracs] * n), indexing="ij")
    combo = np.stack([g.ravel() for g in grids], axis=1)  # (grid_points**n, n)

    # Updated stiffness per cell: harmonic mix of the weak phase into the previous one.
    mixed = 1.0 / (combo / a_weak + (1.0 - combo) / a_prev[None, :])
    compliance = np.sum(dx / mixed, axis=1)
    elastic = J_new**2 / (2.0 * compliance)
    burnt = (1.0 - theta_prev[None, :]) + combo * theta_prev[None, :]
    damage = (kappa / eps) * np.sum(burnt * dx, axis=1)
    values = elastic + damage
    k = int(np.argmin(values))
    return float(values[k]), combo[k]


def stepwise_run_eps(m, eps: float, n_cells: int, w, time_grid) -> dict:
    """Fixed-scale run replayed one ``incremental_step`` per time step.

    The per-cell step is the package's reference for heterogeneous
    states; chaining it from the initial step gives the trajectory that
    the closed-form scan of ``run_eps`` must reproduce.  Energies and the
    damage mass are summed cell by cell, and the external work is
    accumulated step by step.  The run's own guards are not replayed.
    """
    from barlab.eps_evolution import (damage_mass, incremental_step, initial_step,
                                      total_energy)

    grid = np.asarray(time_grid, dtype=float)
    J = np.asarray(w.jump(grid), dtype=float)
    steps = grid.size
    out = {name: np.zeros(steps) for name in ("sigma", "energy", "l_eps", "work_cum")}
    out["theta"] = np.zeros((steps, n_cells))
    out["stiffness"] = np.zeros((steps, n_cells))

    state = initial_step(m, eps, n_cells, float(J[0]))
    for k in range(steps):
        if k > 0:
            state = incremental_step(state, m, float(J[k]), t_new=float(grid[k]))
            out["work_cum"][k] = (out["work_cum"][k - 1]
                                  + 0.5 * (out["sigma"][k - 1] + state.sigma) * (J[k] - J[k - 1]))
        out["sigma"][k] = state.sigma
        out["theta"][k] = state.theta
        out["stiffness"][k] = state.stiffness
        out["energy"][k] = total_energy(state, m)
        out["l_eps"][k] = damage_mass(state, m)
    out["eb_residual"] = out["energy"] - out["energy"][0] - out["work_cum"]
    return out


def path_admits_plasticity(J, threshold: float) -> bool:
    """Path test from its definition, with a running maximum over the knot values of J.

    The path fails when ``|J|`` drops below its running maximum ``M`` once
    ``M`` exceeds the threshold.  Between knots of one sign ``|J|`` is
    linear, so a drop shows at the segment's end knot; a strict sign
    change inside a segment takes ``|J|`` through zero, below ``M``.
    """
    J = np.asarray(J, dtype=float)
    running_max = 0.0
    for k in range(J.size):
        if k > 0 and J[k - 1] * J[k] < 0.0 and running_max > threshold:
            return False
        running_max = max(running_max, abs(J[k]))
        if running_max > threshold and abs(J[k]) < running_max:
            return False
    return True
