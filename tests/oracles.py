"""Independent reference computations used by the tests.

Everything here is deliberately written from the defining formulas, not
by calling the package: brute minimization instead of closed forms,
quadrature instead of cumulative updates, one incremental step per
load instead of a prefix scan.  Slow but trustworthy.  The static
relaxed energy that certifies initial states and the reconstruction of
the damage mass from energy and jump live here too: the package never
needs them.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

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


def trapezoid_balance(traj, spent):
    """Elastic energy ``L*sigma**2/(2*a1)`` plus the energy ``spent`` on ``p``, less its start and the trapezoid work."""
    m = traj.m
    elastic = m.L * traj.sigma**2 / (2.0 * m.a1)
    return elastic + spent - elastic[0] - trapezoid_work(traj.times, traj.sigma, traj.J)


def limit_ledger(traj):
    """The limit model's ledger in its own variables: ``p = sigma l/a0``, ``S = l (sigma^2/(2 a0) + kappa)``.

    The plastic strain is the opening the damage mass carries, and the
    stored energy the mass's elastic and breaking energy; on a limit run
    they equal the model-free ``J - L sigma/a1`` and ``E - L sigma^2/(2 a1)``.
    """
    m = traj.m
    return traj.sigma * traj.l / m.a0, traj.l * (traj.sigma**2 / (2.0 * m.a0) + m.kappa)


def trapezoid_residual_series(traj):
    """Plasticity residual with the trapezoid work: the yield dissipation ``s* Var(p)`` as ``spent``."""
    p, _ = limit_ledger(traj)
    spent = traj.m.yield_stress * np.concatenate([[0.0], np.cumsum(np.abs(np.diff(p)))])
    return trapezoid_balance(traj, spent)


def fake_balance_residual_series(traj):
    """Residual of the unconditional balance, with ``sigma*dp`` in place of the yield dissipation.

    This balance is an identity of the limit model, so the series tends
    to zero with the time step on every loading path.
    """
    return trapezoid_balance(traj, trapezoid_work(traj.times, traj.sigma, limit_ledger(traj)[0]))


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


StepState = namedtuple("StepState", "epsilon sigma theta stiffness")
"""Bar at scale ``epsilon``: common stress, per-cell sound fraction and homogenized stiffness."""


def pristine_state(m, eps: float, n_cells: int) -> StepState:
    """Undamaged bar: sound fraction 1 and stiffness ``a1`` in every cell."""
    return StepState(eps, 0.0, np.ones(n_cells), np.full(n_cells, m.a1))


def incremental_step(prev: StepState, m, J_new: float) -> StepState:
    """One incremental minimization of elastic plus breaking energy, cell by cell.

    A cell that converts the fraction ``f`` of its sound material into the
    weak phase ``eps*a0`` mixes harmonically, ``1/a = f/(eps*a0) + (1-f)/a_prev``.
    The relaxed density has the plateau stress ``s_p`` in every cell, so the
    load picks one of three regimes: elastic (no cell damages), fully
    damaged (every live cell breaks) or plateau (the stress is ``±s_p`` and
    every live cell breaks the same share of its admissible range).  The
    result must carry ``J_new`` through the cells at one stress, obey the
    stiffness identity ``1/a = (1-Theta)/(eps*a0) + Theta/a1`` and not heal.
    """
    eps = prev.epsilon
    weak = eps * m.a0
    n = prev.theta.size
    dx = m.L / n
    s_plateau = m.yield_stress * math.sqrt(m.a1 / (m.a1 - weak))
    live = prev.theta > 0.0

    # Aggregate strain window at the plateau stress; dead cells stay linear.
    compliance = float((1.0 / prev.stiffness).sum() * dx)
    agg_lo = s_plateau * compliance
    agg_hi = s_plateau * m.L / weak
    j_abs = abs(J_new)
    if j_abs <= agg_lo:
        sigma, frac = J_new / compliance, np.zeros(n)
    elif j_abs >= agg_hi:
        sigma, frac = J_new * weak / m.L, np.where(live, 1.0, 0.0)
    else:
        sigma = math.copysign(s_plateau, J_new)
        frac = np.where(live, (j_abs - agg_lo) / (agg_hi - agg_lo), 0.0)

    theta = (1.0 - frac) * prev.theta
    a = weak * prev.stiffness / (frac * prev.stiffness + (1.0 - frac) * weak)
    residual = abs(sigma * float((1.0 / a).sum() * dx) - J_new)
    assert residual <= 1e-12 * max(j_abs, agg_lo), f"strain residual {residual!r} at J={J_new!r}"
    identity = 1.0 / ((1.0 - theta) / weak + theta / m.a1)
    assert np.all(np.abs(a - identity) <= 1e-12 * a), "stiffness identity violated"
    heals = np.any(theta > prev.theta) or np.any(a > prev.stiffness * (1.0 + 1e-14))
    assert not heals, "the step heals the bar"
    return StepState(eps, float(sigma), theta, a)


def initial_step(m, eps: float, n_cells: int, J0: float) -> StepState:
    """State at the initial load: one incremental step from the pristine bar."""
    return incremental_step(pristine_state(m, eps, n_cells), m, J0)


def total_energy(state: StepState, m) -> float:
    """Elastic energy plus the breaking cost ``kappa/eps`` per damaged volume, cell by cell."""
    dx = m.L / state.theta.size
    elastic = float((state.sigma**2 / (2.0 * state.stiffness)).sum() * dx)
    return elastic + m.kappa * damage_mass(state, m)


def damage_mass(state: StepState, m) -> float:
    """Rescaled damaged volume ``integral (1 - Theta)/eps dx``."""
    return float((1.0 - state.theta).sum() * (m.L / state.theta.size)) / state.epsilon


def stepwise_run_eps(m, eps: float, n_cells: int, w, time_grid) -> dict:
    """Fixed-scale run replayed one ``incremental_step`` per time step.

    Chaining the per-cell step from the initial step gives the trajectory
    that the closed-form scan of ``run_eps`` must reproduce.  Energies and
    the damage mass are summed cell by cell, and the external work is
    accumulated step by step.  The run's own guards are not replayed.
    """
    grid = np.asarray(time_grid, dtype=float)
    J = np.asarray(w.jump(grid), dtype=float)
    steps = grid.size
    out = {name: np.zeros(steps) for name in ("sigma", "energy", "l_eps", "work_cum")}
    out["theta"] = np.zeros((steps, n_cells))
    out["stiffness"] = np.zeros((steps, n_cells))

    state = initial_step(m, eps, n_cells, float(J[0]))
    for k in range(steps):
        if k > 0:
            state = incremental_step(state, m, float(J[k]))
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


def limit_step(M_prev: float, m, J: float) -> tuple[float, float]:
    """Return map of the limit model per instant: ``(sigma, M)``, with ``M`` the running maximum of ``|J|``."""
    # |J| <= M, so |J/M| <= 1 under correct rounding and |sigma| <= s* with no clamp.
    M = max(M_prev, abs(J))
    return m.yield_stress * (J / M), M


def closed_form_limit(m, J, times) -> dict:
    """The limit model as one running-maximum scan instead of a return map per step.

    ``M = max(thr, cummax|J|)``, ``sigma = s* (J/M)``, ``l = (M - thr) (a0/s*)``,
    ``E = J sigma/2 + kappa l``, and ``t0`` is the last instant with ``l = 0``
    (the start when there is none).
    """
    J = np.asarray(J, dtype=float)
    s, thr = m.yield_stress, m.jump_threshold
    M = np.maximum.accumulate(np.maximum(np.abs(J), thr))
    sigma = s * (J / M)
    l = (M - thr) * (m.a0 / s)
    undamaged = np.count_nonzero(l == 0.0)
    return {"sigma": sigma, "l": l, "E_closed": 0.5 * J * sigma + m.kappa * l,
            "t0": float(times[max(undamaged - 1, 0)])}


def stepwise_limit(m, J) -> dict:
    """The limit model by the mass ratchet, one step per instant, with no running maximum.

    ``l = max(l_prev, a0 (|J| - thr)/s*)`` from ``l = 0``, ``sigma = J/(l/a0 + L/a1)``
    clamped to ``[-s*, s*]`` and ``E = J sigma/2 + kappa l``: each state from the series
    compliance of the mass.  ``thr`` is the material's.
    """
    s, thr = m.yield_stress, m.jump_threshold
    sigma, mass = np.zeros(len(J)), np.zeros(len(J))
    l = 0.0
    for k, J_k in enumerate(np.asarray(J, dtype=float).tolist()):
        l = max(l, m.a0 * (abs(J_k) - thr) / s)
        sigma[k], mass[k] = min(max(J_k / (l / m.a0 + m.L / m.a1), -s), s), l
    return {"sigma": sigma, "l": mass, "E_closed": 0.5 * np.asarray(J) * sigma + m.kappa * mass}


def mass_reconstruction(m, E: float, J: float) -> tuple[float, float]:
    """Recover the damage mass from energy and jump alone.

    Returns ``(delta, l)`` where ``delta`` is the discriminant
    ``(E/a0 + kappa*L/a1)**2 - (2*kappa/a0)*J**2``; it is nonnegative for
    every reachable state and the positive root reproduces ``l``.
    """
    delta = (E / m.a0 + m.kappa * m.L / m.a1) ** 2 - (2.0 * m.kappa / m.a0) * J**2
    root = math.sqrt(max(delta, 0.0))
    l = (m.a0 / (2.0 * m.kappa)) * (E / m.a0 - m.kappa * m.L / m.a1 + root)
    return float(delta), float(l)


def wbar_1d(m, xi):
    """Effective stored-energy density of the limit model (Huber form).

    Quadratic ``(a1/2)*xi**2`` while the sound stress stays inside the
    yield interval, affine ``s*|xi| - s**2/(2*a1)`` beyond, with
    ``s = sqrt(2*kappa*a0)``.
    """
    arr = np.asarray(xi, dtype=float)
    s = math.sqrt(2.0 * m.kappa * m.a0)
    x = np.abs(arr)
    out = np.where(x <= s / m.a1, 0.5 * m.a1 * arr**2, s * x - s**2 / (2.0 * m.a1))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class DiscreteDisplacement:
    """Piecewise-affine displacement on a uniform cell grid plus interior jumps.

    ``values`` are the nodal values of the continuous part; each jump is
    a ``(position, amplitude)`` pair with position strictly inside the
    bar.  The trace at the right end accumulates all jump amplitudes.
    """

    values: np.ndarray
    jumps: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float).copy())
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("need nodal values on at least one cell")
        object.__setattr__(self, "jumps", tuple((float(x), float(a)) for x, a in self.jumps))

    def traces(self, L: float) -> tuple[float, float]:
        for x, _ in self.jumps:
            if not 0.0 < x < L:
                raise ValueError(f"jump position {x!r} must lie strictly inside (0, {L!r})")
        total = sum(a for _, a in self.jumps)
        return float(self.values[0]), float(self.values[-1] + total)


def static_gamma_energy(u: DiscreteDisplacement, m, traces: tuple[float, float]) -> float:
    """Relaxed static energy of a competitor displacement.

    Bulk term with the effective density, plus the yield stress times the
    total jump mass, including the mismatch with the boundary traces
    ``traces = (w(0), w(L))``.  Its minimum over all competitors equals
    the initial energy of the limit evolution.
    """
    w_left, w_right = traces
    n = u.values.size - 1
    dx = m.L / n
    slopes = np.diff(u.values) / dx
    u_left, u_right = u.traces(m.L)
    bulk = float(np.sum(wbar_1d(m, slopes)) * dx)
    jumps = sum(abs(a) for _, a in u.jumps)
    boundary = abs(w_right - u_right) + abs(w_left - u_left)
    return bulk + math.sqrt(2.0 * m.kappa * m.a0) * (jumps + boundary)


def competitor_family(m, J0: float, count: int, rng: np.random.Generator, cells: int = 8):
    """Randomized competitor displacements for the static energy, special profiles included.

    Always yields the affine matching profile and, when the load exceeds
    the elastic window, the yield-slope profile with a single compensating
    jump; the remainder are random slopes with up to three random jumps.
    """
    yield DiscreteDisplacement(np.linspace(0.0, J0, cells + 1))
    s = math.sqrt(2.0 * m.kappa * m.a0)
    if abs(J0) > s * m.L / m.a1:
        slope = math.copysign(s / m.a1, J0)
        body = np.linspace(0.0, slope * m.L, cells + 1)
        yield DiscreteDisplacement(body, jumps=((m.L / 2.0, J0 - slope * m.L),))
    scale = max(1.0, abs(J0))
    for _ in range(max(0, count - 2)):
        slopes = rng.normal(J0 / m.L, 2.0 * scale, size=cells)
        values = np.concatenate([[rng.normal(0.0, scale)], np.cumsum(slopes) * (m.L / cells)])
        values[1:] += values[0]
        njump = int(rng.integers(0, 4))
        jumps = tuple(
            (float(rng.uniform(0.05, 0.95) * m.L), float(rng.normal(0.0, scale)))
            for _ in range(njump)
        )
        yield DiscreteDisplacement(values, jumps=jumps)
