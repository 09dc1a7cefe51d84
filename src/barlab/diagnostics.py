"""Energetic diagnostics and the plasticity-vs-damage classifier.

The limit evolution always balances its own damage energy.  Whether it
also balances the perfect-plasticity energy (elastic part plus yield
dissipation against external work) depends only on the loading path:
the balance holds exactly when, whenever ``|J|`` drops below an earlier
value, it has already dropped inside the elastic window.  This module
computes the plasticity residual, the flow-rule defect per step, the
path test with an explicit witness when it fails, and the static
relaxed energy used to certify initial states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import MaterialParams, wbar_1d
from .errors import NumericalError
from .limit_evolution import LimitTrajectory, run_limit
from .loading import (BoundaryDatum, cumulative_work, jump_nodes,
                      refined_time_grid, threshold_crossing)

__all__ = [
    "PERFECT_PLASTICITY",
    "DAMAGE_ONLY",
    "dissipation",
    "plasticity_energy_balance_residual",
    "residual_series",
    "fake_balance_residual_series",
    "flow_rule_residual",
    "Classification",
    "cns_classify",
    "ConsistencyReport",
    "classifier_consistency",
    "DiscreteDisplacement",
    "static_gamma_energy",
    "competitor_family",
]

PERFECT_PLASTICITY = "PerfectPlasticity"
DAMAGE_ONLY = "DamageOnly"

# Absolute tolerances of classifier_consistency: stress saturation and residual size.
_SATURATION_TOL = 1e-9
_RESIDUAL_TOL = 1e-6


def _locate(traj: LimitTrajectory, t: float) -> int:
    k = int(np.searchsorted(traj.times, t))
    for idx in (k - 1, k):
        if 0 <= idx < traj.times.size and abs(traj.times[idx] - t) <= 1e-9:
            return idx
    raise ValueError(f"t={t!r} is not a recorded instant")


def _yield_dissipation(traj: LimitTrajectory) -> np.ndarray:
    # Cumulative yield_stress * Var(p) from the first recorded instant.
    return traj.m.yield_stress * np.concatenate([[0.0], np.cumsum(np.abs(np.diff(traj.p)))])


def _balance(traj: LimitTrajectory, spent: np.ndarray) -> np.ndarray:
    # Elastic energy plus the cumulative energy ``spent`` on p, minus the initial
    # elastic energy and the external work; the elastic part is L*sigma**2/(2*a1).
    m = traj.m
    elastic = m.L * traj.sigma**2 / (2.0 * m.a1)
    return elastic + spent - elastic[0] - traj.work_cum


def dissipation(traj: LimitTrajectory, s: float, t: float) -> float:
    """Yield dissipation ``yield_stress * variation of the plastic mass`` between the recorded instants ``s <= t``."""
    if s > t:
        raise ValueError(f"need s <= t, got s={s!r}, t={t!r}")
    diss = _yield_dissipation(traj)
    return float(diss[_locate(traj, t)] - diss[_locate(traj, s)])


def residual_series(traj: LimitTrajectory) -> np.ndarray:
    """Plasticity energy-balance residual at every recorded instant.

    ``R(t) = elastic(t) + dissipation(0, t) - elastic(0) - work(0, t)``
    with the elastic part ``L*sigma**2/(2*a1)``.  Identically zero, up to
    time-discretization error, exactly when the path admits a
    perfect-plasticity reading; strictly positive afterwards otherwise.
    """
    return _balance(traj, _yield_dissipation(traj))


def plasticity_energy_balance_residual(traj: LimitTrajectory, t: float) -> float:
    """Value of ``residual_series`` at the recorded instant ``t``."""
    return float(residual_series(traj)[_locate(traj, t)])


def fake_balance_residual_series(traj: LimitTrajectory) -> np.ndarray:
    """Residual of the unconditional balance, with ``sigma*dp`` in place of the yield dissipation.

    This balance is an identity of the limit model, so the series tends
    to zero with the time step on every loading path.
    """
    return _balance(traj, cumulative_work(traj.sigma, traj.p))


def _flow_defect(traj: LimitTrajectory) -> np.ndarray:
    # Entry k-1 is the defect yield_stress*|dp| - sigma_k*dp of step k.
    dp = np.diff(traj.p)
    return traj.m.yield_stress * np.abs(dp) - traj.sigma[1:] * dp


def flow_rule_residual(traj: LimitTrajectory, k: int) -> float:
    """Defect ``yield_stress*|dp| - sigma_k*dp`` of step ``k``; zero iff the flow aligns with a saturated stress."""
    if not 1 <= k < traj.times.size:
        raise ValueError(f"step index must lie in [1, {traj.times.size - 1}], got {k!r}")
    return float(_flow_defect(traj)[k - 1])


@dataclass(frozen=True)
class Classification:
    """Outcome of the path test with supporting diagnostics."""

    verdict: str
    witness: tuple[float, float] | None
    t0: float           # last recorded instant without damage
    t0_star: float      # exact crossing of the jump threshold by |J|, or T if it never crosses
    max_eb_residual: float
    flow_rule_violations: int


def cns_classify(w: BoundaryDatum, m: MaterialParams, steps: int = 400) -> Classification:
    """Decide whether the loading path admits a perfect-plasticity reading.

    The path fails exactly when ``|J|`` strictly decreases somewhere
    after first exceeding the jump threshold; for piecewise-linear data
    the scan over the segments of ``jump_nodes`` is exact.  On failure a
    witness pair ``(s, t)`` with ``|J(t)| < |J(s)|`` and ``|J(t)|`` above
    the threshold is returned.
    """
    grid = refined_time_grid(w, steps)
    traj = run_limit(m, w, grid)
    thr = m.jump_threshold
    t0_star = threshold_crossing(w, thr)

    times, J = jump_nodes(w)
    absJ = np.abs(J)
    # Segments that end after t0* and on which |J| strictly decreases.
    drops = np.flatnonzero((times[1:] > t0_star + 1e-15) & (absJ[1:] < absJ[:-1])) + 1

    witness: tuple[float, float] | None = None
    if drops.size:
        k = int(drops[0])
        start = max(float(times[k - 1]), t0_star)
        a_val = float(np.interp(start, times, absJ))
        if absJ[k] > thr:
            witness = (start, float(times[k]))
        else:
            # Pick the interior instant where |J| has dropped half-way to the threshold.
            target = 0.5 * (a_val + thr)
            frac = (a_val - target) / (a_val - absJ[k])
            witness = (start, float(start + frac * (times[k] - start)))

    dt = float(np.max(np.diff(grid)))
    if abs(traj.t0 - t0_star) > dt + 1e-12:
        raise NumericalError(
            f"damage onset t0={traj.t0!r} and threshold crossing t0*={t0_star!r} "
            f"disagree by more than one time step"
        )

    series = residual_series(traj)
    violations = int(np.sum(_flow_defect(traj) > 1e-9))

    return Classification(
        verdict=DAMAGE_ONLY if witness is not None else PERFECT_PLASTICITY,
        witness=witness,
        t0=traj.t0,
        t0_star=t0_star,
        max_eb_residual=float(series.max()),
        flow_rule_violations=violations,
    )


@dataclass(frozen=True)
class ConsistencyReport:
    """Three-way agreement between verdict, stress saturation, and the balance residual."""

    ok: bool
    first_inconsistent_time: float | None
    detail: str

    def __bool__(self) -> bool:
        return self.ok


def classifier_consistency(traj: LimitTrajectory, verdict: str) -> ConsistencyReport:
    """Check verdict == stress saturation after damage onset == vanishing residual.

    On damage-dominated runs the residual is additionally certified from
    below by the instantaneous stress-gap term and by the misaligned-flow
    dissipation; both bounds hold along every reachable trajectory.
    """
    m = traj.m
    s = m.yield_stress
    series = residual_series(traj)

    zero = np.flatnonzero(traj.l == 0.0)
    k0 = int(zero[-1]) if zero.size else 0
    tail = np.abs(traj.sigma[k0 + 1:])
    saturated = bool(traj.l[-1] == 0.0 or np.all(s - tail <= _SATURATION_TOL))
    small_residual = bool(series.max() <= _RESIDUAL_TOL)
    says_plastic = verdict == PERFECT_PLASTICITY

    if says_plastic != saturated:
        bad = k0 + 1 + int(np.argmax(s - tail > _SATURATION_TOL)) if tail.size else k0
        return ConsistencyReport(False, float(traj.times[bad]),
                                 "verdict and stress saturation disagree")
    if says_plastic != small_residual:
        bad = int(np.argmax(series > _RESIDUAL_TOL))
        return ConsistencyReport(False, float(traj.times[bad]),
                                 "verdict and balance residual disagree")

    if not says_plastic:
        gap = (s - np.abs(traj.sigma)) ** 2 * traj.l / (2.0 * m.a0)
        if np.any(series < gap - _RESIDUAL_TOL):
            bad = int(np.argmax(series < gap - _RESIDUAL_TOL))
            return ConsistencyReport(False, float(traj.times[bad]),
                                     "residual fell below the stress-gap bound")
        dp = np.diff(traj.p)
        misaligned = np.where(traj.sigma[1:] * dp < 0.0, np.abs(dp), 0.0)
        lower = s * np.concatenate([[0.0], np.cumsum(misaligned)])
        if np.any(series < lower - _RESIDUAL_TOL):
            bad = int(np.argmax(series < lower - _RESIDUAL_TOL))
            return ConsistencyReport(False, float(traj.times[bad]),
                                     "residual fell below the misaligned-flow dissipation")

    return ConsistencyReport(True, None, "consistent")


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


def static_gamma_energy(u: DiscreteDisplacement, m: MaterialParams,
                        traces: tuple[float, float]) -> float:
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
    return bulk + m.yield_stress * (jumps + boundary)


def competitor_family(m: MaterialParams, J0: float, count: int,
                      rng: np.random.Generator, cells: int = 8):
    """Randomized competitor displacements for the static energy, special profiles included.

    Always yields the affine matching profile and, when the load exceeds
    the elastic window, the yield-slope profile with a single compensating
    jump; the remainder are random slopes with up to three random jumps.
    """
    yield DiscreteDisplacement(np.linspace(0.0, J0, cells + 1))
    s = m.yield_stress
    if abs(J0) > m.jump_threshold:
        sign = 1.0 if J0 > 0.0 else -1.0
        slope = sign * s / m.a1
        body = np.linspace(0.0, slope * m.L, cells + 1)
        amp = J0 - slope * m.L
        yield DiscreteDisplacement(body, jumps=((m.L / 2.0, amp),))
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
