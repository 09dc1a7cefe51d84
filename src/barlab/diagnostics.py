"""Energetic diagnostics and the plasticity-vs-damage classifier.

The limit evolution always balances its own damage energy.  Whether it
also balances the perfect-plasticity energy (elastic part plus yield
dissipation against external work) depends only on the loading path:
the balance holds exactly when, whenever ``|J|`` drops below an earlier
value, it has already dropped inside the elastic window.  This module
computes the plasticity residual, the flow-rule defect per step, the
path test with an explicit witness when it fails, and the consistency
check of a verdict against stress saturation and the residual.  Every
tolerance is relative to the material's units: stresses to the yield
stress ``s*``, energies and flow defects to ``s* L``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import MaterialParams
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
    "flow_rule_defects",
    "Classification",
    "cns_classify",
    "ConsistencyReport",
    "classifier_consistency",
]

PERFECT_PLASTICITY = "PerfectPlasticity"
DAMAGE_ONLY = "DamageOnly"

# Tolerances of the classifier: stress saturation in units of s*, residual
# size in units of s* L, and the flow-rule defect count in units of s* L.
_SATURATION_TOL = 1e-9
_RESIDUAL_TOL = 1e-6
_DEFECT_TOL = 1e-9


def _locate(traj: LimitTrajectory, t: float) -> int:
    # The nearer neighbour of t on the grid, within rounding of the horizon.
    times = traj.times
    k = int(np.clip(np.searchsorted(times, t), 1, times.size - 1))
    idx = k - 1 if t - times[k - 1] <= times[k] - t else k
    if abs(times[idx] - t) <= 1e-12 * times[-1]:
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


def flow_rule_defects(traj: LimitTrajectory) -> np.ndarray:
    """Flow-rule defect ``yield_stress*|dp| - sigma_k*dp`` of every step.

    Entry ``k-1`` belongs to step ``k``; it is zero iff the flow of that
    step aligns with a saturated stress.
    """
    dp = np.diff(traj.p)
    return traj.m.yield_stress * np.abs(dp) - traj.sigma[1:] * dp


@dataclass(frozen=True)
class Classification:
    """Outcome of the path test with supporting diagnostics."""

    verdict: str
    witness: tuple[float, float] | None
    t0: float           # last recorded instant without damage
    t0_star: float      # exact crossing of the jump threshold by |J|, or T if it never crosses
    max_eb_residual: float
    flow_rule_violations: int


def cns_classify(w: BoundaryDatum, m: MaterialParams, *, steps: int) -> Classification:
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
    # Segments that end after t0* and on which |J| strictly decreases; none ends
    # at t0*, where |J| rises through the threshold.
    drops = np.flatnonzero((times[1:] > t0_star) & (absJ[1:] < absJ[:-1])) + 1

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
    if abs(traj.t0 - t0_star) > dt * (1.0 + 1e-12):
        raise NumericalError(
            f"damage onset t0={traj.t0!r} and threshold crossing t0*={t0_star!r} "
            f"disagree by more than one time step"
        )

    series = residual_series(traj)
    violations = int(np.sum(flow_rule_defects(traj) > _DEFECT_TOL * m.yield_stress * m.L))

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
    sat_tol = _SATURATION_TOL * s
    res_tol = _RESIDUAL_TOL * s * m.L
    series = residual_series(traj)

    damaged = traj.l > 0.0
    unsaturated = damaged & (s - np.abs(traj.sigma) > sat_tol)
    saturated = not unsaturated.any()
    small_residual = bool(series.max() <= res_tol)
    says_plastic = verdict == PERFECT_PLASTICITY

    if says_plastic != saturated:
        bad = int(np.argmax(unsaturated if says_plastic else damaged))
        return ConsistencyReport(False, float(traj.times[bad]),
                                 "verdict and stress saturation disagree")
    if says_plastic != small_residual:
        bad = int(np.argmax(series > res_tol))
        return ConsistencyReport(False, float(traj.times[bad]),
                                 "verdict and balance residual disagree")

    if not says_plastic:
        gap = (s - np.abs(traj.sigma)) ** 2 * traj.l / (2.0 * m.a0)
        if np.any(series < gap - res_tol):
            bad = int(np.argmax(series < gap - res_tol))
            return ConsistencyReport(False, float(traj.times[bad]),
                                     "residual fell below the stress-gap bound")
        dp = np.diff(traj.p)
        misaligned = np.where(traj.sigma[1:] * dp < 0.0, np.abs(dp), 0.0)
        lower = s * np.concatenate([[0.0], np.cumsum(misaligned)])
        if np.any(series < lower - res_tol):
            bad = int(np.argmax(series < lower - res_tol))
            return ConsistencyReport(False, float(traj.times[bad]),
                                     "residual fell below the misaligned-flow dissipation")

    return ConsistencyReport(True, None, "consistent")
