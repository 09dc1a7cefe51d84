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
from .errors import NumericalError, _U, _guard
from .limit_evolution import LimitTrajectory, run_limit
from .loading import BoundaryDatum, refined_time_grid, threshold_crossing

__all__ = [
    "PERFECT_PLASTICITY",
    "DAMAGE_ONLY",
    "yield_dissipation",
    "residual_series",
    "flow_rule_defects",
    "stress_saturated",
    "Classification",
    "cns_classify",
    "ConsistencyReport",
    "classifier_consistency",
]

PERFECT_PLASTICITY = "PerfectPlasticity"
DAMAGE_ONLY = "DamageOnly"

# Tolerances of the classifier: stress saturation in units of s*, residual
# size in units of s* L, and the flow-rule defect count in units of s* L;
# the last two are raised to the ledger's rounding bound where it is larger.
_SATURATION_TOL = 1e-9
_RESIDUAL_TOL = 1e-6
_DEFECT_TOL = 1e-9

# Rounding of the ledger, counted to first order in _U against exact
# arithmetic on the recorded J and the material's floats.
#   Per instant: p = sigma l/a0 = J x/(x + c) with x = l/a0, c = L/a1, so a
#   relative error u in sigma, x or c moves p by at most u|J|; a mass kept
#   from an earlier |J| = M >= |J| too.  sigma takes 11 roundings: s* (2:
#   2 kappa a0, sqrt), thr (2: *L, /a1), the trial mass (3: -, *a0, /s*) and
#   J/(l/a0 + L/a1) (4); p adds sigma*l and /a0, so its error is at most
#   13 u |J|.  S = l (sigma^2/(2 a0) + kappa) <= 2 kappa l <= s* M: its mass
#   (7 roundings) enters with weight at most s*^2/a0, its stress (11) with
#   weight |p| <= |J|, and its own four operations add 4 u S: 22 u s* max|J|.
#   Flow defect s*|dp| - sigma_k dp per step: dp carries 13 u (|J_k| + |J_k-1|)
#   from p and one rounding, and the defect is 2 s*-Lipschitz in dp: 28.  s*
#   (2), sigma_k (11), the two products and the subtraction (2) add
#   17 u s* |dp|, with |dp| <= |J_k| + |J_k-1|: 45 u s* (|J_k| + |J_k-1|).
#   Residual s* Var(p) - (S - S(0)) after n steps: each of the n terms |dp|
#   carries 28 u max|J|; the running sum (n - 1), s* and the product (3) add
#   (n + 2) u s* Var(p); S and S(0) add 44 u s* max|J|, the two subtractions
#   u (s* Var(p) + 2 s* max|J|): u ((n + 3) s* Var(p) + (28 n + 46) s* max|J|).


def yield_dissipation(traj: LimitTrajectory) -> np.ndarray:
    """Cumulative yield dissipation ``s* Var_0^t(p)`` at every recorded instant.

    The dissipation between two recorded instants is the difference of
    two entries.
    """
    return traj.m.yield_stress * np.concatenate([[0.0], np.cumsum(np.abs(np.diff(traj.p)))])


def residual_series(traj: LimitTrajectory) -> np.ndarray:
    """Plasticity energy-balance residual at every recorded instant.

    ``R(t) = elastic(t) + s* Var_0^t(p) - elastic(0) - work(0, t)``
    with the elastic part ``L*sigma**2/(2*a1)``.  The limit model balances
    its own damage energy, so the work cancels and
    ``R(t) = s* Var_0^t(p) - S(t) + S(0)`` with the stored part
    ``S = l*(sigma**2/(2*a0) + kappa)``.  The recorded states are exact and
    ``p`` is monotone between knots of the datum, so this is exact on any
    grid that holds the knots.  Zero exactly when the path admits a
    perfect-plasticity reading; strictly positive afterwards otherwise.
    """
    m = traj.m
    with np.errstate(over="ignore", invalid="ignore"):
        stored = traj.l * (traj.sigma**2 / (2.0 * m.a0) + m.kappa)
        series = yield_dissipation(traj) - (stored - stored[0])
    _guard(~np.isfinite(series), traj.times, "plasticity ledger is not finite")
    return series


def flow_rule_defects(traj: LimitTrajectory) -> np.ndarray:
    """Flow-rule defect ``yield_stress*|dp| - sigma_k*dp`` of every step.

    Entry ``k-1`` belongs to step ``k``; it is zero iff the flow of that
    step aligns with a saturated stress.
    """
    dp = np.diff(traj.p)
    return traj.m.yield_stress * np.abs(dp) - traj.sigma[1:] * dp


def stress_saturated(traj: LimitTrajectory) -> np.ndarray:
    """Instants where ``|sigma|`` sits on the yield stress ``s*``, to ``1e-9`` relative."""
    return np.abs(traj.sigma) >= traj.m.yield_stress * (1.0 - _SATURATION_TOL)


@dataclass(frozen=True)
class Classification:
    """Outcome of the path test with supporting diagnostics."""

    verdict: str
    witness: tuple[float, float] | None
    t0: float           # last recorded instant without damage
    t0_star: float      # exact crossing of the jump threshold by |J|, or the datum's end if it never crosses
    max_eb_residual: float
    flow_rule_violations: int


def cns_classify(w: BoundaryDatum, m: MaterialParams, *, steps: int) -> Classification:
    """Decide whether the loading path admits a perfect-plasticity reading.

    The path fails exactly when ``|J|`` strictly decreases somewhere
    after first exceeding the jump threshold; for piecewise-linear data
    the scan over the segments of ``w.nodes`` is exact.  The witness ``(s, t)``
    of a failure lies on the first node segment after ``t0*`` where ``|J|``
    drops: ``s`` is the later of ``t0*`` and its start, ``t`` its end if ``|J|``
    stays above the threshold there, else where ``|J|`` has dropped half-way
    to it.  So ``t0* <= s <= t <= T``, and ``thr < |J(t)| < |J(s)|`` unless
    floats cannot resolve the drop (a zero crossing rounded onto the knot
    before it): then ``s == t``.  A non-finite field raises ``NumericalError``.
    """
    grid = refined_time_grid(w, steps)
    traj = run_limit(m, w, grid)
    thr = m.jump_threshold
    t0_star = threshold_crossing(w, thr)
    times, absJ = w.nodes[0], np.abs(w.nodes[1])
    # Segments that end after t0* and on which |J| strictly decreases; none ends
    # at t0*, where |J| rises through the threshold.
    drops = np.flatnonzero((times[1:] > t0_star) & (absJ[1:] < absJ[:-1])) + 1

    witness: tuple[float, float] | None = None
    if drops.size:
        k = int(drops[0])
        start, end = max(float(times[k - 1]), t0_star), float(times[k])
        if absJ[k] <= thr:
            # The instant where |J| has dropped half-way to the threshold, or the start where
            # floats cannot resolve the drop: a segment of zero length or zero height.
            a_val = float(np.interp(start, times[k - 1:k + 1], absJ[k - 1:k + 1])) if end > start else 0.0
            frac = (a_val - 0.5 * (a_val + thr)) / (a_val - absJ[k]) if a_val > absJ[k] else 0.0
            end = float(start + frac * (end - start))
        witness = (start, end)

    dt = float(np.max(np.diff(grid)))
    if abs(traj.t0 - t0_star) > dt * (1.0 + 1e-12):
        raise NumericalError(
            f"damage onset t0={traj.t0!r} and threshold crossing t0*={t0_star!r} "
            f"disagree by more than one time step"
        )

    series = residual_series(traj)
    s, absJ = m.yield_stress, np.abs(traj.J)
    defect_tol = np.maximum(_DEFECT_TOL * s * m.L, 45.0 * _U * s * (absJ[1:] + absJ[:-1]))
    violations = int(np.sum(flow_rule_defects(traj) > defect_tol))

    result = Classification(
        verdict=DAMAGE_ONLY if witness is not None else PERFECT_PLASTICITY,
        witness=witness,
        t0=traj.t0,
        t0_star=t0_star,
        max_eb_residual=float(series.max()),
        flow_rule_violations=violations,
    )
    if not np.all(np.isfinite([result.t0, result.t0_star, result.max_eb_residual, *(witness or ())])):
        raise NumericalError(f"classification has a non-finite field: {result!r}")
    return result


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
    if verdict not in (PERFECT_PLASTICITY, DAMAGE_ONLY):
        raise ValueError(f"unknown verdict {verdict!r}; expected {PERFECT_PLASTICITY!r} or {DAMAGE_ONLY!r}")
    m = traj.m
    s = m.yield_stress
    n = traj.times.size - 1
    series = residual_series(traj)
    # _U is a power of two: scaling each term first rounds as scaling the sum, and cannot overflow.
    rounding = (n + 3) * _U * yield_dissipation(traj)[-1] + (28 * n + 46) * _U * s * np.max(np.abs(traj.J))
    res_tol = max(_RESIDUAL_TOL * s * m.L, float(rounding))

    damaged = traj.l > 0.0
    unsaturated = damaged & ~stress_saturated(traj)
    saturated = not unsaturated.any()
    small_residual = bool(series.max() <= res_tol)
    says_plastic = verdict == PERFECT_PLASTICITY

    def failures():
        # Every failing check in order, with the instants that fail it; the
        # report names the first of them, or the first instant if there is none.
        if says_plastic != saturated:
            yield unsaturated if says_plastic else damaged, "verdict and stress saturation disagree"
        if says_plastic != small_residual:
            yield series > res_tol, "verdict and balance residual disagree"
        if not says_plastic:
            gap = (s - np.abs(traj.sigma)) ** 2 * traj.l / (2.0 * m.a0)
            if np.any(below := series < gap - res_tol):
                yield below, "residual fell below the stress-gap bound"
            dp = np.diff(traj.p)
            misaligned = np.where(traj.sigma[1:] * dp < 0.0, np.abs(dp), 0.0)
            lower = s * np.concatenate([[0.0], np.cumsum(misaligned)])
            if np.any(below := series < lower - res_tol):
                yield below, "residual fell below the misaligned-flow dissipation"

    failure = next(failures(), None)
    if failure is None:
        return ConsistencyReport(True, None, "consistent")
    bad, detail = failure
    return ConsistencyReport(False, float(traj.times[int(np.argmax(bad))]), detail)
