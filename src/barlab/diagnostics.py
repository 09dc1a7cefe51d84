"""Energetic diagnostics and the plasticity-vs-damage classifier.

The limit evolution always balances its own damage energy.  Whether it
also balances the perfect-plasticity energy (elastic part plus yield
dissipation against external work) depends only on the loading path:
the balance holds exactly when, whenever ``|J|`` drops below an earlier
value, it has already dropped inside the elastic window.  This module
computes the plasticity residual and the flow-rule defect per step from
one ledger, read once per call: total less elastic, the plastic strain
``p = J - L sigma/a1`` and the stored energy ``S = E - L sigma^2/(2 a1)``.
It also classifies a run, with the path test read from ``loading``, and
checks a verdict against stress saturation and the residual.  Every
tolerance is relative to the material's units: stresses to the yield
stress ``s*``, energies and flow defects to ``s* thr`` (``thr = s* L/a1``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envelope import MaterialParams
from .errors import NumericalError, _U, _guard
from .limit_evolution import LimitTrajectory, run_limit
from .loading import BoundaryDatum, first_drop, refined_time_grid

__all__ = ["PERFECT_PLASTICITY", "DAMAGE_ONLY", "yield_dissipation", "residual_series",
           "stress_saturated", "Classification", "cns_classify", "ConsistencyReport",
           "classifier_consistency"]

PERFECT_PLASTICITY = "PerfectPlasticity"
DAMAGE_ONLY = "DamageOnly"

# Tolerances of the classifier: stress saturation in units of s*, residual
# size and the flow-rule defect count in units of s* thr (one unload's R(T)
# is s* thr times a number of the program's shape alone, README); the last
# two are raised to the ledger's rounding bound where it is larger.
_SATURATION_TOL = 1e-9
_RESIDUAL_TOL = 1e-6
_DEFECT_TOL = 1e-9

# Rounding of the ledger, counted to first order in _U against exact arithmetic on the recorded J
# and the material's floats.  On a limit run J = sigma (x + c), x = l/a0, c = L/a1: c sigma and
# p = J x/(x + c) share the sign of J, so |c sigma| + |p| = |J|, and S = sigma p/2 + kappa l <= s* M
# for the running maximum M >= |J|.  thr takes 4 roundings relative to s* c: s* (2), then
# s* (L/a1) or, on a subnormal L/a1, (s* L)/a1.  sigma = s* (J/M) takes 4 relative to sigma: s* (2),
# J/M and the product, or at M = thr, where s* cancels, thr's other 2, J/thr and the product.  The
# mass (M - thr)(a0/s*) takes 5 relative to a0 M/s*: s* (2), thr's other 2 on thr <= M, and the
# subtraction, a0/s* and the product on M - thr.  The elastic jump e = thr (sigma/s*) takes 4
# relative to c sigma (thr/s* is c to 2, the quotient and the product), so 8 relative to exact c sigma.
#   p = J - e: 8 u |e| + u |p| <= 8 u |J|.
#   S = E - e sigma/2, E = J sigma/2 + kappa l: sigma enters with weight |J/2 - e| <= |J|/2
#   (2 u s* M), the mass with kappa (2.5), e's own 4 roundings (2), E's two products and sum (2),
#   the last product and the subtraction (1.5): 10 u s* max|J|.
#   Flow defect s*|dp| - sigma_k dp per step: dp carries 8 u (|J_k| + |J_k-1|) from p and one
#   rounding, and the defect is 2 s*-Lipschitz in dp: 18.  s* (2), sigma_k (4), the two products (2)
#   and the subtraction (2) add 10 u s* |dp|, with |dp| <= |J_k| + |J_k-1|: 28 u s* (|J_k| + |J_k-1|).
#   Residual s* Var(p) - (S - S(0)) after n steps: each of the n terms |dp| carries 18 u max|J|; the
#   running sum (n - 1), s* and the product (3) add (n + 2) u s* Var(p); S and S(0) add 20 u s* max|J|,
#   the two subtractions u (s* Var(p) + 2 s* max|J|): u ((n + 3) s* Var(p) + (18 n + 22) s* max|J|).
# The code keeps 45 and (28 n + 29), counted for an earlier stress rule: they still bound these
# counts.  A product or quotient with a subnormal result is within 2^-1075 = u 2^-1022 of its exact
# result.  R gathers at most (2n + 1) thr (1 + 2 s*) + (2n + 5) s* + 2 max|J| (1 + s*) + 2 kappa + 7
# of them (c s* = thr; tests/test_diagnostics.py::_underflow), and 1 more for the last scaling.
# That term widens only the tests it makes lenient: not the bar that R must clear under a
# DamageOnly verdict.


def _ledger(m: MaterialParams, J: np.ndarray, sigma: np.ndarray, E: np.ndarray):
    """Plastic strain ``p = J - L sigma/a1``, stored energy ``S = E - L sigma^2/(2 a1)``: total less elastic."""
    elastic = m.jump_threshold * (sigma / m.yield_stress)  # L sigma/a1 in jump units, as the limit model reads it
    return J - elastic, E - 0.5 * elastic * sigma


def _balance(traj: LimitTrajectory):
    """``(dp, flow-rule defects, s* Var_0^t(p), R(t))`` of one record, from one reading of the ledger.

    Step ``k``'s flow-rule defect ``s*|dp| - sigma_k dp`` is entry ``k-1``; it is zero iff the
    flow of that step aligns with a saturated stress.
    """
    p, stored = _ledger(traj.m, traj.J, traj.sigma, traj.E_closed)
    with np.errstate(over="ignore", invalid="ignore"):
        dp = np.diff(p)
        defects = traj.m.yield_stress * np.abs(dp) - traj.sigma[1:] * dp
        dissipation = traj.m.yield_stress * np.concatenate([[0.0], np.cumsum(np.abs(dp))])
        series = dissipation - (stored - stored[0])
    _guard(~np.isfinite(series), traj.times, "plasticity ledger is not finite")
    return dp, defects, dissipation, series


def yield_dissipation(traj: LimitTrajectory) -> np.ndarray:
    """Cumulative yield dissipation ``s* Var_0^t(p)`` at every recorded instant.

    The dissipation between two recorded instants is the difference of
    two entries.
    """
    return _balance(traj)[2]


def residual_series(traj: LimitTrajectory) -> np.ndarray:
    """Plasticity energy-balance residual at every recorded instant.

    ``R(t) = elastic(t) + s* Var_0^t(p) - elastic(0) - work(0, t)``
    with the elastic part ``L*sigma**2/(2*a1)``.  The limit model balances
    its own damage energy, so the work cancels and
    ``R(t) = s* Var_0^t(p) - S(t) + S(0)`` with the stored part
    ``S = E - L*sigma**2/(2*a1)``.  The recorded states are exact and
    ``p`` is monotone between knots of the datum, so this is exact on any
    grid that holds the knots.  Zero exactly when the path admits a
    perfect-plasticity reading; strictly positive afterwards otherwise.
    """
    return _balance(traj)[3]


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

    The verdict, ``t0*`` and the witness are the datum's alone: ``loading.first_drop``.
    The limit run on ``steps`` intervals gives the onset check, the residual and the
    flow-rule count.  A non-finite field raises ``NumericalError``.
    """
    grid = refined_time_grid(w, steps)
    traj = run_limit(m, w, grid)
    thr = m.jump_threshold
    t0_star, witness = first_drop(w, thr)

    dt = float(np.max(np.diff(grid)))
    if abs(traj.t0 - t0_star) > dt * (1.0 + 1e-12):
        raise NumericalError(
            f"damage onset t0={traj.t0!r} and threshold crossing t0*={t0_star!r} "
            f"disagree by more than one time step"
        )

    _, defects, _, series = _balance(traj)
    s, absJ = m.yield_stress, np.abs(traj.J)
    # Each term scaled first, as in classifier_consistency: |J_k| + |J_{k-1}| can overflow.
    defect_tol = np.maximum(_DEFECT_TOL * s * thr, 45.0 * _U * s * absJ[1:] + 45.0 * _U * s * absJ[:-1])
    violations = int(np.sum(defects > defect_tol))

    result = Classification(verdict=DAMAGE_ONLY if witness is not None else PERFECT_PLASTICITY,
                            witness=witness, t0=traj.t0, t0_star=t0_star,
                            max_eb_residual=float(series.max()), flow_rule_violations=violations)
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
    m, n = traj.m, traj.times.size - 1
    s, thr, J_max = m.yield_stress, m.jump_threshold, np.max(np.abs(traj.J))
    dp, _, dissipation, series = _balance(traj)
    # _U is a power of two: scaling each term first rounds as scaling the sum, and cannot overflow.
    under = ((2 * n + 1) * _U * thr + (4 * n + 2) * _U * thr * s + (2 * n + 5) * _U * s
             + 2.0 * _U * J_max * (1.0 + s) + 2.0 * _U * m.kappa + 8.0 * _U) * 2.0**-1022
    rounding = (n + 3) * _U * dissipation[-1] + (28 * n + 29) * _U * s * J_max
    res_tol = max(_RESIDUAL_TOL * s * thr, float(rounding + under))
    bar = res_tol if verdict == PERFECT_PLASTICITY else max(_RESIDUAL_TOL * s * thr, float(rounding))

    damaged = traj.l > 0.0
    unsaturated = damaged & ~stress_saturated(traj)
    saturated = not unsaturated.any()
    small_residual = bool(series.max() <= bar)
    says_plastic = verdict == PERFECT_PLASTICITY

    def failed(bad, detail: str) -> ConsistencyReport:
        # Checks run in order; the first to fail names its first failing instant, or the first instant if none.
        return ConsistencyReport(False, float(traj.times[int(np.argmax(bad))]), detail)

    if says_plastic != saturated:
        return failed(unsaturated if says_plastic else damaged, "verdict and stress saturation disagree")
    if says_plastic != small_residual:
        return failed(series > bar, "verdict and balance residual disagree")
    if not says_plastic:
        # Divided before multiplied: the gap is at most kappa l <= E, but (s - |sigma|)^2 l may overflow.
        gap = (s - np.abs(traj.sigma)) ** 2 / (2.0 * m.a0) * traj.l
        if np.any(below := series < gap - res_tol):
            return failed(below, "residual fell below the stress-gap bound")
        misaligned = np.where(traj.sigma[1:] * dp < 0.0, np.abs(dp), 0.0)
        lower = s * np.concatenate([[0.0], np.cumsum(misaligned)])
        if np.any(below := series < lower - res_tol):
            return failed(below, "residual fell below the misaligned-flow dissipation")
    return ConsistencyReport(True, None, "consistent")
