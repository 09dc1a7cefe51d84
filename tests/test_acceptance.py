"""End-to-end acceptance checks, one numbered criterion per test.

Every test computes its verdict first, registers the one-line summary
through ``record_acceptance``, and only then asserts, so the terminal
section lists all seven outcomes even when one of them is red.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import constant_run, record_acceptance
from oracles import (StepState, competitor_family, envelope_by_minimization,
                     exhaustive_step_minimum, fake_balance_residual_series,
                     incremental_step, initial_energy_routes, mass_reconstruction,
                     static_gamma_energy, total_energy)

from barlab import (DAMAGE_ONLY, DEFAULT_MATERIAL, PERFECT_PLASTICITY,
                    TwoWellParams, cns_classify, convex_envelope, preset,
                    preset_datum, refined_time_grid, residual_series, run_eps,
                    run_limit, sweep_eps, yield_dissipation)
from barlab.envelope import envelope_slope_bounds, plateau_factor
from barlab.loading import first_drop

M = DEFAULT_MATERIAL
ALL_PRESETS = ("monotone", "constant", "loading-unloading", "high-unload")


def test_criterion_1_reference_trajectory():
    w = preset_datum("loading-unloading", M)
    grid = refined_time_grid(w, 400)
    traj = run_limit(M, w, grid)
    t = traj.times
    sigma_ref = np.where(t <= 0.5, 2.0 * t, np.where(t <= 1.0, 1.0, 2.0 - t))
    mass_ref = np.where(t <= 0.5, 0.0, np.where(t <= 1.0, t - 0.5, 0.5))
    err_sigma = float(np.max(np.abs(traj.sigma - sigma_ref)))
    err_mass = float(np.max(np.abs(traj.l - mass_ref)))
    dt = float(np.max(np.diff(grid)))
    t0_star = first_drop(w, M.jump_threshold)[0]
    onset_ok = abs(traj.t0 - 0.5) <= dt and t0_star == pytest.approx(0.5, abs=1e-12)
    record_acceptance(
        1, err_sigma <= 1e-10 and err_mass <= 1e-10 and onset_ok,
        f"stress err {err_sigma:.1e}, mass err {err_mass:.1e}, "
        f"t0={traj.t0:g}, t0*={t0_star:g}")
    assert err_sigma <= 1e-10
    assert err_mass <= 1e-10
    assert onset_ok


@pytest.fixture(scope="module")
def classifier_results():
    out = {}
    for name in ("monotone", "loading-unloading", "high-unload"):
        w = preset_datum(name, M)
        out[name] = (w, cns_classify(w, M, steps=400))
    return out


def _verdicts_and_witnesses_ok(results) -> bool:
    """The checks of ``test_criterion_2_verdicts_and_witnesses`` as one flag for the summary line."""
    mono = results["monotone"][1]
    if mono.verdict != PERFECT_PLASTICITY or mono.max_eb_residual > 1e-6:
        return False
    for name in ("loading-unloading", "high-unload"):
        w, c = results[name]
        if c.verdict != DAMAGE_ONLY or c.witness is None:
            return False
        s, t = c.witness
        if not (0.0 <= s < t <= M.T
                and abs(w.jump(s)) > M.jump_threshold - 1e-12
                and abs(w.jump(t)) < abs(w.jump(s)) - 1e-12
                and c.max_eb_residual > 0.0):
            return False
    return True


def test_criterion_2_verdicts_and_witnesses(classifier_results):
    mono = classifier_results["monotone"][1]
    assert mono.verdict == PERFECT_PLASTICITY
    assert mono.max_eb_residual <= 1e-6
    for name in ("loading-unloading", "high-unload"):
        w, c = classifier_results[name]
        assert c.verdict == DAMAGE_ONLY
        assert c.witness is not None
        s, t = c.witness
        assert 0.0 <= s < t <= M.T
        assert abs(w.jump(s)) > M.jump_threshold - 1e-12
        assert abs(w.jump(t)) < abs(w.jump(s)) - 1e-12
        assert c.max_eb_residual > 0.0
    assert _verdicts_and_witnesses_ok(classifier_results)


def test_criterion_2_pinned_terminal_residual(classifier_results):
    w, _ = classifier_results["loading-unloading"]
    verdicts_ok = _verdicts_and_witnesses_ok(classifier_results)
    traj = run_limit(M, w, refined_time_grid(w, 400))
    r_T = residual_series(traj)[-1]
    diss = yield_dissipation(traj)
    k_peak = int(np.searchsorted(traj.times, M.T / 2.0))
    diss_return = diss[-1] - diss[k_peak]

    # The program is the triangle J: 0 -> J_peak -> 0 with its peak at T/2.
    # Loading ends on the yield surface (sigma = s*) with damaged length
    # l1 = a0 (J_peak/s* - L/a1) and R = 0.  On the return leg l stays at l1
    # and the stress unloads elastically through the compliance l1/a0 + L/a1
    # from s* to sigma(T) = 0, so the plastic mass p = sigma l1/a0 shrinks
    # by s* l1/a0.  That leg adds the dissipation s*^2 l1/a0 = 2 kappa l1
    # and the remainder l1 (s*^2 - sigma(T)^2)/(2 a0) = kappa l1: work that
    # the bar hands back through the damaged compliance l1/a0, which the
    # elastic part L sigma^2/(2 a1) never held.  Hence R(T) = 3 kappa l1.
    J_peak = float(np.max(np.abs(w.wL - w.w0)))
    triangle = (w.jump(M.T / 2.0) == J_peak and w.jump(0.0) == 0.0
                and w.jump(M.T) == 0.0 and traj.times[k_peak] == M.T / 2.0)
    l1 = M.a0 * (J_peak / M.yield_stress - M.L / M.a1)
    expected_diss = 2.0 * M.kappa * l1
    expected = 3.0 * M.kappa * l1
    ok = (verdicts_ok and triangle and abs(r_T - expected) <= 1e-6
          and abs(diss_return - expected_diss) <= 1e-6)
    record_acceptance(
        2, ok,
        f"verdicts {'ok' if verdicts_ok else 'WRONG'}; terminal "
        f"loading-unloading residual {r_T:.6f} vs 3*kappa*l1 = {expected:.6f}, "
        f"return-leg dissipation {diss_return:.6f} vs 2*kappa*l1 = "
        f"{expected_diss:.6f}")
    assert triangle, "loading-unloading is no longer the triangle 0 -> J_peak -> 0"
    assert diss_return == pytest.approx(expected_diss, abs=1e-6), (
        f"return-leg dissipation {diss_return:.10f}, expected "
        f"s*^2*l1/a0 = 2*kappa*l1 = {expected_diss:.10f} with l1 = {l1:.10f}")
    assert r_T == pytest.approx(expected, abs=1e-6), (
        f"terminal residual {r_T:.10f}, expected 3*kappa*l1 = {expected:.10f}: "
        f"return-leg dissipation 2*kappa*l1 plus the elastic remainder "
        f"l1*(s*^2 - sigma(T)^2)/(2*a0) = kappa*l1 at sigma(T) = 0")


def test_criterion_3_envelope_against_bracketing_minimization():
    rng = np.random.default_rng(73)
    worst = 0.0
    for _ in range(20):
        a = float(rng.uniform(0.05, 2.0))
        b = a * float(rng.uniform(1.1, 20.0))
        K = float(rng.uniform(0.05, 5.0))
        p = TwoWellParams(a=a, b=b, K=K)
        _, xi2, _ = envelope_slope_bounds(p)
        xi = np.linspace(0.0, 1.3 * xi2, 10_000)
        _, oracle_vals = envelope_by_minimization(a, b, K, xi)
        worst = max(worst, float(np.max(np.abs(convex_envelope(p, xi) - oracle_vals))))

    fig = TwoWellParams(a=0.1, b=1.0, K=2.0)
    x1, x2, _ = envelope_slope_bounds(fig)
    kinks = tuple(float(f"{v:.4g}") for v in
                  (x1, float(convex_envelope(fig, x1)),
                   x2, float(convex_envelope(fig, x2))))
    kinks_ok = kinks == (0.4714, 0.2222, 4.714, 4.222)
    record_acceptance(
        3, worst <= 1e-10 and kinks_ok,
        f"max oracle deviation {worst:.1e} over 20 triples x 10^4 points; "
        f"kinks {kinks}")
    assert worst <= 1e-10
    assert kinks_ok


def test_criterion_4_eps_sweep_converges():
    cfg = replace(preset("loading-unloading"), eps_list=(0.1, 0.05, 0.02, 0.01))
    start = time.monotonic()
    report = sweep_eps(cfg)
    elapsed = time.monotonic() - start
    sig_last = float(report.sup_sigma_dev[-1])
    l_last = float(report.sup_l_dev[-1])
    ok = (report.sigma_monotone and report.l_monotone
          and sig_last <= 0.02 and l_last <= 0.02 and elapsed <= 60.0)
    record_acceptance(
        4, ok,
        f"sup|dsigma| {np.array2string(report.sup_sigma_dev, precision=4)}, "
        f"sup|dl| at eps=0.01 is {l_last:.4f}, {elapsed:.1f}s")
    assert report.sigma_monotone
    assert report.l_monotone
    assert sig_last <= 0.02
    assert l_last <= 0.02
    assert elapsed <= 60.0


def test_criterion_5_structural_invariants():
    s = M.yield_stress
    ok = True
    notes = []

    for name in ALL_PRESETS:
        w = preset_datum(name, M)
        traj = run_limit(M, w, refined_time_grid(w, 400))

        ok &= bool(np.max(np.abs(traj.sigma)) <= s + 1e-12)
        rebuilt = traj.sigma * (traj.l / M.a0 + M.L / M.a1)
        ok &= bool(np.max(np.abs(rebuilt - traj.J)) <= 1e-12)
        ok &= bool(np.min(np.diff(traj.l)) >= 0.0)
        grew = np.diff(traj.l) > 0.0
        gap = np.abs(np.abs(traj.sigma[1:][grew]) - s)
        ok &= bool(gap.size == 0 or np.max(gap) <= 1e-12)
        ok &= bool(float(np.min(residual_series(traj))) >= -1e-9)
        for k in range(traj.times.size):
            delta, l_rec = mass_reconstruction(M, float(traj.E_closed[k]),
                                               float(traj.J[k]))
            ok &= delta >= -1e-12  # nonnegative up to rounding dust
            ok &= abs(l_rec - float(traj.l[k])) <= 1e-9

        for eps in (0.1, 0.02):
            run = run_eps(M, eps, 16, w, refined_time_grid(w, 200))
            weak = eps * M.a0
            identity = 1.0 / ((1.0 - run.theta) / weak + run.theta / M.a1)
            ok &= bool(np.max(np.abs(run.stiffness - identity))
                       <= 1e-12 * float(np.max(run.stiffness)) + 1e-12)
            ok &= bool(np.all(np.diff(run.theta, axis=0) <= 0.0))
            ok &= bool(np.all(np.diff(run.stiffness, axis=0) <= 1e-14))
            bound = s * plateau_factor(M, eps)
            live = np.any(run.theta > 0.0, axis=1)
            ok &= bool(np.max(np.abs(run.sigma[live])) <= bound * (1.0 + 1e-12))

    # Balance-with-flow-work residual must vanish with the step.  For the
    # limit model the trapezoidal discretization telescopes exactly, so the
    # residual is already at the rounding floor on every grid; accept either
    # genuine halving or both resolutions at the floor.
    floor = 1e-13
    for name in ("loading-unloading", "high-unload"):
        w = preset_datum(name, M)
        coarse = np.max(np.abs(fake_balance_residual_series(
            run_limit(M, w, refined_time_grid(w, 131)))))
        fine = np.max(np.abs(fake_balance_residual_series(
            run_limit(M, w, refined_time_grid(w, 262)))))
        shrunk = bool((coarse <= floor and fine <= floor)
                      or (coarse > floor and fine <= 0.6 * coarse))
        ok &= shrunk
        notes.append(f"{name} balance residual {coarse:.1e}->{fine:.1e}")

    # The eps-model balance residual is a real O(dt^2) quantity; 131 and 262
    # steps keep the stress kink strictly between grid nodes, so it halves.
    w = preset_datum("loading-unloading", M)
    rc = np.max(np.abs(run_eps(M, 0.1, 16, w, refined_time_grid(w, 131)).eb_residual))
    rf = np.max(np.abs(run_eps(M, 0.1, 16, w, refined_time_grid(w, 262)).eb_residual))
    ok &= bool(rc > 1e-9 and rf <= 0.6 * rc)
    notes.append(f"eps balance residual {rc:.1e}->{rf:.1e}")

    record_acceptance(5, ok, "4 loading programs, limit + eps runs; " + "; ".join(notes))
    assert ok


def test_criterion_6_initial_energy_routes_and_lower_bound():
    worst_route = 0.0
    competitors = 0
    floor_ok = True
    for J0 in (0.0, 0.4, 1.0, -1.5):
        E0 = float(constant_run(M, J0).E_closed[0])
        closed, minimized = initial_energy_routes(M.kappa, M.a0, M.a1, M.L, J0)
        worst_route = max(worst_route, abs(E0 - closed), abs(E0 - minimized))
        rng = np.random.default_rng(17 + int(round(10 * abs(J0))))
        for u in competitor_family(M, J0, 300, rng, cells=6):
            competitors += 1
            val = static_gamma_energy(u, M, (0.0, J0))
            floor_ok &= val >= E0 - 1e-9
    ok = worst_route <= 1e-12 and floor_ok and competitors >= 1000
    record_acceptance(
        6, ok,
        f"route gap {worst_route:.1e}; E(0) lower-bounds {competitors} competitors")
    assert worst_route <= 1e-12
    assert floor_ok
    assert competitors >= 1000


def test_criterion_7_incremental_step_minimality():
    eps = 0.1
    weak = eps * M.a0
    rng = np.random.default_rng(29)
    worst = -np.inf
    for trial in range(100):
        n = int(rng.integers(1, 5))
        theta_prev = rng.uniform(0.05, 1.0, size=n)
        if trial % 7 == 0:
            theta_prev[int(rng.integers(0, n))] = 1.0
        a_prev = 1.0 / ((1.0 - theta_prev) / weak + theta_prev / M.a1)
        prev = StepState(epsilon=eps, sigma=0.0, theta=theta_prev, stiffness=a_prev)
        if trial % 10 == 9:
            J_new = float(rng.uniform(10.5, 12.0)) * float(rng.choice([-1.0, 1.0]))
        else:
            J_new = float(rng.uniform(-3.0, 3.0))
        state = incremental_step(prev, M, J_new)
        attained = total_energy(state, M)
        best, _ = exhaustive_step_minimum(M.kappa, eps, weak, theta_prev, a_prev,
                                          M.L / n, J_new, grid_points=11)
        worst = max(worst, attained - best)
    record_acceptance(
        7, worst <= 1e-9,
        f"max excess over 100 exhaustive grid minima: {worst:.1e}")
    assert worst <= 1e-9
