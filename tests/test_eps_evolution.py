from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlab import (DEFAULT_MATERIAL, PRESET_NAMES, BoundaryDatum,
                    NumericalError, TwoWellParams, convex_envelope,
                    optimal_theta, preset_datum, refined_time_grid, run_eps)
from barlab.envelope import envelope_slope_bounds
from barlab.eps_evolution import _guard, plateau_factor
from oracles import (StepState, exhaustive_step_minimum, incremental_step, initial_step,
                     pristine_state, stepwise_run_eps, total_energy)

SCAN_FIELDS = ("sigma", "theta", "stiffness", "energy", "l_eps", "work_cum", "eb_residual")


def identity_stiffness(m, eps, theta):
    """Per-cell stiffness the mixture formula dictates for a sound fraction."""
    return 1.0 / ((1.0 - theta) / (eps * m.a0) + theta / m.a1)


class TestPlateauFactor:
    def test_values(self, material):
        assert plateau_factor(material, 0.02) == pytest.approx(np.sqrt(2.0 / 1.98), rel=1e-14)
        assert plateau_factor(material, 1e-6) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_eps(self, material):
        with pytest.raises(ValueError):
            plateau_factor(material, 0.0)
        with pytest.raises(ValueError):
            plateau_factor(material, 2.5)  # eps*a0 >= a1


class TestInitialStep:
    def test_zero_load(self, material):
        state = initial_step(material, 0.01, 8, 0.0)
        assert state.sigma == 0.0
        assert np.all(state.theta == 1.0)
        assert total_energy(state, material) == 0.0

    def test_elastic_load(self, material):
        state = initial_step(material, 0.01, 8, 0.4)
        assert np.all(state.theta == 1.0)
        assert state.sigma == pytest.approx(0.8, abs=1e-12)
        assert abs(state.sigma) <= material.yield_stress * plateau_factor(material, 0.01)

    def test_large_load_matches_envelope_quadrature(self, material):
        # The pristine incremental problem relaxes to the two-well envelope:
        # weak well eps*a0/2 with offset kappa/eps, strong well a1/2.
        eps, J0 = 0.01, 3.0
        state = initial_step(material, eps, 8, J0)
        cell = TwoWellParams(a=eps * material.a0 / 2.0, b=material.a1 / 2.0,
                             K=material.kappa / eps)
        want = convex_envelope(cell, J0 / material.L) * material.L
        assert total_energy(state, material) == pytest.approx(want, abs=1e-8)
        # Homogeneous data: the per-cell damage fraction is the envelope's
        # optimal phase fraction at the mean strain.
        frac = 1.0 - state.theta
        assert np.max(np.abs(frac - optimal_theta(cell, J0 / material.L))) <= 1e-10
        # That load lands on the plateau, where the stress saturates exactly.
        _, _, slope = envelope_slope_bounds(cell)
        assert state.sigma == pytest.approx(slope, abs=1e-12)


class TestIncrementalStep:
    def test_repeated_load_is_a_fixed_point(self, material):
        a = initial_step(material, 0.05, 4, 0.9)
        b = incremental_step(a, material, 0.9)
        assert b.sigma == pytest.approx(a.sigma, abs=1e-12)
        assert np.allclose(b.theta, a.theta, rtol=0.0, atol=1e-12)
        assert np.allclose(b.stiffness, a.stiffness, rtol=0.0, atol=1e-12)

    def test_plateau_stress_saturates_amplified_yield(self, material):
        eps = 0.01
        state = initial_step(material, eps, 8, 1.0)
        s_plateau = material.yield_stress * plateau_factor(material, eps)
        assert state.sigma > material.yield_stress
        assert state.sigma == pytest.approx(s_plateau, abs=1e-12)

    def test_unloading_freezes_damage(self, material):
        eps = 0.05
        loaded = initial_step(material, eps, 4, 1.0)
        unloaded = incremental_step(loaded, material, 0.4)
        assert np.array_equal(unloaded.theta, loaded.theta)
        assert abs(unloaded.sigma) < material.yield_stress
        # Homogeneous elastic response at the damaged stiffness.
        assert unloaded.sigma == pytest.approx(
            0.4 * float(loaded.stiffness[0]) / material.L, abs=1e-12)
        # Re-minimization confirms zero extra damage is optimal.
        dx = material.L / 4
        oracle, best = exhaustive_step_minimum(
            material.kappa, eps, eps * material.a0,
            loaded.theta, loaded.stiffness, dx, 0.4)
        assert np.all(best == 0.0)
        assert total_energy(unloaded, material) <= oracle + 1e-9

    def test_inhomogeneous_state_keeps_stress_homogeneous(self, material):
        eps = 0.1
        theta = np.array([0.3, 0.6, 0.85, 1.0])
        prev = StepState(epsilon=eps, sigma=0.0, theta=theta,
                         stiffness=identity_stiffness(material, eps, theta))
        dx = material.L / theta.size
        for J in (0.2, 0.9, -1.4):
            new = incremental_step(prev, material, J)
            # One scalar stress reproduces the imposed gap through the cells.
            assert np.sum(new.sigma / new.stiffness * dx) == pytest.approx(J, abs=1e-10)
            # Identity survives the update.
            want = identity_stiffness(material, eps, new.theta)
            assert np.max(np.abs(new.stiffness - want)) <= 1e-12 * material.a1
            # No healing.
            assert np.all(new.theta <= prev.theta + 1e-15)


class TestRunEps:
    def test_constant_datum_is_static_after_initial_step(self, material):
        w = preset_datum("constant", material)
        traj = run_eps(material, 0.05, 8, w, refined_time_grid(w, 20))
        assert np.max(np.abs(np.diff(traj.sigma))) == 0.0
        assert np.max(np.abs(traj.work_cum)) == 0.0
        assert np.max(np.abs(traj.eb_residual)) == 0.0

    def test_horizon_mismatch_rejected(self, material):
        w = BoundaryDatum(times=[0.0, 1.0], w0=[0.0, 0.0], wL=[0.0, 1.0])
        with pytest.raises(ValueError):
            run_eps(material, 0.05, 4, w, np.linspace(0.0, 1.0, 11))

    def test_grid_must_refine_knots(self, material):
        w = preset_datum("loading-unloading", material)
        with pytest.raises(ValueError):
            run_eps(material, 0.05, 4, w, np.array([0.0, 0.7, 1.6, 2.0]))

    def test_homogeneous_data_stays_homogeneous(self, material):
        w = preset_datum("loading-unloading", material)
        traj = run_eps(material, 0.02, 16, w, refined_time_grid(w, 60))
        spread = np.max(traj.theta, axis=1) - np.min(traj.theta, axis=1)
        assert np.max(spread) <= 1e-12

    def test_monotone_damage_and_identity_every_step(self, material):
        w = preset_datum("loading-unloading", material)
        traj = run_eps(material, 0.05, 8, w, refined_time_grid(w, 80))
        assert np.all(np.diff(traj.theta, axis=0) <= 1e-15)
        assert np.all(np.diff(traj.stiffness, axis=0) <= 1e-15)
        want = identity_stiffness(material, 0.05, traj.theta)
        assert np.max(np.abs(traj.stiffness - want)) <= 1e-12 * material.a1

    def test_stress_bound_and_energy_certificate(self, material):
        eps = 0.05
        w = preset_datum("monotone", material)
        traj = run_eps(material, eps, 8, w, refined_time_grid(w, 100))
        s_plateau = material.yield_stress * plateau_factor(material, eps)
        assert np.max(np.abs(traj.sigma)) <= s_plateau + 1e-12
        # A-priori bound: C_k = C_{k-1} + sqrt(2 a1 C_{k-1}/L)|dJ| + a1 dJ^2/(2L)
        # dominates the recorded energy, and the stress obeys sqrt(2 a1 C/L).
        cert = traj.energy[0]
        for k in range(1, traj.times.size):
            dj = abs(traj.J[k] - traj.J[k - 1])
            cert = (cert + np.sqrt(2.0 * material.a1 * cert / material.L) * dj
                    + material.a1 * dj**2 / (2.0 * material.L))
            assert traj.energy[k] <= cert * (1.0 + 1e-9) + 1e-9
            assert abs(traj.sigma[k]) <= np.sqrt(2.0 * material.a1 * cert / material.L) + 1e-9

    def test_balance_residual_shrinks_with_the_step(self, material):
        # 131 and 262 keep the damage-onset kink off both grids, so the
        # quadrature error actually has to decay rather than cancel.
        w = preset_datum("monotone", material)
        coarse = run_eps(material, 0.05, 8, w, refined_time_grid(w, 131))
        fine = run_eps(material, 0.05, 8, w, refined_time_grid(w, 262))
        rc = np.max(np.abs(coarse.eb_residual))
        rf = np.max(np.abs(fine.eb_residual))
        assert rc > 0.0
        assert rf <= 0.6 * rc


def assert_scan_matches_stepwise(m, eps, n_cells, w, grid):
    traj = run_eps(m, eps, n_cells, w, grid)
    ref = stepwise_run_eps(m, eps, n_cells, w, grid)
    for name in SCAN_FIELDS:
        got, want = getattr(traj, name), ref[name]
        assert got.shape == want.shape, name
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, name
    return traj


class TestScanMatchesStepwise:
    """The closed-form scan of ``run_eps`` against one ``incremental_step`` per step."""

    @pytest.mark.parametrize("eps", [0.1, 0.01])
    @pytest.mark.parametrize("n_cells", [1, 7, 64])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, material, name, n_cells, eps):
        w = preset_datum(name, material)
        assert_scan_matches_stepwise(material, eps, n_cells, w, refined_time_grid(w, 200))

    @pytest.mark.parametrize("n_cells", [1, 7])
    def test_fully_damaged_branch_and_back(self, material, n_cells):
        # |J| passes s_p L/(eps a0), where every cell breaks completely,
        # then the load reverses through zero.
        eps = 0.1
        full = material.yield_stress * plateau_factor(material, eps) * material.L / (eps * material.a0)
        w = BoundaryDatum(times=[0.0, 1.0, 2.0], w0=[0.0, 0.0, 0.0], wL=[0.0, 1.2 * full, -0.4 * full])
        traj = assert_scan_matches_stepwise(material, eps, n_cells, w, refined_time_grid(w, 100))
        broken = np.abs(traj.J) >= full
        assert np.any(broken) and not broken[-1]
        first = int(np.argmax(broken))
        assert np.all(traj.theta[first:] == 0.0)
        assert np.allclose(traj.stiffness[first:], eps * material.a0, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("a1", [1.53125, 1.9, 3.0625, 49.0])
    def test_elastic_start_keeps_the_sound_stiffness(self, a1):
        # For these a1, 1/(1/a1) does not round back to a1: the elastic
        # stiffness must still be a1 exactly, or the first step heals.
        m = replace(DEFAULT_MATERIAL, a1=a1)
        for name in PRESET_NAMES:
            w = preset_datum(name, m)
            traj = assert_scan_matches_stepwise(m, 0.05, 7, w, refined_time_grid(w, 100))
            assert traj.stiffness[0, 0] == a1 and traj.theta[0, 0] == 1.0

    def test_fields_are_read_only_views(self, material):
        w = preset_datum("loading-unloading", material)
        traj = run_eps(material, 0.05, 32, w, refined_time_grid(w, 40))
        assert traj.theta.shape == traj.stiffness.shape == (traj.times.size, 32)
        assert not traj.theta.flags.writeable and not traj.stiffness.flags.writeable


@settings(max_examples=25)
@given(knots=st.lists(st.tuples(st.floats(0.01, 0.99), st.floats(-12.0, 12.0)),
                      min_size=1, max_size=5, unique_by=lambda knot: knot[0]),
       w_start=st.floats(-12.0, 12.0),
       n_cells=st.integers(1, 4),
       eps=st.sampled_from([0.1, 0.02]),
       steps=st.integers(10, 60),
       a1=st.floats(1.1, 50.0))
def test_random_programs_scan_matches_stepwise(knots, w_start, n_cells, eps, steps, a1):
    m = replace(DEFAULT_MATERIAL, a1=a1)
    knots = sorted(knots)
    times = [0.0] + [m.T * t for t, _ in knots] + [m.T]
    wL = [w_start] + [v for _, v in knots] + [knots[-1][1]]
    w = BoundaryDatum(times=times, w0=np.zeros(len(times)), wL=wL)
    assert_scan_matches_stepwise(m, eps, n_cells, w, refined_time_grid(w, steps))


def test_guard_names_the_first_offending_step():
    grid = np.array([0.0, 0.5, 1.0, 1.5])
    _guard(np.zeros(4, dtype=bool), grid, "never raised")
    with pytest.raises(NumericalError, match=r"^time step 2 \(t=1\.0\): energy bound violated$"):
        _guard(np.array([False, False, True, True]), grid, "energy bound violated")


@pytest.mark.parametrize("lam", [1e-9, 1e6, 1e9])
def test_run_eps_is_unit_invariant(material, lam):
    # kappa, a0 and a1 scaled by lam describe the same bar in another
    # stress unit: the jump threshold is unchanged, stresses and energies
    # scale by lam, damage does not.
    scaled = replace(material, kappa=lam * material.kappa, a0=lam * material.a0, a1=lam * material.a1)
    for name in PRESET_NAMES:
        w = preset_datum(name, material)
        grid = refined_time_grid(w, 100)
        ref = run_eps(material, 0.05, 8, w, grid)
        got = run_eps(scaled, 0.05, 8, w, grid)
        for field, factor in (("sigma", lam), ("energy", lam), ("l_eps", 1.0), ("theta", 1.0)):
            want = getattr(ref, field)
            diff = np.max(np.abs(getattr(got, field) / factor - want))
            assert diff <= 1e-12 * np.max(np.abs(want)), (name, field)


@settings(max_examples=30)
@given(loads=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8),
       n_cells=st.integers(1, 3))
def test_random_load_paths_preserve_invariants(loads, n_cells):
    import barlab
    m = barlab.DEFAULT_MATERIAL
    eps = 0.1
    s_plateau = m.yield_stress * plateau_factor(m, eps)
    state = pristine_state(m, eps, n_cells)
    for J in loads:
        new = incremental_step(state, m, J)
        assert np.all(new.theta <= state.theta + 1e-15)
        assert np.all(new.stiffness <= state.stiffness + 1e-15)
        want = identity_stiffness(m, eps, new.theta)
        assert np.max(np.abs(new.stiffness - want)) <= 1e-11 * m.a1
        if np.any(new.stiffness > eps * m.a0 * (1.0 + 1e-9)):
            assert abs(new.sigma) <= s_plateau + 1e-10
        state = new
