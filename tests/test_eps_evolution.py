import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from barlab import (DEFAULT_MATERIAL, PRESET_NAMES, BoundaryDatum, MaterialParams,
                    NumericalError, ScenarioConfig, TwoWellParams, convex_envelope,
                    optimal_theta, preset_datum, refined_time_grid, run_eps, run_limit, sweep_eps)
from barlab.envelope import _frozen_cell, envelope_slope_bounds, plateau_factor
from barlab.eps_evolution import _scan
from barlab.errors import _U, _guard
from conftest import (HUGE_ENERGY_MATERIAL, HUGE_THRESHOLD_DROP, HUGE_THRESHOLD_MATERIAL, any_units,
                      extreme_programs, extreme_units, materials, programs)
from oracles import (StepState, apriori_bounds_violated, envelope_by_minimization, exhaustive_step_minimum,
                     incremental_step, initial_step, mixture_objective, pristine_state, stepwise_run_eps,
                     total_energy)

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

    @pytest.mark.parametrize("eps", [2.9999999999999996, 1e-323])
    def test_an_eps_whose_scan_divides_by_zero_or_inf_is_refused(self, eps):
        # One ulp below a1/a0 = 3, 1/(eps a0) rounds to 1/a1 and theta is 0/0;
        # at 1e-323, 1/(eps a0) overflows.  Either way no state is defined.
        m = MaterialParams(kappa=1.0, a0=2.4375, a1=7.3125, L=1.0, T=1.0)
        w = BoundaryDatum(times=[0.0, 1.0], w0=[0.0, 0.0], wL=[0.0, 0.0])
        msg = rf"^eps={eps!r} is too close to 0 or to a1/a0 for floats: "
        with pytest.raises(ValueError, match=msg):
            plateau_factor(m, eps)
        with pytest.raises(ValueError, match=msg):
            run_eps(m, eps, 1, w, refined_time_grid(w, 4))
        with pytest.raises(ValueError, match=msg):
            sweep_eps(ScenarioConfig(material=m, datum=w, steps=4, eps_list=(eps,)))


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

    def test_a_cell_count_must_be_an_integer(self, material):
        w = preset_datum("monotone", material)
        grid = refined_time_grid(w, 10)
        with pytest.raises(ValueError, match=r"^n_cells must be an integer, got 2\.5$"):
            run_eps(material, 0.05, 2.5, w, grid)
        assert run_eps(material, 0.05, np.int64(3), w, grid).theta.shape == (grid.size, 3)

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


# The brute minimizer of the oracle locates a flat argmin only to about 3e-8
# (measured against optimal_theta over random cells); its minimal value is sharp.
THETA_TOL = 1e-6


@settings(max_examples=60)
@given(m=materials(), data=st.data(), eps=st.floats(1e-3, 0.9), steps=st.integers(1, 100))
def test_the_state_is_the_oracle_mixture_frozen_at_the_running_maximum(m, data, eps, steps):
    # At scale eps a cell is the two-well density a = eps a0/2, b = a1/2, K = kappa/eps
    # in the strain J/L.  Damage never heals, so the weak fraction stays where brute
    # minimization put it at the largest |J| so far, and the state is that mixture
    # read at the current J.  Only programs that unload after damaging test the freeze.
    w = data.draw(programs(m))
    traj = run_eps(m, eps, 1, w, refined_time_grid(w, steps))
    peak = np.maximum.accumulate(np.abs(traj.J))
    a, b, K = eps * m.a0 / 2.0, m.a1 / 2.0, m.kappa / eps
    onset = m.yield_stress * plateau_factor(m, eps) / (2.0 * b)  # first kink of the cell
    assume(np.any((np.abs(traj.J) < peak) & (peak > onset * m.L)))
    frozen, value = envelope_by_minimization(a, b, K, peak / m.L)
    assert np.max(np.abs(eps * traj.l_eps / m.L - frozen)) <= THETA_TOL
    # The mixture at the run's own fraction, read at the current strain; below the
    # smallest normal float (a subnormal J) rounding is absolute.
    weak = eps * traj.l_eps / m.L
    xi = traj.J / m.L
    c = 1.0 / (weak / a + (1.0 - weak) / b)
    tiny = np.finfo(float).tiny
    assert np.allclose(traj.sigma, 2.0 * c * xi, rtol=1e-12, atol=tiny * m.yield_stress)
    assert np.allclose(traj.energy, m.L * mixture_objective(a, b, K, xi, weak), rtol=1e-12,
                       atol=tiny * m.kappa * m.L)
    # On the loading front the state is the envelope, the oracle's sharp minimum; at a
    # pure phase the minimum sits on the end of the oracle's last bracket, (2/3)**140 < 1e-24 wide.
    front = np.abs(traj.J) == peak
    assert np.allclose(traj.energy[front], m.L * value[front], rtol=1e-10, atol=1e-12 * m.kappa * m.L)


def test_guard_names_the_first_offending_step():
    grid = np.array([0.0, 0.5, 1.0, 1.5])
    _guard(np.zeros(4, dtype=bool), grid, "never raised", (0.05,))
    with pytest.raises(NumericalError, match=r"^eps=0\.05, time step 2 \(t=1\.0\): energy or work is not finite$"):
        _guard(np.array([False, False, True, True]), grid, "energy or work is not finite", (0.05,))


def test_an_overflowing_state_fails_a_guard(material):
    # J = 2.5e159 at t = 0.5 puts sigma**2 past the float range: the energy is
    # inf, which no comparison guard catches (inf > inf is False).
    w = BoundaryDatum(times=[0.0, 2.0], w0=[0.0, 0.0], wL=[0.0, 1e160])
    with pytest.raises(NumericalError, match=r"^eps=0\.1, time step 1 \(t=0\.5\): energy or work is not finite$"):
        run_eps(material, 0.1, 1, w, refined_time_grid(w, 4))


def test_an_energy_of_5e301_at_a_tiny_eps_runs_and_sweeps_with_no_warning():
    # At eps = 1e-6 the energy grows like eps a0 J^2/L and stays finite, 5e301, while a1 J^2/L, the
    # a-priori energy bound of the property test, overflows: a sound run, no warning.
    m = MaterialParams(kappa=0.5, a0=1.0, a1=2.0, L=1.0, T=3.0)
    w = BoundaryDatum(times=[0.0, 1.0, 2.0, 3.0], w0=[0.0] * 4, wL=[0.0, 1e154, -1e154, 1e154])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run_eps(m, 1e-6, 1, w, refined_time_grid(w, 3))
        sweep_eps(ScenarioConfig(material=m, datum=w, steps=3, eps_list=(1e-5, 1e-6)))
    # The grid also holds the two zero crossings of J; the knots carry the peaks.
    at_knots = traj.energy[np.isin(traj.times, w.times)]
    assert at_knots == pytest.approx([0.0, 5e301, 5e301, 5e301], rel=1e-12)


def test_an_overflowing_identity_bound_is_silent():
    # At eps = 1e-20 on a1 = 1e301 the identity's bound in stiffness form, (1e-12 + 3u a/(eps a0)) a, would
    # pass the float range on the sound bar; in compliance form, 1e-12/a + 3u/(eps a0), it stays finite, and
    # the sound run passes with no warning.
    m = MaterialParams(kappa=1.0, a0=1e298, a1=1e301, L=1.0, T=1.0)
    w = BoundaryDatum(times=[0.0, 1.0], w0=[0.0, 0.0], wL=[0.0, 0.5 * m.jump_threshold])
    grid = refined_time_grid(w, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(run_eps(m, 1e-20, 1, w, grid).sigma, run_limit(m, w, grid).sigma)


def test_an_energy_floats_hold_is_run_though_l_sigma_squared_overflows():
    # sigma = J a/L, so L sigma^2/(2a) is J sigma/2, the limit model's form: the run is finite
    # where its energy is.  In units of s* thr it is the unit material's run, to a few roundings.
    unit = MaterialParams(kappa=1.0, a0=1.0, a1=2.0, L=1.0, T=2.0)
    huge, ref = (run_eps(m, 0.5, 1, w := preset_datum("high-unload", m), refined_time_grid(w, 400))
                 for m in (HUGE_ENERGY_MATERIAL, unit))
    scale = HUGE_ENERGY_MATERIAL.yield_stress * HUGE_ENERGY_MATERIAL.jump_threshold
    assert np.allclose(huge.energy / scale, ref.energy / (unit.yield_stress * unit.jump_threshold),
                       rtol=0.0, atol=1e-14 * ref.energy.max())


@settings(max_examples=300)
@given(program=extreme_programs(), steps=st.integers(1, 40),
       m=st.sampled_from([DEFAULT_MATERIAL, HUGE_THRESHOLD_MATERIAL]), decades=st.floats(0.01, 6.0))
@example(program=HUGE_THRESHOLD_DROP, steps=40, m=HUGE_THRESHOLD_MATERIAL, decades=float(np.log10(30.0)))
def test_any_float_program_runs_or_its_energy_is_refused(program, steps, m, decades):
    # eps from 1e-6 a1/a0 to just below a1/a0.  On HUGE_THRESHOLD_MATERIAL 2L, sigma L and
    # s_p L pass the float range on finite runs: the scan forms none of them, no guard may warn or
    # trip, and the one refusal left is an energy or work the floats cannot hold.
    times, jump = program
    w = BoundaryDatum(times=times, w0=np.zeros_like(jump), wL=jump)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            run_eps(m, m.a1 / m.a0 * 10.0**-decades, 1, w, refined_time_grid(w, steps))
        except NumericalError as exc:
            assert str(exc).endswith("): energy or work is not finite"), str(exc)


def _trips(m, J, sigma, energy):
    """The steps at which the energy and the stress bound of the property test's reference trip."""
    return tuple(np.flatnonzero(bad).tolist() for bad in apriori_bounds_violated(m, J, sigma, energy))


@pytest.mark.parametrize("m", [DEFAULT_MATERIAL, HUGE_THRESHOLD_MATERIAL])
def test_each_bound_trips_just_above_itself(m):
    # One step from rest to J = L: root = sqrt(a1/2), so E/L <= a1/2 and |sigma| <= a1.
    # On the bounds both pass; 1e-8 above them, past the 1e-9 slack, each trips alone at step 1.
    J = np.array([0.0, m.L])
    energy, sigma = np.array([[0.0, 0.5 * m.a1 * m.L]]), np.array([[0.0, m.a1]])
    assert _trips(m, J, sigma, energy) == ([], [])
    assert _trips(m, J, sigma, energy * (1.0 + 1e-8)) == ([1], [])
    assert _trips(m, J, sigma * (1.0 + 1e-8), energy) == ([], [1])


def test_the_energy_bound_adds_the_underflow_allowance_of_each_step():
    # Held at J = 0 on L = 1e-300, root^2 is the first step's allowance over L, 2^-1073/L (3 * 2^-1075 rounded),
    # and each step adds as much again: an energy of 3 * 2^-1074 passes only with its step's, 2^-1071 trips.
    m = MaterialParams(kappa=1e-20, a0=1.0, a1=2.0, L=1e-300, T=1.0)
    J, sigma = np.zeros(2), np.zeros((1, 2))
    assert _trips(m, J, sigma, np.array([[0.0, 3 * 2.0**-1074]])) == ([], [])
    assert _trips(m, J, sigma, np.array([[0.0, 2.0**-1071]])) == ([1], [])


def test_a_large_first_jump_keeps_the_stress_bound_finite():
    # a1/L = 1e100 and J0 = 1e225 on the plateau: E(0) = J0 s*/2 = 7e224 and the stress bound sqrt(2 a1 E(0)/L)
    # = 1.2e162 are finite, while u a1 |J0|/L = 1e309 is not.  The underflow allowance must not switch the
    # bound off: with sigma on it the state passes, 1e-8 above it trips from step 0.
    m = MaterialParams(kappa=1.0, a0=1.0, a1=1e100, L=1.0, T=1.0)
    J = np.array([1e225, 1e225])
    energy = np.full((1, 2), 0.5 * J[0] * m.yield_stress)
    sigma = 2.0 * np.sqrt(0.5 * m.a1) * np.sqrt(energy / m.L)
    assert _trips(m, J, sigma, energy) == ([], [])
    assert _trips(m, J, sigma * (1.0 + 1e-8), energy) == ([], [0, 1])


# L/a1 = 6.2e-318 is subnormal and keeps few bits; thr, (s* L)/a1 = 2.3e-197 there, is normal.
SUBNORMAL_COMPLIANCE_MATERIAL = MaterialParams(kappa=1.877e-2, a0=3.737e242, a1=6.782e242, L=4.191e-75, T=1.0)


def _units(m: MaterialParams) -> dict:
    return {name: getattr(m, name) for name in ("kappa", "a0", "a1", "L")}


def _elastic_step(m: MaterialParams):
    """One elastic step from rest to ``J = m.jump_threshold`` over ``[0, 1]``."""
    return np.array([0.0, 1.0]), np.array([0.0, m.jump_threshold])


@settings(max_examples=300)
@given(units=extreme_units(), program=extreme_programs(), steps=st.integers(1, 40), t=st.floats(0.0, 1.0))
@example(units=_units(DEFAULT_MATERIAL), program=_elastic_step(DEFAULT_MATERIAL), steps=1, t=0.5)
@example(units=_units(HUGE_THRESHOLD_MATERIAL), program=_elastic_step(HUGE_THRESHOLD_MATERIAL), steps=1, t=0.5)
@example(units=_units(SUBNORMAL_COMPLIANCE_MATERIAL), program=_elastic_step(SUBNORMAL_COMPLIANCE_MATERIAL), steps=1,
         t=0.5)
def test_the_scan_state_holds_its_identities(units, program, steps, t):
    """The eps scan's state holds three identities and two bounds of its closed form, each to its counted rounding.

    eps runs geometrically from ``a1/a0`` (``t = 0``, refused) to ``1e-20`` (``t = 1``).  A material or eps
    that is refused, or a run whose energy or work floats cannot hold, is rejected, so every one of the
    examples checks a run; no bound may trip.  With ``u = 2^-53``:

    - Aggregate strain, ``sigma L/a = J`` in jump units: ``(sigma/s*) thr (a1/a)`` is ``J`` to
      ``1e-12 max(|J|, thr a1/a)``.  Exactly, ``thr a1/a`` is the stress divisor ``N'`` on each branch of the
      clip: ``N`` where ``a = a1 (thr/N)``, ``thr`` where ``a = a1`` and, where ``a = eps a0``, ``thr
      (a1/(eps a0))``, which the scan forms by the same two operations.  On the middle branch eight roundings
      (``thr/N``, ``a1 (.)``, ``a1/a``, ``thr (.)``, ``J/N'``, ``s* (.)``, ``/s*`` and the product) give at most
      ``8u |J|`` to first order, and a subnormal quotient or product adds ``2^-1075`` times at most ``thr a1/a``.
    - Stiffness identity, ``1/a = (1 - theta)/(eps a0) + theta/a1`` in compliance form, to ``1e-12/a +
      3u/(eps a0)``: ``theta``'s three roundings, at most ``3u`` absolutely, move the right side by ``3u (1/(eps
      a0) - 1/a1) < 3u/(eps a0)``; the other roundings are relative to ``1/a`` or to a term below it.  Nothing
      is linearized, so a sound fraction ``1 - theta`` that rounds away still holds it.
    - Onset plateau, ``|sigma| <= s_p (1 + 1e-12)`` while sound material is left (``theta > 0``): ``N' >= N =
      M/pf`` and ``|J| <= M`` give ``|J|/N' <= pf`` exactly, and ``s* (J/N')`` against ``s_p = s* pf`` adds
      at most five roundings.
    - A-priori bounds, ``E/L <= root^2`` and ``|sigma| <= 2k root`` with ``root = sqrt(E(0)/L) + k cumsum|dJ|/L``
      and ``k = sqrt(a1/2)``: the incremental minimization raises the energy by at most the worst-case work of
      each increment.  Slack ``1e-9`` and the counted underflow allowance of every step are
      ``oracles.apriori_bounds_violated``'s.
    """
    times, jump = program
    try:
        m = MaterialParams(**units, T=times[-1])
        eps = 10.0 ** ((1.0 - t) * np.log10(m.a1 / m.a0) - 20.0 * t)
        plateau_factor(m, eps)
    except ValueError:
        assume(False)
    w = BoundaryDatum(times=times, w0=np.zeros_like(jump), wL=jump)
    grid = refined_time_grid(w, steps)
    J = w.jump(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            s_p, a, sigma, theta, _, energy, _ = (row[0] for row in _scan(m, (eps,), J, grid))
        except NumericalError as exc:
            assert str(exc).endswith("): energy or work is not finite"), str(exc)
            assume(False)
    weak, s, thr = eps * m.a0, m.yield_stress, m.jump_threshold
    with np.errstate(over="ignore"):
        jump_a = thr * (m.a1 / a)
    assert np.all(np.abs(sigma / s * jump_a - J) <= 1e-12 * np.maximum(np.abs(J), jump_a))
    assert np.all(np.abs(1.0 / a - ((1.0 - theta) / weak + theta / m.a1)) <= 1e-12 / a + 3.0 * _U / weak)
    assert np.all(np.abs(sigma[theta > 0.0]) <= s_p * (1.0 + 1e-12))
    assert _trips(m, J, sigma, energy) == ([], [])


# Compliances L/a1 that keep few bits: 1.5e-319 (the material above at L = 1e-76) and 3.5e-323.
@pytest.mark.parametrize("run", [run_limit, lambda m, w, grid: run_eps(m, 0.5, 1, w, grid)],
                         ids=["run_limit", "run_eps"])
@pytest.mark.parametrize("units", [
    {"kappa": 1.877e-2, "a0": 3.737e242, "a1": 6.782e242, "L": 1e-76},
    {"kappa": 3.2945806535203968, "a0": 2.1849951035804142e+57, "a1": 5.230304508803783e+57,
     "L": 1.6812865962494916e-265}], ids=["compliance-1.5e-319", "compliance-3.5e-323"])
def test_an_elastic_run_on_a_subnormal_compliance_reads_the_exact_stress(units, run):
    # s* (L/a1) would carry the compliance's rounding (1.2e-6 and 7% relative) into the stress, and on
    # the eps scan the first breaks the a-priori energy bound of test_the_scan_state_holds_its_identities;
    # thr is (s* L)/a1, so sigma is J a1/L to four roundings.
    m = MaterialParams(**units, T=1.0)
    w = BoundaryDatum(times=[0.0, 1.0], w0=[0.0, 0.0], wL=[0.0, 0.5 * m.jump_threshold])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run(m, w, refined_time_grid(w, 10))
    exact = [float(Fraction(J) * Fraction(m.a1) / Fraction(m.L)) for J in traj.J]
    np.testing.assert_allclose(traj.sigma, exact, rtol=1e-15, atol=0.0)


# The compliance L/a1 = 6e-323 keeps few bits, and L (1/a - 1/a1) is subnormal on the plateau.
SUBNORMAL_MASS_MATERIAL = MaterialParams(kappa=5.881394558494353e-59, a0=2.40948842162432e162,
                                         a1=3.0196717210219436e163, L=1.817801050488785e-159, T=1.0)


@pytest.mark.parametrize("eps", [1e-20, 6.27])
def test_the_mass_on_a_subnormal_compliance_keeps_its_bits(eps):
    # Formed as (L (1/a - 1/a1))/(1/a0 - eps/a1), the first damaged mass read 1.19e-161 at eps = 1e-20,
    # where (N - thr) a0/s* is 7.4e-162, and both runs broke the a-priori energy bound.  Against that closed
    # form in exact arithmetic on the recorded stiffness a = a1 (thr/N): a few roundings, well inside 1e-14.
    m = SUBNORMAL_MASS_MATERIAL
    w = BoundaryDatum(times=[0.0, 0.8323588148349929, 1.0], w0=np.zeros(3),
                      wL=m.jump_threshold * np.array([-0.5296590227519031, -2.555525094118515, 0.8919982724623847]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run_eps(m, eps, 1, w, refined_time_grid(w, 28))
    L, a1, e = Fraction(m.L), Fraction(m.a1), Fraction(eps)
    exact = [float(L * (1 / Fraction(a) - 1 / a1) / (1 / Fraction(m.a0) - e / a1)) for a in traj.stiffness[:, 0]]
    assert np.count_nonzero(exact) > 0
    np.testing.assert_allclose(traj.l_eps, exact, rtol=1e-14, atol=0.0)


def test_a_weak_stiffness_near_the_float_floor_overflows_no_earlier():
    # eps a0 = 4e-299 on a1 = 2e10: full damage thr a1/(eps a0) passes the float range, and the mass
    # (n - thr)(a0/s*), 2e308 at step 2, would overflow there; capped at L/eps = 1.25e308 it is finite,
    # and the energy first overflows at step 3.
    m = MaterialParams(kappa=0.5, a0=1e10, a1=2e10, L=0.5, T=1.0)
    w = BoundaryDatum(times=[0.0, 1.0], w0=[0.0, 0.0], wL=[0.0, 1e304])
    with pytest.raises(NumericalError, match=r"^eps=4e-309, time step 3 \(t=0\.30000000000000004\): "
                                             r"energy or work is not finite$"):
        run_eps(m, 4e-309, 1, w, refined_time_grid(w, 10))


@settings(max_examples=300)
@given(units=any_units(), data=st.data(), steps=st.integers(1, 100))
def test_where_the_plateau_factor_is_one_the_eps_state_is_the_limit_state(units, data, steps):
    # eps a0 = 1e-20 a0 is below the rounding of a1, so plateau_factor is exactly 1, N is M, and short of
    # full damage (|J| <= 3 thr here) s* (J/clip(N, thr, thr a1/(eps a0))) is run_limit's s* (J/max(M, thr)),
    # with one thr for both models on any units: materials and runs that are refused are skipped.  The mass
    # is run_limit's (n - thr)(a0/s*) times a1/(a1 - eps a0) = 1, so the mass and the energy are its bits too.
    try:
        m = MaterialParams(**units, T=1.0)
        pf = plateau_factor(m, 1e-20)
    except ValueError:
        return
    assert pf == 1.0
    w = data.draw(programs(m))
    grid = refined_time_grid(w, steps)
    try:
        eps, limit = run_eps(m, 1e-20, 1, w, grid), run_limit(m, w, grid)
    except NumericalError:
        return
    assert np.array_equal(eps.sigma, limit.sigma)
    assert np.array_equal(eps.l_eps, limit.l)
    assert np.array_equal(eps.energy, limit.E_closed)


def test_an_eps_within_rounding_of_a1_over_a0_runs_elastic():
    # eps a0 rounds to one ulp below a1 = 6.24, so pf is 8.4e7 and N = M/pf stays below thr: the bar is elastic.
    # No mass divides by 1/a0 - eps/a1, which is 0.0 here, so the run is not refused.
    m = replace(DEFAULT_MATERIAL, a0=3.75, a1=6.24)
    w = preset_datum("high-unload", m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run_eps(m, 1.664, 1, w, refined_time_grid(w, 40))
    assert 1.0 / m.a0 - 1.664 / m.a1 == 0.0
    assert np.array_equal(traj.sigma, m.yield_stress * (traj.J / m.jump_threshold))
    assert np.all(traj.l_eps == 0.0)


def test_the_eps_mass_overflows_no_earlier_than_the_limit_mass():
    # At step 1 L (1/a - 1/a1) = 2.5e308 passes the float range while the mass is 2.5e298: the eps mass is
    # run_limit's (n - thr)(a0/s*), no quotient of that product, and both end at l = 1e299.
    m = MaterialParams(kappa=5e-191, a0=1e-10, a1=1.0, L=1e10, T=1.0)
    w = BoundaryDatum(times=[0.0, 1.0], w0=[0.0, 0.0], wL=[0.0, 1e209])
    grid = refined_time_grid(w, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run_eps(m, 1e-295, 1, w, grid)
    assert traj.l_eps[-1] == run_limit(m, w, grid).l[-1] == 1e299


@settings(max_examples=300)
@given(units=extreme_units(), program=extreme_programs(), steps=st.integers(1, 40), decades=st.floats(0.01, 6.0))
def test_damage_never_heals(units, program, steps, decades):
    # Each step from M to N = M/pf, a = clip(a1 (thr/N), eps a0, a1) and theta is monotone under
    # correct rounding: from the pristine a1 and 1, neither ever grows, with no tolerance.
    times, jump = program
    try:
        m = MaterialParams(**units, T=times[-1])
        eps = m.a1 / m.a0 * 10.0**-decades
        plateau_factor(m, eps)
    except ValueError:
        return
    w = BoundaryDatum(times=times, w0=np.zeros_like(jump), wL=jump)
    J = w.jump(refined_time_grid(w, steps))
    cell = _frozen_cell(m, (eps,), J, np.maximum.accumulate(np.abs(J)))
    assert np.all(np.diff(np.concatenate([[m.a1], cell.a[0]])) <= 0.0)
    assert np.all(np.diff(np.concatenate([[1.0], cell.theta[0]])) <= 0.0)


def test_a_tiny_eps_keeps_l_eps_to_its_rounding():
    # l_eps = (n - thr)(a0/s*) a1/(a1 - eps a0) is the closed form L (1/a - 1/a1)/(1/a0 - eps/a1)
    # of L (1 - theta)/eps at a = a1 (thr/n), read from n, not from theta or the rounded a.
    # Through theta, the rounding of 1 - theta grows by 1/eps: 3.9% of l_eps at
    # step 160 here, enough to break the a-priori energy bound on this sound run.
    m = MaterialParams(kappa=3.0, a0=1.0, a1=2.0, L=1.0, T=1.0)
    w = BoundaryDatum(times=[0.0, 1.0], w0=[0.0, 0.0], wL=[0.0, 2.0])
    eps = 2e-12
    traj = run_eps(m, eps, 1, w, refined_time_grid(w, 261))
    u = Fraction(2.0**-53)
    L, a0, a1, e = (Fraction(v) for v in (m.L, m.a0, m.a1, eps))
    D = 1 / a0 - e / a1
    # Damage from the first step past the threshold: 2k/261 > sqrt(6)/2 for k >= 160.
    assert np.flatnonzero(traj.l_eps).tolist() == list(range(160, 262))
    for a, l_eps in zip(traj.stiffness[:, 0], traj.l_eps):
        a = Fraction(a)
        exact = L * (1 / a - 1 / a1) / D
        # The quotient's eight roundings on the recorded a, counted to first order
        # in u: 1/a, 1/a1 and their difference, the product with L, 1/a0, eps/a1
        # and their difference, and the quotient.  The mass is read from n, whose
        # rounding into a is of the first term's size: below 0.4 of the bound here.
        bound = u * (L * (1 / a + 1 / a1) / D + exact * (4 + (1 / a0 + e / a1) / D))
        assert abs(Fraction(l_eps) - exact) <= bound


def test_the_identity_guard_allows_for_the_rounding_of_theta():
    # eps*a0 = 0.003 against a = 24.5 after onset: theta = 1 - 4.8e-6, and its
    # rounding moves the identity by 1.5u a/weak = 1.4e-12 relative, past a
    # flat 1e-12.  The run is sound and must not raise.
    m = MaterialParams(kappa=4.0, a0=3.0, a1=25.5, L=5.0, T=1.0)
    w = BoundaryDatum(times=[0.0, 1.0], w0=[0.0, 0.0], wL=[0.0, 1.0])
    traj = run_eps(m, 0.001, 1, w, refined_time_grid(w, 1))
    a, theta = traj.stiffness[-1, 0], traj.theta[-1, 0]
    weak = 0.001 * m.a0
    assert abs(a - 1.0 / ((1.0 - theta) / weak + theta / m.a1)) > 1e-12 * a


def test_the_identity_guard_passes_a_sound_fraction_that_rounds_away():
    # At eps = 1e-20 the sound fraction 1 - theta < u/2 of the damaged bar rounds away: theta reads 1 and
    # (1 - theta)/weak + theta/a1 reads 1/a1.  The compliance is off by (1 - theta)/weak <= 3u/weak, which
    # the bound in compliance form allows; a bound in stiffness form, linear in theta's rounding, refuses step 9.
    m = DEFAULT_MATERIAL
    w = BoundaryDatum(times=[0.0, 1.0], w0=[0.0, 0.0], wL=[0.0, 300.0 * m.jump_threshold])
    grid = refined_time_grid(w, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run_eps(m, 1e-20, 1, w, grid)
    assert np.all(traj.theta == 1.0) and traj.stiffness[-1, 0] < m.a1 / 299.0
    assert traj.sigma[-1] == m.yield_stress
    assert np.array_equal(traj.sigma, run_limit(m, w, grid).sigma)


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
