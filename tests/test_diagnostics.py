import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from barlab import (DAMAGE_ONLY, DEFAULT_MATERIAL, PERFECT_PLASTICITY, BoundaryDatum,
                    MaterialParams, classifier_consistency, cns_classify, dissipation,
                    plasticity_energy_balance_residual, preset_datum,
                    refined_time_grid, residual_series, run_limit)
from barlab.diagnostics import fake_balance_residual_series, flow_rule_defects
from barlab.loading import jump_nodes, threshold_crossing
from conftest import materials
from oracles import (DiscreteDisplacement, competitor_family, path_admits_plasticity,
                     static_gamma_energy)


def run_preset(material, name, steps=400):
    w = preset_datum(name, material)
    return run_limit(material, w, refined_time_grid(w, steps))


def initial_energy(material, J0):
    # Elastic below the jump threshold, affine with yield slope above it.
    if abs(J0) <= material.jump_threshold:
        return material.a1 * J0**2 / (2.0 * material.L)
    return material.yield_stress * abs(J0) \
        - material.kappa * material.a0 * material.L / material.a1


class TestDissipation:
    def test_static_path_dissipates_nothing(self, material):
        traj = run_preset(material, "constant", steps=50)
        assert dissipation(traj, 0.0, material.T) == 0.0

    def test_monotone_total(self, material):
        traj = run_preset(material, "monotone")
        assert dissipation(traj, 0.0, 2.0) == pytest.approx(1.5, abs=1e-12)

    def test_loading_unloading_counts_both_legs(self, material):
        traj = run_preset(material, "loading-unloading")
        assert dissipation(traj, 0.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_additive_over_adjacent_windows(self, material):
        traj = run_preset(material, "loading-unloading")
        left = dissipation(traj, 0.0, 1.0)
        right = dissipation(traj, 1.0, 2.0)
        assert left + right == pytest.approx(dissipation(traj, 0.0, 2.0), abs=1e-12)

    def test_refinement_cannot_lose_variation(self, material):
        coarse = run_preset(material, "loading-unloading", steps=100)
        fine = run_preset(material, "loading-unloading", steps=400)
        d_coarse = dissipation(coarse, 0.0, 2.0)
        d_fine = dissipation(fine, 0.0, 2.0)
        assert d_coarse <= d_fine + 1e-12
        # Piecewise-linear data are sampled exactly once the knots are on the grid.
        assert d_coarse == pytest.approx(d_fine, abs=1e-12)

    def test_every_instant_resolves_at_a_tiny_horizon(self, material):
        # At T = 1e-8 the grid spacing is 2.5e-11: an absolute time tolerance
        # lets a neighbour stand in for the instant asked for.
        m = replace(material, T=1e-8)
        traj = run_preset(m, "high-unload")
        spent = m.yield_stress * np.concatenate([[0.0], np.cumsum(np.abs(np.diff(traj.p)))])
        assert [dissipation(traj, 0.0, t) for t in traj.times] == spent.tolist()

    def test_rejects_reversed_window(self, material):
        traj = run_preset(material, "constant", steps=10)
        with pytest.raises(ValueError):
            dissipation(traj, 1.0, 0.5)

    @pytest.mark.parametrize("s, t", [(0.0, 0.25), (0.05, 1.0)])
    def test_rejects_an_unrecorded_instant(self, material, s, t):
        traj = run_preset(material, "loading-unloading", steps=10)
        with pytest.raises(ValueError, match="is not a recorded instant"):
            dissipation(traj, s, t)


class TestPlasticityResidual:
    def test_monotone_balances(self, material):
        traj = run_preset(material, "monotone")
        assert float(np.max(residual_series(traj))) <= 1e-6
        assert float(np.max(np.abs(residual_series(traj)))) <= 1e-9

    def test_loading_unloading_terminal_value(self, material):
        traj = run_preset(material, "loading-unloading")
        assert plasticity_energy_balance_residual(traj, 2.0) == pytest.approx(0.75, abs=1e-9)

    def test_nonnegative_and_monotone_on_presets(self, material):
        for name in ("monotone", "constant", "loading-unloading", "high-unload"):
            series = residual_series(run_preset(material, name))
            assert float(np.min(series)) >= -1e-9
            assert float(np.min(np.diff(series))) >= -1e-12

    def test_positive_once_unloading_bites(self, material):
        traj = run_preset(material, "high-unload")
        series = residual_series(traj)
        late = series[traj.times > 1.0 + 1e-9]
        assert np.all(late > 0.0)

    def test_unrecorded_instant_rejected(self, material):
        traj = run_preset(material, "monotone", steps=7)
        with pytest.raises(ValueError):
            plasticity_energy_balance_residual(traj, 0.123456)


class TestFlowRule:
    def test_zero_without_plastic_mass(self, material):
        traj = run_preset(material, "constant", steps=20)
        defects = flow_rule_defects(traj)
        assert defects.size == traj.times.size - 1
        assert np.all(defects == 0.0)

    def test_zero_under_saturated_growth(self, material):
        traj = run_preset(material, "monotone")
        assert np.max(flow_rule_defects(traj)) <= 1e-12

    def test_unloading_step_defect(self, material):
        traj = run_preset(material, "loading-unloading", steps=20)
        k = int(np.argmin(np.abs(traj.times - 1.1)))
        assert traj.times[k] == pytest.approx(1.1, abs=1e-12)
        assert flow_rule_defects(traj)[k - 1] == pytest.approx(0.095, abs=1e-12)


class TestFakeBalance:
    # With trapezoidal flow work and trapezoidal external work the balance
    # telescopes exactly: sigma_bar*dJ - sigma_bar*dp = d(elastic) follows
    # from J = sigma*(l/a0 + L/a1) at every recorded state.  The residual
    # therefore sits at the rounding floor on every grid, kinks included.
    @pytest.mark.parametrize("name", ["monotone", "loading-unloading", "high-unload"])
    @pytest.mark.parametrize("steps", [131, 262, 400])
    def test_discrete_identity_at_rounding_floor(self, material, name, steps):
        traj = run_preset(material, name, steps)
        assert float(np.max(np.abs(fake_balance_residual_series(traj)))) <= 1e-13


class TestClassifier:
    def test_monotone_is_plastic(self, material):
        w = preset_datum("monotone", material)
        c = cns_classify(w, material, steps=400)
        assert c.verdict == PERFECT_PLASTICITY
        assert c.witness is None
        assert c.flow_rule_violations == 0
        assert c.max_eb_residual <= 1e-9

    def test_constant_is_plastic_and_never_yields(self, material):
        w = preset_datum("constant", material)
        c = cns_classify(w, material, steps=50)
        assert c.verdict == PERFECT_PLASTICITY
        assert c.t0 == material.T
        assert c.t0_star == material.T

    def test_loading_unloading_witness_is_valid(self, material):
        w = preset_datum("loading-unloading", material)
        c = cns_classify(w, material, steps=400)
        assert c.verdict == DAMAGE_ONLY
        s, t = c.witness
        assert s < t
        assert abs(w.jump(s)) > material.jump_threshold - 1e-12
        assert abs(w.jump(t)) < abs(w.jump(s)) - 1e-12
        assert abs(w.jump(t)) > material.jump_threshold - 1e-12
        assert c.t0 == pytest.approx(0.5, abs=1e-12)
        # |J| = t reaches the jump threshold 1/2 at t = 1/2, where criterion 1's
        # l = t - 1/2 starts.
        assert c.t0_star == pytest.approx(0.5, abs=1e-12)
        assert c.flow_rule_violations == 200
        assert c.max_eb_residual == pytest.approx(0.75, abs=1e-9)

    def test_t0_star_is_the_exact_crossing_off_the_grid(self, material):
        # J = 0.65 t crosses the threshold 1/2 at t = 0.5/0.65 = 0.769..., between
        # the grid points 0.765 and 0.77.
        w = BoundaryDatum(times=[0.0, 2.0], w0=[0.0, 0.0], wL=[0.0, 1.3])
        c = cns_classify(w, material, steps=400)
        assert c.t0_star == pytest.approx(0.5 / 0.65, abs=1e-12)

    def test_high_unload_witness_spans_the_tail(self, material):
        w = preset_datum("high-unload", material)
        c = cns_classify(w, material, steps=400)
        assert c.verdict == DAMAGE_ONLY
        assert c.witness == (1.0, 2.0)

    def test_rate_independent_verdict(self, material):
        slow = BoundaryDatum(times=[0.0, 1.0, 4.0], w0=np.zeros(3), wL=[0.0, 1.0, 0.0])
        fast = preset_datum("loading-unloading", material)
        m_slow = replace(material, T=4.0)
        c_slow = cns_classify(slow, m_slow, steps=400)
        c_fast = cns_classify(fast, material, steps=400)
        assert c_slow.verdict == c_fast.verdict == DAMAGE_ONLY
        assert slow.jump(c_slow.witness[0]) == pytest.approx(fast.jump(c_fast.witness[0]), abs=1e-9)
        assert slow.jump(c_slow.witness[1]) == pytest.approx(fast.jump(c_fast.witness[1]), abs=1e-9)

    @pytest.mark.parametrize("T", [1e-16, 1e-20])
    def test_tiny_horizon_keeps_its_witness(self, material, T):
        # |J| rises to 1 at T/2 and falls back to 0; the witness ends where it is
        # half-way down to the threshold 1/2, at 5T/8.
        w = BoundaryDatum(times=[0.0, T / 2, T], w0=np.zeros(3), wL=[0.0, 1.0, 0.0])
        c = cns_classify(w, replace(material, T=T), steps=400)
        assert c.verdict == DAMAGE_ONLY
        assert c.witness == pytest.approx((T / 2, 5 * T / 8), rel=1e-12, abs=0.0)

    def test_onset_pinned_to_threshold_crossing(self, material):
        for name in ("monotone", "loading-unloading", "high-unload"):
            w = preset_datum(name, material)
            c = cns_classify(w, material, steps=400)
            assert abs(c.t0 - c.t0_star) <= 2.0 / 400 + 1e-12


THR = DEFAULT_MATERIAL.jump_threshold


@st.composite
def jump_programs(draw):
    # Knot values mix exact zeros, exact +-threshold and a start above it with free floats.
    n = draw(st.integers(2, 8))
    gaps = draw(st.lists(st.floats(0.01, 1.0), min_size=n - 1, max_size=n - 1))
    value = st.one_of(st.sampled_from([0.0, THR, -THR, 1.5 * THR, -2.0 * THR]),
                      st.floats(-3.0 * THR, 3.0 * THR))
    wL = draw(st.lists(value, min_size=n, max_size=n))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    return BoundaryDatum(times=times, w0=np.zeros(n), wL=wL)


@settings(max_examples=300)
@given(w=jump_programs(), steps=st.integers(1, 60))
def test_path_test_on_random_programs(w, steps):
    times, J = jump_nodes(w)
    # A crossing next to a knot may round onto it: nodes are sorted, not strictly increasing.
    assert np.all(np.diff(times) >= 0.0) and np.isin(w.times, times).all()
    assert np.allclose(J, w.jump(times), rtol=0.0, atol=1e-12)
    # No sign change inside a segment: |J| is linear between nodes.
    assert np.all(J[:-1] * J[1:] >= 0.0)

    t0_star = threshold_crossing(w, THR)
    assert np.all(np.abs(J[times < t0_star]) <= THR)

    m = replace(DEFAULT_MATERIAL, T=w.duration)
    c = cns_classify(w, m, steps=steps)
    assert c.t0_star == t0_star
    expected = PERFECT_PLASTICITY if path_admits_plasticity(w.wL - w.w0, THR) else DAMAGE_ONLY
    assert c.verdict == expected


def _tied_start(m: MaterialParams, side: int) -> BoundaryDatum:
    # wL = [J0, 0] with J0 one ulp below (-1), at (0) or one ulp above (+1) the threshold.
    thr = m.jump_threshold
    J0 = thr if side == 0 else float(np.nextafter(thr, side * np.inf))
    return BoundaryDatum(times=[0.0, m.T], w0=[0.0, 0.0], wL=[J0, 0.0])


def _assert_one_onset(w: BoundaryDatum, m: MaterialParams) -> None:
    # The return map damages at t = 0 exactly when |J(0)| is above the threshold,
    # so the onset check of cns_classify cannot see two different crossings.
    cns_classify(w, m, steps=50)
    traj = run_limit(m, w, refined_time_grid(w, 50))
    assert (traj.l[0] > 0.0) == (threshold_crossing(w, m.jump_threshold) == 0.0)


@settings(max_examples=300)
@given(m=materials(), side=st.sampled_from([-1, 0, 1]))
def test_a_start_tied_with_the_threshold_has_one_onset(m, side):
    _assert_one_onset(_tied_start(m, side), m)


@pytest.mark.parametrize("T", [2e-9, 2.0, 2e9])
def test_a_tie_in_scaled_units_has_one_onset(T):
    # The default material with stiffnesses and toughness scaled by 1e-9 and the
    # length by 1e9: s* L/a1 rounds to one ulp below the jump 0.5e9.
    m = MaterialParams(kappa=0.5e-9, a0=1e-9, a1=2e-9, L=1e9, T=T)
    _assert_one_onset(BoundaryDatum(times=[0.0, T], w0=[0.0, 0.0], wL=[0.5e9, 0.0]), m)


class TestConsistency:
    def test_presets_agree_with_their_verdicts(self, material):
        # Stiffnesses and toughness in other units leave every count unchanged.
        counts = {"monotone": 0, "constant": 0, "loading-unloading": 200, "high-unload": 200}
        for lam, (name, count) in itertools.product([1.0, 1e-12, 1e12], counts.items()):
            m = replace(material, kappa=lam * material.kappa, a0=lam * material.a0,
                        a1=lam * material.a1)
            w = preset_datum(name, material)
            c = cns_classify(w, m, steps=400)
            assert c.flow_rule_violations == count
            report = classifier_consistency(run_limit(m, w, refined_time_grid(w, 400)), c.verdict)
            assert bool(report)
            assert report.first_inconsistent_time is None

    def test_wrong_verdict_is_caught_both_ways(self, material):
        plastic = run_preset(material, "monotone")
        report = classifier_consistency(plastic, DAMAGE_ONLY)
        assert not report
        assert report.first_inconsistent_time is not None

        damaging = run_preset(material, "loading-unloading")
        report = classifier_consistency(damaging, PERFECT_PLASTICITY)
        assert not report
        assert report.first_inconsistent_time is not None


class TestStaticEnergy:
    def test_affine_matcher_is_elastic(self, material):
        u = DiscreteDisplacement(np.linspace(0.0, 0.4, 9))
        assert static_gamma_energy(u, material, (0.0, 0.4)) == pytest.approx(0.16, abs=1e-14)

    def test_pure_jump_pays_the_yield_stress(self, material):
        u = DiscreteDisplacement(np.zeros(5), jumps=((0.5, 1.0),))
        val = static_gamma_energy(u, material, (0.0, 1.0))
        assert val == pytest.approx(1.0, abs=1e-14)
        assert val >= initial_energy(material, 1.0)

    def test_boundary_mismatch_counts_as_a_jump(self, material):
        u = DiscreteDisplacement(np.zeros(3))
        assert static_gamma_energy(u, material, (0.0, 0.4)) == pytest.approx(0.4, abs=1e-14)

    def test_jump_positions_validated(self, material):
        u = DiscreteDisplacement(np.zeros(3), jumps=((0.0, 0.3),))
        with pytest.raises(ValueError):
            static_gamma_energy(u, material, (0.0, 0.3))
        u = DiscreteDisplacement(np.zeros(3), jumps=((material.L, 0.3),))
        with pytest.raises(ValueError):
            u.traces(material.L)

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            DiscreteDisplacement(np.zeros(1))


class TestCompetitorFamily:
    def test_affine_member_attains_the_elastic_minimum(self, material):
        fam = competitor_family(material, 0.4, 2, np.random.default_rng(0))
        first = next(fam)
        val = static_gamma_energy(first, material, (0.0, 0.4))
        assert val == pytest.approx(initial_energy(material, 0.4), abs=1e-14)

    def test_saturated_member_attains_the_relaxed_minimum(self, material):
        fam = competitor_family(material, 1.0, 2, np.random.default_rng(0))
        next(fam)
        second = next(fam)
        val = static_gamma_energy(second, material, (0.0, 1.0))
        assert val == pytest.approx(initial_energy(material, 1.0), abs=1e-12)

    @pytest.mark.parametrize("J0", [0.4, 1.0, -1.5])
    def test_nobody_beats_the_minimum(self, material, J0):
        floor = initial_energy(material, J0)
        rng = np.random.default_rng(11)
        for u in competitor_family(material, J0, 200, rng):
            assert static_gamma_energy(u, material, (0.0, J0)) >= floor - 1e-9


SCALES = (1e-9, 1e6, 1e9)


@st.composite
def loading_programs(draw):
    n = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    traces = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    return BoundaryDatum(times=times, w0=draw(traces), wL=draw(traces))


def _classify_and_check(w, m, steps):
    c = cns_classify(w, m, steps=steps)
    report = classifier_consistency(run_limit(m, w, refined_time_grid(w, steps)), c.verdict)
    return c, report.ok


@settings(max_examples=25)
@given(w=loading_programs())
def test_classifier_is_invariant_under_unit_scaling(w):
    # Stiffnesses and toughness scale by lam, the bar length and the displacements
    # by mu, time by tau: the verdict and the counts are unit-free, the witness is a time.
    # A node with |J| on the threshold is a tie that rounding in the scaled units
    # breaks either way, so such programs are left out.
    _, J = jump_nodes(w)
    assume(np.all(np.abs(np.abs(J) - THR) > 1e-12 * THR))
    m = replace(DEFAULT_MATERIAL, T=w.duration)
    base, base_ok = _classify_and_check(w, m, 100)
    for lam, mu, tau in itertools.product(SCALES, repeat=3):
        ws = BoundaryDatum(times=tau * w.times, w0=mu * w.w0, wL=mu * w.wL)
        ms = MaterialParams(kappa=lam * m.kappa, a0=lam * m.a0, a1=lam * m.a1,
                            L=mu * m.L, T=ws.duration)
        c, ok = _classify_and_check(ws, ms, 100)
        assert (c.verdict, c.flow_rule_violations, ok) == \
            (base.verdict, base.flow_rule_violations, base_ok), (lam, mu, tau)
        if base.witness is None:
            assert c.witness is None
        else:
            expected = (tau * base.witness[0], tau * base.witness[1])
            assert c.witness == pytest.approx(expected, rel=1e-12, abs=0.0), (lam, mu, tau)
