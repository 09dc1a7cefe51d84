import decimal
import itertools
import math
import re
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from barlab import (DAMAGE_ONLY, DEFAULT_MATERIAL, PERFECT_PLASTICITY, BoundaryDatum,
                    MaterialParams, classifier_consistency, cns_classify, preset_datum,
                    refined_time_grid, residual_series, run_eps, run_limit, yield_dissipation)
from barlab.diagnostics import _balance, _ledger, stress_saturated
from barlab.envelope import plateau_factor
from barlab.errors import _U, NumericalError
from barlab.limit_evolution import LimitTrajectory
from barlab.loading import cumulative_work, first_drop
from conftest import (HUGE_ENERGY_UNITS, HUGE_THRESHOLD_DROP, HUGE_THRESHOLD_MATERIAL, LEDGER_OVERFLOW_PROGRAM,
                      OVERFLOW_MATERIAL, UNIT_REFUSALS, assert_fields_equal, extreme_programs, extreme_units,
                      materials, programs)
from oracles import (DiscreteDisplacement, competitor_family, fake_balance_residual_series, limit_ledger,
                     path_admits_plasticity, static_gamma_energy, trapezoid_residual_series)


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
        assert np.all(yield_dissipation(traj) == 0.0)

    def test_monotone_total(self, material):
        traj = run_preset(material, "monotone")
        assert yield_dissipation(traj)[-1] == pytest.approx(1.5, abs=1e-12)

    def test_loading_unloading_counts_both_legs(self, material):
        traj = run_preset(material, "loading-unloading")
        assert yield_dissipation(traj)[-1] == pytest.approx(1.0, abs=1e-12)

    def test_additive_over_adjacent_windows(self, material):
        # Each leg of the triangle dissipates s*^2 l1/a0 = 2 kappa l1 = 0.5;
        # the knot T/2 splits the cumulative array into the two legs.
        traj = run_preset(material, "loading-unloading")
        diss = yield_dissipation(traj)
        k = int(np.searchsorted(traj.times, 1.0))
        assert traj.times[k] == 1.0 and diss[0] == 0.0
        assert diss[k] == pytest.approx(0.5, abs=1e-12)
        assert diss[-1] - diss[k] == pytest.approx(0.5, abs=1e-12)
        assert np.all(np.diff(diss) >= 0.0)

    def test_refinement_cannot_lose_variation(self, material):
        coarse = run_preset(material, "loading-unloading", steps=100)
        fine = run_preset(material, "loading-unloading", steps=400)
        d_coarse = yield_dissipation(coarse)[-1]
        d_fine = yield_dissipation(fine)[-1]
        assert d_coarse <= d_fine + 1e-12
        # Piecewise-linear data are sampled exactly once the knots are on the grid.
        assert d_coarse == pytest.approx(d_fine, abs=1e-12)


class TestPlasticityResidual:
    def test_monotone_balances(self, material):
        traj = run_preset(material, "monotone")
        assert float(np.max(residual_series(traj))) <= 1e-6
        assert float(np.max(np.abs(residual_series(traj)))) <= 1e-9

    def test_loading_unloading_terminal_value(self, material):
        traj = run_preset(material, "loading-unloading")
        assert residual_series(traj)[-1] == pytest.approx(0.75, abs=1e-9)

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

    def test_matches_the_trapezoid_reference_where_that_is_exact(self, material):
        # The presets cross the threshold at t = 0.5, a grid point, so the
        # trapezoid work is exact too and the two forms agree to rounding.
        for name in ("monotone", "constant", "loading-unloading", "high-unload"):
            traj = run_preset(material, name)
            gap = np.abs(residual_series(traj) - trapezoid_residual_series(traj))
            assert np.max(gap) <= 1e-12 * material.yield_stress * material.L

    @pytest.mark.parametrize("steps", [7, 400])
    def test_exact_when_the_crossing_is_off_the_grid(self, steps):
        # Here the threshold crossing falls between grid points: the trapezoid
        # work carries the onset step's error, the state form does not.
        m = MaterialParams(kappa=0.3, a0=1.7, a1=3.1, L=1.4, T=5.0)
        traj = run_preset(m, "loading-unloading", steps)
        l1 = m.a0 * (m.L * m.T / 2.0 / m.yield_stress - m.L / m.a1)
        want = 3.0 * m.kappa * l1
        assert residual_series(traj)[-1] == pytest.approx(want, rel=1e-12, abs=0.0)
        assert abs(trapezoid_residual_series(traj)[-1] - want) > 1e-6 * want


class TestFlowRule:
    def test_zero_without_plastic_mass(self, material):
        traj = run_preset(material, "constant", steps=20)
        defects = _balance(traj)[1]
        assert defects.size == traj.times.size - 1
        assert np.all(defects == 0.0)

    def test_zero_under_saturated_growth(self, material):
        traj = run_preset(material, "monotone")
        assert np.max(_balance(traj)[1]) <= 1e-12

    def test_unloading_step_defect(self, material):
        traj = run_preset(material, "loading-unloading", steps=20)
        k = int(np.argmin(np.abs(traj.times - 1.1)))
        assert traj.times[k] == pytest.approx(1.1, abs=1e-12)
        assert _balance(traj)[1][k - 1] == pytest.approx(0.095, abs=1e-12)


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
        c_slow = cns_classify(slow, material, steps=400)
        c_fast = cns_classify(fast, material, steps=400)
        assert c_slow.verdict == c_fast.verdict == DAMAGE_ONLY
        assert slow.jump(c_slow.witness[0]) == pytest.approx(fast.jump(c_fast.witness[0]), abs=1e-9)
        assert slow.jump(c_slow.witness[1]) == pytest.approx(fast.jump(c_fast.witness[1]), abs=1e-9)

    @pytest.mark.parametrize("T", [1e-16, 1e-20])
    def test_tiny_horizon_keeps_its_witness(self, material, T):
        # |J| rises to 1 at T/2 and falls back to 0; the witness ends where it is
        # half-way down to the threshold 1/2, at 5T/8.
        w = BoundaryDatum(times=[0.0, T / 2, T], w0=np.zeros(3), wL=[0.0, 1.0, 0.0])
        c = cns_classify(w, material, steps=400)
        assert c.verdict == DAMAGE_ONLY
        assert c.witness == pytest.approx((T / 2, 5 * T / 8), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("steps", [2.5, "3"])
    def test_a_step_count_must_be_an_integer(self, material, steps):
        with pytest.raises(ValueError, match=r"^steps must be an integer, got "):
            cns_classify(preset_datum("monotone", material), material, steps=steps)

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
    times, J = w.nodes
    # A crossing next to a knot may round onto it: nodes are sorted, not strictly increasing.
    assert np.all(np.diff(times) >= 0.0) and np.isin(w.times, times).all()
    assert np.allclose(J, w.jump(times), rtol=0.0, atol=1e-12)
    # No sign change inside a segment: |J| is linear between nodes.
    assert np.all(J[:-1] * J[1:] >= 0.0)

    t0_star, witness = first_drop(w, THR)
    assert np.all(np.abs(J[times < t0_star]) <= THR)

    c = cns_classify(w, DEFAULT_MATERIAL, steps=steps)
    # Both fields are the datum's alone, whatever the step count.
    assert (c.t0_star, c.witness) == (t0_star, witness)
    expected = PERFECT_PLASTICITY if path_admits_plasticity(w.wL - w.w0, THR) else DAMAGE_ONLY
    assert c.verdict == expected


def _underflow(m: MaterialParams, J: np.ndarray, n: int) -> float:
    """Bound on what products and quotients with a subnormal result add to ``R`` after ``n`` steps.

    Each such operation is within 2**-1075 of its exact result; a sum of subnormals is exact, and the
    recorded J is monotone between knots however np.interp rounds.  Counted in units of 2**-1075, with
    |sigma| <= s* and |J| <= max|J|:
      sigma = s* (J/M), the quotient and the product: 1 + s*;
      l = (M - thr)(a0/s*), the product: 1;
      E = (0.5 J) sigma + kappa l: 0.5 max|J| (1 + s*) + s* + kappa + 2;
      sigma/s*, sigma's divided by s* and the quotient: 1/s* + 2;
      p = J - thr (sigma/s*): thr (1/s* + 2) + 1;
      S = E - (0.5 e) sigma, e = thr (sigma/s*): E's, plus 0.5 s* (thr (1/s* + 2) + 1) + s* + 0.5 max|J| (1 + s*) + 1;
      R = s* (n terms |dp|, two p each) - (S - S(0)): 2 n s* (thr (1/s* + 2) + 1) + 1 plus two S's,
      at most (2n + 1) thr (1 + 2 s*) + (2n + 5) s* + 2 max|J| (1 + s*) + 2 kappa + 7.
    """
    s, thr = m.yield_stress, m.jump_threshold
    count = ((2 * n + 1) * thr + (4 * n + 2) * thr * s + (2 * n + 5) * s + 2.0 * np.max(np.abs(J)) * (1.0 + s)
             + 2.0 * m.kappa + 7.0)
    # 2.0**-1075 is itself 0.0 in floats: scale once, and add 1 for the rounding of that scaling.
    return math.ldexp(float(count) + 1.0, -1075)


@st.composite
def material_programs(draw):
    m = draw(materials())
    return m, draw(programs(m))


@settings(max_examples=50)
@given(run=material_programs())
# A subnormal jump: 1e-12 s* (max|J| + Var J) underflows to 0, and R(T) reads 0.0 on the
# knots and 1.5e-323 on 4000 steps.
@example(run=(MaterialParams(kappa=1.0, a0=1.0, a1=2.0, L=3.0, T=1.0),
              BoundaryDatum(times=[0.0, 1.0], w0=[0.0, 0.0], wL=[0.0, 1e-323])))
def test_residual_on_the_knots_alone_is_exact(run):
    # p is monotone between knots, so the knots alone give the same R(T) as
    # a grid with 4000 more instants, to rounding of the terms it sums.
    m, w = run
    knots = residual_series(run_limit(m, w, refined_time_grid(w, 1)))
    fine = residual_series(run_limit(m, w, refined_time_grid(w, 4000)))
    J = w.wL - w.w0
    scale = m.yield_stress * (np.max(np.abs(J)) + np.sum(np.abs(np.diff(J))))
    under_knots, under_fine = (_underflow(m, J, series.size - 1) for series in (knots, fine))
    assert abs(knots[-1] - fine[-1]) <= 1e-12 * scale + under_knots + under_fine
    assert np.min(np.diff(fine)) >= -(1e-12 * scale + 2.0 * under_fine)


def _tied_start(m: MaterialParams, side: int) -> BoundaryDatum:
    # wL = [J0, 0] with J0 one ulp below (-1), at (0) or one ulp above (+1) the threshold.
    thr = m.jump_threshold
    J0 = thr if side == 0 else float(np.nextafter(thr, side * np.inf))
    return BoundaryDatum(times=[0.0, m.T], w0=[0.0, 0.0], wL=[J0, 0.0])


def _assert_one_onset(w: BoundaryDatum, m: MaterialParams) -> None:
    # The state recursion damages at t = 0 exactly when |J(0)| is above the threshold, and the
    # path test puts t0* at 0 on that same comparison: a tie at the start is one onset for both.
    c = cns_classify(w, m, steps=50)
    traj = run_limit(m, w, refined_time_grid(w, 50))
    assert (traj.l[0] > 0.0) == (c.t0_star == 0.0)


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


@st.composite
def near_threshold_programs(draw):
    """Knot times and jumps in units of the jump threshold: 2-6 knots, each 0 or within 10^e of +-1.

    One e from [-16, -1] per program, half the draws from [-15.5, -14], where a crossing of the
    threshold is flat enough for the grid's |J| to round onto it for more than one step.
    """
    n = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    width = 10.0 ** draw(st.one_of(st.floats(-15.5, -14.0), st.floats(-16.0, -1.0)))
    sign, offset = st.sampled_from([1.0, 1.0, -1.0]), st.floats(-1.0, 1.0)
    near = st.builds(lambda s, x: s * (1.0 + width * x), sign, offset)
    return np.concatenate([[0.0], np.cumsum(gaps)]), draw(st.lists(near | st.just(0.0), min_size=n, max_size=n))


# Runs whose grid reads |J| = thr past the crossing, so t0 lies 2 to 11 steps after t0*.  A ramp through
# thr = 0.5 by 1e-14 of it over [0, 2] on the default material: at 400 steps the exact |J| moves by 2.5e-17
# a step, under half an ulp of 0.5, so the grid reads |J| = thr from t = 0.995 to 1.01, and t0 = 1.01 while
# t0* = 1.0.  On extreme units, a ramp whose thr is 2.0e-110, and one tied with thr = 1.9e75 at t = 0.
UNRESOLVED_ONSETS = [
    ({"kappa": 0.5, "a0": 1.0, "a1": 2.0, "L": 1.0}, ([0.0, 2.0], [0.99999999999999, 1.00000000000001]), 400),
    ({"kappa": 5.53395193233707e+226, "a0": 4.126986326315279e+70, "a1": 1.171599204748216e+73,
      "L": 3.406018388586744e-186}, ([0.0, 0.18994446846022228], [-0.999999999999998, -1.0000000000000004]), 184),
    ({"kappa": 3.184920316595525e+58, "a0": 3.5843390304218655e-17, "a1": 1.2978245440756185e-16,
      "L": 1.5965802438005616e+38}, ([0.0, 0.29225932818840156], [-1.0, -1.0000000000000022]), 239),
]

# Roundings that can put the grid's |J| on the other side of thr from the exact polyline, counted to first
# order in units of u max(thr, F), F the larger |J| at the ends of the knot segment of w.times that holds g*:
#   np.interp forms the slope (f_j+1 - f_j)/(x_j+1 - x_j) (3 roundings), g - x_j (1) and their product
#   (1): 5 u relative to |slope (g - x_j)| <= |f_j| + |f_j+1| <= 2 F (a zero crossing inside the knot
#   segment leaves the far knot in the slope, so F reads the knots, not the nodes); the sum with f_j
#   rounds once more, u |J(g)| <= u F: 11.
#   loading._crossing places t0* on the node segment where |J| rises through thr: a - c, a - b, tb - ta,
#   the product and the quotient (5) move |J(t0*)| by 5 u relative to the rise thr - |J(ta)| <= thr; its
#   power-of-two scaling is exact, and its last rounding, the sum with ta, takes a time to the nearest
#   float, which carries it past no grid instant: 5.
# A rounded time (a zero crossing of w.nodes is within u T of the knot line's) stays below the one
# step's slack 1e-12 dt while steps <= 400.
_ONSET_K = 16


@settings(max_examples=300)
@given(units=extreme_units(), program=near_threshold_programs(), steps=st.integers(1, 400))
@example(*UNRESOLVED_ONSETS[0])
@example(*UNRESOLVED_ONSETS[1])
@example(*UNRESOLVED_ONSETS[2])
def test_the_onset_is_within_one_step_of_the_crossing_unless_floats_cannot_resolve_it(units, program, steps):
    # Either |t0 - t0*| <= dt (1 + 1e-12), or the grid's |J| at g* sits on thr to the rounding counted above:
    # g* is t0 when t0 > t0* (undamaged past the crossing), else the grid instant after t0 (damaged before it).
    try:
        m = MaterialParams(**units, T=1.0)
    except ValueError:
        reject()
    times, factors = program
    thr = m.jump_threshold
    w = BoundaryDatum(times=times, w0=np.zeros(len(times)), wL=[thr * f for f in factors])
    try:
        traj = run_limit(m, w, refined_time_grid(w, steps))
        _balance(traj)
    except NumericalError:
        reject()  # an energy, a work or a ledger past the float range: refused before any onset is read
    c = cns_classify(w, m, steps=steps)
    assert c.t0 == traj.t0
    grid = traj.times
    if abs(c.t0 - c.t0_star) <= float(np.max(np.diff(grid))) * (1.0 + 1e-12):
        return
    g = int(np.searchsorted(grid, c.t0)) + int(c.t0 < c.t0_star)
    j = min(int(np.searchsorted(w.times, grid[g], side="right")), w.times.size - 1)
    knots = np.abs(w.wL - w.w0)
    assert abs(abs(traj.J[g]) - thr) <= _ONSET_K * _U * max(thr, knots[j - 1], knots[j])


class TestConsistency:
    @pytest.mark.parametrize("verdict", ["garbage", "perfectplasticity", None])
    def test_an_unknown_verdict_is_refused(self, material, verdict):
        traj = run_preset(material, "loading-unloading")
        with pytest.raises(ValueError, match=rf"^unknown verdict {re.escape(repr(verdict))}; expected "
                                             r"'PerfectPlasticity' or 'DamageOnly'$"):
            classifier_consistency(traj, verdict)

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

    def test_a_sign_change_inside_one_step_is_on_the_grid(self):
        # J changes sign in the last 0.01 of the horizon, inside one of 100
        # steps; the refined grid holds the crossing, so the stress is read on
        # both sides of it.
        m = MaterialParams(kappa=5.789143907634465, a0=5.324028950551577,
                           a1=17.451784794177573, L=0.48819290329318055, T=2.0)
        thr = m.jump_threshold
        w = BoundaryDatum(times=[0.0, 1.9898346963218356, 2.0], w0=[0.0] * 3,
                          wL=[-36.81 * thr, -63.46 * thr, 76.02 * thr])
        c = cns_classify(w, m, steps=100)
        report = classifier_consistency(run_limit(m, w, refined_time_grid(w, 100)), c.verdict)
        assert report.ok, report.detail

    @pytest.mark.parametrize("L", [1e-12, 1e-9])
    def test_large_strains_stay_consistent(self, L):
        # |J|/L reaches 2/L: the ledger's rounding, about u s* |J| a term,
        # passes 1e-6 s* L and 1e-9 s* L, and the counted bound takes over.
        m = MaterialParams(kappa=0.3, a0=1.7, a1=3.1, L=L, T=2.0)
        w = preset_datum("monotone", m)
        c = cns_classify(w, m, steps=400)
        assert c.verdict == PERFECT_PLASTICITY
        assert c.flow_rule_violations == 0
        report = classifier_consistency(run_limit(m, w, refined_time_grid(w, 400)), c.verdict)
        assert report.ok, report.detail

    @pytest.mark.parametrize("strain", [1e-7, 1e-40, 1e-80])
    def test_small_yield_strains_stay_consistent(self, strain):
        # The yield strain s*/a1 = strain: one unload from 2 thr leaves R(T) = 3 kappa l1
        # = 1.5 s* thr, far below 1e-6 s* L, and the tolerances in units of s* thr still see it.
        m = MaterialParams(kappa=0.5, a0=1.0, a1=1.0 / strain, L=1.0, T=2.0)
        thr = m.jump_threshold
        w = BoundaryDatum(times=[0.0, 1.0, 2.0], w0=np.zeros(3), wL=[0.0, 2.0 * thr, 0.0])
        c = cns_classify(w, m, steps=400)
        assert c.verdict == DAMAGE_ONLY
        assert c.flow_rule_violations == 200
        report = classifier_consistency(run_limit(m, w, refined_time_grid(w, 400)), c.verdict)
        assert report.ok, report.detail

    def test_saturation_starts_at_the_onset(self, material):
        traj = run_preset(material, "monotone")
        assert np.array_equal(stress_saturated(traj), traj.times >= 0.5)

    def test_wrong_verdict_is_caught_both_ways(self, material):
        plastic = run_preset(material, "monotone")
        report = classifier_consistency(plastic, DAMAGE_ONLY)
        assert not report
        assert report.first_inconsistent_time is not None

        damaging = run_preset(material, "loading-unloading")
        report = classifier_consistency(damaging, PERFECT_PLASTICITY)
        assert not report
        assert report.first_inconsistent_time is not None


def hand_built(m: MaterialParams, times, sigma, l) -> LimitTrajectory:
    """A limit record of given states, ``J`` and energies derived from them; no run need reach it."""
    times, sigma, l = (np.array(v, dtype=float) for v in (times, sigma, l))
    J = sigma * (l / m.a0 + m.L / m.a1)
    E = 0.5 * J * sigma + m.kappa * l
    work = cumulative_work(sigma, J)
    return LimitTrajectory(m=m, times=times, J=J, sigma=sigma, l=l, E_closed=E,
                           E_integrated=E[0] + work, work_cum=work, t0=float(times[0]))


class TestConsistencyFailures:
    """Each failing check reports its detail at the first instant it fails (s* = 1, kappa = 1/2)."""

    @pytest.mark.parametrize("name, verdict, t", [
        # The first damaged instant whose stress left s* = 1 on unloading: J = 1/2, sigma = 1/2.
        ("loading-unloading", PERFECT_PLASTICITY, 1.5),
        # Saturated wherever damaged, which starts past |J| = 1/2.
        ("monotone", DAMAGE_ONLY, 1.0),
        # Never damaged: no instant fails, so the first one is named.
        ("constant", DAMAGE_ONLY, 0.0),
    ])
    def test_verdict_against_saturation(self, material, name, verdict, t):
        report = classifier_consistency(run_preset(material, name, steps=4), verdict)
        assert (report.ok, report.first_inconsistent_time, report.detail) == (
            False, t, "verdict and stress saturation disagree")

    def test_verdict_against_the_residual(self, material):
        # On the knots alone J jumps from 1 to -1: the stress stays saturated,
        # and p = sigma l = 1/2 -> -1/2 leaves the residual 1 at t = 2.
        w = BoundaryDatum(times=[0.0, 1.0, 2.0], w0=[0.0] * 3, wL=[0.0, 1.0, -1.0])
        traj = run_limit(material, w, w.times)
        assert np.array_equal(stress_saturated(traj), [False, True, True])
        report = classifier_consistency(traj, PERFECT_PLASTICITY)
        assert (report.ok, report.first_inconsistent_time, report.detail) == (
            False, 2.0, "verdict and balance residual disagree")

    def test_residual_below_the_stress_gap(self, material):
        # The mass grows from 1 to 3 at zero stress, which no run does: the
        # residual is 2 - 3/2 = 1/2 there, below the gap 3/2.
        traj = hand_built(material, [0.0, 0.5, 1.0, 1.5], sigma=[0.0, 1.0, 0.0, 0.0],
                          l=[0.0, 1.0, 3.0, 3.0])
        assert residual_series(traj).tolist() == [0.0, 0.0, 0.5, 0.5]
        report = classifier_consistency(traj, DAMAGE_ONLY)
        assert (report.ok, report.first_inconsistent_time, report.detail) == (
            False, 1.0, "residual fell below the stress-gap bound")

    def test_residual_below_the_misaligned_flow(self, material):
        # A random search found no record with l >= 0 that passes the stress-gap
        # check and fails this one; this record starts from a negative mass.
        # Step 1 moves p = -1 -> 0 against sigma = -1/2: dissipation 1, residual 0.
        traj = hand_built(material, [0.0, 0.5, 1.0, 1.5], sigma=[1.0, -0.5, 1.0, -0.5],
                          l=[-1.0, 0.0, 1.0, 1.0])
        assert residual_series(traj).tolist() == [0.0, 0.0, 0.0, 1.875]
        report = classifier_consistency(traj, DAMAGE_ONLY)
        assert (report.ok, report.first_inconsistent_time, report.detail) == (
            False, 0.5, "residual fell below the misaligned-flow dissipation")


class TestLedgerRange:
    @staticmethod
    def swings(amplitude: float) -> BoundaryDatum:
        times, wL = LEDGER_OVERFLOW_PROGRAM
        return BoundaryDatum(times=times, w0=np.zeros(len(times)), wL=np.sign(wL) * amplitude)

    def test_a_ledger_too_large_for_floats_is_refused(self):
        w, m = self.swings(1e307), OVERFLOW_MATERIAL
        traj = run_limit(m, w, refined_time_grid(w, 400))
        assert np.all(np.isfinite(traj.E_closed)) and np.all(np.isfinite(traj.work_cum))
        message = r"^time step \d+ \(t=[0-9.]+\): plasticity ledger is not finite$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=message):
                cns_classify(w, m, steps=400)
            for verdict in (PERFECT_PLASTICITY, DAMAGE_ONLY):
                with pytest.raises(NumericalError, match=message):
                    classifier_consistency(traj, verdict)

    @pytest.mark.parametrize("amplitude", [1e304, 1e306])
    def test_a_finite_ledger_has_a_finite_rounding_bound(self, amplitude):
        # The ledger reaches 4e305 to 4e307 here; 403 times it is past the float range.
        w, m = self.swings(amplitude), OVERFLOW_MATERIAL
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = cns_classify(w, m, steps=400)
            report = classifier_consistency(run_limit(m, w, refined_time_grid(w, 400)), c.verdict)
        assert c.verdict == DAMAGE_ONLY and report.ok, report.detail


def test_the_stress_gap_bound_of_a_huge_mass_does_not_overflow():
    # s* = 1e50 and l reaches a0 (2e248 - thr)/s* = 2e208: (s* - |sigma|)^2 l overflows on the return leg,
    # while the gap itself is at most kappa l = 1e298.
    m = MaterialParams(kappa=5e89, a0=1e10, a1=2e10, L=1.0, T=2.0)
    w = BoundaryDatum(times=[0.0, 1.0, 2.0], w0=np.zeros(3), wL=[0.0, 2e248, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c = cns_classify(w, m, steps=400)
        report = classifier_consistency(run_limit(m, w, refined_time_grid(w, 400)), c.verdict)
    assert c.verdict == DAMAGE_ONLY and report.ok, report.detail


def test_a_crossing_of_huge_jumps_keeps_the_witness_above_the_threshold():
    # The zero crossing at 5e9 must be a node, else the witness lands on it.
    m = MaterialParams(kappa=5.0, a0=1.0, a1=2.0, L=1.0, T=1e10)
    w = BoundaryDatum(times=[0.0, 1e10], w0=[0.0, 0.0], wL=[1e300, -1e300])
    c = cns_classify(w, m, steps=8)
    s, t = c.witness
    assert c.verdict == DAMAGE_ONLY and s < t
    assert m.jump_threshold < abs(w.jump(t)) < abs(w.jump(s))


# J rises to 10 at t = 1 and falls to -1e17 at t = 2: its zero crossing 1 + 1e-16
# rounds onto the knot t = 1, so |J| drops from 10 to 0 at one float instant.
UNRESOLVED_DROP = (np.array([0.0, 1.0, 2.0]), np.array([0.0, 10.0, -1e17]))


def test_a_drop_the_float_time_axis_cannot_resolve_has_a_one_instant_witness():
    times, jump = UNRESOLVED_DROP
    w = BoundaryDatum(times=times, w0=np.zeros(3), wL=jump)
    c = cns_classify(w, DEFAULT_MATERIAL, steps=400)
    assert (c.verdict, c.witness) == (DAMAGE_ONLY, (1.0, 1.0))


@settings(max_examples=300)
@given(program=extreme_programs(), steps=st.integers(1, 50),
       m=st.sampled_from([DEFAULT_MATERIAL, HUGE_THRESHOLD_MATERIAL]))
@example(program=UNRESOLVED_DROP, steps=4, m=DEFAULT_MATERIAL)
@example(program=HUGE_THRESHOLD_DROP, steps=4, m=HUGE_THRESHOLD_MATERIAL)
def test_the_witness_of_any_float_program_is_a_finite_pair_inside_the_datum(program, steps, m):
    # Warnings fail the suite, so a witness formed by a division by zero fails here too.
    times, jump = program
    w = BoundaryDatum(times=times, w0=np.zeros_like(jump), wL=jump)
    c = cns_classify(w, m, steps=steps)
    assert (c.witness is None) == (c.verdict == PERFECT_PLASTICITY)
    if c.witness is None:
        return
    s, t = c.witness
    assert np.all(np.isfinite([s, t]))
    assert 0.0 <= c.t0_star <= s <= t <= w.duration
    if s < t:
        assert m.jump_threshold < abs(w.jump(t)) < abs(w.jump(s))


@st.composite
def threshold_programs(draw):
    """Knot times and jumps in units of the jump threshold: 2-6 knots with |wL| up to 1e3 thr."""
    n = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    value = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1e3, 1e3))
    return np.concatenate([[0.0], np.cumsum(gaps)]), draw(st.lists(value, min_size=n, max_size=n))


# The high-unload preset in those units: 0 -> 2 thr -> 1.2 thr.
HIGH_UNLOAD_SHAPE = ([0.0, 1.0, 2.0], [0.0, 2.0, 1.2])


@settings(max_examples=300)
@given(units=extreme_units(), program=threshold_programs(), steps=st.integers(1, 50),
       share=st.floats(1e-3, 0.98))
@example(units=HUGE_ENERGY_UNITS, program=HIGH_UNLOAD_SHAPE, steps=40, share=0.25)
@example(units=UNIT_REFUSALS["compliance-underflow"][0], program=HIGH_UNLOAD_SHAPE, steps=40, share=0.25)
@example(units=UNIT_REFUSALS["compliance-overflow"][0], program=HIGH_UNLOAD_SHAPE, steps=40, share=0.25)
@example(units=UNIT_REFUSALS["mass-unit-overflow"][0], program=HIGH_UNLOAD_SHAPE, steps=40, share=0.25)
@example(units=UNIT_REFUSALS["energy-unit-underflow"][0], program=HIGH_UNLOAD_SHAPE, steps=40, share=0.25)
def test_a_material_of_any_units_runs_or_is_refused(units, program, steps, share):
    # Either the material is refused (ValueError), or each run, eps up to 0.98 a1/a0 included,
    # finishes or is refused by a located NumericalError; nothing else is raised and nothing warns.
    times, factors = program
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            m = MaterialParams(**units, T=1.0)
        except ValueError:
            return
        wL = [m.jump_threshold * f for f in factors]
        assume(all(map(np.isfinite, wL)))
        w = BoundaryDatum(times=times, w0=np.zeros(len(times)), wL=wL)
        grid = refined_time_grid(w, steps)
        try:
            c = cns_classify(w, m, steps=steps)
            classifier_consistency(run_limit(m, w, grid), c.verdict)
        except NumericalError:
            pass
        else:
            # An accepted classification is finite in every field, the witness included.
            assert np.all(np.isfinite([c.t0, c.t0_star, c.max_eb_residual, *(c.witness or ())]))
        try:
            run_eps(m, share * m.a1 / m.a0, 1, w, grid)
        except NumericalError:
            pass


# Finite runs on materials whose units are far from 1, each with the program that showed it; the
# mass ratchet (l = max(l, a0 (|J| - thr)/s*), sigma = J/(l/a0 + L/a1)) went wrong on the first two.
EXTREME_RUNS = {
    # a0 (|J| - thr) was 1.6e-318 at t = 0.125: the stress stood 1.1e-8 above s* and was refused.
    "subnormal-trial-mass": ({"kappa": 0.002, "a0": 7e-78, "a1": 1e-75, "L": 3.6e-275},
                             [0.0, 2.0], [0.0, 1e-238], 400, PERFECT_PLASTICITY),
    # L/a1 is 1.9e-322, so the first damaged stress was 0.987 s*: residual below the stress-gap bound.
    "subnormal-compliance": ({"kappa": 1.523875789887024e-12, "a0": 1.1761537552069043e+87,
                              "a1": 2.7591828092064357e+87, "L": 5.1604382787542216e-235},
                             [0.0, 0.5312083554678164], [-1.3433536661013038e-284, 0.0], 47, DAMAGE_ONLY),
    # s* L is subnormal: with thr = s* L/a1 the stress s* J/thr is not J a1/L, and the residual
    # disagreed with the verdict; thr = s* (L/a1) keeps it.
    "subnormal-s*L": ({"kappa": 0.628609864469413, "a0": 1.3701096432527556e-104,
                       "a1": 4.012691357787408e-102, "L": 1.5152517486560533e-268},
                      [0.0, 0.5334654595250754], [0.0, 1.2995311232990232e-219], 46, PERFECT_PLASTICITY),
    # s* thr is 3e-323, so 1e-6 s* thr is 0: with no underflow term in the residual's rounding bound, the
    # R(T) of 5e-324 this run rounds to disagreed with its right verdict.
    "subnormal-energy-unit": ({"kappa": 1.4e-322, "a0": 1.0, "a1": 7.5696024634051975, "L": 0.7634834309038385},
                              [0.0, 1.0], [4.173555724067922e-163, -2.0161335838367017e-162], 86,
                              PERFECT_PLASTICITY),
    # s* thr is 5e-324 and R(T) rounds to 5e-324: the underflow term must not raise the bar a DamageOnly
    # residual clears, or this right verdict reads "verdict and balance residual disagree".
    "subnormal-energy-unit-damage": ({"kappa": 1.9e-322, "a0": 1.0, "a1": 43.99879952909825,
                                      "L": 0.2977462731046853},
                                     [0.0, 1.0], [2.372506675875355e-163, -7.78956304045435e-164], 96, DAMAGE_ONLY),
}


@pytest.mark.parametrize("name", sorted(EXTREME_RUNS))
def test_a_finite_run_on_extreme_units_is_clean_and_consistent(name):
    units, times, wL, steps, verdict = EXTREME_RUNS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = MaterialParams(**units, T=times[-1])
        w = BoundaryDatum(times=times, w0=[0.0, 0.0], wL=wL)
        c = cns_classify(w, m, steps=steps)
        report = classifier_consistency(run_limit(m, w, refined_time_grid(w, steps)), c.verdict)
    assert c.verdict == verdict
    assert report.ok, report.detail


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
U = 2.0**-53  # unit roundoff of float64

# Rounding budget of an interior witness, counted to first order in U.  The
# witness is where |J| has dropped half-way from a = |J(s)| to thr on the
# segment (s, t_k) whose end value is b <= thr:
#     w = s + (a - (a + thr)/2) / (a - b) * (t_k - s).
# Its offset from s is proportional to a - thr, so an absolute error of size
# U W in a, b or thr, with W = max(|w0| + |wL|) over the knots, is relative
# error U kappa of the offset, kappa = W / (a - thr).  Counted per source:
#   one run against the exact witness of its own float inputs: a = |wL - w0|
#   (1 rounding, half of it in the numerator, once in a - b), thr = s* (L/a1)
#   (3.5: the product 2 kappa a0, sqrt, L/a1, the product; half of it in the
#   numerator), the rounding of a + thr (1), a - (a + thr)/2 exact (Sterbenz),
#   a - b (1): numerator 2 (0.5 + 1.75 + 1) = 6.5, denominator 2, so
#   C_RUN = 8.5;
#   the scaled inputs against the base inputs: lam kappa, lam a0, mu L and
#   lam a1 move thr by 3 (1.5 in the numerator, doubled: 3), mu w0 and mu wL
#   move a by 1 (1) and a - b by 2, or, when the segment ends at a zero
#   crossing of J, move that crossing by 3: C_IN = 8;
#   the scaled witness against tau times the base witness: C = 2 C_RUN + C_IN.
# The products, quotients and time roundings add a few U, inside the 1e-12.
# A start at t0* is the first instant, t0* = 0 with |J(0)| above thr (the
# pinned example): there a is a knot value and the count is the same.  Any
# later t0* lies inside a rising segment, so a drop starts at its knot; and
# were s itself off by ds, w would move by ds/2 only (w sits where |J| is
# (|J(s)| + thr)/2).  Second-order terms stay under (C U kappa)^2, a hundredth
# of the bound while the tie margin below keeps U kappa under 1e-3.
C_RUN = 8.5
C_IN = 8.0
C = 2.0 * C_RUN + C_IN


def _exact_witness(w: BoundaryDatum, m: MaterialParams):
    """The witness of ``cns_classify`` in exact arithmetic on the float inputs, with its ``kappa``.

    Returns ``(None, 0)`` for a plastic path and ``kappa = 0`` for a witness
    ending on a knot, which carries no cancellation.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        thr = Fraction((2 * D(m.kappa) * D(m.a0)).sqrt() * D(m.L) / D(m.a1))
    t = [Fraction(v) for v in w.times]
    J = [Fraction(b) - Fraction(a) for a, b in zip(w.w0, w.wL)]
    W = max(abs(a) + abs(b) for a, b in zip(w.w0, w.wL))
    nodes = [(t[0], J[0])]
    for i in range(1, len(t)):
        if J[i - 1] * J[i] < 0:
            nodes.append((t[i - 1] + (t[i] - t[i - 1]) * J[i - 1] / (J[i - 1] - J[i]), Fraction(0)))
        nodes.append((t[i], J[i]))
    times = [n[0] for n in nodes]
    absJ = [abs(n[1]) for n in nodes]
    above = [k for k, v in enumerate(absJ) if v > thr]
    if not above:
        return None, 0.0
    k = above[0]
    t0 = times[0] if k == 0 else \
        times[k - 1] + (thr - absJ[k - 1]) / (absJ[k] - absJ[k - 1]) * (times[k] - times[k - 1])
    for k in range(1, len(nodes)):
        if times[k] > t0 and absJ[k] < absJ[k - 1]:
            start = max(times[k - 1], t0)
            a = absJ[k - 1] + (absJ[k] - absJ[k - 1]) * (start - times[k - 1]) / (times[k] - times[k - 1])
            if absJ[k] > thr:
                return (start, times[k]), 0.0
            wit = start + (a - (a + thr) / 2) / (a - absJ[k]) * (times[k] - start)
            return (start, wit), float(W / (a - thr))
    return None, 0.0


def _assert_witness_within(got, want, kappa, c):
    # The start is a knot or 0; only the interior end carries kappa.
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
    assert got[1] == pytest.approx(want[1], rel=1e-12 + c * U * kappa, abs=0.0)


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


def _scaled(w: BoundaryDatum, m: MaterialParams, lam: float, mu: float, tau: float):
    ws = BoundaryDatum(times=tau * w.times, w0=mu * w.w0, wL=mu * w.wL)
    ms = MaterialParams(kappa=lam * m.kappa, a0=lam * m.a0, a1=lam * m.a1, L=mu * m.L, T=ws.duration)
    return ws, ms


@settings(max_examples=25)
@given(w=loading_programs())
# |J(0)| = 0.5 + 2**-14 just above the threshold 0.5 drops to 0: kappa = 8193,
# and at lam = mu = tau = 1e-9 the witness moves by 2.4 U kappa.
@example(w=BoundaryDatum(times=[0.0, 1.0, 2.0, 3.0, 4.0], w0=[0.5, 0.0, 0.0, 0.0, 0.0],
                         wL=[-2.0**-14, 0.0, 0.0, 0.0, 0.0]))
def test_classifier_is_invariant_under_unit_scaling(w):
    # Stiffnesses and toughness scale by lam, the bar length and the displacements
    # by mu, time by tau: the verdict and the counts are unit-free, the witness is a time.
    # A node with |J| on the threshold is a tie that rounding in the scaled units
    # breaks either way, so such programs are left out.
    _, J = w.nodes
    assume(np.all(np.abs(np.abs(J) - THR) > 1e-12 * THR))
    # So are near-ties of two consecutive knots: the program decides on the float
    # jump wL - w0, which can round a drop of |J| by 1e-96 away, while the exact
    # witness sees it (test_a_drop_the_float_jump_rounds_away_is_not_seen).
    exact_absJ = [abs(Fraction(b) - Fraction(a)) for a, b in zip(w.w0, w.wL)]
    assume(not any(0 < abs(x - y) <= Fraction(1, 10**12) * max(x, y)
                   for x, y in zip(exact_absJ, exact_absJ[1:])))
    m = DEFAULT_MATERIAL
    base, base_ok = _classify_and_check(w, m, 100)
    exact, kappa = _exact_witness(w, m)
    assert (base.witness is None) == (exact is None)
    if exact is not None:
        _assert_witness_within(base.witness, exact, kappa, C_RUN)
    for lam, mu, tau in itertools.product(SCALES, repeat=3):
        ws, ms = _scaled(w, m, lam, mu, tau)
        c, ok = _classify_and_check(ws, ms, 100)
        assert (c.verdict, c.flow_rule_violations, ok) == \
            (base.verdict, base.flow_rule_violations, base_ok), (lam, mu, tau)
        if base.witness is None:
            assert c.witness is None
            continue
        exact_s, kappa_s = _exact_witness(ws, ms)
        _assert_witness_within(c.witness, exact_s, kappa_s, C_RUN)
        expected = (tau * base.witness[0], tau * base.witness[1])
        _assert_witness_within(c.witness, expected, max(kappa, kappa_s), C)


@pytest.mark.parametrize("times, w0, wL, verdict, witness, t0", [
    # |J| falls from 1 + 1.2e-96 to 1 on [0, 1]: in floats it stays at 1 until t = 1.
    ([0.0, 1.0, 2.0, 3.0], [1.21399624e-96, 0.0, 0.0, 0.0], [-1.0, -1.0, 0.0, 0.0],
     DAMAGE_ONLY, (1.0, 1.25), 0.0),
    # |J| falls from 1 + 1.2e-96 to 1 on [1, 2]: in floats it is flat there.
    ([0.0, 1.0, 2.0], [0.0, 1.21399624e-96, 0.0], [0.0, -1.0, -1.0],
     PERFECT_PLASTICITY, None, 0.5),
])
def test_a_drop_the_float_jump_rounds_away_is_not_seen(times, w0, wL, verdict, witness, t0):
    # The classifier decides on the float jump wL - w0, so a drop of |J| below
    # its resolution is no drop; the unit-scaling property leaves such near-ties out.
    w = BoundaryDatum(times=times, w0=w0, wL=wL)
    c = cns_classify(w, DEFAULT_MATERIAL, steps=100)
    assert (c.verdict, c.witness, c.t0, c.t0_star) == (verdict, witness, t0, t0)


@settings(max_examples=25)
@given(run=material_programs(), n=st.integers(1, 8))
# A jump of the smallest normal float: at lam = 1e-9, mu = 1e6 the compliance L/a1 is 5e14 and the
# elastic stress 4.45e-317, a subnormal, so p = J - thr (sigma/s*) keeps few bits and R(T) reads
# 8.9e-319 where the unscaled run reads 0, past 1e-12 s* J_s = 3e-323 but inside the counted underflow.
@example(run=(MaterialParams(kappa=1.0, a0=1.0, a1=2.0, L=1.0, T=1.0),
              BoundaryDatum(times=[0.0, 1.0], w0=[0.0, 0.0], wL=[0.0, 2.2250738585072014e-308])), n=1)
def test_limit_trajectory_scales_with_the_units(run, n):
    # sigma scales by lam, l by mu, the energies and R by lam mu.  Compared
    # normwise in the material's units (sigma to s*, l to a0 max|J|/s*,
    # energies to s* max|J|): near the threshold a pointwise relative test of
    # l meets the same cancellation as the witness.  R also carries what its
    # products and quotients with a subnormal result add, in either run.
    m, w = run
    # Knots plus n equal parts of every segment: scaling keeps this grid
    # strictly increasing, and its knots are the scaled knots bit for bit.
    grid = np.concatenate([(w.times[:-1, None] + np.arange(n) * np.diff(w.times)[:, None] / n).ravel(),
                           w.times[-1:]])
    base = run_limit(m, w, grid)
    J_max = float(np.max(np.abs(w.wL - w.w0)))
    for lam, mu, tau in itertools.product(SCALES, repeat=3):
        ws, ms = _scaled(w, m, lam, mu, tau)
        got = run_limit(ms, ws, tau * grid)
        s, J_s = ms.yield_stress, mu * J_max
        units = {"sigma": (lam, s), "l": (mu, ms.a0 * J_s / s),
                 "E_closed": (lam * mu, s * J_s), "E_integrated": (lam * mu, s * J_s)}
        for name, (factor, unit) in units.items():
            gap = np.max(np.abs(getattr(got, name) - factor * getattr(base, name)))
            assert gap <= 1e-12 * unit, (name, lam, mu, tau)
        gap = np.max(np.abs(residual_series(got) - lam * mu * residual_series(base)))
        under = _underflow(ms, ws.wL - ws.w0, grid.size - 1) + lam * mu * _underflow(m, w.wL - w.w0, grid.size - 1)
        assert gap <= 1e-12 * s * J_s + under, ("R", lam, mu, tau)


# The one-unload family 0 -> P -> Q = rP with P above the threshold thr (README,
# "One unload in closed form"): loading damages the bar to l1 = a0 (P - thr)/s*,
# and R(T) = kappa l1 (1 - r)(3 + r) for -1 <= r <= 1, 4 kappa l1 for r <= -1.
# Rounding, to first order in U: the computed R(T) is within the ledger bound
# (n + 3) U s* Var(p) + (28 n + 29) U s* max|J| of R(T) in exact arithmetic on the
# float inputs (diagnostics), which is the closed form with the exact s* and thr.
# The closed form in floats: s* (1.5 U), thr (3.5 U) and l1 (three more roundings)
# put kappa l1 within 5.5 U kappa l1 + 1.75 U s* thr <= 4.5 U s* P (kappa l1 <= s* P/2),
# times g = (1 - r)(3 + r) <= 4: 18; g itself, from r = Q/P, 1 - r, 3 + r and the
# product, within 16 U, times kappa l1: 8; the last product: 2.  So C_FORM = 28.
C_FORM = 28


@settings(max_examples=200)
@given(m=materials(), lift=st.floats(1e-3, 1.5), steps=st.integers(1, 200),
       r=st.floats(-3.0, 1.0) | st.sampled_from([-1.0, 0.0, 1.0]),
       smaller=st.floats(0.0, 80.0))
def test_the_residual_of_one_unload_in_closed_form(m, lift, steps, r, smaller):
    # kappa / 10**(2 smaller) takes the yield strain s*/a1 down by 10**smaller, to 1e-80 and below.
    m = replace(m, kappa=m.kappa / 10.0 ** (2.0 * smaller))
    s, thr = m.yield_stress, m.jump_threshold
    P = thr * 10.0**lift
    Q = r * P
    w = BoundaryDatum(times=[0.0, m.T / 2.0, m.T], w0=np.zeros(3), wL=[0.0, P, Q])
    traj = run_limit(m, w, refined_time_grid(w, steps))
    kappa_l1 = m.kappa * (m.a0 * (P - thr) / s)
    ratio = Q / P
    closed = kappa_l1 * ((1.0 - ratio) * (3.0 + ratio) if Q >= -P else 4.0)
    n = traj.times.size - 1
    bound = ((n + 3) * U * yield_dissipation(traj)[-1]
             + (28 * n + 29 + C_FORM) * U * s * np.max(np.abs(traj.J)))
    assert abs(residual_series(traj)[-1] - closed) <= bound
    # Q < P is r < 1 for the float datum (r*P may round up to P).
    verdict = cns_classify(w, m, steps=steps).verdict
    assert verdict == (DAMAGE_ONLY if Q < P else PERFECT_PLASTICITY)
    # R(T)/(s* thr) = (P/thr - 1)(1 - r)(3 + r)/2 depends on the shape alone; a residual ten
    # times the tolerance 1e-6 s* thr is told from zero at every yield strain.
    if closed >= 1e-5 * s * thr:
        report = classifier_consistency(traj, verdict)
        assert report.ok, report.detail


@settings(max_examples=200)
@given(m=materials(), data=st.data(), steps=st.integers(1, 200),
       scales=st.lists(st.floats(-9.0, 9.0).map(lambda e: 10.0**e), min_size=3, max_size=3))
def test_the_ledger_is_the_limit_models_own_to_its_rounding(m, data, steps, scales):
    # Total less elastic, p = J - L sigma/a1 and S = E - L sigma^2/(2 a1), against the limit
    # model's own sigma l/a0 and l (sigma^2/(2 a0) + kappa) in every unit system.  Each side is
    # within its count of exact arithmetic: the ledger 13 u |J| and 13.5 u s* M (diagnostics),
    # the oracle's forms 13 u |J| and 22 u s* M (sigma 11, l/a0 2; its mass 7 with weight
    # s*^2/a0, its stress 11 with weight |p|, its four operations 4), M the running max of |J|.
    # These are the mass ratchet's counts of sigma (11) and the mass (7); the running maximum's
    # 4 and 5 and the jump-unit ledger's 8 u |J| and 10 u s* M (diagnostics) are below them.
    w, m = _scaled(data.draw(programs(m)), m, *scales)
    traj = run_limit(m, w, refined_time_grid(w, steps))
    absJ = np.abs(traj.J)
    # The counts are first order in u on normal floats: a nonzero |J| below 1e-100 thr (hypothesis
    # draws subnormals) takes sigma^2 or sigma itself below them, where roundings are absolute.
    assume(np.all((absJ == 0.0) | (absJ >= 1e-100 * m.jump_threshold)))
    p, stored = _ledger(m, traj.J, traj.sigma, traj.E_closed)
    p_ref, stored_ref = limit_ledger(traj)
    assert np.all(np.abs(p - p_ref) <= 26.0 * U * absJ)
    assert np.all(np.abs(stored - stored_ref) <= 35.5 * U * m.yield_stress * np.maximum.accumulate(absJ))


def _runs(m: MaterialParams, w: BoundaryDatum):
    # Both solvers on the knots of the datum alone, and the classifier on the same grid.
    return run_limit(m, w, w.times), run_eps(m, 0.05, 2, w, w.times), cns_classify(w, m, steps=1)


LIMIT_FIELDS = ("J", "sigma", "l", "E_closed", "E_integrated", "work_cum")
EPS_FIELDS = ("J", "sigma", "l_eps", "energy", "work_cum")


@settings(max_examples=200)
@given(m=materials(), data=st.data(), horizon=st.floats(1e-2, 1e2))
def test_a_change_of_time_changes_nothing_but_the_times(m, data, horizon):
    # Rate independence: the same traces on other knot times give the same states
    # bit for bit, and the witness is carried by the change of time.
    w = data.draw(programs(m))
    gaps = data.draw(st.lists(st.floats(0.05, 1.0), min_size=w.times.size - 1, max_size=w.times.size - 1))
    times = np.concatenate([[0.0], horizon * np.cumsum(gaps)[:-1] / sum(gaps), [horizon]])
    ws = BoundaryDatum(times=times, w0=w.w0, wL=w.wL)
    (limit, eps, c), (limit_s, eps_s, c_s) = _runs(m, w), _runs(m, ws)
    assert_fields_equal(limit_s, limit, LIMIT_FIELDS)
    assert np.array_equal(residual_series(limit_s), residual_series(limit))
    assert_fields_equal(eps_s, eps, EPS_FIELDS)
    assert c_s.verdict == c.verdict
    assert (c_s.witness is None) == (c.witness is None)
    if c.witness is not None:
        carried = np.interp(c.witness, w.times, times)
        assert np.max(np.abs(np.asarray(c_s.witness) - carried)) <= 1e-12 * horizon


@settings(max_examples=200)
@given(m=materials(), data=st.data(), steps=st.integers(1, 500))
def test_a_refined_grid_changes_nothing_at_the_knots(m, data, steps):
    # Refinement: both solvers on refined_time_grid(w, steps) give, at the
    # knots, the states of the runs on the knots alone, bit for bit.  eps is
    # any value plateau_factor accepts, subnormals and the last ulps below
    # a1/a0 included.
    w = data.draw(programs(m))
    top = m.a1 / m.a0
    eps = data.draw(st.floats(0.0, top, exclude_min=True, exclude_max=True)
                    | st.integers(1, 64).map(lambda k: float(top - k * np.spacing(top))))
    try:
        plateau_factor(m, eps)
    except ValueError:
        assume(False)
    grid = refined_time_grid(w, steps)
    at_knots = np.isin(grid, w.times)
    assert np.count_nonzero(at_knots) == w.times.size
    fine, coarse = run_limit(m, w, grid), run_limit(m, w, w.times)
    for name in ("sigma", "l", "E_closed"):
        assert np.array_equal(getattr(fine, name)[at_knots], getattr(coarse, name)), name
    fine, coarse = run_eps(m, eps, 1, w, grid), run_eps(m, eps, 1, w, w.times)
    for name in ("sigma", "l_eps", "energy"):
        assert np.array_equal(getattr(fine, name)[at_knots], getattr(coarse, name)), name


@settings(max_examples=200)
@given(m=materials(), data=st.data())
def test_a_reversed_jump_reverses_the_stress_alone(m, data):
    # Swapping the two traces turns J into -J exactly: sigma changes sign and
    # nothing else changes, the verdict and the witness included.
    w = data.draw(programs(m))
    (limit, eps, c), (limit_r, eps_r, c_r) = _runs(m, w), _runs(m, BoundaryDatum(w.times, w.wL, w.w0))
    assert_fields_equal(replace(limit_r, J=-limit_r.J, sigma=-limit_r.sigma), limit)
    assert np.array_equal(residual_series(limit_r), residual_series(limit))
    assert_fields_equal(replace(eps_r, J=-eps_r.J, sigma=-eps_r.sigma), eps)
    assert_fields_equal(c_r, c)
