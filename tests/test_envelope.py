import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from barlab import (MaterialParams, TwoWellParams, convex_envelope,
                    optimal_theta, preset_datum, raw_energy, refined_time_grid, run_limit)
from barlab.envelope import envelope_slope_bounds
from conftest import UNIT_REFUSALS, any_units, assert_fields_equal
from oracles import (envelope_by_minimization, mixture_objective, wbar_1d,
                     wbar_by_minimization)

FIG = TwoWellParams(a=0.1, b=1.0, K=2.0)


def assert_refused_in_the_callers_terms(msg: str, a, b, K) -> None:
    # One message for every refusal: the conditions on a, b and K, never the cell's a0 or eps.
    assert msg.startswith("need a, b and K with 0 < a < b and K > 0 whose envelope floats can hold "
                          "(2a, 2b, sqrt(4aK), sqrt(4aK)/(2b), 1/(2b), 4aK/(2b) and 1/(2a) - 1/(2b) "
                          "finite and > 0), ")
    assert msg.endswith(f"got a={a!r}, b={b!r}, K={K!r}")
    assert "a0" not in msg and "eps" not in msg


@st.composite
def twowell_params(draw):
    a = draw(st.floats(0.01, 10.0))
    ratio = draw(st.floats(1.05, 50.0))
    K = draw(st.floats(0.01, 50.0))
    return TwoWellParams(a=a, b=a * ratio, K=K)


class TestParamValidation:
    def test_twowell_rejects_bad_order(self):
        # Order and sign, and a subnormal a or K whose envelope floats cannot hold: one message.
        for a, b, K in [(1.0, 1.0, 2.0), (2.0, 1.0, 2.0), (0.1, 1.0, 0.0), (0.0, 1.0, 2.0), (-0.0, 1.0, 2.0),
                        (-1.0, 1.0, 2.0), (0.1, 1.0, -0.0), (0.1, 1.0, -2.0), (5e-324, 1.0, 2.0),
                        (0.1, 1.0, 5e-324)]:
            with pytest.raises(ValueError) as info:
                TwoWellParams(a=a, b=b, K=K)
            assert_refused_in_the_callers_terms(str(info.value), a=a, b=b, K=K)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["a", "b", "K"])
    def test_twowell_rejects_non_finite(self, field, value):
        args = {"a": FIG.a, "b": FIG.b, "K": FIG.K, field: value}
        with pytest.raises(ValueError) as info:
            replace(FIG, **{field: value})
        assert_refused_in_the_callers_terms(str(info.value), **args)

    # 2a overflows; 1/(2a) overflows; sqrt(4aK) underflows to 0; 4aK overflows.
    @pytest.mark.parametrize("a, b, K", [(1e308, 1.5e308, 2.0), (1e-320, 1.0, 2.0),
                                         (1e-10, 1.0, 1e-320), (1e300, 1e301, 1e300)])
    def test_an_envelope_floats_cannot_hold_is_refused_in_the_callers_terms(self, a, b, K):
        with pytest.raises(ValueError) as info:
            TwoWellParams(a=a, b=b, K=K)
        assert_refused_in_the_callers_terms(str(info.value), a=a, b=b, K=K)

    @settings(max_examples=300)
    @given(a=st.floats(-1e300, 1e300), b=st.floats(-1e300, 1e300), K=st.floats(-1e300, 1e300))
    def test_what_is_built_is_never_refused_later(self, a, b, K):
        try:
            p = TwoWellParams(a=a, b=b, K=K)
        except ValueError as exc:
            assert_refused_in_the_callers_terms(str(exc), a=a, b=b, K=K)
            return
        assert 0.0 < a < b and K > 0.0
        xi = np.array([0.0, 1.0, -1.0, a, b, K])
        for fn in (convex_envelope, optimal_theta):
            assert fn(p, xi).shape == xi.shape
        assert len(envelope_slope_bounds(p)) == 3

    def test_material_rejects_bad_stiffness_order(self):
        with pytest.raises(ValueError):
            MaterialParams(kappa=0.5, a0=2.0, a1=1.0, L=1.0, T=2.0)
        with pytest.raises(ValueError):
            MaterialParams(kappa=-0.5, a0=1.0, a1=2.0, L=1.0, T=2.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["kappa", "a0", "a1", "L", "T"])
    def test_material_rejects_non_finite(self, material, field, value):
        with pytest.raises(ValueError, match=f"need {field} finite and > 0"):
            replace(material, **{field: value})

    # kappa a0 underflows to a zero yield stress; 2 kappa a0 overflows.
    @pytest.mark.parametrize("values, got", [
        ({"kappa": 1e-200, "a0": 1e-200}, r"0\.0"),
        ({"kappa": 1e200, "a0": 1e200, "a1": 1e201}, "inf"),
    ], ids=["underflow", "overflow"])
    def test_material_rejects_a_yield_stress_floats_cannot_hold(self, material, values, got):
        with pytest.raises(ValueError, match=f"^need yield_stress finite and > 0, got {got}$"):
            replace(material, **values)

    def test_material_rejects_a_jump_threshold_floats_cannot_hold(self, material):
        with pytest.raises(ValueError, match=r"^need jump_threshold finite and > 0, got inf$"):
            replace(material, kappa=1e10, L=1e308)
        # s* = 1.4e-150 and L/a1 = 5e-201 pass; their product underflows.
        with pytest.raises(ValueError, match=r"^need jump_threshold finite and > 0, got 0\.0$"):
            replace(material, kappa=1e-200, a0=1e-100, L=1e-200)
        # thr = s* (L/a1) is built from the compliance, which is checked first.
        with pytest.raises(ValueError, match=r"^need L/a1 finite and > 0, got 0\.0$"):
            replace(material, L=1e-200, a1=1e200)

    @pytest.mark.parametrize("name", sorted(UNIT_REFUSALS))
    def test_material_rejects_units_floats_cannot_hold(self, name):
        # thr is s* (L/a1), the mass is (M - thr)(a0/s*), and every classifier tolerance is a multiple of s* thr.
        fields, _, unit, got = UNIT_REFUSALS[name]
        with pytest.raises(ValueError, match=rf"^need {re.escape(unit)} finite and > 0, got {re.escape(got)}$"):
            MaterialParams(**fields, T=2.0)

    @pytest.mark.parametrize("scalar", [int, np.int64, np.float64])
    def test_material_fields_are_stored_as_floats(self, scalar):
        values = {"kappa": 1, "a0": 2, "a1": 3, "L": 4, "T": 5}
        m = MaterialParams(**{name: scalar(v) for name, v in values.items()})
        want = MaterialParams(**{name: float(v) for name, v in values.items()})
        assert all(type(getattr(m, name)) is float for name in values)
        assert m == want
        w = preset_datum("high-unload", want)
        got, ref = (run_limit(x, w, refined_time_grid(w, 40)) for x in (m, want))
        assert_fields_equal(got, ref)

    def test_a_str_field_is_refused_though_float_would_parse_it(self, material):
        with pytest.raises(TypeError):
            replace(material, kappa="0.5")

    def test_derived_material_scales(self, material):
        assert material.yield_stress == pytest.approx(1.0, abs=1e-15)
        assert material.jump_threshold == pytest.approx(0.5, abs=1e-15)

    @given(units=any_units())
    @example(units={"kappa": 1.877e-2, "a0": 3.737e242, "a1": 6.782e242, "L": 1e-76})  # L/a1 = 1.5e-319
    def test_the_threshold_keeps_its_bits_on_any_units(self, units):
        # thr is s* (L/a1) bit for bit where the compliance is normal; where it is subnormal and keeps few
        # bits, (s* L)/a1 is within its two roundings of s* L/a1 on the float s* (while s* L and thr are normal).
        try:
            m = MaterialParams(**units, T=1.0)
        except ValueError:
            return
        s, c = m.yield_stress, m.L / m.a1
        if c >= 2.0**-1022:
            assert m.jump_threshold == s * c
        elif s * m.L >= 2.0**-1022 and m.jump_threshold >= 2.0**-1022:
            exact = Fraction(s) * Fraction(m.L) / Fraction(m.a1)
            assert abs(Fraction(m.jump_threshold) - exact) <= 2 * Fraction(2.0**-53) * exact


class TestRawEnergy:
    def test_strong_well_at_origin(self):
        assert raw_energy(FIG, 0.0) == 0.0

    def test_weak_branch_point(self):
        # At xi = 4.714 the weak well wins: 2 + 0.1*xi^2 vs xi^2.
        assert raw_energy(FIG, 4.714) == pytest.approx(4.222, rel=1e-3)

    def test_strong_branch_point(self):
        assert raw_energy(FIG, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_vector_input(self):
        xi = np.array([0.0, 1.0, 4.714])
        out = raw_energy(FIG, xi)
        assert out.shape == (3,)
        assert out[0] == 0.0


class TestEnvelopeBranches:
    def test_kink_coordinates(self):
        xi1, xi2, slope = envelope_slope_bounds(FIG)
        assert xi1 == pytest.approx(0.47140, rel=1e-4)
        assert xi2 == pytest.approx(4.7140, rel=1e-4)
        assert slope == pytest.approx(0.94281, rel=1e-4)
        assert xi2 == pytest.approx(xi1 * FIG.b / FIG.a, rel=1e-12)

    def test_kink_values(self):
        xi1, xi2, _ = envelope_slope_bounds(FIG)
        assert convex_envelope(FIG, xi1) == pytest.approx(0.2222, rel=1e-3)
        assert convex_envelope(FIG, xi2) == pytest.approx(4.222, rel=1e-3)

    def test_affine_branch_closed_form(self):
        # At xi=2: slope*xi - aK/(b-a) = 2*sqrt(8/9) - 2/9.
        want = 2.0 * np.sqrt(8.0 / 9.0) - 2.0 / 9.0
        assert convex_envelope(FIG, 2.0) == pytest.approx(want, abs=1e-12)
        assert convex_envelope(FIG, 2.0) == pytest.approx(1.6633958609419044, abs=1e-10)

    def test_even_in_strain(self):
        xi = np.linspace(0.0, 8.0, 101)
        assert np.allclose(convex_envelope(FIG, -xi), convex_envelope(FIG, xi),
                           rtol=0.0, atol=1e-15)

    def test_below_raw_with_equality_outside_plateau(self):
        xi = np.linspace(-8.0, 8.0, 10001)
        env = convex_envelope(FIG, xi)
        raw = raw_energy(FIG, xi)
        assert np.all(env <= raw + 1e-12)
        xi1, xi2, _ = envelope_slope_bounds(FIG)
        outside = (np.abs(xi) <= xi1) | (np.abs(xi) >= xi2)
        assert np.allclose(env[outside], raw[outside], rtol=0.0, atol=1e-12)

    def test_convexity_by_second_differences(self):
        xi = np.linspace(-8.0, 8.0, 10001)
        env = convex_envelope(FIG, xi)
        assert np.min(np.diff(env, 2)) >= -1e-9

    def test_matches_minimization_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            a = rng.uniform(0.05, 2.0)
            b = a * rng.uniform(1.2, 20.0)
            K = rng.uniform(0.1, 10.0)
            p = TwoWellParams(a=a, b=b, K=K)
            _, xi2, _ = envelope_slope_bounds(p)
            xi = np.linspace(0.0, 1.5 * xi2, 400)
            _, oracle = envelope_by_minimization(a, b, K, xi)
            assert np.max(np.abs(convex_envelope(p, xi) - oracle)) <= 1e-10

    def test_kink_strain_scales_like_sqrt_offset(self):
        # Quadrupling K must exactly double xi1: the strong well covers any
        # fixed compact as the weak well's offset blows up.
        xi1_a, _, _ = envelope_slope_bounds(TwoWellParams(a=0.1, b=1.0, K=2.0))
        xi1_b, _, _ = envelope_slope_bounds(TwoWellParams(a=0.1, b=1.0, K=8.0))
        assert xi1_b == pytest.approx(2.0 * xi1_a, rel=1e-12)


class TestPlateauSlopeInstantiation:
    def test_slope_equals_amplified_yield_stress(self, material):
        # Weak well eps*a0/2, strong well a1/2, offset kappa/eps: the affine
        # slope must equal sqrt(2*kappa*a0) * sqrt(a1/(a1 - eps*a0)) exactly.
        for eps in np.logspace(-3, -0.5, 9):
            p = TwoWellParams(a=eps * material.a0 / 2.0,
                              b=material.a1 / 2.0,
                              K=material.kappa / eps)
            _, _, slope = envelope_slope_bounds(p)
            amplified = material.yield_stress * np.sqrt(
                material.a1 / (material.a1 - eps * material.a0))
            assert slope == pytest.approx(amplified, rel=1e-12)

    def test_slope_value_at_eps_002(self, material):
        p = TwoWellParams(a=0.01, b=1.0, K=25.0)
        _, _, slope = envelope_slope_bounds(p)
        assert slope == pytest.approx(np.sqrt(2.0 / 1.98), rel=1e-12)
        assert slope == pytest.approx(1.00504, rel=1e-5)


class TestOptimalTheta:
    def test_pure_phases(self):
        assert optimal_theta(FIG, 0.3) == 0.0
        assert optimal_theta(FIG, 5.0) == 1.0
        assert optimal_theta(FIG, -5.0) == 1.0

    def test_plateau_value(self):
        theta = optimal_theta(FIG, 2.0)
        # Independent route: stationarity of K*th + xi^2/(th/a + (1-th)/b).
        d = 1.0 / FIG.a - 1.0 / FIG.b
        stationary = (2.0 * np.sqrt(d / FIG.K) - 1.0 / FIG.b) / d
        assert theta == pytest.approx(float(stationary), abs=1e-12)
        assert theta == pytest.approx(0.3602934096799205, abs=1e-12)
        # The brute minimizer locates the flat argmin only to ~1e-8, but
        # the minimal value itself is sharp.
        oracle_theta, oracle_value = envelope_by_minimization(0.1, 1.0, 2.0, np.array([2.0]))
        assert theta == pytest.approx(float(oracle_theta[0]), abs=1e-6)
        value = mixture_objective(FIG.a, FIG.b, FIG.K, 2.0, theta)
        assert value == pytest.approx(float(oracle_value[0]), abs=1e-12)

    def test_attains_envelope(self):
        xi = np.linspace(-7.0, 7.0, 501)
        theta = optimal_theta(FIG, xi)
        assert np.max(np.abs(mixture_objective(FIG.a, FIG.b, FIG.K, xi, theta)
                             - convex_envelope(FIG, xi))) <= 1e-10

    def test_nondecreasing_in_strain_magnitude(self):
        xi = np.linspace(0.0, 7.0, 2001)
        theta = optimal_theta(FIG, xi)
        assert np.min(np.diff(theta)) >= -1e-12

    def test_mixture_stress_matches_envelope_derivative(self):
        xi1, xi2, _ = envelope_slope_bounds(FIG)
        h = 1e-6
        for xi in [0.5 * xi1, 0.5 * (xi1 + xi2), 1.3 * xi2]:
            num = (convex_envelope(FIG, xi + h) - convex_envelope(FIG, xi - h)) / (2.0 * h)
            theta = optimal_theta(FIG, xi)
            c = 1.0 / (theta / FIG.a + (1.0 - theta) / FIG.b)
            assert num == pytest.approx(2.0 * c * xi, rel=1e-5)


@given(a=st.floats(-300.0, 300.0), ratio=st.floats(0.001, 3.0), K=st.floats(-300.0, 300.0),
       beyond=st.floats(2.0, 1e3))
def test_past_full_damage_theta_is_exactly_one(a, ratio, K, beyond):
    # The damage mass at full damage is L (1/(eps a0) - 1/a1)/(1/a0 - eps/a1), on the cell at L = eps = 1
    # a quotient of two equal floats, so exactly 1 on any units floats can hold.
    try:
        p = TwoWellParams(a=10.0**a, b=10.0 ** (a + ratio), K=10.0**K)
    except ValueError:
        return
    xi = beyond * envelope_slope_bounds(p)[1]
    if np.isfinite(xi):
        assert optimal_theta(p, xi) == 1.0 and optimal_theta(p, -xi) == 1.0


@given(p=twowell_params(), xi=st.floats(-50.0, 50.0), theta=st.floats(0.0, 1.0))
def test_envelope_never_beaten_by_a_mixture(p, xi, theta):
    mixed = mixture_objective(p.a, p.b, p.K, xi, theta)
    assert convex_envelope(p, xi) <= mixed + 1e-9 * (1.0 + abs(xi) ** 2)


@given(p=twowell_params(), xi=st.floats(-50.0, 50.0))
def test_optimal_theta_attains_envelope_everywhere(p, xi):
    theta = optimal_theta(p, xi)
    assert 0.0 <= theta <= 1.0
    attained = mixture_objective(p.a, p.b, p.K, xi, theta)
    assert attained == pytest.approx(convex_envelope(p, xi), rel=1e-9, abs=1e-9)


class TestWbar:
    def test_origin(self, material):
        assert wbar_1d(material, 0.0) == 0.0

    def test_branch_continuity_at_kink(self, material):
        kink = material.yield_stress / material.a1
        quad = 0.5 * material.a1 * kink**2
        affine = material.yield_stress * kink - material.yield_stress**2 / (2.0 * material.a1)
        assert quad == pytest.approx(affine, abs=1e-15)
        assert wbar_1d(material, kink) == pytest.approx(0.25, abs=1e-15)

    def test_affine_branch_point(self, material):
        assert wbar_1d(material, 2.0) == pytest.approx(1.75, abs=1e-12)

    def test_matches_infimum_oracle(self, material):
        for xi in [-2.5, -0.3, 0.0, 0.2, 0.5, 1.0, 3.0]:
            oracle = wbar_by_minimization(material.a1, material.yield_stress, xi)
            assert wbar_1d(material, xi) == pytest.approx(oracle, abs=1e-8)

    def test_true_lower_envelope(self, material):
        xi = np.linspace(-3.0, 3.0, 61)
        eta = np.linspace(-6.0, 6.0, 2001)
        vals = (0.5 * material.a1 * (xi[:, None] - eta[None, :]) ** 2
                + material.yield_stress * np.abs(eta)[None, :])
        assert np.all(wbar_1d(material, xi)[:, None] <= vals + 1e-12)
