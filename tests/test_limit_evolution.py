import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlab import (BoundaryDatum, MaterialParams, NumericalError, cns_classify, preset_datum,
                    refined_time_grid, run_limit)
from barlab.errors import _U
from barlab.loading import first_drop
from conftest import (OVERFLOW_MATERIAL, OVERFLOW_PROGRAMS, constant_run, extreme_programs, extreme_units,
                      materials, programs)
from oracles import closed_form_limit, limit_step, mass_reconstruction, stepwise_limit, trapezoid_work


def first_state(m, J: float) -> tuple[float, float, float]:
    """``(sigma, l, E)`` at ``t = 0`` of a run from the pristine bar under the constant jump ``J``."""
    traj = constant_run(m, J)
    return traj.sigma[0], traj.l[0], traj.E_closed[0]


class TestInitialState:
    def test_zero_load(self, material):
        sigma, l, E = first_state(material, 0.0)
        assert (sigma, l, E) == (0.0, 0.0, 0.0)

    def test_elastic_branch(self, material):
        sigma, l, E = first_state(material, 0.4)
        assert sigma == pytest.approx(0.8, abs=1e-15)
        assert l == 0.0
        assert E == pytest.approx(0.16, abs=1e-15)

    def test_saturated_branch_and_dual_energy_form(self, material):
        sigma, l, E = first_state(material, 1.0)
        assert sigma == pytest.approx(1.0, abs=1e-14)
        assert l == pytest.approx(0.5, abs=1e-14)
        assert E == pytest.approx(0.75, abs=1e-14)
        # Same energy as elastic part plus yield cost of the plastic mass.
        elastic = material.L * material.a1 / 2.0 * (sigma / material.a1) ** 2
        plastic = sigma * l / material.a0
        assert elastic + material.yield_stress * abs(plastic) == pytest.approx(E, abs=1e-12)

    def test_negative_load_is_odd(self, material):
        sigma, l, E = first_state(material, -1.5)
        assert sigma == pytest.approx(-1.0, abs=1e-14)
        assert l == pytest.approx(1.0, abs=1e-14)
        assert E == pytest.approx(1.25, abs=1e-14)


class TestLimitStep:
    # The state is the running maximum M of |J|, from the threshold thr = 0.5 of the default material;
    # its damage mass is (M - thr) a0/s*, and a0/s* = 1.
    def test_unloading_keeps_mass(self, material):
        _, prev = limit_step(material.jump_threshold, material, 1.0)
        sigma, M = limit_step(prev, material, 0.4)
        assert sigma == pytest.approx(0.4, abs=1e-14)
        assert M == prev == 1.0

    def test_growth_saturates_stress(self, material):
        _, prev = limit_step(material.jump_threshold, material, 1.0)
        sigma, M = limit_step(prev, material, 1.2)
        assert M - material.jump_threshold == pytest.approx(0.7, abs=1e-14)
        assert sigma == material.yield_stress == 1.0

    def test_sign_symmetric_reload_is_idempotent(self, material):
        _, prev = limit_step(material.jump_threshold, material, 1.0)
        sigma, M = limit_step(prev, material, -1.0)
        assert sigma == -1.0
        assert M == prev

    @pytest.mark.parametrize("J", [7.750808225005107, -7.750808225005107])
    def test_rounding_past_the_yield_stress_is_clamped(self, J):
        # Here the mass ratchet's J/(l/a0 + L/a1) rounds to s* (1 + 2.2e-16) and needed a clamp;
        # the running maximum gives J/M = +-1, so the stress is s* exactly, with no clamp.
        m = MaterialParams(kappa=5.215727807951501, a0=3.9731590859070542,
                           a1=19.394363828039406, L=5.909305857237593, T=2.0)
        s = m.yield_stress
        raw = J / (max(0.0, m.a0 * (abs(J) - m.jump_threshold) / s) / m.a0 + m.L / m.a1)
        assert abs(raw) > s
        assert constant_run(m, J).sigma[0] == np.copysign(s, J)


@settings(max_examples=300)
@given(units=extreme_units(), program=extreme_programs(), steps=st.integers(1, 50))
def test_the_stress_never_leaves_the_yield_interval(units, program, steps):
    # |J| <= M, so |J/M| <= 1 and |s* (J/M)| <= s* under correct rounding: no tolerance.
    times, jump = program
    try:
        m = MaterialParams(**units, T=float(times[-1]))
    except ValueError:
        return
    w = BoundaryDatum(times=times, w0=np.zeros_like(jump), wL=jump)
    grid = refined_time_grid(w, steps)
    M, stepwise = m.jump_threshold, []
    for J in w.jump(grid).tolist():
        sigma, M = limit_step(M, m, J)
        assert abs(sigma) <= m.yield_stress
        stepwise.append(sigma)
    # run_limit's array formula is the same map: where it runs, its stress is the chained one.
    try:
        traj = run_limit(m, w, grid)
    except NumericalError:
        return
    assert np.array_equal(traj.sigma, stepwise)


class TestRunLimit:
    def test_reference_loading_unloading_path(self, material):
        w = preset_datum("loading-unloading", material)
        traj = run_limit(material, w, refined_time_grid(w, 200))
        t = traj.times
        sig = np.where(t <= 0.5, 2.0 * t, np.where(t <= 1.0, 1.0, 2.0 - t))
        mass = np.where(t <= 0.5, 0.0, np.where(t <= 1.0, t - 0.5, 0.5))
        energy = np.where(t <= 0.5, t**2,
                          np.where(t <= 1.0, t - 0.25, 0.5 * (2.0 - t) ** 2 + 0.25))
        assert np.max(np.abs(traj.sigma - sig)) <= 1e-12
        assert np.max(np.abs(traj.l - mass)) <= 1e-12
        assert np.max(np.abs(traj.E_closed - energy)) <= 1e-12
        assert traj.t0 == 0.5
        assert first_drop(w, material.jump_threshold)[0] == pytest.approx(0.5, abs=1e-12)

    def test_monotone_energy_closed_form(self, material):
        w = preset_datum("monotone", material)
        traj = run_limit(material, w, refined_time_grid(w, 200))
        t = traj.times
        energy = np.where(t <= 0.5, t**2, t - 0.25)
        assert np.max(np.abs(traj.E_closed - energy)) <= 1e-12
        assert traj.l[-1] == pytest.approx(1.5, abs=1e-14)

    def test_constant_datum_is_static(self, material):
        w = preset_datum("constant", material)
        traj = run_limit(material, w, refined_time_grid(w, 40))
        assert np.all(traj.l == 0.0)
        assert np.max(np.abs(np.diff(traj.sigma))) == 0.0
        assert traj.t0 == material.T
        assert first_drop(w, material.jump_threshold)[0] == material.T

    def test_yield_containment_and_compliance_every_step(self, material):
        for name in ("monotone", "constant", "loading-unloading", "high-unload"):
            w = preset_datum(name, material)
            traj = run_limit(material, w, refined_time_grid(w, 150))
            assert np.max(np.abs(traj.sigma)) <= material.yield_stress + 1e-12
            rebuilt = traj.sigma * (traj.l / material.a0 + material.L / material.a1)
            assert np.max(np.abs(rebuilt - traj.J)) <= 1e-12
            assert np.min(np.diff(traj.l)) >= 0.0
            # Mass grows only at yield: discrete stationarity of the increment.
            grew = np.diff(traj.l) > 0.0
            gap = np.abs(np.abs(traj.sigma[1:][grew]) - material.yield_stress)
            assert gap.size == 0 or np.max(gap) <= 1e-12

    def test_mass_reconstruction_identities(self, material):
        for name in ("monotone", "loading-unloading", "high-unload"):
            w = preset_datum(name, material)
            traj = run_limit(material, w, refined_time_grid(w, 123))
            for k in range(traj.times.size):
                delta, l = mass_reconstruction(material, float(traj.E_closed[k]),
                                               float(traj.J[k]))
                assert delta >= -1e-12
                assert l == pytest.approx(float(traj.l[k]), abs=1e-9)

    def test_energy_route_gap_shrinks_with_the_step(self, material):
        w = preset_datum("loading-unloading", material)
        coarse = run_limit(material, w, refined_time_grid(w, 131))
        fine = run_limit(material, w, refined_time_grid(w, 262))
        gap_c = np.max(np.abs(coarse.E_closed - coarse.E_integrated))
        gap_f = np.max(np.abs(fine.E_closed - fine.E_integrated))
        assert gap_c > 0.0
        assert gap_f <= 0.6 * gap_c

    def test_lipschitz_stress_bound(self, material):
        w = preset_datum("high-unload", material)
        traj = run_limit(material, w, refined_time_grid(w, 160))
        tv = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(traj.J)))])
        rng = np.random.default_rng(5)
        idx = rng.integers(0, traj.times.size, size=(200, 2))
        for i, j in idx:
            i, j = min(i, j), max(i, j)
            bound = (material.a1 / material.L) * (tv[j] - tv[i]) \
                * np.exp((traj.times[j] - traj.times[i]) / 2.0)
            assert abs(traj.sigma[j] - traj.sigma[i]) <= bound + 1e-12


@pytest.mark.parametrize("name, message", [
    # The energy s* J = sqrt(10) 0.5e308 t leaves the float range past t = 1.137,
    # so at step 228 of 400 (t = 1.14).
    pytest.param("ramp", r"^time step 228 \(t=1\.14[0-9]*\): energy or work is not finite$", id="ramp"),
    pytest.param("swing", r"^time step \d+ \(t=[0-9.]+\): energy or work is not finite$", id="swing"),
])
def test_an_overflowing_energy_is_refused_without_a_warning(name, message):
    times, wL = OVERFLOW_PROGRAMS[name]
    m = OVERFLOW_MATERIAL
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = BoundaryDatum(times=times, w0=np.zeros(len(times)), wL=wL)
        with pytest.raises(NumericalError, match=message):
            run_limit(m, w, refined_time_grid(w, 400))
        with pytest.raises(NumericalError, match=message):
            cns_classify(w, m, steps=400)


# The energy overflows at the first step towards the knot 5e306. Numpy scalar fields must reach the
# located refusal as Python floats do, not warn (inf/inf) in numpy scalar arithmetic first.
FLOAT_RECORD = dict(kappa=0.010671943205210017, a0=259.3319935218312, a1=1097.3630990959596,
                    L=0.15467139434662505, T=0.0014172116265162207)
FLOAT_RECORD_DATUM = BoundaryDatum(times=[0.0, 0.0014158690434673605, 0.0014172116265162207], w0=[0.0] * 3,
                                   wL=[1.3504454527916984e107, 5.169540760428904e306, 1.3380735441005701e154])


@pytest.mark.parametrize("scalar", [float, np.float64], ids=["float", "float64"])
def test_numpy_scalar_fields_reach_the_located_refusal(scalar):
    m = MaterialParams(**{name: scalar(value) for name, value in FLOAT_RECORD.items()})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^time step 1 \(t=2\.8344232530324414e-05\): "
                                                 r"energy or work is not finite$"):
            run_limit(m, FLOAT_RECORD_DATUM, refined_time_grid(FLOAT_RECORD_DATUM, 50))


@settings(max_examples=200)
@given(m=materials(), data=st.data(), steps=st.integers(1, 500))
def test_run_limit_is_the_closed_form_scan(m, data, steps):
    w = data.draw(programs(m))
    traj = run_limit(m, w, refined_time_grid(w, steps))
    want = closed_form_limit(m, traj.J, traj.times)
    for name in ("sigma", "l", "E_closed"):
        assert np.array_equal(getattr(traj, name), want[name]), name
    assert traj.t0 == want["t0"]


@settings(max_examples=300)
@given(units=extreme_units(), program=extreme_programs(), steps=st.integers(1, 50))
def test_run_limit_is_the_closed_form_scan_on_any_units(units, program, steps):
    # The array formulas run inside run_limit's errstate block: on any floats the run is the scan bit
    # for bit, or it is refused, with no numpy warning, at the first step whose energy or work is not finite.
    times, jump = program
    try:
        m = MaterialParams(**units, T=float(times[-1]))
    except ValueError:
        return
    w = BoundaryDatum(times=times, w0=np.zeros_like(jump), wL=jump)
    grid = refined_time_grid(w, steps)
    J = w.jump(grid)
    with np.errstate(all="ignore"):
        want = closed_form_limit(m, J, grid)
        work = trapezoid_work(grid, want["sigma"], J)
    bad = np.flatnonzero(~(np.isfinite(want["E_closed"]) & np.isfinite(work)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if bad.size:
            where = f"time step {bad[0]} (t={float(grid[bad[0]])!r}): energy or work is not finite"
            with pytest.raises(NumericalError, match=f"^{re.escape(where)}$"):
                run_limit(m, w, grid)
            return
        traj = run_limit(m, w, grid)
    for name in ("sigma", "l", "E_closed"):
        assert np.array_equal(getattr(traj, name), want[name]), name
    assert np.array_equal(traj.work_cum, work)
    assert traj.t0 == want["t0"]


@settings(max_examples=200)
@given(m=materials(), data=st.data(), steps=st.integers(1, 500))
def test_run_limit_agrees_with_the_stepwise_mass_ratchet(m, data, steps):
    # Roundings to first order in u against exact arithmetic on J and the material's floats, with
    # M = max(thr, max|J|) and no subnormal on these materials.  Running maximum: s* takes 2, thr = s* (L/a1)
    # 2 more, J/M and s* (J/M) 1 each, so sigma 4 relative to sigma (s* cancels from s* J/thr); the mass
    # (M - thr)(a0/s*) 5 relative to a0 M/s* (s* 2, thr 2 on thr <= M, the subtraction, a0/s* and the
    # product 3 on M - thr).  Mass ratchet: sigma 11, the mass 7 (diagnostics.py).  So sigma differs by
    # 15 u s*, l by 12 u a0 M/s*, and E = J sigma/2 + kappa l, two nonnegative terms, by (4 + 1 + 11 + 1) u
    # on J sigma/2, (5 + 1 + 7 + 1) u on kappa l and 2 u for the two sums: 19 u E.
    w = data.draw(programs(m))
    traj = run_limit(m, w, refined_time_grid(w, steps))
    old = stepwise_limit(m, traj.J)
    s, M = m.yield_stress, max(m.jump_threshold, float(np.max(np.abs(traj.J))))
    assert np.max(np.abs(traj.sigma - old["sigma"])) <= 15 * _U * s
    assert np.max(np.abs(traj.l - old["l"])) <= 12 * _U * (m.a0 / s) * M
    assert np.max(np.abs(traj.E_closed - old["E_closed"])) <= 19 * _U * np.max(traj.E_closed)
    # Both damage exactly where |J| passes thr, so t0 is the same instant.
    assert np.array_equal(traj.l > 0.0, old["l"] > 0.0)


@st.composite
def piecewise_datum(draw):
    n = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    wl = [0.0] + draw(st.lists(st.floats(-2.0, 2.0), min_size=n - 1, max_size=n - 1))
    return BoundaryDatum(times=times, w0=np.zeros(n), wL=np.array(wl))


@settings(max_examples=40)
@given(w=piecewise_datum(), steps=st.integers(3, 60))
def test_random_paths_preserve_limit_invariants(w, steps):
    import barlab
    m = barlab.DEFAULT_MATERIAL
    traj = run_limit(m, w, refined_time_grid(w, steps))
    s = m.yield_stress
    assert np.max(np.abs(traj.sigma)) <= s + 1e-12
    rebuilt = traj.sigma * (traj.l / m.a0 + m.L / m.a1)
    assert np.max(np.abs(rebuilt - traj.J)) <= 1e-12
    assert np.min(np.diff(traj.l)) >= 0.0
    grew = np.diff(traj.l) > 0.0
    assert np.all(np.abs(np.abs(traj.sigma[1:][grew]) - s) <= 1e-12)
    for k in range(0, traj.times.size, max(1, traj.times.size // 7)):
        delta, l = mass_reconstruction(m, float(traj.E_closed[k]), float(traj.J[k]))
        assert delta >= -1e-10
        assert l == pytest.approx(float(traj.l[k]), abs=1e-9)
