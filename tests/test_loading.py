from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlab import (DEFAULT_MATERIAL, PRESET_NAMES, BoundaryDatum, ConfigError,
                    ScenarioConfig, preset_datum, refined_time_grid, run_eps, run_limit)
from barlab.loading import jump_nodes, threshold_crossing, validate_time_grid
from oracles import trapezoid_work


def lu_datum() -> BoundaryDatum:
    return BoundaryDatum(times=[0.0, 1.0, 2.0], w0=[0.0, 0.0, 0.0], wL=[0.0, 1.0, 0.0])


class TestBoundaryDatum:
    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            BoundaryDatum(times=[0.5, 1.0], w0=[0.0, 0.0], wL=[0.0, 1.0])

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError):
            BoundaryDatum(times=[0.0, 1.0, 1.0], w0=[0.0] * 3, wL=[0.0] * 3)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            BoundaryDatum(times=[0.0, 1.0], w0=[0.0], wL=[0.0, 1.0])

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            BoundaryDatum(times=[0.0], w0=[0.0], wL=[0.0])

    def test_duration_and_traces(self):
        w = lu_datum()
        assert w.duration == 2.0
        assert w.trace0(1.3) == 0.0
        assert w.traceL(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_jump_is_piecewise_linear(self):
        w = lu_datum()
        t = np.array([0.0, 0.25, 1.0, 1.5, 2.0])
        assert np.allclose(w.jump(t), [0.0, 0.25, 1.0, 0.5, 0.0], atol=1e-15)

    def test_jump_subtracts_left_trace(self):
        w = BoundaryDatum(times=[0.0, 2.0], w0=[0.0, 0.5], wL=[0.0, 2.0])
        assert w.jump(2.0) == pytest.approx(1.5, abs=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["times", "w0", "wL"])
    def test_rejects_non_finite_data(self, name, bad):
        arrays = {"times": [0.0, 1.0, 2.0], "w0": [0.0, 0.0, 0.0], "wL": [0.0, 1.0, 0.0]}
        arrays[name][1] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            BoundaryDatum(**arrays)

    def test_equality_by_value(self):
        assert lu_datum() == lu_datum()
        other = BoundaryDatum(times=[0.0, 1.0, 2.0], w0=[0.0] * 3, wL=[0.0, 1.1, 0.0])
        assert lu_datum() != other


@st.composite
def knots_and_steps(draw):
    """Loading-program knots over [0, T], some of them on the uniform grid of ``steps``."""
    T = 10.0 ** draw(st.floats(-6.0, 6.0))
    steps = draw(st.integers(1, 3000))
    uniform = np.linspace(0.0, T, steps + 1)
    on = [float(uniform[i]) for i in draw(st.lists(st.integers(0, steps), max_size=6))]
    off = [f * T for f in draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                                        max_size=6))]
    # Neighbours of grid points: the closest a knot can be to the grid without sitting on it.
    off += [float(np.nextafter(v, np.inf)) for v in on]
    interior = sorted({v for v in on + off if 0.0 < v < T})
    start = draw(st.sampled_from([0.0, -0.0]))
    return np.array([start, *interior, T]), steps


class TestJumpPolyline:
    def test_zero_crossings_are_inserted(self):
        w = BoundaryDatum(times=[0.0, 1.0, 2.0, 3.0], w0=[0.0, 0.5, 0.0, 0.0],
                          wL=[1.0, -0.5, -1.0, 1.0])
        times, J = jump_nodes(w)
        assert times.tolist() == [0.0, 0.5, 1.0, 2.0, 2.5, 3.0]
        assert J.tolist() == [1.0, 0.0, -1.0, -1.0, 0.0, 1.0]

    def test_touching_zero_is_not_a_crossing(self):
        w = BoundaryDatum(times=[0.0, 1.0, 2.0], w0=[0.0] * 3, wL=[1.0, 0.0, -1.0])
        assert jump_nodes(w)[0].tolist() == [0.0, 1.0, 2.0]

    def test_crossing_next_to_a_knot_stays_sorted(self):
        # Unclamped, the crossing 0.1 + 0.9 * 0.3/(0.3 + 1e-17) rounds to 1 + 2**-52.
        w = BoundaryDatum(times=[0.0, 0.1, 1.0], w0=[0.0] * 3, wL=[0.0, 0.3, -1e-17])
        assert jump_nodes(w)[0].tolist() == [0.0, 0.1, 1.0, 1.0]

    def test_threshold_crossing(self):
        w = lu_datum()
        assert threshold_crossing(w, 0.25) == 0.25
        assert threshold_crossing(w, 1.0) == w.duration
        assert threshold_crossing(w, -1.0) == 0.0
        # A knot exactly at the threshold is not above it.
        assert threshold_crossing(BoundaryDatum(times=[0.0, 1.0, 2.0], w0=[0.0] * 3,
                                                wL=[0.5, 0.5, 1.5]), 0.5) == 1.0


class TestTimeGrids:
    @settings(max_examples=300)
    @given(case=knots_and_steps())
    def test_refined_grid_matches_np_unique_bit_for_bit(self, case):
        times, steps = case
        w = BoundaryDatum(times=times, w0=np.zeros_like(times), wL=np.ones_like(times))
        grid = refined_time_grid(w, steps)
        expected = np.unique(np.concatenate([np.linspace(0.0, w.duration, steps + 1), w.times]))
        assert np.array_equal(grid, expected)
        assert np.array_equal(np.signbit(grid), np.signbit(expected))

    def test_refined_grid_contains_knots_and_span(self):
        w = lu_datum()
        grid = refined_time_grid(w, 7)
        assert grid[0] == 0.0 and grid[-1] == 2.0
        for knot in w.times:
            assert np.min(np.abs(grid - knot)) == 0.0
        assert np.all(np.diff(grid) > 0.0)

    def test_validate_accepts_refined_grid(self):
        w = lu_datum()
        grid = refined_time_grid(w, 50)
        out = validate_time_grid(w, grid)
        assert np.array_equal(out, grid)

    def test_validate_rejects_missing_knot(self):
        w = lu_datum()
        with pytest.raises(ValueError):
            validate_time_grid(w, np.array([0.0, 0.6, 1.3, 2.0]))

    def test_validate_rejects_wrong_span(self):
        w = lu_datum()
        with pytest.raises(ValueError):
            validate_time_grid(w, np.array([0.0, 1.0, 1.9]))

    def test_validate_rejects_unsorted(self):
        w = lu_datum()
        with pytest.raises(ValueError):
            validate_time_grid(w, np.array([0.0, 1.0, 0.5, 2.0]))


# Every entry point that checks the horizon, with the error it raises.
HORIZON_CHECKS = {
    "ScenarioConfig": (lambda m, w: ScenarioConfig(material=m, datum=w), ConfigError),
    "run_limit": (lambda m, w: run_limit(m, w, refined_time_grid(w, 10)), ValueError),
    "run_eps": (lambda m, w: run_eps(m, 0.05, 2, w, refined_time_grid(w, 10)), ValueError),
}


class TestHorizon:
    @pytest.mark.parametrize("entry", sorted(HORIZON_CHECKS))
    def test_a_datum_far_past_a_tiny_horizon_is_refused(self, entry):
        # The datum ends at 500 times the horizon.
        run, error = HORIZON_CHECKS[entry]
        w = BoundaryDatum(times=[0.0, 5e-13], w0=[0.0, 0.0], wL=[0.0, 1.0])
        with pytest.raises(error):
            run(replace(DEFAULT_MATERIAL, T=1e-15), w)

    @pytest.mark.parametrize("entry", sorted(HORIZON_CHECKS))
    def test_a_datum_two_ulps_short_of_a_long_horizon_is_accepted(self, entry):
        run, _ = HORIZON_CHECKS[entry]
        m = replace(DEFAULT_MATERIAL, T=1e5 + 3e-11)
        assert np.nextafter(np.nextafter(1e5, np.inf), np.inf) == m.T
        run(m, BoundaryDatum(times=[0.0, 1e5], w0=[0.0, 0.0], wL=[0.0, 1.0]))


def assert_work_is_the_trapezoid_oracle(w: BoundaryDatum, steps: int) -> None:
    grid = refined_time_grid(w, steps)
    for traj in (run_limit(DEFAULT_MATERIAL, w, grid), run_eps(DEFAULT_MATERIAL, 0.05, 4, w, grid)):
        assert np.array_equal(traj.work_cum, trapezoid_work(traj.times, traj.sigma, traj.J))


class TestCumulativeWork:
    """Both solvers' ``work_cum`` against the trapezoid rule recomputed from scratch."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, name):
        assert_work_is_the_trapezoid_oracle(preset_datum(name, DEFAULT_MATERIAL), 400)

    @settings(max_examples=60)
    @given(knots=st.lists(st.tuples(st.floats(0.01, 0.99), st.floats(-2.0, 2.0)),
                          min_size=0, max_size=5, unique_by=lambda knot: knot[0]),
           ends=st.tuples(st.sampled_from([0.0, -0.0, 0.3, -1.5]), st.floats(-2.0, 2.0)),
           steps=st.integers(1, 200))
    def test_random_programs(self, knots, ends, steps):
        T = DEFAULT_MATERIAL.T
        knots = sorted(knots)
        times = [0.0] + [T * t for t, _ in knots] + [T]
        wL = [ends[0]] + [v for _, v in knots] + [ends[1]]
        w = BoundaryDatum(times=times, w0=np.zeros(len(times)), wL=wL)
        assert_work_is_the_trapezoid_oracle(w, steps)
