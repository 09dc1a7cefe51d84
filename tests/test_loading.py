from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlab import (DEFAULT_MATERIAL, PRESET_NAMES, BoundaryDatum, ConfigError,
                    ScenarioConfig, cns_classify, preset_datum, refined_time_grid, run_eps,
                    run_limit)
from barlab.loading import _crossing, first_drop, validate_time_grid
from conftest import assert_fields_equal, extreme_programs
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

    def test_rejects_an_overflowing_jump(self):
        # Both traces are finite, but J = wL - w0 = 2e308 is not a float.
        with pytest.raises(ValueError, match=r"^the jump wL - w0 must be finite, got \[0\.0, inf\]$"):
            BoundaryDatum(times=[0.0, 2.0], w0=[0.0, -1e308], wL=[0.0, 1e308])

    def test_a_datum_hashes_and_compares_by_identity(self):
        # No value equality: tests compare the fields (conftest.assert_fields_equal).
        w = lu_datum()
        assert w == w and w != lu_datum()
        assert {w: 1}[w] == 1
        assert_fields_equal(w, lu_datum())
        other = BoundaryDatum(times=[0.0, 1.0, 2.0], w0=[0.0] * 3, wL=[0.0, 1.1, 0.0])
        with pytest.raises(AssertionError, match="^wL\n"):
            assert_fields_equal(w, other)


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
        times, J = w.nodes
        assert times.tolist() == [0.0, 0.5, 1.0, 2.0, 2.5, 3.0]
        assert J.tolist() == [1.0, 0.0, -1.0, -1.0, 0.0, 1.0]

    def test_touching_zero_is_not_a_crossing(self):
        w = BoundaryDatum(times=[0.0, 1.0, 2.0], w0=[0.0] * 3, wL=[1.0, 0.0, -1.0])
        assert w.nodes[0].tolist() == [0.0, 1.0, 2.0]

    def test_crossing_next_to_a_knot_stays_sorted(self):
        # Unclamped, the crossing 0.1 + 0.9 * 0.3/(0.3 + 1e-17) rounds to 1 + 2**-52.
        w = BoundaryDatum(times=[0.0, 0.1, 1.0], w0=[0.0] * 3, wL=[0.0, 0.3, -1e-17])
        assert w.nodes[0].tolist() == [0.0, 0.1, 1.0, 1.0]

    def test_a_crossing_between_tiny_jumps_is_found(self):
        # The product of the two jumps underflows to -0.0; their signs still differ.
        w = BoundaryDatum(times=[0.0, 1.0, 2.0], w0=[0.0] * 3, wL=[0.0, 1e-200, -1e-200])
        assert w.nodes[0].tolist() == [0.0, 1.0, 1.5, 2.0]
        assert w.nodes[1].tolist() == [0.0, 1e-200, 0.0, -1e-200]

    def test_a_crossing_between_huge_jumps_is_placed_exactly(self):
        # Unscaled, the step (1e10 - 0) * 1e300 overflows and the crossing lands on 1e10.
        w = BoundaryDatum(times=[0.0, 1e10], w0=[0.0, 0.0], wL=[1e300, -1e300])
        assert w.nodes[0].tolist() == [0.0, 5e9, 1e10]

    def test_a_crossing_of_the_largest_jumps_is_finite(self):
        # Unscaled, inf/inf makes a nan node and a nan end of the refined grid.
        w = BoundaryDatum(times=[0.0, 2.0], w0=[0.0, 0.0], wL=[1e308, -1e308])
        assert w.nodes[0].tolist() == [0.0, 1.0, 2.0]
        assert refined_time_grid(w, 4).tolist() == [0.0, 0.5, 1.0, 1.5, 2.0]

    @settings(max_examples=300)
    @given(program=extreme_programs(), steps=st.integers(1, 50))
    def test_the_polyline_of_any_float_program(self, program, steps):
        # Building the datum and its grid must not warn: warnings fail the suite.
        times, jump = program
        w = BoundaryDatum(times=times, w0=np.zeros_like(jump), wL=jump)
        t, J = w.nodes
        assert np.all(np.diff(t) >= 0.0)
        # Walk the nodes against the knots: every other node is a zero of J inside
        # a knot segment whose ends have strictly opposite signs.
        k = 0
        for node_t, node_J in zip(t.tolist(), J.tolist()):
            if k < times.size and node_t == times[k] and node_J == jump[k]:
                k += 1
                continue
            assert node_J == 0.0 and 0 < k < times.size
            assert times[k - 1] <= node_t <= times[k]
            assert np.sign(jump[k - 1]) * np.sign(jump[k]) < 0.0
        assert k == times.size
        # No sign change inside a node segment: |J| is linear between nodes.
        assert np.all(np.sign(J[:-1]) * np.sign(J[1:]) >= 0.0)
        grid = refined_time_grid(w, steps)
        assert np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0.0)

    def test_the_datum_and_its_polyline_are_read_only(self):
        w = lu_datum()
        for values in (w.times, w.w0, w.wL, *w.nodes):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0

    def test_the_polyline_is_built_once_per_datum(self):
        w = lu_datum()
        first, again = w.nodes, w.nodes
        assert first[0] is again[0] and first[1] is again[1]
        # A replaced datum is a new datum with its own polyline.
        other = replace(w, wL=[0.0, -1.0, 1.0])
        times, J = other.nodes
        assert times is not first[0] and J is not first[1]
        assert times.tolist() == [0.0, 1.0, 1.5, 2.0]
        assert J.tolist() == [0.0, -1.0, 0.0, 1.0]
        assert w.nodes[1].tolist() == [0.0, 1.0, 0.0]

    def test_threshold_crossing(self):
        w = lu_datum()
        assert first_drop(w, 0.25)[0] == 0.25
        assert first_drop(w, 1.0)[0] == w.duration
        assert first_drop(w, -1.0)[0] == 0.0
        # A knot exactly at the threshold is not above it.
        assert first_drop(BoundaryDatum(times=[0.0, 1.0, 2.0], w0=[0.0] * 3,
                                        wL=[0.5, 0.5, 1.5]), 0.5)[0] == 1.0
        # One ulp below |J| = 1 at the knot t = 0.9 the crossing rounds to 0.9 + 1 ulp; it stays on its knot.
        assert first_drop(BoundaryDatum(times=[0.0, 0.3, 0.9], w0=[0.0] * 3, wL=[0.3, 0.3, 1.0]),
                          float(np.nextafter(1.0, 0.0)))[0] == 0.9

    @settings(max_examples=300)
    @given(program=extreme_programs(),
           threshold=st.floats(0.0, 1e300) | st.sampled_from([DEFAULT_MATERIAL.jump_threshold, 1e308]))
    def test_t0_star_lies_on_its_node_segment(self, program, threshold):
        times, jump = program
        w = BoundaryDatum(times=times, w0=np.zeros_like(jump), wL=jump)
        t0_star = first_drop(w, threshold)[0]
        nodes, above = w.nodes[0], np.flatnonzero(np.abs(w.nodes[1]) > threshold)
        if above.size == 0:
            assert t0_star == w.duration
        else:
            k = int(above[0])
            assert nodes[max(k - 1, 0)] <= t0_star <= nodes[k]

    def test_the_crossing_rule_reads_arrays_and_scalars_alike(self):
        ta, tb = np.array([0.0, 1.0, 0.1, 2.0]), np.array([1.0, 3.0, 1.0, 2.0])
        va, vb = np.array([0.0, 1e308, 0.3, 4.0]), np.array([2.0, -1e308, -1e-17, 1.0])
        level = np.array([1.0, 0.0, 0.0, 2.0])
        # Half-way up a line, the zero of the largest floats, a zero next to its knot, a segment of zero length.
        want = [0.5, 2.0, 1.0, 2.0]
        assert _crossing(ta, tb, va, vb, level).tolist() == want
        assert [float(_crossing(*args)) for args in zip(ta, tb, va, vb, level)] == want


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

    @pytest.mark.parametrize("steps", [2.5, 2.0, "3", None])
    def test_a_step_count_must_be_an_integer(self, steps):
        with pytest.raises(ValueError, match=r"^steps must be an integer, got "):
            refined_time_grid(lu_datum(), steps)

    def test_a_numpy_integer_step_count_is_a_count(self):
        w = lu_datum()
        assert np.array_equal(refined_time_grid(w, np.int64(7)), refined_time_grid(w, 7))
        with pytest.raises(ValueError, match=r"^steps must be positive, got np\.int64\(0\)$"):
            refined_time_grid(w, np.int64(0))

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

    @pytest.mark.parametrize("grid", [[0.0, 0.5, np.nan, 1.0, 2.0], [0.0, 1.0, 2.0, np.nan]])
    @pytest.mark.parametrize("entry", [
        lambda w, g: validate_time_grid(w, g),
        lambda w, g: run_limit(DEFAULT_MATERIAL, w, g),
        lambda w, g: run_eps(DEFAULT_MATERIAL, 0.05, 2, w, g),
    ], ids=["validate_time_grid", "run_limit", "run_eps"])
    def test_a_non_finite_instant_is_refused(self, entry, grid):
        with pytest.raises(ValueError, match=r"^time grid must be finite, got \["):
            entry(lu_datum(), np.array(grid))

    def test_validate_rejects_unsorted(self):
        w = lu_datum()
        with pytest.raises(ValueError):
            validate_time_grid(w, np.array([0.0, 1.0, 0.5, 2.0]))


# Every entry point that takes a material and a datum.
ENTRY_POINTS = {
    "ScenarioConfig": lambda m, w: ScenarioConfig(material=m, datum=w),
    "run_limit": lambda m, w: run_limit(m, w, refined_time_grid(w, 10)),
    "run_eps": lambda m, w: run_eps(m, 0.05, 2, w, refined_time_grid(w, 10)),
    "cns_classify": lambda m, w: cns_classify(w, m, steps=10),
}
# The one that checks a datum against the material's horizon T, with the error it raises.
HORIZON_CHECKS = {"ScenarioConfig": ConfigError}


class TestHorizon:
    @pytest.mark.parametrize("entry", sorted(HORIZON_CHECKS))
    def test_a_datum_far_past_a_tiny_horizon_is_refused(self, entry):
        # The datum ends at 500 times the horizon.
        w = BoundaryDatum(times=[0.0, 5e-13], w0=[0.0, 0.0], wL=[0.0, 1.0])
        with pytest.raises(HORIZON_CHECKS[entry]):
            ENTRY_POINTS[entry](replace(DEFAULT_MATERIAL, T=1e-15), w)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_a_datum_two_ulps_short_of_a_long_horizon_is_accepted(self, entry):
        run = ENTRY_POINTS[entry]
        m = replace(DEFAULT_MATERIAL, T=1e5 + 3e-11)
        assert np.nextafter(np.nextafter(1e5, np.inf), np.inf) == m.T
        run(m, BoundaryDatum(times=[0.0, 1e5], w0=[0.0, 0.0], wL=[0.0, 1.0]))

    @pytest.mark.parametrize("entry", sorted(set(ENTRY_POINTS) - set(HORIZON_CHECKS)))
    @pytest.mark.parametrize("end", [1e-13, 1e5])
    def test_a_run_takes_the_horizon_of_its_datum(self, entry, end):
        # T = 2 is far from either end: the run is the run on the material whose T is the end.
        m = replace(DEFAULT_MATERIAL, T=2.0)
        w = BoundaryDatum(times=[0.0, end / 2, end], w0=[0.0, 0.0, 0.0], wL=[0.0, 1.0, 0.2])
        run = ENTRY_POINTS[entry]
        assert_fields_equal(run(m, w), run(replace(m, T=w.duration), w))


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
