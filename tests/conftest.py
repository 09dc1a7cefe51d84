from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import barlab

# print_blob: a failing example prints the @reproduce_failure line that replays it.
settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.load_profile("suite")

_ACCEPTANCE_LINES: dict[int, str] = {}


@pytest.fixture
def material() -> barlab.MaterialParams:
    return barlab.DEFAULT_MATERIAL


@st.composite
def materials(draw) -> barlab.MaterialParams:
    """Random materials with every parameter within two decades of the default."""
    value = st.floats(0.1, 10.0)
    a0 = draw(value)
    return barlab.MaterialParams(kappa=draw(value), a0=a0, a1=a0 * draw(st.floats(1.01, 10.0)),
                                 L=draw(value), T=draw(value))


@st.composite
def programs(draw, m: barlab.MaterialParams) -> barlab.BoundaryDatum:
    """Random piecewise-linear programs on ``[0, m.T]``; knot values mix zeros and ties with the threshold."""
    n = draw(st.integers(2, 6))
    ends = np.cumsum(draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1)))
    times = np.concatenate([[0.0], m.T * ends[:-1] / ends[-1], [m.T]])
    thr = m.jump_threshold
    value = st.one_of(st.sampled_from([0.0, thr, -thr]), st.floats(-3.0 * thr, 3.0 * thr))
    wL = draw(st.lists(value, min_size=n, max_size=n))
    return barlab.BoundaryDatum(times=times, w0=np.zeros(n), wL=wL)


@st.composite
def extreme_programs(draw):
    """Knot times and jumps whose magnitudes each span 1e-300 to 1e300, with either sign or zero."""
    n = draw(st.integers(2, 8))
    gaps = draw(st.lists(st.floats(1e-3, 1e3), min_size=n - 1, max_size=n - 1))
    signs = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=n, max_size=n))
    exponents = draw(st.lists(st.floats(-300.0, 300.0), min_size=n, max_size=n))
    return np.concatenate([[0.0], np.cumsum(gaps)]), np.array(signs) * 10.0 ** np.array(exponents)


@st.composite
def extreme_units(draw) -> dict:
    """``MaterialParams`` keywords but ``T``: kappa, a0 and L from 10^[-300, 300], a1/a0 from 10^[0.001, 3]."""
    kappa, a0, L = (10.0 ** draw(st.floats(-300.0, 300.0)) for _ in range(3))
    return {"kappa": kappa, "a0": a0, "a1": a0 * 10.0 ** draw(st.floats(0.001, 3.0)), "L": L}


# Finite positive fields whose units floats cannot hold: the compliance L/a1 underflows to 0
# or overflows, the mass unit a0/s* overflows (the mass (M - thr)(a0/s*) would be 0 inf), or
# the energy unit s* thr underflows to 0.  Each with the preset that showed it.
UNIT_REFUSALS = {
    "compliance-underflow": ({"kappa": 1.0, "a0": 1e200, "a1": 1e201, "L": 1e-130}, "monotone", "L/a1", "0.0"),
    "compliance-overflow": ({"kappa": 1.0, "a0": 1e-300, "a1": 1e-299, "L": 1e10}, "monotone", "L/a1", "inf"),
    "mass-unit-overflow": ({"kappa": 1e-320, "a0": 1e300, "a1": 1e301, "L": 1.0}, "monotone", "a0/s*", "inf"),
    "energy-unit-underflow": ({"kappa": 1e-200, "a0": 1.0, "a1": 2.0, "L": 1e-200}, "high-unload", "s* thr", "0.0"),
}
# At eps = 0.5 on high-unload, L sigma^2 passes the float range while the energy
# J sigma/2 + kappa l is 9.0e219: the unit material's run scaled by s* thr = 1e220.
HUGE_ENERGY_UNITS = {"kappa": 1e120, "a0": 1e100, "a1": 2e100, "L": 1e100}
HUGE_ENERGY_MATERIAL = barlab.MaterialParams(**HUGE_ENERGY_UNITS, T=2.0)

# A material and two programs whose limit-model energy or work overflows:
# J reaches 1e308 (the energy s* J passes the float range at t = 1.137), and
# J swings by 1e308 in half a time unit (interpolating it overflows).
OVERFLOW_MATERIAL = barlab.MaterialParams(kappa=5.0, a0=1.0, a1=2.0, L=1.0, T=2.0)
OVERFLOW_PROGRAMS = {
    "ramp": ([0.0, 2.0], [0.0, 1e308]),
    "swing": ([0.0, 0.5, 1.0, 1.5, 2.0], [0.0, 5e307, -5e307, 5e307, -5e307]),
}
# Eight swings of 1e307 on OVERFLOW_MATERIAL: the energy and the work stay
# finite, but the yield dissipation s* Var(p) of the ledger does not.
LEDGER_OVERFLOW_PROGRAM = ([0.25 * k for k in range(9)], [0.0] + [1e307, -1e307] * 4)
# A jump threshold of 1e308 and a drop from 1.5e308 to 0: half-way to the threshold is
# 1.25e308, though |J(s)| + thr overflows; 2L overflows too.
HUGE_THRESHOLD_MATERIAL = barlab.MaterialParams(kappa=0.5, a0=1.0, a1=1.5, L=1.5e308, T=2.0)
HUGE_THRESHOLD_DROP = (np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.5e308, 0.0]))


def constant_run(m, J: float):
    """``run_limit`` on the constant datum ``J`` over ``[0, 1]``, on the grid of its two knots."""
    w = barlab.BoundaryDatum(times=[0.0, 1.0], w0=[0.0, 0.0], wL=[J, J])
    return barlab.run_limit(m, w, [0.0, 1.0])


def assert_fields_equal(got, want, names=None) -> None:
    """``np.array_equal`` on the named fields of two records; by default every field but the material ``m``.

    A ``BoundaryDatum`` field, which compares by identity, is compared field by field.
    """
    for name in names or [f.name for f in fields(want) if f.name != "m"]:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, barlab.BoundaryDatum):
            assert_fields_equal(a, b)
        else:
            assert np.array_equal(a, b), name


def record_acceptance(criterion: int, passed: bool, detail: str) -> None:
    """Register the one-line verdict printed after the run; call before asserting."""
    status = "PASS" if passed else "FAIL"
    _ACCEPTANCE_LINES[criterion] = f"criterion {criterion}: {status} - {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[criterion])
