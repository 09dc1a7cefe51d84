from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import barlab

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
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


def assert_fields_equal(got, want, names=None) -> None:
    """``np.array_equal`` on the named fields of two run records; by default every field but the material ``m``."""
    for name in names or [f.name for f in fields(want) if f.name != "m"]:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


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
