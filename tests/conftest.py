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
