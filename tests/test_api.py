import importlib
import pathlib
import re

import pytest

# perfbench/spans.py calls getattr on every entry of these lists, so a stale
# entry crashes the traced benchmark runs as well as `from barlab import *`.
MODULES = ("barlab", "barlab.envelope", "barlab.loading", "barlab.limit_evolution",
           "barlab.eps_evolution", "barlab.diagnostics", "barlab.scenarios",
           "barlab.cli", "barlab.errors")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []


def _resolves(pkg, attr: str) -> bool:
    if hasattr(pkg, attr):
        return True
    try:
        importlib.import_module(f"barlab.{attr}")
    except ModuleNotFoundError:
        return False
    return True


def test_names_the_benchmark_and_scripts_reach_resolve_on_the_package():
    # The package re-exports only its public surface; every barlab.X that
    # perfbench/ and scripts/ spell out must still resolve.
    pkg = importlib.import_module("barlab")
    root = pathlib.Path(__file__).resolve().parent.parent
    names = set()
    for path in [*root.glob("perfbench/*.py"), *root.glob("scripts/*.py")]:
        names.update(re.findall(r"barlab\.(\w+)", path.read_text(encoding="utf-8")))
    assert names
    assert sorted(n for n in names if not _resolves(pkg, n)) == []


# Names the package keeps although neither the benchmark nor the scripts spell them.
STANDING_EXTRAS = {"__version__", "ConfigError", "NumericalError", "MaterialParams",
                   "PERFECT_PLASTICITY", "DAMAGE_ONLY"}


def test_every_package_name_is_reached_or_standing():
    # The namespace holds what perfbench/ and scripts/ reach as barlab.X plus the
    # standing extras; a name nothing reaches belongs in its module only.
    pkg = importlib.import_module("barlab")
    root = pathlib.Path(__file__).resolve().parent.parent
    reached = set()
    for path in [*root.glob("perfbench/*.py"), *root.glob("scripts/*.py")]:
        reached.update(re.findall(r"barlab\.(\w+)", path.read_text(encoding="utf-8")))
    assert sorted(set(pkg.__all__) - reached - STANDING_EXTRAS) == []
    assert len(pkg.__all__) == len(set(pkg.__all__))
