import importlib

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
