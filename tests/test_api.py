import ast
import importlib
import inspect
import pathlib
import re
import sys

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


def _raised_names(tree: ast.AST):
    # The exception class each raise statement names, as `raise E(...)`, `raise E` or `raise mod.E(...)`.
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)


def test_numerical_error_has_one_source():
    # Every NumericalError is a located refusal of errors._guard: no other module raises it.
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "barlab"
    raisers = [path.name for path in sorted(src.glob("*.py"))
               if "NumericalError" in _raised_names(ast.parse(path.read_text(encoding="utf-8")))]
    assert raisers == ["errors.py"]


# Python-level numpy wrappers that dispatch to a ufunc or an array method, through Python frames of about 1-3 us each.
NUMPY_WRAPPERS = {"diff", "cumsum", "clip", "any", "max", "sum", "flatnonzero", "argmax", "searchsorted"}


def test_the_classify_path_calls_no_numpy_wrapper():
    # The modules of a classify op call the ufunc or the array method that computes the same bits.
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "barlab"
    calls = [f"{name}:{node.lineno} np.{node.func.attr}"
             for name in ("loading.py", "limit_evolution.py", "diagnostics.py")
             for node in ast.walk(ast.parse((src / name).read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
             and node.func.attr in NUMPY_WRAPPERS]
    assert calls == []


def _public_codes() -> set:
    # Code objects of every function in a module's __all__ and of the public
    # methods of its classes: what perfbench's tracer can wrap and time.
    codes = set()
    for name in MODULES:
        mod = importlib.import_module(name)
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj):
                codes.add(obj.__code__)
            elif inspect.isclass(obj):
                codes.update(v.__code__ for k, v in vars(obj).items()
                             if inspect.isfunction(v) and not k.startswith("_"))
    return codes


def _calls(fn, counted) -> int:
    # The profiler's events for which counted(frame, event) holds while fn runs.
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if counted(frame, event):
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


def _public_calls(fn) -> int:
    codes = _public_codes()
    return _calls(fn, lambda frame, event: event == "call" and frame.f_code in codes)


@pytest.mark.parametrize("entry", ["run_limit", "cns_classify"])
def test_public_calls_do_not_grow_with_the_step_count(entry):
    # A public function called once per time step puts a traced span on every
    # step, so the tracer would time its own overhead instead of the layer.
    import barlab

    m = barlab.DEFAULT_MATERIAL
    w = barlab.preset_datum("loading-unloading", m)
    runs = {
        "run_limit": lambda steps: barlab.run_limit(m, w, barlab.refined_time_grid(w, steps)),
        "cns_classify": lambda steps: barlab.cns_classify(w, m, steps=steps),
    }
    counts = [_public_calls(lambda: runs[entry](steps)) for steps in (40, 400)]
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("entry", ["run_limit", "cns_classify", "classifier_consistency",
                                   "run_eps", "sweep_eps"])
def test_no_call_is_made_per_step(entry):
    # The time loops are a comparison or an array formula per step; any call in
    # them, a builtin such as max included, costs more than the step itself.
    import barlab

    m = barlab.DEFAULT_MATERIAL
    w = barlab.preset_datum("loading-unloading", m)

    def limit(steps):
        return barlab.run_limit(m, w, barlab.refined_time_grid(w, steps))

    runs = {
        "run_limit": limit,
        "cns_classify": lambda steps: barlab.cns_classify(w, m, steps=steps),
        "classifier_consistency": lambda steps: barlab.classifier_consistency(
            limit(steps), barlab.DAMAGE_ONLY),
        "run_eps": lambda steps: barlab.run_eps(m, 0.1, 8, w, barlab.refined_time_grid(w, steps)),
        "sweep_eps": lambda steps: barlab.sweep_eps(barlab.ScenarioConfig(
            material=m, datum=w, cells=8, steps=steps, eps_list=(0.1, 0.05))),
    }
    runs[entry](40)  # the package namespace binds its names on first use
    # Every call the profiler sees, Python functions and builtins alike.
    counts = [_calls(lambda: runs[entry](steps), lambda frame, event: event in ("call", "c_call"))
              for steps in (40, 400)]
    assert counts[0] == counts[1] > 0
