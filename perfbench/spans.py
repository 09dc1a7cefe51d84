"""Span recorder that wraps barlab's public functions from outside.

Every public function of a layer module is replaced by a wrapper that
records one span (name, start, end, parent, op) per call.  barlab's
modules import each other by name, so the wrapper is installed in every
module namespace that binds the original function, not only in the
defining module.  Aggregates (calls, inclusive and self time) are kept
for every span; the raw span log is kept in memory up to a cap and
written out when the run ends.
"""

from __future__ import annotations

import cProfile
import importlib
import inspect
import io
import os
import pstats
import time
from array import array

# Layers in the order the metrics list them; each is a module of barlab.
LAYERS = ("envelope", "loading", "limit_evolution", "eps_evolution",
          "diagnostics", "scenarios", "cli")

# Public methods that do per-call work but live on a class, not a module.
_METHODS = {"loading": ("BoundaryDatum", ("jump", "trace0", "traceL"))}


class SpanRecorder:
    """Spans kept in memory: per-name aggregates for all, raw rows up to ``cap``."""

    def __init__(self, cap: int = 50_000) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.incl_ns: list[int] = []
        self.self_ns: list[int] = []
        self.cap = cap
        self.total = 0
        self.op = -1
        # Raw log columns: span id, parent id, name id, op index, start, end.
        self._rows = [array("q") for _ in range(6)]
        # Open spans: [span id, name id, start ns, child ns].
        self._stack: list[list[int]] = []
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl_ns.append(0)
            self.self_ns.append(0)
        return idx

    def enter(self, nid: int) -> None:
        self._stack.append([self.total, nid, time.perf_counter_ns(), 0])
        self.total += 1

    def exit(self) -> None:
        end = time.perf_counter_ns()
        sid, nid, start, child = self._stack.pop()
        dur = end - start
        self.calls[nid] += 1
        self.incl_ns[nid] += dur
        self.self_ns[nid] += dur - child
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[3] += dur
            parent = top[0]
        if sid < self.cap:
            for col, v in zip(self._rows, (sid, parent, nid, self.op, start, end)):
                col.append(v)

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def summary(self) -> dict[str, dict[str, float]]:
        return {n: {"calls": self.calls[i], "incl_s": self.incl_ns[i] * 1e-9,
                    "self_s": self.self_ns[i] * 1e-9}
                for i, n in enumerate(self.names)}

    def write(self, path: str) -> int:
        """Write the raw span log as CSV; returns the number of rows written."""
        ids, parents, nids, ops, starts, ends = self._rows
        t0 = starts[0] if starts else 0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,op,start_us,end_us\n")
            for i in range(len(ids)):
                fh.write(f"{ids[i]},{parents[i]},{self.names[nids[i]]},{ops[i]},"
                         f"{(starts[i] - t0) / 1e3:.3f},{(ends[i] - t0) / 1e3:.3f}\n")
        return len(ids)


class _Span:
    __slots__ = ("rec", "nid")

    def __init__(self, rec: SpanRecorder, nid: int) -> None:
        self.rec, self.nid = rec, nid

    def __enter__(self) -> None:
        self.rec.enter(self.nid)

    def __exit__(self, *exc) -> None:
        self.rec.exit()


def _wrap(rec: SpanRecorder, name: str, fn, hook=None):
    nid = rec.name_id(name)
    enter, exit_ = rec.enter, rec.exit

    if hook is None:
        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
    else:
        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_()
            hook(rec, args, kwargs, out)
            return out
    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    return wrapper


def _hook_run_limit(rec, args, kwargs, traj) -> None:
    rec.count("run_limit.steps", traj.times.size)


def _hook_run_eps(rec, args, kwargs, traj) -> None:
    rec.count("run_eps.cell_steps", traj.theta.size)
    nbytes = sum(v.nbytes for v in vars(traj).values() if hasattr(v, "nbytes"))
    rec.counters["run_eps.traj_bytes_max"] = max(
        rec.counters.get("run_eps.traj_bytes_max", 0.0), float(nbytes))


def _hook_write_csv(rec, args, kwargs, out) -> None:
    path = args[0] if args else kwargs["path"]
    rec.count("write_csv.bytes", os.path.getsize(path))


_HOOKS = {
    "limit_evolution.run_limit": _hook_run_limit,
    "eps_evolution.run_eps": _hook_run_eps,
    "scenarios.write_csv": _hook_write_csv,
}


class Instrumentation:
    """Installs span wrappers on barlab's public functions; ``restore`` undoes it."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        pkg = importlib.import_module("barlab")
        modules = {layer: importlib.import_module(f"barlab.{layer}") for layer in LAYERS}
        namespaces = [pkg, *modules.values()]
        for layer, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = _wrap(self.rec, name, fn, _HOOKS.get(name))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._set(ns, key, wrapper)
            cls_name, methods = _METHODS.get(layer, (None, ()))
            for meth in methods:
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._set(cls, meth, _wrap(self.rec, f"{layer}.{cls_name}.{meth}", fn))

    def _set(self, ns, key: str, value) -> None:
        self._undo.append((ns, key, getattr(ns, key)))
        setattr(ns, key, value)

    def restore(self) -> None:
        for ns, key, value in reversed(self._undo):
            setattr(ns, key, value)
        self._undo.clear()


def layer_metrics(rec: SpanRecorder, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the recorder, normalised per workload op."""
    summ = rec.summary()
    c = rec.counters

    def fn(name: str, key: str) -> float:
        return summ.get(name, {}).get(key, 0.0)

    def layer(prefix: str, key: str) -> float:
        return sum(v[key] for n, v in summ.items() if n.split(".")[0] == prefix)

    per = 1.0 / ops
    run_limit_steps = c.get("run_limit.steps", 0.0)
    cell_steps = c.get("run_eps.cell_steps", 0.0)
    out = {
        "limit_evolution.run_limit.calls": (fn("limit_evolution.run_limit", "calls") * per, "count/op"),
        "limit_evolution.run_limit.self_s": (fn("limit_evolution.run_limit", "self_s") * per, "s/op"),
        "limit_evolution.run_limit.us_per_step": (
            fn("limit_evolution.run_limit", "incl_s") * 1e6 / run_limit_steps, "us"),
        "limit_evolution.self_s": (layer("limit_evolution", "self_s") * per, "s/op"),
        "loading.calls": (layer("loading", "calls") * per, "count/op"),
        "loading.self_s": (layer("loading", "self_s") * per, "s/op"),
        "diagnostics.cns_classify.self_s": (fn("diagnostics.cns_classify", "self_s") * per, "s/op"),
        "diagnostics.classifier_consistency.self_s": (
            fn("diagnostics.classifier_consistency", "self_s") * per, "s/op"),
        "diagnostics.residual_series.self_s": (fn("diagnostics.residual_series", "self_s") * per, "s/op"),
        "diagnostics.self_s": (layer("diagnostics", "self_s") * per, "s/op"),
        "eps_evolution.run_eps.calls": (fn("eps_evolution.run_eps", "calls") * per, "count/op"),
        "eps_evolution.run_eps.self_s": (fn("eps_evolution.run_eps", "self_s") * per, "s/op"),
        "eps_evolution.run_eps.ns_per_cell_step": (
            fn("eps_evolution.run_eps", "incl_s") * 1e9 / cell_steps, "ns"),
        "eps_evolution.incremental_step.calls": (
            fn("eps_evolution.incremental_step", "calls") * per, "count/op"),
        "eps_evolution.incremental_step.self_s": (
            fn("eps_evolution.incremental_step", "self_s") * per, "s/op"),
        "eps_evolution.energy.self_s": (
            (fn("eps_evolution.total_energy", "self_s") + fn("eps_evolution.damage_mass", "self_s")) * per,
            "s/op"),
        "eps_evolution.traj_mb": (c.get("run_eps.traj_bytes_max", 0.0) / 2**20, "MB"),
        "eps_evolution.self_s": (layer("eps_evolution", "self_s") * per, "s/op"),
        "scenarios.sweep_eps.self_s": (fn("scenarios.sweep_eps", "self_s") * per, "s/op"),
        "scenarios.write_csv.self_s": (fn("scenarios.write_csv", "self_s") * per, "s/op"),
        "scenarios.write_csv.bytes": (c.get("write_csv.bytes", 0.0) * per, "B/op"),
        "scenarios.parse_config.self_s": (fn("scenarios.parse_config", "self_s") * per, "s/op"),
        "scenarios.self_s": (layer("scenarios", "self_s") * per, "s/op"),
        "envelope.calls": (layer("envelope", "calls") * per, "count/op"),
        "envelope.self_s": (layer("envelope", "self_s") * per, "s/op"),
        "cli.main.self_s": (fn("cli.main", "self_s") * per, "s/op"),
    }
    return out


def profile_top(fn, limit: int = 10) -> list[str]:
    """cProfile one call of ``fn`` and return the top ``limit`` rows by internal time."""
    prof = cProfile.Profile()
    prof.runcall(fn)
    buf = io.StringIO()
    stats = pstats.Stats(prof, stream=buf)
    stats.sort_stats("tottime").print_stats(limit)
    lines = [ln.rstrip() for ln in buf.getvalue().splitlines() if ln.strip()]
    start = next((i for i, ln in enumerate(lines) if ln.lstrip().startswith("ncalls")), 0)
    return lines[start:start + limit + 1]
