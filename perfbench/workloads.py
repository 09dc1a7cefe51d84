"""The three workloads: seeded inputs, one op each, and the checks on its output.

Each workload is a closed loop with one client.  ``items`` is the op
list built from the seed, cycled in order; a run stops only after every
item ran once and at a multiple of ``cycle`` ops, so every run holds
whole rotations of the mix and the failing items depend on the seed
alone.  ``call`` runs one
op against barlab and is what the latency covers; ``check`` compares its
output with a result the benchmark derives on its own and returns an
``Outcome``.  An op *fails* on a raised error, an inconsistent or wrong
output, or a nonzero CLI exit; it is *wrong* (the run is not correct)
only when an output contradicts the benchmark's independent result.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, replace

import numpy as np

import barlab
from barlab import cli
from barlab.diagnostics import PERFECT_PLASTICITY, DAMAGE_ONLY
from barlab.errors import ConfigError, NumericalError

M = barlab.DEFAULT_MATERIAL
PRESETS = barlab.PRESET_NAMES
EPS_LIST = (0.1, 0.05, 0.02, 0.01)
SWEEP_EPS = EPS_LIST[:3]

# Sizes per workload; "tiny" only keeps the smoke test short.
SIZES = {
    "full": {
        "classify-population": {"steps": 400, "population": 1024, "knots": [2, 6], "max_abs_wL": 2.0},
        "eps-sweep": {"steps": 1000, "cells": 1024, "eps_list": list(EPS_LIST)},
        "cli-session": {"ini_files": 3, "limit_steps": 4000, "envelope_n": 20000,
                        "eps_steps": 200, "eps_cells": 32, "sweep_steps": 100, "sweep_cells": 16},
    },
    "tiny": {
        "classify-population": {"steps": 400, "population": 16, "knots": [2, 6], "max_abs_wL": 2.0},
        "eps-sweep": {"steps": 40, "cells": 16, "eps_list": list(EPS_LIST)},
        "cli-session": {"ini_files": 3, "limit_steps": 200, "envelope_n": 200,
                        "eps_steps": 20, "eps_cells": 8, "sweep_steps": 20, "sweep_cells": 8},
    },
}

_PROGRAM_ERRORS = (ConfigError, NumericalError, ValueError)


@dataclass(frozen=True)
class Outcome:
    failed: bool
    wrong: bool
    kind: str


OK = Outcome(False, False, "ok")


def _error_outcome(exc: BaseException) -> Outcome:
    # barlab's own refusals are failed ops; anything else means the
    # benchmark could not check the output at all.
    return Outcome(True, not isinstance(exc, _PROGRAM_ERRORS), type(exc).__name__)


def random_program(rng: np.random.Generator, knots: tuple[int, int], max_abs: float):
    """Knot times on [0, T] and right-end displacements of a piecewise-linear program."""
    k = int(rng.integers(knots[0], knots[1] + 1))
    inner = np.sort(rng.uniform(0.0, M.T, k - 2))
    times = np.concatenate([[0.0], inner, [M.T]])
    wL = rng.uniform(-max_abs, max_abs, k)
    return times, wL


def path_test(times: np.ndarray, J: np.ndarray, thr: float) -> tuple[bool, float | None]:
    """Independent path test: does ``|J|`` strictly decrease after first exceeding ``thr``?

    Works on the knot polyline of ``|J|`` with the zero crossings of ``J``
    added as nodes, so ``|J|`` is linear between nodes.  Returns the
    damage verdict and the first instant with ``|J| > thr`` (None if never).
    """
    t_nodes, v_nodes = [float(times[0])], [abs(float(J[0]))]
    for a, b, ja, jb in zip(times[:-1], times[1:], J[:-1], J[1:]):
        if ja * jb < 0.0:
            t_nodes.append(float(a + (b - a) * ja / (ja - jb)))
            v_nodes.append(0.0)
        t_nodes.append(float(b))
        v_nodes.append(abs(float(jb)))
    v = np.asarray(v_nodes)
    above = np.flatnonzero(v > thr)
    if above.size == 0:
        return False, None
    k = int(above[0])
    if k == 0:
        t_star, seq = t_nodes[0], v
    else:
        frac = (thr - v[k - 1]) / (v[k] - v[k - 1])
        t_star = t_nodes[k - 1] + frac * (t_nodes[k] - t_nodes[k - 1])
        seq = np.concatenate([[thr], v[k:]])
    running_max = np.maximum.accumulate(seq)
    return bool(np.any(seq[1:] < running_max[:-1])), t_star


class ClassifyPopulation:
    """``cns_classify``, ``run_limit`` on the same grid and ``classifier_consistency`` per random program."""

    name = "classify-population"
    cycle = 1

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        self.sizes = SIZES[size][self.name]
        self.steps = self.sizes["steps"]
        rng = np.random.default_rng([seed, 1])
        knots = tuple(self.sizes["knots"])
        self.items = [random_program(rng, knots, self.sizes["max_abs_wL"])
                      for _ in range(self.sizes["population"])]

    def warm_up(self) -> None:
        for item in self.items[:3]:
            self.call(item)

    def call(self, item):
        times, wL = item
        w = barlab.BoundaryDatum(times=times, w0=np.zeros_like(times), wL=wL)
        cls = barlab.cns_classify(w, M, steps=self.steps)
        traj = barlab.run_limit(M, w, barlab.refined_time_grid(w, self.steps))
        return cls, barlab.classifier_consistency(traj, cls.verdict)

    def check(self, item, res) -> Outcome:
        if isinstance(res, BaseException):
            return _error_outcome(res)
        cls, report = res
        times, J = item
        thr = M.jump_threshold
        damages, t_star = path_test(times, J, thr)
        if cls.verdict != (DAMAGE_ONLY if damages else PERFECT_PLASTICITY):
            return Outcome(True, True, "verdict-mismatch")
        if damages:
            s, t = cls.witness
            js, jt = abs(np.interp(s, times, J)), abs(np.interp(t, times, J))
            tol = 1e-9 * M.T
            if not (t_star - tol <= s < t <= M.T and jt < js and jt > thr):
                return Outcome(True, True, "bad-witness")
        elif cls.witness is not None:
            return Outcome(True, True, "bad-witness")
        if not report.ok:
            return Outcome(True, False, "inconsistent")
        return OK


class EpsSweep:
    """One ``sweep_eps`` call per op over four eps values, rotating over all presets."""

    name = "eps-sweep"
    cycle = len(PRESETS)

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        # The four presets are this workload's whole input space, so the
        # seed changes nothing.  Their order is fixed too: a seeded order
        # changed how glibc reused freed trajectory arrays and moved peak
        # RSS between 70 and 78 MB from one seed to the next.
        self.sizes = SIZES[size][self.name]
        self.items = [(p, barlab.ScenarioConfig(material=M, datum=barlab.preset_datum(p, M),
                                                cells=self.sizes["cells"], steps=self.sizes["steps"],
                                                eps_list=tuple(self.sizes["eps_list"])))
                      for p in PRESETS]

    def warm_up(self) -> None:
        cfg = barlab.ScenarioConfig(material=M, datum=barlab.preset_datum("loading-unloading", M),
                                    cells=8, steps=20, eps_list=EPS_LIST[:2])
        barlab.sweep_eps(cfg)

    def call(self, item):
        return barlab.sweep_eps(item[1])

    def check(self, item, res) -> Outcome:
        if isinstance(res, BaseException):
            return _error_outcome(res)
        devs = np.stack([res.sup_sigma_dev, res.sup_l_dev, res.sup_energy_dev])
        flags = (res.sigma_monotone, res.l_monotone, res.energy_monotone)
        if not np.all(np.isfinite(devs)) or np.any(devs < 0.0):
            return Outcome(True, True, "bad-deviation")
        if tuple(bool(np.all(np.diff(d) < 0.0)) for d in devs) != flags:
            return Outcome(True, True, "bad-flags")
        # Below the threshold both models are the same elastic bar, so the
        # deviations vanish and cannot decrease strictly.
        if item[0] == "constant" and np.any(devs > 1e-12):
            return Outcome(True, True, "constant-deviates")
        if not all(flags):
            return Outcome(True, False, "sweep-not-decreasing")
        return OK


def _ini_text(times, wL, steps: int, cells: int) -> str:
    def fmt(v) -> str:
        return ", ".join("%.17g" % x for x in v)
    return (f"[material]\nkappa = {M.kappa!r}\na0 = {M.a0!r}\na1 = {M.a1!r}\nL = {M.L!r}\nT = {M.T!r}\n\n"
            f"[datum]\ntimes = {fmt(times)}\nw0 = {fmt(np.zeros_like(times))}\nwL = {fmt(wL)}\n\n"
            f"[run]\nsteps = {steps}\ncells = {cells}\n")


@dataclass(frozen=True)
class CliOp:
    argv: list[str]
    expect_rc: int               # exit code of the same run in-process
    check: str = "none"          # what else of the output to compare
    expect: object = None


def _sweep_rc(cfg) -> int:
    report = barlab.sweep_eps(cfg)
    return 0 if report.sigma_monotone and report.l_monotone and report.energy_monotone else 3


class CliSession:
    """One ``python -m barlab`` child per op, from a fixed seeded script.

    Every op's expected result is computed in-process at set-up.  With
    ``inproc`` set, each op calls ``cli.main(argv)`` in this process
    instead of a child, which is how the traced run sees the layers
    below the CLI.
    """

    name = "cli-session"

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        self.sizes = sz = SIZES[size][self.name]
        self.inproc = False
        rng = np.random.default_rng([seed, 3])
        os.makedirs(workdir, exist_ok=True)
        inis = []
        for i in range(sz["ini_files"]):
            path = os.path.join(workdir, f"program{i}.ini")
            times, wL = random_program(rng, (2, 6), 2.0)
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(_ini_text(times, wL, steps=400, cells=64))
            inis.append(path)

        def out(name: str) -> str:
            return os.path.join(workdir, name)

        def pick(names) -> str:
            return names[int(rng.integers(len(names)))]

        def classify(argv, cfg) -> CliOp:
            verdict = barlab.cns_classify(cfg.datum, cfg.material, steps=cfg.steps).verdict
            return CliOp(argv, 0, "verdict", verdict)

        def sweep(p: str, name: str) -> CliOp:
            cfg = replace(barlab.preset(p), steps=sz["sweep_steps"], cells=sz["sweep_cells"],
                          eps_list=SWEEP_EPS)
            return CliOp(["sweep-eps", "--preset", p, "--steps", str(cfg.steps), "--cells", str(cfg.cells),
                          "--eps-list", ",".join(map(repr, SWEEP_EPS)), "--out", out(name)],
                         _sweep_rc(cfg))

        damaging = [p for p in PRESETS if p != "constant"]
        script = [classify(["classify", "--preset", p], barlab.preset(p)) for p in PRESETS]
        # Seven of the thirteen ops are classify calls, so the median op is
        # one of them rather than the boundary between two kinds of op.
        script += [classify(["classify", "--config", ini], barlab.parse_config(ini)) for ini in inis]
        limit_cfg = replace(barlab.parse_config(inis[0]), steps=sz["limit_steps"])
        limit = barlab.run_scenario_limit(limit_cfg)
        eps_preset = pick(damaging)
        eps_cfg = replace(barlab.preset(eps_preset), steps=sz["eps_steps"], cells=sz["eps_cells"])
        script += [
            CliOp(["simulate-limit", "--config", inis[0], "--steps", str(limit_cfg.steps),
                   "--out", out("limit.csv")], 0, "limit-csv",
                  (limit.times.size, float(limit.sigma[-1]))),
            CliOp(["emit-figures", "--preset", pick(PRESETS), "--out", out("figures")], 0, "figures"),
            CliOp(["envelope-table", "--n", str(sz["envelope_n"]), "--K", repr(float(rng.uniform(1.0, 3.0))),
                   "--out", out("envelope.csv")], 0, "rows", sz["envelope_n"]),
            CliOp(["simulate-eps", "--preset", eps_preset, "--eps", "0.05",
                   "--steps", str(eps_cfg.steps), "--cells", str(eps_cfg.cells)], 0, "eps-sigma",
                  float(barlab.run_scenario_eps(eps_cfg, 0.05).sigma[-1])),
            sweep("constant", "sweep-constant"),
            sweep(pick(damaging), "sweep"),
        ]
        self.items = [script[i] for i in rng.permutation(len(script))]
        self.cycle = len(self.items)

    def warm_up(self) -> None:
        self._child(["preset-list"])

    def _child(self, argv: list[str]) -> tuple[int, str]:
        proc = subprocess.run([sys.executable, "-m", "barlab", *argv], capture_output=True,
                              text=True, timeout=120, check=False)
        return proc.returncode, proc.stdout

    def call(self, op: CliOp) -> tuple[int, str]:
        if not self.inproc:
            return self._child(op.argv)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(op.argv)
        return rc, buf.getvalue()

    def check(self, op: CliOp, res) -> Outcome:
        if isinstance(res, BaseException):
            return _error_outcome(res)
        rc, stdout = res
        failed = rc != 0
        if rc != op.expect_rc:
            return Outcome(True, True, f"exit-{rc}")
        if not self._output_matches(op, stdout):
            return Outcome(True, True, f"{op.argv[0]}-output")
        return Outcome(failed, False, f"exit-{rc}" if failed else "ok")

    def _output_matches(self, op: CliOp, stdout: str) -> bool:
        if op.check == "verdict":
            return json.loads(stdout)["verdict"] == op.expect
        if op.check == "limit-csv":
            rows, sigma_T = op.expect
            with open(op.argv[op.argv.index("--out") + 1], encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            return len(lines) == rows + 1 and float(lines[-1].split(",")[2]) == sigma_T
        if op.check == "figures":
            return len(os.listdir(op.argv[op.argv.index("--out") + 1])) == 5
        if op.check == "rows":
            with open(op.argv[op.argv.index("--out") + 1], encoding="utf-8") as fh:
                return sum(1 for _ in fh) == op.expect + 1
        if op.check == "eps-sigma":
            line = next(ln for ln in stdout.splitlines() if ln.startswith("sigma(T)"))
            return math.isclose(float(line.split("=")[1]), op.expect, rel_tol=1e-11, abs_tol=1e-300)
        return True


WORKLOADS = {w.name: w for w in (ClassifyPopulation, EpsSweep, CliSession)}


def probe(workdir: str) -> None:
    """One fixed-size call into every layer, so each layer is measured on every workload."""
    lu = barlab.preset_datum("loading-unloading", M)
    grid = barlab.refined_time_grid(lu, 400)
    two_well = barlab.TwoWellParams(a=0.1, b=1.0, K=2.0)
    xi = np.linspace(0.0, 6.0, 1_000_000)
    barlab.raw_energy(two_well, xi)
    barlab.convex_envelope(two_well, xi)
    barlab.optimal_theta(two_well, xi)
    cls = barlab.cns_classify(lu, M, steps=400)
    traj = barlab.run_limit(M, lu, grid)
    barlab.residual_series(traj)
    barlab.classifier_consistency(traj, cls.verdict)
    barlab.run_eps(M, 0.05, 64, lu, grid)
    cfg = barlab.ScenarioConfig(material=M, datum=lu, cells=16, steps=100, eps_list=EPS_LIST[:2])
    barlab.sweep_eps(cfg)
    os.makedirs(workdir, exist_ok=True)
    csv_path = os.path.join(workdir, "probe.csv")
    barlab.write_csv(csv_path, ("t", "sigma"), (traj.times, traj.sigma))
    ini = os.path.join(workdir, "probe.ini")
    with open(ini, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_ini_text(lu.times, lu.wL, steps=400, cells=64))
    barlab.parse_config(ini)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["classify", "--preset", "loading-unloading"])
