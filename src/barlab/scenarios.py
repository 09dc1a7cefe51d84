"""Named loading programs, INI parameter files, sweeps, and figure data.

A scenario bundles a material, a boundary displacement program, and the
discretization knobs into one config object that can round-trip through
an INI file without losing a bit (floats are written with 17 significant
digits).  The module also provides the vanishing-regularization sweep
and plain-CSV emission for plotting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .envelope import MaterialParams
from .errors import ConfigError
from .eps_evolution import EpsTrajectory, run_eps
from .limit_evolution import LimitTrajectory, run_limit
from .loading import BoundaryDatum, check_horizon, refined_time_grid

__all__ = [
    "DEFAULT_MATERIAL",
    "PRESET_NAMES",
    "preset_datum",
    "preset",
    "ScenarioConfig",
    "parse_config",
    "write_config",
    "run_scenario_limit",
    "run_scenario_eps",
    "SweepReport",
    "sweep_eps",
    "textbook_plasticity",
    "textbook_damage",
    "emit_figures",
    "write_csv",
]

DEFAULT_MATERIAL = MaterialParams(kappa=0.5, a0=1.0, a1=2.0, L=1.0, T=2.0)

PRESET_NAMES = ("monotone", "constant", "loading-unloading", "high-unload")


def preset_datum(name: str, m: MaterialParams) -> BoundaryDatum:
    """Built-in boundary displacement programs, scaled to the material."""
    thr = m.jump_threshold
    if name == "monotone":
        return BoundaryDatum(times=[0.0, m.T], w0=[0.0, 0.0], wL=[0.0, m.T])
    if name == "constant":
        level = 0.8 * thr
        return BoundaryDatum(times=[0.0, m.T], w0=[0.0, 0.0], wL=[level, level])
    if name == "loading-unloading":
        # The peak gap must clear the jump threshold, else the triangle never damages.
        peak = m.L * m.T / 2.0
        if peak <= thr:
            raise ConfigError(
                f"loading-unloading preset needs its peak jump L*T/2 = {peak!r} above "
                f"the jump threshold {thr!r} of this material"
            )
        return BoundaryDatum(times=[0.0, m.T / 2.0, m.T],
                             w0=[0.0, 0.0, 0.0],
                             wL=[0.0, peak, 0.0])
    if name == "high-unload":
        return BoundaryDatum(times=[0.0, m.T / 2.0, m.T],
                             w0=[0.0, 0.0, 0.0],
                             wL=[0.0, 2.0 * thr, 1.2 * thr])
    raise ConfigError(f"unknown preset {name!r}; choose from: {', '.join(PRESET_NAMES)}")


def _default_datum() -> BoundaryDatum:
    return preset_datum("monotone", DEFAULT_MATERIAL)


def preset(name: str, material: MaterialParams = DEFAULT_MATERIAL) -> "ScenarioConfig":
    """Fully specified config for a named loading program."""
    return ScenarioConfig(material=material, datum=preset_datum(name, material))


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified run: material, loading, and discretization."""

    material: MaterialParams = DEFAULT_MATERIAL
    datum: BoundaryDatum = field(default_factory=_default_datum)
    cells: int = 64
    steps: int = 400
    eps_list: tuple[float, ...] = ()
    out_dir: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps_list", tuple(float(e) for e in self.eps_list))
        if self.cells < 1:
            raise ConfigError(f"cells must be positive, got {self.cells!r}")
        if self.steps < 1:
            raise ConfigError(f"steps must be positive, got {self.steps!r}")
        try:
            check_horizon(self.datum, self.material.T)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


_KEYS = {
    "material": tuple(f.name for f in fields(MaterialParams)),
    "datum": ("preset", "times", "w0", "wL"),
    "run": ("cells", "steps", "eps_list"),
    "output": ("out_dir",),
}


def _fmt(v: float) -> str:
    return "%.17g" % float(v)


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from exc


def _parse_float_list(section: str, key: str, raw: str) -> list[float]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"[{section}] {key} must be a comma-separated list of numbers")
    return [_parse_float(section, key, p) for p in parts]


def parse_config(path: str | os.PathLike[str]) -> ScenarioConfig:
    """Read a scenario from an INI file; raises ConfigError on any defect."""
    import configparser  # imported here: only INI runs pay for it

    # No interpolation: a '%' in a value is literal.
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case-sensitive: L, T, wL
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!s}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!s}: {exc}") from exc

    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")

    material = DEFAULT_MATERIAL
    if cp.has_section("material"):
        sec = cp["material"]
        values = {k: _parse_float("material", k, sec[k]) for k in sec}
        try:
            material = replace(DEFAULT_MATERIAL, **values)
        except ValueError as exc:
            raise ConfigError(f"invalid [material]: {exc}") from exc

    if cp.has_section("datum"):
        sec = cp["datum"]
        has_preset = "preset" in sec
        has_lists = any(k in sec for k in ("times", "w0", "wL"))
        if has_preset and has_lists:
            raise ConfigError("[datum] takes either preset= or explicit times/w0/wL, not both")
        if has_preset:
            datum = preset_datum(sec["preset"].strip(), material)
        elif has_lists:
            if "times" not in sec or "wL" not in sec:
                raise ConfigError("[datum] explicit form needs at least times= and wL=")
            times = _parse_float_list("datum", "times", sec["times"])
            wL = _parse_float_list("datum", "wL", sec["wL"])
            w0 = (_parse_float_list("datum", "w0", sec["w0"]) if "w0" in sec
                  else [0.0] * len(times))
            try:
                datum = BoundaryDatum(times=times, w0=w0, wL=wL)
            except ValueError as exc:
                raise ConfigError(f"invalid [datum]: {exc}") from exc
        else:
            raise ConfigError("[datum] needs preset= or explicit times/w0/wL")
    else:
        datum = preset_datum("monotone", material)

    run: dict = {}
    if cp.has_section("run"):
        sec = cp["run"]
        for key in ("cells", "steps"):
            if key in sec:
                try:
                    run[key] = int(sec[key])
                except ValueError as exc:
                    raise ConfigError(f"[run] {key} = {sec[key]!r} is not an integer") from exc
        if "eps_list" in sec:
            run["eps_list"] = tuple(_parse_float_list("run", "eps_list", sec["eps_list"]))

    out_dir = None
    if cp.has_section("output"):
        sec = cp["output"]
        if "out_dir" in sec:
            out_dir = sec["out_dir"].strip() or None

    try:
        return ScenarioConfig(material=material, datum=datum, out_dir=out_dir, **run)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def write_config(cfg: ScenarioConfig, path: str | os.PathLike[str]) -> None:
    """Write a scenario as an INI file that parses back to an equal config."""
    import configparser

    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp["material"] = {k: _fmt(getattr(cfg.material, k)) for k in _KEYS["material"]}
    cp["datum"] = {
        "times": ", ".join(_fmt(v) for v in cfg.datum.times),
        "w0": ", ".join(_fmt(v) for v in cfg.datum.w0),
        "wL": ", ".join(_fmt(v) for v in cfg.datum.wL),
    }
    run: dict[str, str] = {"cells": str(cfg.cells), "steps": str(cfg.steps)}
    if cfg.eps_list:
        run["eps_list"] = ", ".join(_fmt(v) for v in cfg.eps_list)
    cp["run"] = run
    if cfg.out_dir is not None:
        cp["output"] = {"out_dir": cfg.out_dir}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        cp.write(fh)


def run_scenario_limit(cfg: ScenarioConfig) -> LimitTrajectory:
    return run_limit(cfg.material, cfg.datum, refined_time_grid(cfg.datum, cfg.steps))


def run_scenario_eps(cfg: ScenarioConfig, epsilon: float) -> EpsTrajectory:
    return run_eps(cfg.material, epsilon, cfg.cells, cfg.datum,
                   refined_time_grid(cfg.datum, cfg.steps))


@dataclass(frozen=True)
class SweepReport:
    """Sup-norm deviations of the regularized runs from the limit run."""

    eps: tuple[float, ...]
    sup_sigma_dev: np.ndarray
    sup_l_dev: np.ndarray
    sup_energy_dev: np.ndarray

    @property
    def sigma_monotone(self) -> bool:
        return bool(np.all(np.diff(self.sup_sigma_dev) < 0.0))

    @property
    def l_monotone(self) -> bool:
        return bool(np.all(np.diff(self.sup_l_dev) < 0.0))

    @property
    def energy_monotone(self) -> bool:
        return bool(np.all(np.diff(self.sup_energy_dev) < 0.0))


def sweep_eps(cfg: ScenarioConfig) -> SweepReport:
    """Run every epsilon in the config against the limit model on one grid."""
    if not cfg.eps_list:
        raise ConfigError("eps sweep needs a non-empty eps_list")
    eps = cfg.eps_list
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ConfigError(f"eps_list must be strictly decreasing, got {eps!r}")
    grid = refined_time_grid(cfg.datum, cfg.steps)
    ref = run_limit(cfg.material, cfg.datum, grid)
    sig, ell, en = [], [], []
    for e in eps:
        traj = run_eps(cfg.material, e, cfg.cells, cfg.datum, grid)
        sig.append(float(np.max(np.abs(traj.sigma - ref.sigma))))
        ell.append(float(np.max(np.abs(traj.l_eps - ref.l))))
        en.append(float(np.max(np.abs(traj.energy - ref.E_closed))))
    return SweepReport(eps=eps,
                       sup_sigma_dev=np.asarray(sig),
                       sup_l_dev=np.asarray(ell),
                       sup_energy_dev=np.asarray(en))


def textbook_plasticity(m: MaterialParams, J: np.ndarray) -> np.ndarray:
    """Elastic perfectly-plastic stress response to the gap history, for comparison plots."""
    J = np.asarray(J, dtype=float)
    s = m.yield_stress
    sigma = np.empty_like(J)
    sigma[0] = np.clip(m.a1 * J[0] / m.L, -s, s)
    for k in range(1, J.size):
        sigma[k] = np.clip(sigma[k - 1] + m.a1 * (J[k] - J[k - 1]) / m.L, -s, s)
    return sigma


def textbook_damage(m: MaterialParams, J: np.ndarray) -> np.ndarray:
    """Secant-unloading damage stress response to the gap history, for comparison plots.

    Elastic below the jump threshold; past it the modulus degrades with
    the largest gap seen so far and unloading heads back to the origin.
    """
    J = np.asarray(J, dtype=float)
    s = m.yield_stress
    thr = m.jump_threshold
    peak = np.maximum.accumulate(np.abs(J))
    # np.where evaluates both branches; the unused one divides by zero at J = 0.
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(peak <= thr, m.a1 * J / m.L, s / np.sqrt(thr * peak) * J)


def write_csv(path: str | os.PathLike[str], header, columns) -> None:
    """Plain CSV with full-precision floats and LF line endings; creates the file's directory."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    cols = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*cols):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def emit_figures(cfg: ScenarioConfig, traj: LimitTrajectory | None = None,
                 out_dir: str | None = None) -> list[str]:
    """Write the standard plot data set for one scenario; returns the paths."""
    out = out_dir or cfg.out_dir
    if not out:
        raise ConfigError("no output directory configured; set [output] out_dir or pass --out")
    if traj is None:
        traj = run_scenario_limit(cfg)
    t, J = traj.times, traj.J
    m = cfg.material
    written: list[str] = []

    def emit(name: str, header, cols) -> None:
        path = os.path.join(out, name)
        write_csv(path, header, cols)
        written.append(path)

    emit("sigma_vs_t.csv", ("t", "sigma"), (t, traj.sigma))
    emit("sigma_vs_J.csv", ("J", "sigma"), (J, traj.sigma))
    emit("l_vs_t.csv", ("t", "l"), (t, traj.l))
    emit("energy_vs_t.csv", ("t", "E_closed", "E_integrated"),
         (t, traj.E_closed, traj.E_integrated))
    emit("comparison.csv", ("t", "J", "sigma_effective", "sigma_plasticity", "sigma_damage"),
         (t, J, traj.sigma, textbook_plasticity(m, J), textbook_damage(m, J)))
    return written
