"""Named loading programs, INI parameter files, sweeps, and figure data.

A scenario bundles a material, a boundary displacement program, and the
discretization knobs into one config object, read from an INI file or
built from a preset; where the results go is the caller's choice.  The
module also provides the vanishing-regularization sweep and plain-CSV
emission for plotting.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from ._catalog import CELLS, PRESET_NAMES, STEPS
from .envelope import MaterialParams
from .errors import ConfigError
from .limit_evolution import LimitTrajectory, run_limit
from .loading import BoundaryDatum, _count, refined_time_grid

if TYPE_CHECKING:
    from .eps_evolution import EpsTrajectory

__all__ = [
    "DEFAULT_MATERIAL",
    "PRESET_NAMES",
    "preset_datum",
    "preset",
    "ScenarioConfig",
    "parse_config",
    "run_scenario_limit",
    "run_scenario_eps",
    "SweepReport",
    "sweep_eps",
    "textbook_plasticity",
    "emit_figures",
    "write_csv",
]

DEFAULT_MATERIAL = MaterialParams(kappa=0.5, a0=1.0, a1=2.0, L=1.0, T=2.0)


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


def preset(name: str, material: MaterialParams = DEFAULT_MATERIAL) -> "ScenarioConfig":
    """Fully specified config for a named loading program."""
    return ScenarioConfig(material=material, datum=preset_datum(name, material))


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified run: material, loading, and discretization."""

    material: MaterialParams = DEFAULT_MATERIAL
    datum: BoundaryDatum | None = None  # None: the monotone program of ``material``
    cells: int = CELLS
    steps: int = STEPS
    eps_list: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        eps = tuple(self.eps_list) if np.iterable(self.eps_list) else None
        if eps is None or not all(isinstance(e, numbers.Real) for e in eps):
            raise ConfigError(f"eps_list must be a sequence of numbers, got {self.eps_list!r}")
        object.__setattr__(self, "eps_list", tuple(float(e) for e in eps))
        if self.datum is None:
            object.__setattr__(self, "datum", preset_datum("monotone", self.material))
        try:
            for name in ("cells", "steps"):
                _count(name, getattr(self, name))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if abs((end := self.datum.duration) - (T := self.material.T)) > 1e-12 * T:
            raise ConfigError(f"loading ends at t={end!r} but the horizon is T={T!r}")


def _parse_float(name: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{name} = {raw!r} is not a number") from exc


def _parse_int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{name} = {raw!r} is not an integer") from exc


def _parse_float_list(name: str, raw: str) -> list[float]:
    """Comma-separated numbers; ``name`` says where they came from (``[run] eps_list``, ``--eps-list``)."""
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{name} must be a comma-separated list of numbers")
    return [_parse_float(name, p) for p in parts]


# Every INI section, every key it takes and the parser of its value.
_KEYS = {
    "material": {f.name: _parse_float for f in fields(MaterialParams)},
    "datum": {"preset": lambda name, raw: raw.strip(), "times": _parse_float_list,
              "w0": _parse_float_list, "wL": _parse_float_list},
    "run": {"cells": _parse_int, "steps": _parse_int, "eps_list": _parse_float_list},
}


def parse_config(path: str | os.PathLike[str]) -> ScenarioConfig:
    """Read a scenario from an INI file; raises ConfigError on any defect."""
    import configparser  # imported here: only INI runs pay for it

    # No interpolation: a '%' in a value is literal.  No default section:
    # [DEFAULT] is an unknown section like any other.
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    cp.optionxform = str  # keys are case-sensitive: L, T, wL
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a byte-order mark is not text of the file
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!s}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!s}: {exc}") from exc

    values: dict[str, dict] = {}
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        values[section] = {}
        for key, raw in cp.items(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            values[section][key] = _KEYS[section][key](f"[{section}] {key}", raw)

    try:
        material = replace(DEFAULT_MATERIAL, **values.get("material", {}))
    except ValueError as exc:
        raise ConfigError(f"invalid [material]: {exc}") from exc

    datum = None
    if "datum" in values:
        sec = values["datum"]
        has_lists = any(k in sec for k in ("times", "w0", "wL"))
        if "preset" in sec and has_lists:
            raise ConfigError("[datum] takes either preset= or explicit times/w0/wL, not both")
        if "preset" in sec:
            datum = preset_datum(sec["preset"], material)
        elif not has_lists:
            raise ConfigError("[datum] needs preset= or explicit times/w0/wL")
        elif "times" not in sec or "wL" not in sec:
            raise ConfigError("[datum] explicit form needs at least times= and wL=")
        else:
            try:
                datum = BoundaryDatum(times=sec["times"], wL=sec["wL"],
                                      w0=sec.get("w0", [0.0] * len(sec["times"])))
            except ValueError as exc:
                raise ConfigError(f"invalid [datum]: {exc}") from exc

    return ScenarioConfig(material=material, datum=datum, **values.get("run", {}))


def run_scenario_limit(cfg: ScenarioConfig) -> LimitTrajectory:
    return run_limit(cfg.material, cfg.datum, refined_time_grid(cfg.datum, cfg.steps))


def run_scenario_eps(cfg: ScenarioConfig, epsilon: float) -> EpsTrajectory:
    # The eps model is imported by the runs that use it, so a limit-model command never loads it.
    from .eps_evolution import run_eps

    return run_eps(cfg.material, epsilon, cfg.cells, cfg.datum,
                   refined_time_grid(cfg.datum, cfg.steps))


def _decreasing(dev: np.ndarray) -> bool:
    # Strict decrease: two equal deviations, two zeros included, fail it.
    return bool(np.all(np.diff(dev) < 0.0))


@dataclass(frozen=True)
class SweepReport:
    """Plateau stress of each eps and sup-norm deviations of the regularized runs from the limit run."""

    eps: tuple[float, ...]
    plateau: np.ndarray
    sup_sigma_dev: np.ndarray
    sup_l_dev: np.ndarray
    sup_energy_dev: np.ndarray

    sigma_monotone = property(lambda self: _decreasing(self.sup_sigma_dev))
    l_monotone = property(lambda self: _decreasing(self.sup_l_dev))
    energy_monotone = property(lambda self: _decreasing(self.sup_energy_dev))


def sweep_eps(cfg: ScenarioConfig) -> SweepReport:
    """Run every epsilon in the config against the limit model, as one scan on the limit run's grid and jump."""
    from .eps_evolution import _scan

    if not cfg.eps_list:
        raise ConfigError("eps sweep needs a non-empty eps_list")
    eps = cfg.eps_list
    if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
        raise ConfigError(f"eps_list must be strictly decreasing, got {eps!r}")
    ref = run_scenario_limit(cfg)
    plateau, _, sigma, _, l_eps, energy, _ = _scan(cfg.material, eps, ref.J, ref.times)
    return SweepReport(eps=eps, plateau=plateau,
                       sup_sigma_dev=np.max(np.abs(sigma - ref.sigma), axis=1),
                       sup_l_dev=np.max(np.abs(l_eps - ref.l), axis=1),
                       sup_energy_dev=np.max(np.abs(energy - ref.E_closed), axis=1))


def textbook_plasticity(m: MaterialParams, J: np.ndarray) -> np.ndarray:
    """Elastic perfectly-plastic stress response ``s* q`` to the gap history, for comparison plots.

    ``q = clip(q + dJ/thr, -1, 1)`` from ``clip(J_0/thr, -1, 1)``, on Python floats: ``a1 dJ/L`` is never formed.
    """
    J, thr = np.asarray(J, dtype=float).tolist(), m.jump_threshold
    q = [min(max(J[0] / thr, -1.0), 1.0)]
    for prev, cur in zip(J, J[1:]):
        q.append(min(max(q[-1] + (cur - prev) / thr, -1.0), 1.0))
    return m.yield_stress * np.array(q)


def _open_out(path: str | os.PathLike[str]):
    # Every output file: missing parent directories are created, text is UTF-8 with LF endings.
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def _csv_lines(header, columns):
    # One line at a time, so a long table is never held as text.
    yield ",".join(header) + "\n"
    for row in zip(*(np.asarray(c) for c in columns)):
        yield ",".join(repr(float(v)) for v in row) + "\n"


def write_csv(path: str | os.PathLike[str], header, columns) -> None:
    """Plain CSV with full-precision floats and LF line endings; creates the file's directory."""
    with _open_out(path) as fh:
        fh.writelines(_csv_lines(header, columns))


def emit_figures(cfg: ScenarioConfig, out_dir: str) -> list[str]:
    """Run the limit model on ``cfg`` and write the standard plot data set into ``out_dir``; returns the paths."""
    traj = run_scenario_limit(cfg)
    t, J = traj.times, traj.J
    m = cfg.material
    written: list[str] = []

    def emit(name: str, header, cols) -> None:
        path = os.path.join(out_dir, name)
        write_csv(path, header, cols)
        written.append(path)

    emit("sigma_vs_t.csv", ("t", "sigma"), (t, traj.sigma))
    emit("sigma_vs_J.csv", ("J", "sigma"), (J, traj.sigma))
    emit("l_vs_t.csv", ("t", "l"), (t, traj.l))
    emit("energy_vs_t.csv", ("t", "E_closed", "E_integrated"),
         (t, traj.E_closed, traj.E_integrated))
    emit("comparison.csv", ("t", "J", "sigma_effective", "sigma_plasticity"),
         (t, J, traj.sigma, textbook_plasticity(m, J)))
    return written
