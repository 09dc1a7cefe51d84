"""Command-line front end.

Exit codes: 0 success, 1 a reader that closed standard output early
(nothing is printed), 2 rejected input (any ``ValueError``, ``ConfigError`` included)
and any path that cannot be read or written (any ``OSError``), 3 numerical failures
(including a vanishing-regularization sweep whose deviations fail to
decrease monotonically).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .diagnostics import cns_classify, stress_saturated
from .envelope import (TwoWellParams, _frozen_cell, convex_envelope, envelope_slope_bounds,
                       optimal_theta, raw_energy)
from .errors import ConfigError, NumericalError
from .loading import threshold_crossing
from .scenarios import (PRESET_NAMES, ScenarioConfig, _PRESETS, _csv_lines, _open_out,
                        _parse_float_list, emit_figures, parse_config, preset,
                        run_scenario_eps, run_scenario_limit, sweep_eps,
                        write_csv)

__all__ = ["main"]

def _add_common(sp: argparse.ArgumentParser, out_help: str, cells: bool = False) -> None:
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--config", metavar="FILE", help="INI parameter file")
    group.add_argument("--preset", choices=PRESET_NAMES, help="built-in loading program")
    sp.add_argument("--steps", type=int, default=None,
                    help=f"time steps (default {ScenarioConfig.steps})")
    if cells:
        sp.add_argument("--cells", type=int, default=None,
                        help=f"spatial cells (default {ScenarioConfig.cells})")
    sp.add_argument("--out", default=None, help=out_help)


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    cfg = parse_config(args.config) if args.config else preset(args.preset or "monotone")
    given = {k: v for k in ("steps", "cells") if (v := getattr(args, k, None)) is not None}
    return replace(cfg, **given)


def _cmd_simulate_limit(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    traj = run_scenario_limit(cfg)
    m = cfg.material
    print(f"horizon T = {traj.times[-1]:g}, steps = {traj.times.size - 1}")
    print(f"sigma(T) = {traj.sigma[-1]:.12g}")
    print(f"l(T)     = {traj.l[-1]:.12g}")
    print(f"E(T)     = {traj.E_closed[-1]:.12g}")
    print(f"t0 = {traj.t0:.12g}, "
          f"t0* = {threshold_crossing(cfg.datum, m.jump_threshold):.12g}")
    if args.out:
        e = traj.sigma / m.a1
        t0_flag = (traj.l == 0.0).astype(float)
        saturated = stress_saturated(traj).astype(float)
        write_csv(args.out,
                  ("t", "J", "sigma", "l", "E_closed", "E_integrated",
                   "e", "p_total", "t0_flag", "saturated"),
                  (traj.times, traj.J, traj.sigma, traj.l,
                   traj.E_closed, traj.E_integrated, e, traj.p,
                   t0_flag, saturated))
        print(f"wrote {args.out}")
    return 0


def _cmd_simulate_eps(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    traj = run_scenario_eps(cfg, args.eps)
    print(f"epsilon = {traj.epsilon:g}, cells = {cfg.cells}, "
          f"steps = {traj.times.size - 1}")
    print(f"sigma(T)  = {traj.sigma[-1]:.12g}")
    print(f"l_eps(T)  = {traj.l_eps[-1]:.12g}")
    print(f"energy(T) = {traj.energy[-1]:.12g}")
    print(f"max |energy balance residual| = {np.max(np.abs(traj.eb_residual)):.3e}")
    if args.out:
        write_csv(args.out,
                  ("t", "J", "sigma", "Theta_mean", "l_eps", "energy",
                   "work_cum", "eb_residual"),
                  (traj.times, traj.J, traj.sigma, traj.theta[:, 0],
                   traj.l_eps, traj.energy, traj.work_cum, traj.eb_residual))
        print(f"wrote {args.out}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    result = cns_classify(cfg.datum, cfg.material, steps=cfg.steps)
    payload = {
        "verdict": result.verdict,
        "witness_pair": list(result.witness) if result.witness is not None else None,
        "t0": result.t0,
        "t0_star": result.t0_star,
        "max_eb_residual": result.max_eb_residual,
        "flow_rule_violations": result.flow_rule_violations,
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        with _open_out(args.out) as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_sweep_eps(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if args.eps_list is not None:
        cfg = replace(cfg, eps_list=_parse_float_list("--eps-list", args.eps_list))
    report = sweep_eps(cfg)
    # The plateau stress of each eps, read off the cells at rest: the load does not enter it.
    plateaus = _frozen_cell(cfg.material, report.eps, 0.0, 0.0).s_plateau
    print(f"{'eps':>10} {'plateau':>14} {'sup|dsigma|':>14} {'sup|dl|':>14} {'sup|dE|':>14}")
    for e, plateau, ds, dl, de in zip(report.eps, plateaus, report.sup_sigma_dev,
                                      report.sup_l_dev, report.sup_energy_dev):
        print(f"{e:>10g} {plateau:>14.6e} {ds:>14.6e} {dl:>14.6e} {de:>14.6e}")
    if len(report.eps) > 1:
        eps = np.asarray(report.eps)
        h = np.log(eps[:-1] / eps[1:])
        # Deviations that vanish (a run that never damages) give 0/0: print nan.
        with np.errstate(divide="ignore", invalid="ignore"):
            rs = np.log(report.sup_sigma_dev[:-1] / report.sup_sigma_dev[1:]) / h
            rl = np.log(report.sup_l_dev[:-1] / report.sup_l_dev[1:]) / h
        print("observed rates between consecutive eps:")
        for e1, e2, r_s, r_l in zip(eps[:-1], eps[1:], rs, rl):
            print(f"  {e1:g} -> {e2:g}: sigma {r_s:.2f}, l {r_l:.2f}")
    flags = (report.sigma_monotone, report.l_monotone, report.energy_monotone)
    print(f"monotone decrease: sigma={flags[0]} l={flags[1]} energy={flags[2]}")
    if args.out:
        path = os.path.join(args.out, "eps_sweep.csv")
        write_csv(path, ("eps", "sup_sigma_dev", "sup_l_dev", "sup_energy_dev"),
                  (report.eps, report.sup_sigma_dev, report.sup_l_dev,
                   report.sup_energy_dev))
        print(f"wrote {path}")
    if not all(flags):
        print("error: sweep deviations do not decrease monotonically", file=sys.stderr)
        return 3
    return 0


def _cmd_emit_figures(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if not args.out:
        raise ConfigError("emit-figures needs --out DIR")
    for path in emit_figures(cfg, args.out):
        print(f"wrote {path}")
    return 0


def _cmd_envelope_table(args: argparse.Namespace) -> int:
    p = TwoWellParams(a=args.a, b=args.b, K=args.K)
    if not (np.isfinite(args.xi_min) and np.isfinite(args.xi_max)):
        raise ConfigError(f"need finite xi-min and xi-max, got {args.xi_min!r}, {args.xi_max!r}")
    if args.n < 2 or args.xi_max <= args.xi_min:
        raise ConfigError("need n >= 2 and xi-min < xi-max")
    xi = np.linspace(args.xi_min, args.xi_max, args.n)
    xi1, xi2, slope = envelope_slope_bounds(p)
    cols = (xi, raw_energy(p, xi), convex_envelope(p, xi), optimal_theta(p, xi))
    header = ("xi", "raw", "envelope", "theta_star")
    if args.out:
        write_csv(args.out, header, cols)
        print(f"# kinks: xi1 = {xi1!r}, xi2 = {xi2!r}; affine slope = {slope!r}")
        print(f"wrote {args.out}")
    else:
        sys.stdout.writelines(_csv_lines(header, cols))
    return 0


def _cmd_preset_list(args: argparse.Namespace) -> int:
    for name, blurb in _PRESETS.items():
        print(f"{name:18s} {blurb}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barlab",
        description="Quasi-static damage of a 1D bar, its effective threshold "
                    "model, and a plasticity-vs-damage classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate-limit", help="run the effective threshold model")
    _add_common(sp, out_help="CSV file for the trajectory")
    sp.set_defaults(func=_cmd_simulate_limit)

    sp = sub.add_parser("simulate-eps", help="run the regularized bar model")
    _add_common(sp, out_help="CSV file for the trajectory", cells=True)
    sp.add_argument("--eps", type=float, required=True, help="regularization parameter")
    sp.set_defaults(func=_cmd_simulate_eps)

    sp = sub.add_parser("classify", help="classify the loading path, JSON verdict")
    _add_common(sp, out_help="JSON file for the verdict")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("sweep-eps", help="compare regularized runs against the limit")
    _add_common(sp, out_help="directory for the sweep CSV", cells=True)
    sp.add_argument("--eps-list", metavar="E1,E2,...", default=None,
                    help="strictly decreasing epsilon values")
    sp.set_defaults(func=_cmd_sweep_eps)

    sp = sub.add_parser("emit-figures", help="write plot data for one scenario")
    _add_common(sp, out_help="directory for the figure CSVs")
    sp.set_defaults(func=_cmd_emit_figures)

    sp = sub.add_parser("envelope-table", help="tabulate the two-well density and its envelope")
    sp.add_argument("--a", type=float, default=0.1, help="weak-well modulus")
    sp.add_argument("--b", type=float, default=1.0, help="strong-well modulus")
    sp.add_argument("--K", type=float, default=2.0, help="weak-well offset")
    sp.add_argument("--xi-min", dest="xi_min", type=float, default=0.0)
    sp.add_argument("--xi-max", dest="xi_max", type=float, default=6.0)
    sp.add_argument("--n", type=int, default=121, help="number of strain samples")
    sp.add_argument("--out", default=None, help="CSV file (default: stdout)")
    sp.set_defaults(func=_cmd_envelope_table)

    sp = sub.add_parser("preset-list", help="list built-in loading programs")
    sp.set_defaults(func=_cmd_preset_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early: send what is still buffered nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
