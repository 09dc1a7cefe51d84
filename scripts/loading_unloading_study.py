#!/usr/bin/env python3
"""Hysteresis study: drive the bar up and back down and account for the energy.

Runs the loading-unloading program through the effective model, prints
the trajectory at the kink instants, classifies the path, and splits the
terminal energy-balance residual into its two sources (yield dissipation
of the return leg and the remainder ``l (s*^2 - sigma(T)^2)/(2 a0)``).
Optionally writes the standard figure CSVs.
"""

import argparse

import numpy as np

import barlab


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=400, help="time steps")
    ap.add_argument("--eps", type=float, default=0.05,
                    help="regularization scale for the comparison run")
    ap.add_argument("--out", default=None, help="directory for figure CSVs")
    args = ap.parse_args()

    m = barlab.DEFAULT_MATERIAL
    w = barlab.preset_datum("loading-unloading", m)
    grid = barlab.refined_time_grid(w, args.steps)
    traj = barlab.run_limit(m, w, grid)
    # The eps run is homogeneous: its printed columns are the same for any cell count.
    eps_traj = barlab.run_eps(m, args.eps, 1, w, grid)

    print(f"material: kappa={m.kappa:g} a0={m.a0:g} a1={m.a1:g} L={m.L:g} T={m.T:g}")
    print(f"yield stress {m.yield_stress:g}, jump threshold {m.jump_threshold:g}")
    print()
    print(f"{'t':>6} {'J':>8} {'sigma':>10} {'l':>10} {'E':>10} "
          f"{'sigma_eps':>10} {'l_eps':>10}")
    for t in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
        k = int(np.argmin(np.abs(grid - t)))
        print(f"{grid[k]:>6.2f} {traj.J[k]:>8.3f} {traj.sigma[k]:>10.6f} "
              f"{traj.l[k]:>10.6f} {traj.E_closed[k]:>10.6f} "
              f"{eps_traj.sigma[k]:>10.6f} {eps_traj.l_eps[k]:>10.6f}")
    print()

    c = barlab.cns_classify(w, m, steps=args.steps)
    print(f"verdict: {c.verdict}")
    if c.witness is not None:
        s, t = c.witness
        print(f"witness: |J({t:g})| = {abs(w.jump(t)):g} < |J({s:g})| = {abs(w.jump(s)):g}")
    print(f"damage onset t0 = {c.t0:g}, threshold crossing t0* = {c.t0_star:g}")
    print()

    r_T = barlab.residual_series(traj)[-1]
    diss = barlab.yield_dissipation(traj)
    diss_return = diss[-1] - diss[np.searchsorted(traj.times, m.T / 2.0)]
    k_end = traj.times.size - 1
    remainder = traj.l[k_end] * (m.yield_stress**2 - traj.sigma[k_end] ** 2) / (2.0 * m.a0)
    print(f"terminal balance residual R(T)   = {r_T:.6f}")
    print(f"  return-leg yield dissipation   = {diss_return:.6f}")
    print(f"  terminal remainder             = {remainder:.6f}")
    print(f"  sum                            = {diss_return + remainder:.6f}")

    if args.out:
        cfg = barlab.ScenarioConfig(material=m, datum=w, steps=args.steps)
        for path in barlab.emit_figures(cfg, args.out):
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
