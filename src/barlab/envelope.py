"""Closed-form energetics of a two-phase elastic bar.

A material point can keep its strong stiffness or trade a volume
fraction ``theta`` of it for a weak phase, paying a cost proportional to
``theta``.  In one dimension laminates are optimal and the mixed
stiffness is the harmonic mean, so the relaxed energy of the two-well
density ``min(K + a*xi**2, b*xi**2)`` is its convex envelope: a strong
quadratic branch, a stress plateau, and a weak quadratic branch.  All
operations here are exact closed forms; no numerical minimization is
involved.

One closed form, the two-phase cell frozen at its largest strain, serves
this envelope and the regularized bar, which reads it at the running
maximum of ``|J|``: damage never heals.

The module also holds the bar-level material record with the two
closed-form numbers attached to it: the yield stress of the effective
model and the largest jump the bar carries elastically.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "TwoWellParams",
    "MaterialParams",
    "raw_energy",
    "convex_envelope",
    "envelope_slope_bounds",
    "optimal_theta",
    "plateau_factor",
]


@dataclass(frozen=True)
class TwoWellParams:
    """Two quadratic wells: damaged branch ``K + a*xi**2``, sound branch ``b*xi**2``.

    It is the cell at eps = 1 of the bar ``a0 = 2a, a1 = 2b, kappa = K, L = 1``, built once here, whose
    checks pass iff finite ``0 < a < b`` (``2a < 2b``) and ``K > 0`` give an envelope floats can hold.
    """

    a: float
    b: float
    K: float

    def __post_init__(self) -> None:
        try:
            cell = MaterialParams(kappa=self.K, a0=2.0 * self.a, a1=2.0 * self.b, L=1.0, T=1.0)
            plateau_factor(cell, 1.0)
        except ValueError as exc:
            raise ValueError(f"need a, b and K with 0 < a < b and K > 0 whose envelope floats can hold "
                             f"(2a, 2b, sqrt(4aK), sqrt(4aK)/(2b), 1/(2b), 4aK/(2b) and 1/(2a) - 1/(2b) "
                             f"finite and > 0), got a={self.a!r}, b={self.b!r}, K={self.K!r}") from exc
        object.__setattr__(self, "_cell", cell)


@dataclass(frozen=True)
class MaterialParams:
    """Bar material: toughness ``kappa``, damaged/sound stiffnesses ``a0 < a1``, length ``L``, and
    ``T``, the horizon of the built-in programs and of a scenario (a run's horizon is its datum's)."""

    kappa: float
    a0: float
    a1: float
    L: float
    T: float

    def __post_init__(self) -> None:
        # Numbers as Python floats, so no numpy scalar reaches the return map; math.isfinite refuses a str below.
        for name in ("kappa", "a0", "a1", "L", "T"):
            value = getattr(self, name)
            object.__setattr__(self, name, float(value) if isinstance(value, numbers.Real) else value)
        # Then each derived unit in the order it is built, so it is read only once its inputs have passed:
        # s*, the compliance L/a1, thr = s* L/a1, the mass unit a0/s* and the energy unit s* thr.
        units = {"L/a1": lambda: self.L / self.a1, "a0/s*": lambda: self.a0 / self.yield_stress,
                 "s* thr": lambda: self.yield_stress * self.jump_threshold}
        for name in ("kappa", "a0", "a1", "L", "T", "yield_stress", "L/a1", "jump_threshold", "a0/s*", "s* thr"):
            value = units[name]() if name in units else getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"need {name} finite and > 0, got {value!r}")
        if not self.a0 < self.a1:
            raise ValueError(f"need a0 < a1, got a0={self.a0!r}, a1={self.a1!r}")

    # Cached: the return map of the limit model reads s* at every step, and starts from thr.
    @cached_property
    def yield_stress(self) -> float:
        """Stress threshold sqrt(2*kappa*a0) of the effective model."""
        return math.sqrt(2.0 * self.kappa * self.a0)

    @cached_property
    def jump_threshold(self) -> float:
        """Largest jump the bar carries elastically: ``s* (L/a1)``, or ``(s* L)/a1`` where ``L/a1`` is subnormal."""
        c, sL = self.L / self.a1, self.yield_stress * self.L
        exact = sL / self.a1 if c < 2.0**-1022 <= sL < math.inf else 0.0
        return exact or self.yield_stress * c


def raw_energy(p: TwoWellParams, xi) -> np.ndarray:
    """Unrelaxed two-well density ``min(K + a*xi**2, b*xi**2)`` at the strains ``xi``, as an array."""
    xi = np.asarray(xi, dtype=float)
    return np.minimum(p.K + p.a * xi**2, p.b * xi**2)


def plateau_factor(m: MaterialParams, eps: float) -> float:
    """Amplification ``sqrt(a1/(a1 - eps*a0))`` of the damage-onset stress at scale ``eps``."""
    if not 0.0 < eps:
        raise ValueError(f"need eps > 0, got {eps!r}")
    if not eps * m.a0 < m.a1:
        raise ValueError(f"need eps*a0 < a1, got eps*a0={eps * m.a0!r}, a1={m.a1!r}")
    # The cell divides by 1/(eps a0) - 1/a1 (theta) and by 1/a0 - eps/a1 (l).
    # Within rounding of 0 or of a1/a0 one of them is zero or infinite in floats.
    e = float(eps)
    theta_den = 1.0 / (e * m.a0) - 1.0 / m.a1 if e * m.a0 > 0.0 else math.inf
    l_den = 1.0 / m.a0 - e / m.a1
    if not (0.0 < theta_den < math.inf and 0.0 < l_den < math.inf):
        raise ValueError(f"eps={eps!r} is too close to 0 or to a1/a0 for floats: "
                         f"1/(eps*a0) - 1/a1 = {theta_den!r}, 1/a0 - eps/a1 = {l_den!r}")
    return math.sqrt(m.a1 / (m.a1 - eps * m.a0))


_Cell = namedtuple("_Cell", "s_plateau weak a sigma theta l energy")


def _frozen_cell(m: MaterialParams, eps_list, J, M) -> _Cell:
    """Relaxed two-phase state of the bar frozen at the largest jump ``M`` and read at the jump ``J``.

    One row per eps, each checked by ``plateau_factor`` ``pf`` first: with ``thr = m.jump_threshold``,
    the limit model's map on ``N = M/pf``, the stress ``s* (J/clip(N, thr, thr a1/(eps a0)))``
    (``run_limit``'s ``s* (J/max(M, thr))`` at ``pf = 1`` short of full damage), the stiffness
    ``a = clip(a1 (thr/N), eps a0, a1)``, the sound fraction ``theta``, the damage mass ``l = L (1 - theta)/eps``,
    the energy ``J sigma/2 + kappa l`` of ``run_limit`` (at ``J = M`` the envelope), the plateau stress
    ``s_p = s* pf`` and the weak stiffness ``eps a0``.
    """
    pf = np.reshape([plateau_factor(m, e) for e in eps_list], (-1,) + (1,) * np.ndim(M))
    eps = np.array(eps_list, dtype=float).reshape(pf.shape)
    weak, thr = eps * m.a0, m.jump_threshold
    # N = 0 gives an infinite stiffness, clipped to exactly a1; non-finite values pass silently.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        N = M / pf
        a = np.clip(m.a1 * (thr / N), weak, m.a1)
        sigma = m.yield_stress * (J / np.clip(N, thr, thr * (m.a1 / weak)))
        theta = (1.0 / weak - 1.0 / a) / (1.0 / weak - 1.0 / m.a1)
        # L (1 - theta)/eps without the 1/eps amplification of 1 - theta's rounding; where L d is subnormal, d/D first.
        d, D = 1.0 / a - 1.0 / m.a1, 1.0 / m.a0 - eps / m.a1
        l = np.where((Ld := m.L * d) < 2.0**-1022, m.L * (d / D), Ld / D)
        energy = 0.5 * J * sigma + m.kappa * l
    return _Cell(m.yield_stress * pf, weak, a, sigma, theta, l, energy)


def _two_well_cell(p: TwoWellParams, xi) -> _Cell:
    # p's density is its cell (checked when p was built) read at M = |xi|.
    xi = np.asarray(xi, dtype=float)
    return _frozen_cell(p._cell, (1.0,), xi, np.abs(xi))


def envelope_slope_bounds(p: TwoWellParams) -> tuple[float, float, float]:
    """Kink strains ``(xi1, xi2)`` and the plateau slope of the convex envelope.

    The envelope follows ``b*xi**2`` up to ``xi1``, is affine with slope
    ``sqrt(4*a*b*K/(b-a))`` up to ``xi2 = (b/a)*xi1``, and follows ``K + a*xi**2``
    beyond; the cell's stiffness ``slope/|xi|`` is ``2b`` at ``xi1`` and ``2a`` at ``xi2``.
    """
    slope = float(_two_well_cell(p, 0.0).s_plateau[0])
    return slope / (2.0 * p.b), slope / (2.0 * p.a), slope


def convex_envelope(p: TwoWellParams, xi) -> np.ndarray:
    """Convex envelope of ``raw_energy`` at the strains ``xi``, as an array."""
    return _two_well_cell(p, xi).energy[0, ...]


def optimal_theta(p: TwoWellParams, xi) -> np.ndarray:
    """Minimizing weak-phase fraction of the mixture energy at the strains ``xi``, as an array.

    Zero up to ``xi1``, one from ``xi2`` on, and on the plateau the fraction at
    which the mixed stiffness carries the plateau stress: the cell's damage mass.
    """
    return _two_well_cell(p, xi).l[0, ...]
