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

    Requires finite ``0 < a < b`` and ``K > 0`` so that the envelope has
    a genuine plateau between two distinct quadratic regimes.
    """

    a: float
    b: float
    K: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "K"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"need {name} finite, got {value!r}")
        if not (0.0 < self.a < self.b):
            raise ValueError(f"need 0 < a < b, got a={self.a!r}, b={self.b!r}")
        if not self.K > 0.0:
            raise ValueError(f"need K > 0, got K={self.K!r}")


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
        for name in ("kappa", "a0", "a1", "L", "T", "yield_stress", "jump_threshold"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"need {name} finite and > 0, got {value!r}")
        if not self.a0 < self.a1:
            raise ValueError(f"need a0 < a1, got a0={self.a0!r}, a1={self.a1!r}")

    # Cached: the return map of the limit model reads both numbers at every step.
    @cached_property
    def yield_stress(self) -> float:
        """Stress threshold sqrt(2*kappa*a0) of the effective model."""
        return math.sqrt(2.0 * self.kappa * self.a0)

    @cached_property
    def jump_threshold(self) -> float:
        """Largest boundary jump the bar carries elastically: yield_stress*L/a1."""
        return self.yield_stress * self.L / self.a1


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
    e, a0, a1 = float(eps), float(m.a0), float(m.a1)
    theta_den = 1.0 / (e * a0) - 1.0 / a1 if e * a0 > 0.0 else math.inf
    l_den = 1.0 / a0 - e / a1
    if not (0.0 < theta_den < math.inf and 0.0 < l_den < math.inf):
        raise ValueError(f"eps={eps!r} is too close to 0 or to a1/a0 for floats: "
                         f"1/(eps*a0) - 1/a1 = {theta_den!r}, 1/a0 - eps/a1 = {l_den!r}")
    return math.sqrt(m.a1 / (m.a1 - eps * m.a0))


_Cell = namedtuple("_Cell", "s_plateau weak a sigma theta l energy")


def _frozen_cell(m: MaterialParams, eps_list, J, M) -> _Cell:
    """Relaxed two-phase state of the bar frozen at the largest jump ``M`` and read at the jump ``J``.

    One leading row per eps, each checked by ``plateau_factor`` first: the plateau stress ``s_p``,
    the weak stiffness ``eps*a0``, the stiffness ``a = clip(s_p L/M, eps*a0, a1)`` of the mix that
    carries ``M`` at ``s_p``, the stress ``J a/L``, the sound fraction ``theta``, the damage mass
    ``l = L (1 - theta)/eps`` and the energy ``L sigma**2/(2a) + kappa l``, at ``J = M`` the envelope.
    """
    s_plateau = np.reshape([m.yield_stress * plateau_factor(m, e) for e in eps_list], (-1,) + (1,) * np.ndim(M))
    eps = np.array(eps_list, dtype=float).reshape(s_plateau.shape)
    weak = eps * m.a0
    # M = 0 gives an infinite stiffness, clipped to exactly a1; non-finite values pass silently.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.clip(s_plateau * m.L / M, weak, m.a1)
        sigma = J * a / m.L
        theta = (1.0 / weak - 1.0 / a) / (1.0 / weak - 1.0 / m.a1)
        # L (1 - theta)/eps, without the 1/eps amplification of the rounding in 1 - theta.
        l = m.L * (1.0 / a - 1.0 / m.a1) / (1.0 / m.a0 - eps / m.a1)
        energy = m.L * sigma**2 / (2.0 * a) + m.kappa * l
    return _Cell(s_plateau, weak, a, sigma, theta, l, energy)


def _two_well_cell(p: TwoWellParams, xi) -> _Cell:
    # p's density is the cell at eps = 1 of the bar a0 = 2a, a1 = 2b, kappa = K, L = 1, at M = |xi|.
    xi = np.asarray(xi, dtype=float)
    return _frozen_cell(MaterialParams(kappa=p.K, a0=2.0 * p.a, a1=2.0 * p.b, L=1.0, T=1.0),
                        (1.0,), xi, np.abs(xi))


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
