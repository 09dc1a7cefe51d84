"""Closed-form energetics of a two-phase elastic bar.

A material point can keep its strong stiffness or trade a volume
fraction ``theta`` of it for a weak phase, paying a cost proportional to
``theta``.  In one dimension laminates are optimal and the mixed
stiffness is the harmonic mean, so the relaxed energy of the two-well
density ``min(K + a*xi**2, b*xi**2)`` is its convex envelope: a strong
quadratic branch, a stress plateau, and a weak quadratic branch.  All
operations here are exact closed forms; no numerical minimization is
involved.

The module also holds the bar-level material record with the two
closed-form numbers attached to it: the yield stress of the effective
model and the largest jump the bar carries elastically.
"""

from __future__ import annotations

import math
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
    """Bar material: toughness ``kappa``, damaged/sound stiffnesses ``a0 < a1``, length ``L``, time horizon ``T``."""

    kappa: float
    a0: float
    a1: float
    L: float
    T: float

    def __post_init__(self) -> None:
        for name in ("kappa", "a0", "a1", "L", "T"):
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


def _wrap(xi) -> tuple[np.ndarray, bool]:
    arr = np.asarray(xi, dtype=float)
    return arr, arr.ndim == 0


def _unwrap(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


def raw_energy(p: TwoWellParams, xi):
    """Unrelaxed two-well density ``min(K + a*xi**2, b*xi**2)``."""
    arr, scalar = _wrap(xi)
    out = np.minimum(p.K + p.a * arr**2, p.b * arr**2)
    return _unwrap(out, scalar)


def envelope_slope_bounds(p: TwoWellParams) -> tuple[float, float, float]:
    """Kink strains ``(xi1, xi2)`` and the plateau slope of the convex envelope.

    The envelope follows ``b*xi**2`` up to ``xi1``, is affine with slope
    ``sqrt(4*a*b*K/(b-a))`` up to ``xi2 = (b/a)*xi1``, and follows
    ``K + a*xi**2`` beyond.
    """
    xi1 = math.sqrt(p.a * p.K / (p.b * (p.b - p.a)))
    xi2 = (p.b / p.a) * xi1
    slope = math.sqrt(4.0 * p.a * p.b * p.K / (p.b - p.a))
    return xi1, xi2, slope


def convex_envelope(p: TwoWellParams, xi):
    """Convex envelope of ``raw_energy`` at strain ``xi`` (scalar or array).

    Exact kink abscissas are assigned to the adjacent quadratic branch;
    all three expressions agree there anyway.
    """
    arr, scalar = _wrap(xi)
    xi1, xi2, slope = envelope_slope_bounds(p)
    offset = p.a * p.K / (p.b - p.a)
    x = np.abs(arr)
    out = np.where(
        x <= xi1,
        p.b * arr**2,
        np.where(x < xi2, slope * x - offset, p.K + p.a * arr**2),
    )
    return _unwrap(out, scalar)


def optimal_theta(p: TwoWellParams, xi):
    """Minimizing weak-phase fraction of the mixture energy at strain ``xi``.

    Zero below ``xi1``, one beyond ``xi2``, and on the plateau the unique
    fraction at which the mixed stiffness carries the plateau stress:
    ``1/c(theta) = |xi| / sqrt(a*b*K/(b-a))``.
    """
    arr, scalar = _wrap(xi)
    xi1, xi2, slope = envelope_slope_bounds(p)
    x = np.abs(arr)
    inv_a, inv_b = 1.0 / p.a, 1.0 / p.b
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_c = x / (0.5 * slope)
        theta = (inv_c - inv_b) / (inv_a - inv_b)
    out = np.where(x <= xi1, 0.0, np.where(x >= xi2, 1.0, np.clip(theta, 0.0, 1.0)))
    return _unwrap(out, scalar)
