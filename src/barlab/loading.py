"""Time-dependent boundary displacements for the bar.

A loading program is a pair of piecewise-linear boundary traces sampled
at shared knots.  Only the jump ``J(t) = wL(t) - w0(t)`` enters the
homogeneous solvers, but both traces are kept so displacement fields can
be reconstructed with the correct rigid offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BoundaryDatum", "jump_nodes", "threshold_crossing", "refined_time_grid",
           "check_horizon", "validate_time_grid", "cumulative_work"]


@dataclass(frozen=True, eq=False)
class BoundaryDatum:
    """Piecewise-linear boundary traces ``w0`` (left) and ``wL`` (right) over shared ``times``."""

    times: np.ndarray
    w0: np.ndarray
    wL: np.ndarray

    def __post_init__(self) -> None:
        for name in ("times", "w0", "wL"):
            values = np.asarray(getattr(self, name), dtype=float).copy()
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite, got {values.tolist()!r}")
            object.__setattr__(self, name, values)
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValueError("need at least two sample times")
        if self.w0.shape != self.times.shape or self.wL.shape != self.times.shape:
            raise ValueError("times, w0 and wL must have matching shapes")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("sample times must be strictly increasing")
        if self.times[0] != 0.0:
            raise ValueError(f"loading must start at t=0, got t={self.times[0]!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoundaryDatum):
            return NotImplemented
        return (
            np.array_equal(self.times, other.times)
            and np.array_equal(self.w0, other.w0)
            and np.array_equal(self.wL, other.wL)
        )

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def jump(self, t):
        """Boundary jump ``J(t) = wL(t) - w0(t)``, linearly interpolated."""
        return np.interp(t, self.times, self.wL - self.w0)

    def trace0(self, t):
        return np.interp(t, self.times, self.w0)

    def traceL(self, t):
        return np.interp(t, self.times, self.wL)


def jump_nodes(w: BoundaryDatum) -> tuple[np.ndarray, np.ndarray]:
    """Knots of ``J`` plus its zero crossings, with ``J`` there, so that ``|J|`` is linear between nodes."""
    t, J = w.times, w.wL - w.w0
    k = np.flatnonzero(J[:-1] * J[1:] < 0.0) + 1
    cross = t[k - 1] + (t[k] - t[k - 1]) * J[k - 1] / (J[k - 1] - J[k])
    # A crossing next to the knot t[k] can round past it; keep the nodes sorted.
    return np.insert(t, k, np.minimum(cross, t[k])), np.insert(J, k, 0.0)


def threshold_crossing(w: BoundaryDatum, threshold: float) -> float:
    """Exact first instant with ``|J| > threshold``, or ``w.duration`` if there is none."""
    times, J = jump_nodes(w)
    absJ = np.abs(J)
    above = np.flatnonzero(absJ > threshold)
    if above.size == 0:
        return w.duration
    k = int(above[0])
    if k == 0:
        return float(times[0])
    frac = (threshold - absJ[k - 1]) / (absJ[k] - absJ[k - 1])
    return float(times[k - 1] + frac * (times[k] - times[k - 1]))


def refined_time_grid(w: BoundaryDatum, steps: int) -> np.ndarray:
    """Uniform grid with ``steps`` intervals over the loading span, merged with the datum knots.

    Merging keeps every kink of the loading program on the grid, so
    piecewise-linear data are sampled exactly.
    """
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps!r}")
    uniform = np.linspace(0.0, w.duration, steps + 1)
    grid = np.sort(np.concatenate([uniform, w.times]))
    # Not np.unique: it imports numpy.ma, about 12 ms of every CLI process's start-up.
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


def check_horizon(w: BoundaryDatum, T: float) -> None:
    """Raise ``ValueError`` unless ``w`` ends at the horizon ``T``, to rounding relative to ``T``."""
    if abs(w.duration - T) > 1e-12 * T:
        raise ValueError(f"loading ends at t={w.duration!r} but the horizon is T={T!r}")


def validate_time_grid(w: BoundaryDatum, grid) -> np.ndarray:
    """Check that ``grid`` is a strictly increasing refinement of the datum knots, to 1e-12 of the span."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise ValueError("time grid must hold at least two instants")
    if np.any(np.diff(g) <= 0.0):
        raise ValueError("time grid must be strictly increasing")
    tol = 1e-12 * w.duration
    if abs(g[0] - w.times[0]) > tol or abs(g[-1] - w.times[-1]) > tol:
        raise ValueError("time grid must span the full loading interval")
    pos = np.searchsorted(g, w.times)
    pos = np.clip(pos, 0, g.size - 1)
    near = np.minimum(np.abs(g[pos] - w.times), np.abs(g[np.maximum(pos - 1, 0)] - w.times))
    if np.any(near > tol):
        raise ValueError("time grid must contain every knot of the loading program")
    return g


def cumulative_work(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoidal running integral of ``f dx`` over recorded samples, starting at 0."""
    return np.cumsum(np.concatenate(([0.0], 0.5 * (f[:-1] + f[1:]) * np.diff(x))))
