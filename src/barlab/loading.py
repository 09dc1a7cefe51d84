"""Time-dependent boundary displacements for the bar.

A loading program is a pair of piecewise-linear boundary traces sampled
at shared knots.  The INI files and ``BoundaryDatum`` take both traces,
``w0`` and ``wL``; the homogeneous solvers read only the jump
``J(t) = wL(t) - w0(t)``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = ["BoundaryDatum", "threshold_crossing", "refined_time_grid", "validate_time_grid",
           "cumulative_work"]


def _finite(name: str, values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite, got {values.tolist()!r}")
    return values


def _time_axis(name: str, values) -> np.ndarray:
    # The one rule for a time axis: 1-D, at least two instants, all finite, strictly increasing.
    t = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError(f"{name} must hold at least two instants")
    if (_finite(name, t)[1:] <= t[:-1]).any():
        raise ValueError(f"{name} must be strictly increasing")
    return t


@dataclass(frozen=True, eq=False)
class BoundaryDatum:
    """Piecewise-linear boundary traces ``w0`` (left) and ``wL`` (right) over shared ``times``.

    The three arrays are read-only copies, so ``nodes``, the knots of ``J`` plus its zero
    crossings with ``J`` there (``|J|`` is linear between them), is built once, here.
    """

    times: np.ndarray
    w0: np.ndarray
    wL: np.ndarray
    nodes: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        t = _time_axis("times", self.times).copy()
        w0, wL = (_finite(name, np.array(getattr(self, name), dtype=float)) for name in ("w0", "wL"))
        if w0.shape != t.shape or wL.shape != t.shape:
            raise ValueError("times, w0 and wL must have matching shapes")
        if t[0] != 0.0:
            raise ValueError(f"loading must start at t=0, got t={t[0]!r}")
        with np.errstate(over="ignore"):
            J = _finite("the jump wL - w0", wL - w0)
        # Zero crossings by sign, placed on J scaled by an exact power of two per segment: nothing
        # overflows, and where the unscaled formula stays in the normal range the result is its own.
        k = np.flatnonzero(np.sign(J[:-1]) * np.sign(J[1:]) < 0.0) + 1
        e = np.frexp(np.maximum(abs(J[k - 1]), abs(J[k])))[1]
        before, after = np.ldexp(J[k - 1], -e), np.ldexp(J[k], -e)
        cross = t[k - 1] + (t[k] - t[k - 1]) * before / (before - after)
        # A crossing next to the knot t[k] can round past it; keep the nodes sorted.
        nodes = np.insert(t, k, np.minimum(cross, t[k])), np.insert(J, k, 0.0)
        for name, values in (("times", t), ("w0", w0), ("wL", wL), ("nodes", nodes)):
            object.__setattr__(self, name, values)
        for values in (t, w0, wL, *nodes):
            values.flags.writeable = False

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


def threshold_crossing(w: BoundaryDatum, threshold: float) -> float:
    """Exact first instant with ``|J| > threshold``, or ``w.duration`` if there is none."""
    times, absJ = w.nodes[0], np.abs(w.nodes[1])
    above = np.flatnonzero(absJ > threshold)
    if above.size == 0:
        return float(times[-1])
    k = int(above[0])
    if k == 0:
        return float(times[0])
    frac = (threshold - absJ[k - 1]) / (absJ[k] - absJ[k - 1])
    return float(times[k - 1] + frac * (times[k] - times[k - 1]))


def _count(name: str, value) -> int:
    # The one rule for a count (steps, cells): a positive int or numpy integer, nothing else.
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < 1:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return n


def refined_time_grid(w: BoundaryDatum, steps: int) -> np.ndarray:
    """Uniform grid with ``steps`` intervals over the loading span, merged with the datum's ``nodes``.

    Merging keeps every kink of the loading program and every zero
    crossing of ``J`` on the grid, so piecewise-linear data are sampled
    exactly and every sign change of the stress is recorded.
    """
    uniform = np.linspace(0.0, w.duration, _count("steps", steps) + 1)
    grid = np.sort(np.concatenate([uniform, w.nodes[0]]))
    # Not np.unique: it imports numpy.ma, about 12 ms of every CLI process's start-up.
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


def validate_time_grid(w: BoundaryDatum, grid) -> np.ndarray:
    """Check that ``grid`` is a strictly increasing refinement of the datum knots, to 1e-12 of the span."""
    g = _time_axis("time grid", grid)
    tol = 1e-12 * w.duration
    if abs(g[0] - w.times[0]) > tol or abs(g[-1] - w.times[-1]) > tol:
        raise ValueError("time grid must span the full loading interval")
    pos = np.clip(np.searchsorted(g, w.times), 0, g.size - 1)
    near = np.minimum(np.abs(g[pos] - w.times), np.abs(g[np.maximum(pos - 1, 0)] - w.times))
    if np.any(near > tol):
        raise ValueError("time grid must contain every knot of the loading program")
    return g


def cumulative_work(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoidal running integral of ``f dx`` along the last axis of ``f``, starting at 0."""
    step = 0.5 * (f[..., :-1] + f[..., 1:]) * np.diff(x)
    return np.cumsum(np.concatenate((np.zeros(step.shape[:-1] + (1,)), step), axis=-1), axis=-1)
