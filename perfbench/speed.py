"""Rescaling wall times to a reference CPU speed.

On a shared 2-vCPU Xeon VM, host contention slows every process by up to
2x for seconds at a time, and the guest sees no steal time.
A fixed reference kernel is timed between ops and, from a SIGALRM timer,
every ``INTERVAL_S`` while an op or a child process runs.  The median
kernel time over an op's span gives the factor that rescales the op's
wall time to the speed at which the kernel takes its reference time; the
benchmark reports such times in ``ref_ms``, ``1/ref_s`` and the like.
For in-process ops, on an uncontended machine of that speed, they equal
wall times.  When the op is a child process, the timer is paused while
the child runs (a sample taken then would compete with the child) and
the op is rescaled by the samples taken just before and after it, on
the one CPU that parent and child are pinned to.  No thread is used:
the timer interrupts the main thread.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.01

_DATA = [1.0 + i / 400.0 for i in range(401)]
_STIFFNESS = np.linspace(1.0, 2.0, 1024)


class _State:
    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        self.x, self.y, self.z = x, y, z


def _python_kernel() -> float:
    # Float arithmetic, small objects and list traversal: the interpreter
    # work of barlab's step loops and of interpreter start-up.
    acc = 0.0
    arr = _DATA
    for i in range(100):
        x = math.sqrt(i + 1.0) * 0.5
        st = _State(x, max(x, 0.1), abs(x))
        acc += st.y / (1.0 + st.z) + arr[i]
    return acc + sum(abs(b - a) for a, b in zip(arr, arr[1:]))


def _numpy_kernel() -> float:
    # Small reductions over a 1024-cell array in a Python loop: the shape
    # of a per-step stress bisection over cells.
    acc = 0.0
    for i in range(12):
        sig = 0.5 + i * 1e-3
        acc += float((sig / _STIFFNESS).sum()) * 1e-3
        if abs(sig) <= 1.0:
            acc += 0.5 * (sig + acc)
    return acc


# Kernel and its median run time on an uncontended 2-vCPU Xeon VM
# (Python 3.11, numpy 2.4); the time defines the reference speed.  The
# two kinds of work slow down by different factors under contention, so
# each workload uses the kernel most like its ops.
KERNELS = {"python": (_python_kernel, 80e-6), "numpy": (_numpy_kernel, 48e-6)}


class SpeedMeter:
    """Kernel samples over time; ``factor(mark)`` rescales what ran since ``mark``."""

    def __init__(self, kernel: str) -> None:
        self._kernel, self._ref_s = KERNELS[kernel]
        self.samples: list[float] = []
        self.handler_s = 0.0      # time spent in the timer handler, to subtract from ops
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # Ignore rather than default: a late alarm must not end the run.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def _sample(self) -> None:
        t = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t)

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        t = time.perf_counter()
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False
        self.handler_s += time.perf_counter() - t

    def block(self, n: int = 3) -> int:
        """Take ``n`` samples now; returns the mark at which they start."""
        mark = len(self.samples)
        self._busy = True
        try:
            for _ in range(n):
                self._sample()
        finally:
            self._busy = False
        return mark

    def factor(self, mark: int) -> float:
        """Reference speed over the speed measured by the samples since ``mark``."""
        return self._ref_s / statistics.median(self.samples[mark:])
