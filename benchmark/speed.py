"""The machine's current speed, sampled while the program runs.

On a shared host the speed of a vCPU drifts by tens of percent over minutes,
and two sets of runs of the same code then disagree by more than any useful
bound. So the untraced runs time, every PERIOD_S seconds, a fixed kernel of
small numpy operations and Python object churn (the mix the program's tape
spends its time on) that calls no program code. A SIGALRM handler runs it
between the program's bytecodes, with the garbage collector off so that the
program's heap does not change its cost. An interval's reference time is its
wall time minus the time spent in the kernel, scaled by REFERENCE_S over the
kernel's mean time inside the interval: the seconds it would have taken at
the speed the kernel has on the reference machine (README.md).
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

PERIOD_S = 0.1
REFERENCE_S = 0.0040     # kernel() on the reference machine, unloaded

_M = np.linspace(-1.0, 1.0, 64).reshape(8, 8) / 4.0
_V = np.linspace(0.1, 0.8, 8)


def kernel():
    """Forward chains of small array ops kept on a short tape, each with a
    backward sweep over it; the result is fixed, the memory small."""
    total = 0.0
    for _ in range(4):
        v, tape = _V, []
        for _ in range(200):
            v = np.tanh(_M @ v * 0.5 + 0.1)
            tape.append((v, {"v": v}))
        g = _V
        for v, _ in reversed(tape):
            g = g * (1.0 - v * v) + 0.01
        total += float(g.sum())
    return total


def timed_kernel():
    """Seconds one kernel() takes now, with the collector off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Samples kernel() every PERIOD_S seconds of wall time while active.

    The timer is one-shot and re-armed when a sample ends, so samples never
    overlap. `samples` holds each sample's seconds, in order.
    """

    def __init__(self):
        self.samples = []
        self._active = False
        self._previous = None

    def _sample(self, signum=None, frame=None):
        self.samples.append(timed_kernel())
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._active = True
        self._sample()
        return self

    def __exit__(self, *exc):
        # a handler that runs after this line arms no timer
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        return len(self.samples), time.perf_counter()

    def reference_seconds(self, mark):
        """(reference seconds, wall seconds) of the program's work from
        `mark` to now, both without the samples taken inside the interval.
        With no sample inside it, the latest one before it gives the speed."""
        first, t0 = mark
        inside = self.samples[first:]
        wall = time.perf_counter() - t0 - sum(inside)
        speed = (sum(inside) / len(inside) if inside
                 else self.samples[first - 1])
        return wall * REFERENCE_S / speed, wall
