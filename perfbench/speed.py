"""The machine's speed, sampled while a problem runs, and times rescaled by it.

The benchmark runs on a small shared host whose speed drifts by up to 2x in
spells that last from seconds to minutes, so a plain wall time mostly
measures the neighbours.  ``SpeedProbe`` times a fixed probe kernel before a
call, every ``INTERVAL_S`` during it from a timer signal handled in the same
thread, and after it.  The call's time is its wall time minus the time spent
in the probe, rescaled to the speed at which the kernel takes
``KERNEL_REF_S``:

    time = (wall - probe time) * KERNEL_REF_S / mean kernel time

The kernel is made of the kinds of work the package does: a tight integer
loop, small-array numpy calls, and the package's own style of scalar
evaluation (an expression function called on a dict built by a comprehension
for each random point pair).  It does not touch the package, so a change to
the package moves the rescaled time as it moves the wall time at a steady
speed.  How well it tracks each workload is in README.md, "Rescaled times".
"""

from __future__ import annotations

import random
import signal
import time

import numpy as np

INTERVAL_S = 0.03
# About the kernel's median time on the host in README.md.  It only sets
# the speed at which rescaled and raw times agree.
KERNEL_REF_S = 0.0006
_ARRAY = np.arange(256, dtype=np.float64)
_RNG = random.Random(7)


def _objective(env: dict) -> float:
    return abs(env["x_1"] - 0.3) * 1.5 + max(env["x_2"] * 0.7 - 0.1, env["x_1"] + 0.2)


def _bifunction(x: tuple, y: tuple) -> float:
    return (_objective({f"x_{k + 1}": y[k] for k in range(len(y))})
            - _objective({f"x_{k + 1}": x[k] for k in range(len(x))}))


def kernel() -> float:
    """Run the fixed probe kernel once and return its wall seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1500):
        acc += i * i % 7
    v = _ARRAY
    for _ in range(30):
        v = np.minimum(v, _ARRAY[::-1]) + 0.5
    rnd = _RNG.random
    total = 0.0
    for _ in range(60):
        total += _bifunction((rnd(), rnd()), (rnd(), rnd()))
    return time.perf_counter() - t0


def rescale(raw_s: float, kernel_s: float) -> float:
    """``raw_s`` at the reference speed, given the mean kernel time sampled around and during it."""
    return raw_s * KERNEL_REF_S / kernel_s


class SpeedProbe:
    """Times a call and samples the kernel before, during and after it."""

    def __init__(self) -> None:
        self._samples: list = []

    def _tick(self, _signum, _frame) -> None:
        self._samples.append(kernel())

    def measure(self, fn) -> tuple:
        """Return (fn(), raw seconds without the probe's own time, mean kernel seconds)."""
        self._samples = [kernel()]
        previous = signal.signal(signal.SIGALRM, self._tick)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)  # a tick still pending is dropped, not run
            t1 = time.perf_counter()
        raw = t1 - t0 - sum(self._samples[1:])
        self._samples.append(kernel())
        return result, raw, sum(self._samples) / len(self._samples)
