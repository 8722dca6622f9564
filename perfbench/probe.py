"""CPU speed probe, so times can be given at a fixed reference speed.

The benchmark was defined on a shared 2-core VM where the speed of a CPU
changes by up to 1.7x from one minute to the next, as other tenants come and
go; raw pass times moved by 15-20% between runs.  The benchmark therefore
runs on one CPU (``pin_to_one_cpu``, inherited by every worker) and times a
fixed pure-Python loop on it: before each interpreter launch, and every 20 ms
from a daemon thread while a worker serves commands.  A time t measured at
probe speed s (loops per second) is reported as ``t * s / REFERENCE_SPEED``:
how long the same work takes at the reference speed.
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_left

# Typical speed of ``probe`` on the 2-core Xeon VM (Python 3.11) where the
# benchmark was defined, in loops per second.
REFERENCE_SPEED = 2500.0
PERIOD_S = 0.02
SHORT_WINDOW_S = 0.2


def probe() -> None:
    """A fixed mix of tuple slicing, hashing, sorting and dict access (~0.4 ms)."""
    d = {}
    w = tuple(range(40))
    for i in range(120):
        t = w[i % 7 :] + w[: i % 7]
        d[t] = sorted(t[::3], reverse=True)
        d.get(w)


def _timed_probe() -> float:
    t0 = time.perf_counter()
    probe()
    return 1.0 / (time.perf_counter() - t0)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def speed_now(repeats: int = 3) -> float:
    """Probe speed right now, in loops per second."""
    return sum(_timed_probe() for _ in range(repeats)) / repeats


class SpeedSampler:
    """Probe speed samples (start time, loops per second) from a daemon thread."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = [(time.perf_counter(), _timed_probe())]
        threading.Thread(target=self._loop, daemon=True).start()

    def _loop(self) -> None:
        while True:
            time.sleep(PERIOD_S)
            t0 = time.perf_counter()
            self.samples.append((t0, _timed_probe()))

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed over [t0, t1], or over its last 0.2 s when it is shorter."""
        samples = self.samples[:]
        first = bisect_left(samples, min(t0, t1 - SHORT_WINDOW_S), key=lambda s: s[0])
        window = [s for t, s in samples[first:] if t <= t1]
        if not window:  # only samples from before the window exist
            window = [samples[-1][1]]
        return sum(window) / len(window)
