"""Calibrated seconds: wall time corrected by a reference loop timed alongside.

On a shared 2-vCPU KVM guest (Intel Xeon host), one Python/numpy loop ran at
speeds that differed by up to 2.4x and switched every few seconds; the two
vCPUs switched largely independently, so the cause lies outside the guest.
Raw op times of the Python-bound workloads moved 20-55% (interquartile range
over median) between runs there, and raw set-up time 54% between two batches
of runs 25 minutes apart.

So while a workload runs, a SIGALRM handler runs its reference loop, a fixed
piece of numpy code shaped like the workload's hot path (see workloads.py),
every 25 ms of wall time. An interval's calibrated time is its wall time,
minus the loop time spent inside it, times NOMINAL_S over the median loop
duration during the interval: the time the interval would take on a host that
runs the loop in NOMINAL_S. The loop is benchmark code, identical on every
commit, so a change to the program moves calibrated times and the loop does
not. The handler runs between bytecodes of the main thread, so it waits for a
long BLAS call to return. A workload whose ops did not follow the swings has
no loop; its calibrated time is its wall time (Seconds below).
"""

import bisect
import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025
NOMINAL_S = 0.0005  # a reference loop took about this long on the guest above


class JacobiLoop:
    """Reference loop shaped like the Jacobi sweep: Python-level pair visits,
    each a dot product and a plane rotation of two rows of the given length."""

    def __init__(self, length, pairs):
        rng = np.random.default_rng(0)
        self.x, self.y = rng.random(length), rng.random(length)
        self.pairs = pairs

    def __call__(self):
        x, y = self.x, self.y
        for _ in range(self.pairs):
            c = float(np.dot(x, y))
            t = 1.0 / (abs(c) + math.sqrt(1.0 + c * c))
            cs = 1.0 / math.sqrt(1.0 + t * t)
            _ = cs * x - (cs * t) * y


class Seconds:
    """Stand-in for Sampler when a workload has no loop: wall time as is."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def calibrate(self, t0, t1):
        return t1 - t0, t1 - t0


# Per workload, the row length of its Jacobi sweeps and the pairs per loop.
# approx-wide has no loop: its ops stream a 16 MB matrix through BLAS and did
# not follow the host's Python speed swings (raw op time spread 5% over five
# seeds), while scaled by a Python loop or by a matrix-vector loop on the
# instance they spread 8-12%. It reports wall time.
LOOPS = {"select-grid": (2000, 100), "bounds": (400, 150), "unmix": (95 * 95, 40)}


def sampler(workload):
    """A Sampler timing the workload's loop, or Seconds when it has none
    (or when workload is None)."""
    shape = LOOPS.get(workload)
    return Seconds() if shape is None else Sampler(JacobiLoop(*shape))


class Sampler:
    """Context manager that times `loop()` every PERIOD_S seconds of wall time."""

    def __init__(self, loop):
        self._loop = loop
        self.starts = []
        self.durations = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self._loop()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        self._sample(None, None)  # so that every interval has a sample near it
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def calibrate(self, t0, t1):
        """(wall seconds, calibrated seconds) of [t0, t1), both without the
        loop time spent inside it."""
        inside, unit = self._split(t0, t1)
        net = t1 - t0 - inside
        return net, net * NOMINAL_S / unit

    def _split(self, t0, t1):
        """(loop seconds inside [t0, t1), median loop duration around it).

        With no loop inside the interval, the nearest loop's duration is used.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        if inside:
            return sum(inside), statistics.median(inside)
        near = [j for j in (lo - 1, lo) if 0 <= j < len(self.starts)]
        j = min(near, key=lambda j: min(abs(self.starts[j] - t0), abs(self.starts[j] - t1)))
        return 0.0, self.durations[j]
