"""Wall time rescaled to a reference host speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within seconds, CPU time included, because other tenants contend for the
same cores.  A fixed pure-Python calibration kernel tracks that drift: the
package's work and the kernel slow down together.  While a HostClock is
running, a wall-clock interval timer interrupts the main thread every
EVERY_S seconds, wherever it is (long package calls included), and times
the kernel there.  A measured interval [a, b] is then reported as its busy
time (the interval minus the calibrations inside it) times the mean over
[a, b] of the host speed KERNEL_REF_S / kernel(t), taken as a rolling mean
over neighbouring samples and interpolated between them.  On a host at
reference speed this is plain wall time.  Raw wall times stay in the run
record.
"""

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

KERNEL_REF_S = 0.0001  # about the kernel's time on an uncontended 2.1 GHz Xeon core
EVERY_S = 0.005  # wall seconds between calibrations
SMOOTH = 4  # samples on either side in the rolling mean


def _mix(x, y):
    return (x ^ y) & 0xFF


def _kernel(n=300):
    # tuple building, small function calls, list appends and a dictionary
    # keyed by tuples: of the kernels tried, the one whose slowdown under
    # contention best matched the package's own (dimension search, oracle,
    # learner replay)
    acc, made = 0, []
    for i in range(n):
        t = (i, i + 1, _mix(i, acc))
        made.append(t)
        acc += t[2] + len(made) % 3
    return acc + len({t: i for i, t in enumerate(made)})


class HostClock:
    def __init__(self):
        self.times = []  # perf_counter at the start of each calibration
        self.kernel_s = []  # the kernel's wall time there
        self._speeds = None

    def _calibrate(self, *_):
        start = time.perf_counter()
        _kernel()
        self.times.append(start)
        self.kernel_s.append(time.perf_counter() - start)
        self._speeds = None

    @contextmanager
    def running(self):
        """Calibrate every EVERY_S seconds of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._calibrate)
        self._calibrate()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._calibrate()

    def busy(self, a: float, b: float) -> float:
        """Wall seconds of [a, b] not spent calibrating."""
        lo, hi = bisect.bisect_left(self.times, a), bisect.bisect_left(self.times, b)
        return b - a - sum(self.kernel_s[lo:hi])

    def _speed_at(self, t: float) -> float:
        if self._speeds is None:
            raw = [KERNEL_REF_S / k for k in self.kernel_s]
            self._speeds = [
                statistics.fmean(raw[max(0, i - SMOOTH) : i + SMOOTH + 1]) for i in range(len(raw))
            ]
        speeds, times = self._speeds, self.times
        i = bisect.bisect_right(times, t)
        if i == 0:
            return speeds[0]
        if i == len(times):
            return speeds[-1]
        w = (t - times[i - 1]) / (times[i] - times[i - 1])
        return speeds[i - 1] + w * (speeds[i] - speeds[i - 1])

    def speed(self, a: float, b: float) -> float:
        """Mean host speed over [a, b], relative to the reference."""
        if b <= a:
            return self._speed_at(a)
        times = self.times
        points = [a] + times[bisect.bisect_right(times, a) : bisect.bisect_left(times, b)] + [b]
        total = 0.0
        for t0, t1 in zip(points, points[1:]):
            total += (t1 - t0) * (self._speed_at(t0) + self._speed_at(t1)) / 2
        return total / (b - a)

    def rescale(self, a: float, b: float) -> float:
        """Reference-speed seconds of the busy part of [a, b]."""
        return self.busy(a, b) * self.speed(a, b) if b > a else 0.0

    def summary(self) -> dict:
        k = sorted(self.kernel_s)
        return {
            "samples": len(k),
            "kernel_p10_ms": 1e3 * k[len(k) // 10],
            "kernel_median_ms": 1e3 * statistics.median(k),
            "kernel_p90_ms": 1e3 * k[(9 * len(k)) // 10],
            "spent_s": sum(k),
        }
