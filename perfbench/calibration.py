"""Machine-speed calibration of the untraced timings.

The benchmark host (2 vCPUs of a shared machine) changes speed by up to
1.6x over tens of seconds to minutes as its neighbours' load comes and
goes.  A 2000-interval simulate took 11-19 ms in the 3-s windows of one
150-s probe, with process CPU time tracking wall time, so the loss is not
steal time and no clock of the process leaves it out.  Runs of the same
code on other seeds spread (IQR over median) by 0.10-0.25 in their raw
op latency, about the largest bound a timing may have.

A short fixed kernel, written here and so untouched by changes to the
package, is therefore timed every ``interval`` seconds of a run from a
SIGALRM handler.  An op's time is first net of the kernel samples taken
during it, then scaled by ``REFERENCE_S`` over the median kernel time
around it: the result reads as seconds at the host's usual speed.  The
kernel mixes the package's three kinds of work, because interpreted
scalar code and vectorised numpy did not slow by the same share in the
same windows; pair distances, the bulk of the climate estimators and so
of most ops, get half its time.  Over ten seeds per workload, with the
host at 0.59-0.82 of its usual speed, the spread of op_s_p50 and
ops_per_s went from 0.10-0.21 raw to 0.02-0.07 calibrated.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

# median kernel seconds on the 2-vCPU benchmark host at its usual speed
REFERENCE_S = 0.0040
# kernel samples an op's factor is taken over, at the least
NEAREST = 15

_POINTS = np.random.default_rng(20230714).standard_normal((400, 3))
_WEIGHTS = np.random.default_rng(7).standard_normal((100, 100)) * 0.05


def kernel() -> float:
    """About 4 ms of the package's kinds of work; returns a checksum."""
    # interpreted scalar arithmetic, as in the RK4 integrator
    x, y, z, h = 1.0, 1.0, 20.0, 0.002
    for _ in range(2500):
        k1 = (10.0 * (y - x), x * (28.0 - z) - y, x * y - 8.0 / 3.0 * z)
        x2, y2, z2 = x + h * k1[0], y + h * k1[1], z + h * k1[2]
        k2 = (10.0 * (y2 - x2), x2 * (28.0 - z2) - y2, x2 * y2 - 8.0 / 3.0 * z2)
        x += 0.5 * h * (k1[0] + k2[0])
        y += 0.5 * h * (k1[1] + k2[1])
        z += 0.5 * h * (k1[2] + k2[2])
    # many small numpy calls, as in reservoir and NG-RC stepping
    v = np.ones(100)
    for _ in range(300):
        v = np.tanh(_WEIGHTS @ v + 0.1)
    # vectorised pair distances, as in the climate estimators
    d = ((_POINTS[:160, None, :] - _POINTS[None, :, :]) ** 2).sum(axis=-1)
    return x + float(v[0]) + int(np.count_nonzero(d < 1.0))


class SpeedProbe:
    """Kernel samples of one run, and the clock that leaves them out."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.samples = []  # (net clock at the sample, kernel seconds)
        self._spent = 0.0
        self._busy = False

    def now(self) -> float:
        """``time.perf_counter`` less the time spent in kernel samples."""
        return time.perf_counter() - self._spent

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - t0
        self.samples.append((t0 - self._spent, seconds))
        self._spent += seconds

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.sample()
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Take a kernel sample now and every ``interval`` seconds while the
        block runs, so that even an op shorter than ``interval`` has one."""
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median kernel time over [start, end] of
        the net clock, widened to the ``NEAREST`` samples around it."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if len(inside) < NEAREST:
            middle = 0.5 * (start + end)
            nearest = sorted(self.samples, key=lambda ts: abs(ts[0] - middle))
            inside = [s for _, s in nearest[:NEAREST]]
        return REFERENCE_S / statistics.median(inside)

    def speed(self) -> float:
        """``REFERENCE_S`` over the median of every sample: above 1, a fast host."""
        return REFERENCE_S / statistics.median(s for _, s in self.samples)
