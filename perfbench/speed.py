"""The machine's speed while each job runs, measured in the benchmark process.

On a shared machine the speed of a process swings by up to 3x in plateaus
of a few seconds.  ``SpeedProbe`` times a fixed stdlib calibration loop
(Fraction products stored in a dict, the kind of work crossbial does)
before the first job, after every job, and every ``PERIOD_S`` seconds
inside a job from a timer signal.  A job's reference seconds are its
measured seconds, less the time spent in the probe, times ``NOMINAL_S``
over the mean loop time of the probes before, inside and after it.
"""

import signal
import statistics
import time
from fractions import Fraction

STEPS = 2000
# the loop's time on a quiet x86-64 VM with two vCPUs, CPython 3
NOMINAL_S = 0.006
PERIOD_S = 0.15


def loop_seconds() -> float:
    t = time.perf_counter()
    d = {}
    for i in range(1, STEPS):
        d[(i, i * 7 % 1013)] = Fraction(i, i + 1) * Fraction(3, 7)
    return time.perf_counter() - t


class SpeedProbe:
    def __init__(self):
        self.last = loop_seconds()
        self._inside = []        # loop seconds measured inside the job
        self._spent = 0.0        # seconds the job spent in the probe

    def _on_alarm(self, signum, frame):
        t = time.perf_counter()
        self._inside.append(loop_seconds())
        self._spent += time.perf_counter() - t

    def run(self, fn):
        """Call ``fn()``; return its result, its measured seconds without
        the probe's own time, and the same in reference seconds."""
        self._inside, self._spent = [], 0.0
        old = signal.signal(signal.SIGALRM, self._on_alarm)
        t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            dt = time.perf_counter() - t - self._spent
            signal.signal(signal.SIGALRM, old)
        after = loop_seconds()
        mean = statistics.mean([self.last] + self._inside + [after])
        self.last = after
        return result, dt, dt * NOMINAL_S / mean
