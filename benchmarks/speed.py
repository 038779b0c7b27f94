"""Machine-speed probe: wall time converted to time on a reference machine.

The 2-core virtual machines this benchmark was built on share their
physical cores with other tenants.  The same code runs up to about 1.7x
slower for seconds to minutes at a time, each virtual CPU on its own
schedule, and the slowdown shows in the process's CPU time too, so neither
wall time nor CPU time of the workload is steady from run to run.

While a ``SpeedProbe`` is active, a SIGALRM timer interrupts the main thread
every PERIOD_S and runs a fixed reference kernel, which does not touch
exchsim or numpy.  The kernel's thread CPU time gives the speed relative to the
reference machine, ``REFERENCE_CPU_S / cpu_time`` (1 on the reference,
below 1 when slower).  The kernel runs on the CPU the main thread is on, or,
when the main thread is waiting for pool threads (interrupted inside the
threading module), once on every CPU the process may use, and the sample is
their mean.  An interval of wall time then converts to reference seconds:
its wall time, minus the time the probes themselves took inside it, times
the median speed the probes measured inside it (or the last one before it,
for intervals shorter than the period).
"""

import bisect
import ctypes
import os
import signal
import statistics
import threading
from time import perf_counter, thread_time

PERIOD_S = 0.1
# CPU time of one _reference_kernel() call on the reference machine, a round
# figure for the 2-core virtual machine of the README; only ratios between
# runs and commits matter.
REFERENCE_CPU_S = 500e-6
_sched_getcpu = getattr(ctypes.CDLL(None), "sched_getcpu", lambda: -1)


def _reference_kernel():
    # Object churn like the workloads' (strings, small lists, a growing dict):
    # a contended cache slows it about as much as it slows them.
    table = {}
    for i in range(1000):
        table[str(i)] = [i, i * 0.5]
    return len(table)


def _kernel_speed(repeats=1):
    start = thread_time()
    for _ in range(repeats):
        _reference_kernel()
    return REFERENCE_CPU_S * repeats / (thread_time() - start)


def measure_speed():
    """Speed of the CPU this thread runs on, for callers that sample it explicitly."""
    return _kernel_speed(repeats=5)


class SpeedProbe:
    """Context manager that samples the speed from a timer while active (main thread only)."""

    def __init__(self):
        self.samples = []  # (wall start, wall end, speed), in time order
        self._cpus = sorted(os.sched_getaffinity(0))
        self._previous = None

    def _sample(self, signum, frame):
        wall = perf_counter()
        if frame is not None and frame.f_code.co_filename == threading.__file__:
            # The main thread waits for pool threads, which may run on any CPU.
            here = _sched_getcpu()
            speeds = []
            for cpu in sorted(self._cpus, key=lambda c: c == here):  # end where it ran
                os.sched_setaffinity(0, {cpu})
                speeds.append(_kernel_speed())
            os.sched_setaffinity(0, self._cpus)
        else:
            speeds = [_kernel_speed()]
        self.samples.append((wall, perf_counter(), statistics.fmean(speeds)))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._sample(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def convert(self, intervals):
        """[(wall seconds without probe pauses, reference seconds)] of each (start, end)."""
        starts = [s[0] for s in self.samples]
        converted = []
        for start, end in intervals:
            first, last = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
            inside = self.samples[first:last]
            wall = end - start - sum(s[1] - s[0] for s in inside)
            if not inside:  # shorter than the period: the state just before it
                inside = self.samples[max(first - 1, 0):max(first, 1)]
            converted.append((wall, wall * statistics.median(s[2] for s in inside)))
        return converted
