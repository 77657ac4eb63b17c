"""Machine-speed sampler that runs in the benchmark's main thread.

On a shared host the speed at which this process runs Python changes by up
to 2x within seconds, because of other tenants.  ``probe`` times a fixed
pure-Python task that never touches altpaths, so its duration depends
mostly on how fast the machine runs Python at that moment (README.md says
what it still shares with the code under test).  ``scaled`` divides a
command's time by the slowdown measured while it ran, which gives the time
it would take at the nominal speed.

Inside a ``Pacer`` block an interval timer raises SIGALRM every 100 ms and
the handler runs one probe.  Python runs signal handlers in the main thread
between bytecodes, so a probe never runs at the same time as the command:
while the command is inside a C call (a numpy kernel, say) the probe waits
for it to return.  The process is pinned to one CPU for the block, so the
probes and the commands run on the same CPU; unpinned, the two vCPUs of the
host the benchmark was built on ran at different speeds and the scaled
times spread 3x wider.  Each probe's own time is taken out of the command's
time again by ``scaled``.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
# Typical probe() time on the 2-vCPU host the benchmark was built on, so
# that scaled seconds read close to the wall seconds seen there.  Only a
# scale: changing it moves every scaled time by one factor.
NOMINAL_S = 0.0012
MIN_SAMPLES = 3


def probe() -> float:
    """Seconds taken to build and index small tuples, then to add Fractions
    whose denominators grow to big integers.

    The two halves slow down differently under contention: a pure
    interpreter loop suffers more than allocation-bound and big-integer
    code such as the covering tallies and the exact simplex.  Either half
    alone over- or under-corrects some of the workloads.

    The task runs twice and only the second run is timed.  The first brings
    the probe's code and data back into the caches, which the code under
    test may have flushed: after a numpy call over a few MB a single cold
    run read about 7% slower than after pure-Python code.  The collector is
    held off so that the probe's time does not depend on what the code
    under test has allocated.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        _task()
        start = time.perf_counter()
        _task()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def _task() -> None:
    rows = [(i, i + 1, (i, 2 * i)) for i in range(3_000)]
    table = {row[0]: row for row in rows}
    q = Fraction(0)
    for i in range(1, 120):
        q += Fraction(1, i)
    if sum(len(row) for row in table.values()) != 9_000 or q < 5:
        raise AssertionError("probe computed the wrong values")


class Pacer:
    def __init__(self) -> None:
        self.times: list[float] = []      # start of each probe
        self.ends: list[float] = []
        self.durations: list[float] = []  # timed part of each probe
        self._previous = None
        self._affinity = None

    def sample(self, count: int = 1) -> None:
        """Run probes now.  SIGALRM is held meanwhile, so that a timed probe
        cannot start inside this one and leave the lists out of order."""
        held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            for _ in range(count):
                start = time.perf_counter()
                self.durations.append(probe())
                self.times.append(start)
                self.ends.append(time.perf_counter())
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Pacer":
        if hasattr(os, "sched_setaffinity"):
            self._affinity = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {min(self._affinity)})
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.resume()
        return self

    def __exit__(self, *exc) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def probe_seconds(self, start: float, end: float) -> float:
        """Time spent probing, warm-up included, between start and end."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return sum(self.ends[lo:hi]) - sum(self.times[lo:hi])

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time over [start, end] relative to nominal.

        A command's time is the integral of the slowdown over its span, so
        the mean is the right average; the slowest and fastest tenth of the
        probes are dropped first, because a probe the scheduler preempts
        reads far slower than the command ran.  The window widens to the
        nearest MIN_SAMPLES probes when it holds fewer.
        """
        n = len(self.times)
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < n):
            if lo > 0:
                lo -= 1
            if hi < n and hi - lo < MIN_SAMPLES:
                hi += 1
        if hi == lo:
            raise RuntimeError("no speed samples were taken")
        window = sorted(self.durations[lo:hi])
        cut = len(window) // 10
        return statistics.fmean(window[cut:len(window) - cut]) / NOMINAL_S

    def scaled(self, start: float, seconds: float) -> float:
        """A span's time without the probes run in it, at nominal speed."""
        end = start + seconds
        return (seconds - self.probe_seconds(start, end)) / self.slowdown(start, end)
