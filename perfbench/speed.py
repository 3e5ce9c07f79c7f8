"""Host speed probe: scale timings to a reference machine speed.

The speed of a shared host varies by up to 2x, within seconds and from
minute to minute, as its other tenants come and go; no run length
averages that out.  So while a rep runs, :class:`SpeedProbe` samples the
host's current speed: every :data:`PERIOD_S` of wall time a ``SIGALRM``
handler runs :func:`reference_loop`, a fixed pure-Python loop that runs
no simulator code, and records how long it took. A rep's timings are
then

* net of the probe: the samples' time is subtracted from each interval;
* scaled to reference speed: the mean sample time over the rep, divided
  by :data:`NOMINAL_SAMPLE_S`, is the host's slowness during the rep; rates
  are multiplied and times divided by it.

A change to the program moves the rep and not the samples, so it moves
the scaled figure in full; a host slowdown moves both, and cancels.
Measured on a shared 2-vCPU host over 150 reps of three workloads, the
scaled rates spread 4-7% (standard deviation of log rate) where raw rates
spread 14-20%, and log rep time tracked log sample time with a slope of
0.81-1.04.

Samples are timed in thread CPU time, so a sample that the OS scheduler
pre-empts (the fleet's workers share the cores with this process) does
not read as a slow host.  The simulation never sees the probe: the
handler touches no simulator state.
"""

from __future__ import annotations

import gc
import signal
import time
from heapq import heappop, heappush
from typing import List

__all__ = ["PERIOD_S", "NOMINAL_SAMPLE_S", "reference_loop", "SpeedProbe"]

#: wall time between samples
PERIOD_S = 0.02

#: reference_loop's thread CPU time (s) at the speed scaled figures are
#: quoted at -- about its time on an uncontended 2.1 GHz Xeon core
NOMINAL_SAMPLE_S = 0.0004


class _Timer:
    """A pending event of :func:`reference_loop`'s toy event loop."""

    __slots__ = ("period", "fired")

    def __init__(self, period: float) -> None:
        self.period = period
        self.fired = 0


def reference_loop() -> None:
    """A fixed piece of pure-Python work: heap, slot-attribute and call
    traffic like an event loop's, in a few hundred microseconds."""
    heap: list = []
    now = 0.0
    for i in range(600):
        timer = _Timer((i * 7919) % 997 + 0.5)
        heappush(heap, (now + timer.period, i, timer))
        if len(heap) > 64:
            now, _, due = heappop(heap)
            due.fired += 1


class SpeedProbe:
    """Samples :func:`reference_loop` every :data:`PERIOD_S` while active.

    ``starts[i]`` is sample ``i``'s wall start (``time.perf_counter``) and
    ``cpu_s[i]`` its thread CPU time.  Use as a context manager around the
    timed work; it restores the previous ``SIGALRM`` handler on exit.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.cpu_s: List[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            cpu = time.thread_time()
            reference_loop()
            self.cpu_s.append(time.thread_time() - cpu)
            self.starts.append(start)
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_s(self, begin: float, end: float) -> float:
        """Probe time spent in samples that started in ``[begin, end)``."""
        return sum(cpu for start, cpu in zip(self.starts, self.cpu_s)
                   if begin <= start < end)

    def slowness(self, begin: float, end: float) -> float:
        """Mean sample time in ``[begin, end)`` over the nominal one; takes
        a sample now if none fell in the interval."""
        window = [cpu for start, cpu in zip(self.starts, self.cpu_s)
                  if begin <= start < end]
        if not window:
            self._sample(signal.SIGALRM, None)
            window = self.cpu_s[-1:]
        return sum(window) / len(window) / NOMINAL_SAMPLE_S
