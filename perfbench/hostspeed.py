"""Host-speed sampling, so that host seconds can be read at a fixed speed.

A shared host's speed for interpreter-bound code can drift by 20-30%
over seconds as neighbours come and go.  A run cannot choose its host's
speed, but it can measure it: :class:`HostSpeed` interrupts the run
every ``interval_s`` (SIGALRM, so no thread) and times
:func:`reference_work`, a fixed piece of pure-Python event-loop code that
never changes with the program.  Over any interval, ``reference_seconds``
then gives the time the interval's own work would have taken at the
speed where one reference sample takes ``REFERENCE_SAMPLE_S``: the
seconds left after subtracting the samples, scaled by the mean sampled
speed.  A change to the program moves this number exactly as it moves
host seconds; a change in the host's speed mostly does not.
"""

from __future__ import annotations

import heapq
import signal
import time
from bisect import bisect_left

__all__ = ["HostSpeed", "reference_work", "speed", "time_reference",
           "REFERENCE_SAMPLE_S"]

#: Seconds one reference sample takes at the reference speed: about the
#: median measured in a 2-CPU 2.1 GHz x86-64 container under Python 3.11.
REFERENCE_SAMPLE_S = 0.0008


def _ticker(index: int):
    total = 0
    for step in range(20):
        total += step * index
        yield (index * 7 + step) % 5 + 0.5


def reference_work() -> int:
    """A fixed calendar-queue loop over 40 generators (800 resumptions)."""
    queue = []
    for index in range(40):
        queue.append((0.0, index, _ticker(index)))
    heapq.heapify(queue)
    key = len(queue)
    resumed = 0
    while queue:
        now, _, process = heapq.heappop(queue)
        try:
            delay = next(process)
        except StopIteration:
            continue
        resumed += 1
        key += 1
        heapq.heappush(queue, (now + delay, key, process))
    return resumed


def speed(durations) -> float:
    """Mean host speed over reference samples (1.0 = reference speed)."""
    return sum(REFERENCE_SAMPLE_S / d for d in durations) / len(durations)


def time_reference(samples: int) -> list[float]:
    """Durations of ``samples`` back-to-back reference samples."""
    durations = []
    for _ in range(samples):
        start = time.perf_counter()
        reference_work()
        durations.append(time.perf_counter() - start)
    return durations


class HostSpeed:
    """Samples host speed on a timer for the length of a ``with`` block."""

    def __init__(self, interval_s: float = 0.05, clock=time.perf_counter):
        self.interval_s = interval_s
        self.clock = clock
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def sample(self, *_) -> None:
        """Time one reference sample (the SIGALRM handler)."""
        start = self.clock()
        reference_work()
        self.starts.append(start)
        self.durations.append(self.clock() - start)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, start: float, end: float) -> float:
        """Seconds the work of ``[start, end]`` takes at reference speed.

        Uses the samples that started inside the interval, or the one
        nearest to it when the interval is shorter than the timer period.
        """
        first = bisect_left(self.starts, start)
        last = bisect_left(self.starts, end)
        inside = self.durations[first:last]
        if not inside:
            if not self.durations:
                raise RuntimeError("no host-speed samples were taken")
            inside = [self.durations[min(first, len(self.durations) - 1)]]
            sampled_s = 0.0
        else:
            sampled_s = sum(inside)
        return (end - start - sampled_s) * speed(inside)
