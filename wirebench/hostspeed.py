"""Host speed: a fixed reference loop timed between the benchmark's slices.

The 2-core reference host is shared, and its speed drifts by tens of
percent from one minute to the next: the loop below ran anywhere from
3500 to 6200 iterations per second in 12-s windows of one process.  A
run of under a minute cannot average that out, so raw timings of
identical code spread between runs by more than any useful bound.

The benchmark therefore times this loop between its slices, and inside
long slices between their timed operations, and scales every timing
sample to ``REFERENCE_RATE`` by the readings near it (``SpeedLog``):
``rate * REFERENCE_RATE / speed`` and ``seconds * speed /
REFERENCE_RATE``.  The loop is the benchmark's own code and never runs
at the same time as the program, so a change to the program moves the
scaled figures exactly as it moves the raw ones; only the host's drift
cancels.  Raw figures stay in the run record.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

import numpy as np

#: Iterations per second of ``reference_rate``'s loop on the reference
#: host in a quiet period; scaled figures read as if the host ran at it.
REFERENCE_RATE = 5000.0

#: Seconds on either side of a timing sample whose readings scale it.
#: Over six sets of runs, pooling readings this far out spread the
#: metrics less than the two readings next to a slice or wider windows.
WINDOW_S = 2.0

_MATRIX = np.random.default_rng(0).standard_normal((16, 16))


def reference_rate(seconds: float = 0.05) -> float:
    """Iterations per second of a fixed interpreter-and-numpy loop.

    A short sleep first lets BLAS worker threads of the last slice park,
    so they do not compete with the loop.
    """
    time.sleep(0.01)
    count = 0
    start = time.perf_counter()
    while True:
        total = 0
        for value in range(2000):
            total += value * value % 7
        matrix = _MATRIX
        for _ in range(20):
            matrix = np.tanh(matrix @ _MATRIX * 0.1)
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return count / elapsed


def speed() -> float:
    """Host speed now, as a share of ``REFERENCE_RATE``."""
    return reference_rate() / REFERENCE_RATE


class SpeedLog:
    """Host-speed readings, each stamped with the time it was taken."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.speeds: List[float] = []

    def read(self) -> float:
        """Take a reading now and keep it."""
        start = time.perf_counter()
        value = speed()
        self.times.append((start + time.perf_counter()) / 2)
        self.speeds.append(value)
        return value

    def around(self, start: float, end: float) -> float:
        """Host speed over ``[start, end]``.

        The median of the readings taken from ``WINDOW_S`` before
        ``start`` to ``WINDOW_S`` after ``end``: one reading is a short
        glimpse of a speed that changes from one second to the next, so
        several are pooled.  With none that close, the mean of the last
        reading before ``start`` and the first after ``end``.
        """
        if not self.times:
            raise RuntimeError("no host-speed reading taken")
        first = bisect.bisect_left(self.times, start - WINDOW_S)
        last = bisect.bisect_right(self.times, end + WINDOW_S)
        if first < last:
            return statistics.median(self.speeds[first:last])
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = min(bisect.bisect_left(self.times, end), len(self.times) - 1)
        return statistics.fmean(self.speeds[before:after + 1])
