"""A clock that counts time in units of a reference computation.

On the reference machine (a 2-vCPU virtual machine) the same code runs at
speeds up to 1.5x apart from one minute to the next, with process CPU time
tracking wall time, so raw seconds from two runs of identical code differ by
more than any useful regression bound.  While started, ``RefClock`` is
interrupted every ``interval`` seconds by a timer signal, times one run of
``reference`` (a fixed pure-Python computation that uses no gemkit code),
and from then on advances at raw time divided by the median of the last
``WINDOW`` reference times.  Its readings are in units of ``ref``: how many
reference computations the work is worth, whatever the host's speed was at
the moment.  Time spent in the interrupt is excluded from both the ref and
the raw readings.  A change to gemkit moves only the numerator.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Callable, List, Optional

WINDOW = 5


def reference() -> int:
    """About a millisecond of interpreter work: union-find, dict counting, sorting."""
    size = 2000
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    counts = {}
    for i in range(size):
        a, b = find(i), find(i * 7919 % size)
        if a != b:
            parent[a] = b
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + 1
    return len(sorted(counts.items())) + find(0)


class RefClock:
    """Raw and reference-unit readings, sampled by a timer signal while started.

    ``interval=None`` takes one reference sample at start and none after.
    ``on_tick`` is told how long each interrupt took, so that a tracer can
    keep it out of the span it interrupted.
    """

    def __init__(self, interval: Optional[float] = 0.05,
                 timer: Callable[[], float] = time.perf_counter,
                 work: Callable[[], object] = reference,
                 on_tick: Optional[Callable[[float], None]] = None):
        self.interval = interval
        self.timer = timer
        self.work = work
        self.on_tick = on_tick
        self.ref_s: List[float] = []
        self._ref = 0.0
        self._raw = 0.0
        self._r = 1.0
        self._mark = 0.0
        self._version = 0
        self._ticking = False
        self._saved_handler = None

    def start(self) -> None:
        self._sample()
        self._mark = self.timer()
        if self.interval is not None:
            self._saved_handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        if self.interval is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._saved_handler)
        self._advance()

    def now(self) -> float:
        """Reference units elapsed while started."""
        while True:
            v = self._version
            value = self._ref + (self.timer() - self._mark) / self._r
            if v == self._version:  # no interrupt in between
                return value

    def raw_now(self) -> float:
        """Seconds elapsed while started, interrupts excluded."""
        while True:
            v = self._version
            value = self._raw + (self.timer() - self._mark)
            if v == self._version:
                return value

    def _advance(self) -> None:
        stretch = self.timer() - self._mark
        self._ref += stretch / self._r
        self._raw += stretch

    def _sample(self) -> None:
        # a collection owed by the measured code's allocations is not the
        # reference's to pay
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = self.timer()
            self.work()
            self.ref_s.append(self.timer() - t)
        finally:
            if enabled:
                gc.enable()
        self._r = statistics.median(self.ref_s[-WINDOW:])

    def _tick(self, signum=None, frame=None) -> None:
        if self._ticking:  # a signal that arrives during a tick is dropped
            return
        self._ticking = True
        try:
            self._advance()
            entered = self.timer()
            self._sample()
            self._mark = self.timer()
            self._version += 1
            if self.on_tick is not None:
                self.on_tick(self._mark - entered)
        finally:
            self._ticking = False
