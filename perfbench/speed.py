"""Host-speed probe: times reported at the reference host's speed.

On a shared host the speed of one core drifts by 10-30% over seconds to
minutes as other tenants come and go, so two runs of the same code can
read 25% apart.  The benchmark therefore times a short fixed pure-Python
kernel (dict updates, float arithmetic, list appends, a sort -- the
interpreter work the program itself does) alongside the work, and
reports each interval in *reference seconds*: its measured seconds times

    REFERENCE_PROBE_S / (kernel time measured around the interval)

-- the time the interval would have taken with the host at the speed
the kernel was calibrated at.  Long intervals run under a
:class:`Sampler` that interrupts them with the kernel; short ones are
bracketed by :func:`probe`.  The kernel never calls the program, so a
change to the program moves these figures exactly as it moves raw
time; only the host's drift divides out.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from time import perf_counter

#: median kernel time on the reference host (Intel Xeon, 2 vCPUs,
#: Python 3.11), measured with nothing else running in the container
REFERENCE_PROBE_S = 0.0090
KERNEL_REPEATS = 7


#: the kernel's working set, allocated once: the kernel itself creates
#: no container objects, so running it inside the program (Sampler ticks)
#: never moves the program's garbage-collection points
_TABLE = dict.fromkeys(range(512), 0.0)
_MARKS: list[float] = []


def _kernel(n: int = 24000) -> float:
    table = _TABLE
    marks = _MARKS
    marks.clear()
    acc = 0.0
    for i in range(n):
        key = (i * 7) & 511
        table[key] = table[key] + i * 0.5
        if not i & 15:
            marks.append(acc % 97.0)
        acc += table[(i * 13) & 511]
    marks.sort()
    return acc + marks[0]


def probe() -> float:
    """Median seconds of a few kernel runs: the host's current pace."""
    times = []
    for _ in range(KERNEL_REPEATS):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def scale(before: float, after: float) -> float:
    """Factor from measured to reference seconds for one interval."""
    return REFERENCE_PROBE_S / ((before + after) / 2.0)


class Sampler:
    """Runs the kernel on a wall-clock timer while a long interval runs.

    A campaign gives no hook between its cells, so instead of bracketing
    it the kernel interrupts it every ``interval`` seconds (a signal
    handler, between two bytecodes of the main thread).  The kernel times
    near a stretch of work give the host's pace during it, and the time
    spent in the handler is known exactly and taken out.
    """

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        #: start and seconds in the handler of every tick (two float
        #: lists: appending a float allocates no container object)
        self.starts: list[float] = []
        self.tooks: list[float] = []
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        start = perf_counter()
        _kernel()
        self.tooks.append(perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, start: float, seconds: float) -> float:
        """``seconds`` from ``start`` minus the handler's ticks inside."""
        lo = bisect_left(self.starts, start)
        hi = bisect_left(self.starts, start + seconds)
        return seconds - sum(self.tooks[lo:hi])

    def reference(self, start: float, seconds: float, window: float = 0.25) -> float:
        """``seconds`` of work that began at ``start`` (perf_counter), in
        reference seconds: the handler's time inside it removed, the rest
        scaled by the mean kernel time of the ticks within ``window``
        seconds of it (all ticks when none are that close)."""
        busy = self.busy(start, seconds)
        lo = bisect_left(self.starts, start - window)
        hi = bisect_left(self.starts, start + seconds + window)
        near = self.tooks[lo:hi] or self.tooks
        if not near:
            return busy
        return busy * REFERENCE_PROBE_S * len(near) / sum(near)
