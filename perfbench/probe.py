"""Host speed probe: about 1.5 milliseconds of fixed pure-Python work,
timed again and again while a cell runs.

The benchmark shares a few vCPUs with other tenants, and their load changes
how fast this process runs by up to about 1.7x, switching within seconds.
Such a change slows the probe and the cell alike.  The probe runs the same
operations on every call and does not touch gossipsim, so a change to the
library cannot move it.

`Sampler` runs the probe from a SIGALRM handler every `PERIOD_S` seconds
of wall time while a cell runs, in the cell's own thread, and once just
before and once just after.  `Sampler.scaled(lo, hi)` takes the time spent
in the handler out of the interval [lo, hi) and multiplies what is left by
`NOMINAL_S` over the mean probe time in and next to that interval.  The
end-to-end times thus read as seconds at the host speed at which one probe
takes `NOMINAL_S`.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

# The probe time the end-to-end metrics are scaled to: about what one probe
# took on the 2-vCPU Xeon VM the benchmark was tuned on, when it ran fast.
NOMINAL_S = 0.0013
PERIOD_S = 0.05

_ROUNDS = 120

# Made once, so that a probe allocates nothing the collector tracks beyond
# short-lived sets and iterators, which it frees before it returns.
_RNG = random.Random(20160721)
_HOLDINGS = [set(_RNG.sample(range(256), 48)) for _ in range(8)]
_COUNTS = dict.fromkeys(range(256), 0)


def _work() -> int:
    """Set differences and intersections, iteration and dict updates: the
    operations the simulator's round loop is made of."""
    total = 0
    for i in range(_ROUNDS):
        a = _HOLDINGS[i % 8]
        b = _HOLDINGS[(3 * i + 1) % 8]
        diff = a - b
        for token in diff:
            _COUNTS[token] = (_COUNTS[token] + i) & 0xFFFF
        if diff:
            total += max(diff) - min(diff)
        total += len(a & b)
    return total


class Sampler:
    """Context manager: probe samples taken before, during (from the
    SIGALRM handler) and after the block, as start times and durations."""

    def __init__(self):
        # Two lists of floats, which the collector does not track.
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._previous = None

    def _sample(self, *_) -> None:
        # The probe frees the tracked objects it makes before it returns, so
        # with the collector off it barely moves the cell's collection
        # schedule, however many probes the host's speed lets in.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _work()
        self.seconds.append(time.perf_counter() - start)
        self.starts.append(start)
        if enabled:
            gc.enable()

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def busy(self, lo: float, hi: float) -> float:
        """Seconds spent in probes that started within [lo, hi)."""
        return sum(self.seconds[bisect.bisect_left(self.starts, lo) : bisect.bisect_left(self.starts, hi)])

    def scaled(self, lo: float, hi: float) -> float:
        """The interval [lo, hi) without the probes in it, in seconds at the
        probe's nominal speed.  The speed is taken from the probes that
        started in the interval and the nearest one on either side."""
        first = bisect.bisect_left(self.starts, lo)
        last = bisect.bisect_left(self.starts, hi)
        near = self.seconds[max(first - 1, 0) : last + 1]
        return (hi - lo - self.busy(lo, hi)) * NOMINAL_S / statistics.mean(near)
