"""The machine's speed, sampled while the benchmark runs, so that its
times can be reported at one fixed reference speed.

On a shared machine the same work can take half again as long from one
second to the next, because other tenants slow the CPU; the slow spells
last from a fraction of a second to minutes.  ``Speed`` runs a small
fixed pure-Python kernel every ``INTERVAL_S`` from a timer signal and
records its speed, ``REF_KERNEL_S`` ÷ its time: 1 at the reference
speed, below 1 when the machine is slow.  A call that took ``t``
seconds of wall time did ``t`` × (mean speed over the call) seconds of
work at the reference speed, and that is the time the benchmark
reports.  The kernel touches none of the program's code or data, so a
change to the program changes its reported times by what it changes
its own work; the kernel's own time is left out of every timed call.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from time import perf_counter

# Seconds one kernel run takes at the reference speed: a round figure
# near its time on a shared 2-core x86-64 box under CPython 3.11, where
# it reads 65-100 us.
REF_KERNEL_S = 100e-6
INTERVAL_S = 0.01       # timer period between samples
WINDOW_S = 0.2          # a call's speed also counts samples this long before it


class _Item:
    __slots__ = ("key", "val")


# The kernel's data is built once, at import, and never changes: the
# kernel allocates no container objects, so it never starts a garbage
# collection that would scan the program's objects.
_N = 300
_ITEMS = []
for _i in range(_N):
    _it = _Item()
    _it.key, _it.val = _i, (_i * 7919) % 211
    _ITEMS.append(_it)
_BY_KEY = {it.key: it for it in _ITEMS}
_VALS = {it.val for it in _ITEMS if it.key % 3}


def kernel() -> int:
    """Attribute reads, dict and set lookups and integer arithmetic over
    fixed data, the mix the program itself spends its time on."""
    t = 0
    for it in _ITEMS:
        if it.val in _VALS:
            t += _BY_KEY[it.key].val
        else:
            t -= it.key
    for it in _ITEMS:
        t ^= _BY_KEY[(it.key * 7) % _N].val
    return t


class Speed:
    """Samples of the machine's speed, taken from a timer signal while
    the object is entered as a context manager."""

    def __init__(self):
        self.times: list[float] = []    # when each sample started
        self.speeds: list[float] = []   # REF_KERNEL_S / kernel time
        self.spent = 0.0                # seconds spent sampling in total
        self._saved = None

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.times.append(t0)
        self.speeds.append(REF_KERNEL_S / (t1 - t0))
        self.spent += perf_counter() - t0

    def _tick(self, _signum, _frame) -> None:
        self.sample()

    def __enter__(self) -> "Speed":
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def since(self, t0: float) -> float:
        """Mean speed over the samples taken from ``WINDOW_S`` before
        ``t0`` until now; 1 when there are none."""
        recent = self.speeds[bisect_left(self.times, t0 - WINDOW_S):]
        return statistics.fmean(recent) if recent else 1.0

    def mean(self) -> float:
        return statistics.fmean(self.speeds) if self.speeds else 1.0
