"""Timing that is scaled to a reference host speed.

The benchmark runs on shared virtual machines whose speed moves by up to
1.9x, sometimes within a second, as the host moves the virtual CPU between
busy and idle physical cores.  A raw time of the same work then spreads
further than any useful regression bound.  So while a HostClock is open, a
timer samples the host's speed every PERIOD_S: the signal handler runs a
fixed piece of exact rational arithmetic on the standard library's
`fractions.Fraction` (object allocation, method dispatch and big-integer
gcds, as in the package's F_q(t) arithmetic, but none of the package's
code) and records how long it took, the least of three tries, so that a
single preemption does not count as a slow host.  A timed call's raw time
excludes the time spent in the handler; it is scaled by REF_S over the mean
speed sample taken from WINDOW_S before the call to WINDOW_S after it,
which gives its length in seconds on a host where a sample takes REF_S.
Of the calibrations tried (this one, F_q[t] table arithmetic from gf.py,
and the same over a 3000-polynomial pool), this one followed the
package's speed most closely: over 150 s in which the raw time of a fixed
op moved by 1.8x between 10 s windows, the scaled time moved by 1.04-1.07x.
The raw times are reported next to the scaled ones.

A change to the package moves the scaled times as it moves the raw ones;
only the host's speed cancels out.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# a round figure for one speed sample taken between slices of program work
# on the reference host (a shared 2.1 GHz Xeon virtual CPU, Python 3.11),
# where samples read 0.0004-0.0007 s as its speed moved
REF_S = 0.0005
PERIOD_S = 0.1
WINDOW_S = 0.5

_rng = random.Random(20220516)
_OPERANDS = [Fraction(_rng.randrange(1, 10 ** 6), _rng.randrange(1, 10 ** 6))
             for _ in range(90)]
_CAP = 10 ** 12


def calibrate():
    """Seconds for the fixed calibration work."""
    t0 = perf_counter()
    acc = Fraction(0)
    for x in _OPERANDS:
        acc = acc * x + x
        acc = Fraction(acc.numerator % _CAP, acc.denominator % _CAP + 1)
    return perf_counter() - t0


class HostClock:
    """Times calls and scales each to the reference host speed.

    Use it as a context manager: the speed sampler runs from `__enter__`
    to `__exit__`.  `time(label, fn, *args)` calls fn and records its raw
    time under label; after the block, `intervals()` returns every call as
    (label, raw seconds, scaled seconds)."""

    def __init__(self):
        self.samples = []     # (start, seconds) of each speed sample
        self.calls = []       # (label, start, end, handler seconds inside)
        self._handler_s = 0.0
        self._old_handler = None

    def _sample(self, *_):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            self.samples.append((t0, min(calibrate() for _ in range(3))))
            self._handler_s += perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()
        return False

    def time(self, label, fn, *args):
        h0 = self._handler_s
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self.calls.append((label, t0, t1, self._handler_s - h0))

    def intervals(self):
        starts = [t for t, _ in self.samples]
        out = []
        for label, t0, t1, handler in self.calls:
            lo = bisect.bisect_left(starts, t0 - WINDOW_S)
            hi = bisect.bisect_right(starts, t1 + WINDOW_S)
            # a sample is always near: one opens the block, one closes it
            # and the timer fires every PERIOD_S unless a long native call
            # holds it back
            near = self.samples[lo:hi] or self.samples[max(lo - 1, 0):lo + 1]
            speed = statistics.fmean(c for _, c in near)
            raw = t1 - t0 - handler
            out.append((label, raw, raw * REF_S / speed))
        return out

    def median_sample(self):
        return statistics.median(c for _, c in self.samples)
