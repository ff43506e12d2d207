"""Machine-speed probe: a fixed reference routine sampled on a timer.

The machine this benchmark was written on is a 2-core VM on a shared host.
Its speed drifts by 15-30% over minutes, so identical runs differ more than
any bound worth setting.  The probe runs ``reference()`` -- loops shaped
like the enumeration kernel's and the verifier's, sharing no code with the
package -- every 50 ms from a SIGALRM handler, in the thread that runs the
jobs.  Each job's time is then taken without the probe's own samples and
scaled by NOMINAL_S / (median duration of the samples nearest the job): a
time in seconds at the nominal speed.  Raw times are kept in the run
records next to the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from itertools import accumulate
from time import perf_counter

# About the median duration of reference() on the 2-core x86_64 VM
# (CPython 3.11.7) where the benchmark was calibrated, at its faster steady
# speed.  Changing it rescales every time the benchmark reports.
NOMINAL_S = 0.001
INTERVAL_S = 0.05
NEAREST = 9


_N = 96
_ROWS = tuple(tuple((1 << (x * 7 + y * 13) % _N) | (1 << (x + y) % _N) | (1 << x)
                    for y in range(_N)) for x in range(_N))


def reference():
    """Two halves shaped like the package's hot loops: small-integer dict and
    tuple work, as in the enumeration kernel, then unions of big-integer
    table rows cached by (row, mask), as in the verifier's CH1 scan."""
    cache = {}
    acc = 0
    for i in range(2000):
        key = (i & 15, (i * 40503) & 255)
        value = cache.get(key)
        if value is None:
            value = cache[key] = (key[1] ^ (key[1] >> 1)) | (1 << key[0])
        acc |= value & -value
        acc ^= i * i % 7
    cache = {}
    for x in range(0, _N, 14):
        row = _ROWS[x]
        for y in range(_N):
            mask = row[y]
            key = (x, mask)
            union = cache.get(key)
            if union is None:
                union = 0
                while mask:
                    low = mask & -mask
                    union |= _ROWS[low.bit_length() - 1][y]
                    mask ^= low
                cache[key] = union
            acc ^= union
    return acc


def sample(count):
    """Median duration of `count` back-to-back reference() calls."""
    durations = []
    for _ in range(count):
        t0 = perf_counter()
        reference()
        durations.append(perf_counter() - t0)
    return statistics.median(durations)


class SpeedProbe:
    """Context manager that samples reference() every INTERVAL_S seconds."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = perf_counter()
        reference()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._cumulative = [0.0, *accumulate(self.durations)]
        return False

    def busy(self, start, end):
        """Seconds the probe itself ran inside [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return self._cumulative[hi] - self._cumulative[lo]

    def scale(self, start, end):
        """NOMINAL_S over the median reference time inside [start, end], or
        over the NEAREST samples closest to it when fewer fall inside."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.starts)):
            if lo > 0 and (hi == len(self.starts)
                           or start - self.starts[lo - 1] <= self.starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        if hi == lo:
            return 1.0
        return NOMINAL_S / statistics.median(self.durations[lo:hi])
