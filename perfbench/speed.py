"""Machine-speed correction for timings taken on a shared, drifting CPU.

On the 2-vCPU VM this benchmark was built on, the speed of the same
pure-Python work drifts by up to 1.9x (other tenants share the host), and
raw run-to-run spreads of 15-45% swamp any bound worth having.  The speed
flips between a fast and a slow state: about 30% of 10 ms windows ran
1.5-1.9x slower than the rest, and a window's state matched the one 10 ms
later 87% of the time but the one 100 ms later only 71%.  So a fixed probe
-- about 0.1 ms of Fraction arithmetic, benchmark code, never the library
-- runs every INTERVAL seconds from a SIGALRM handler.  Library and probe
slow down together: over 5 s windows their time ratio held within about 4%
while each moved by 60%.  A timing over [start, end] is scaled by the mean
of REFERENCE_S / (probe duration) over that window, i.e. reported as the
time it would take at the probe speed REFERENCE_S.  The probe runs inside
whatever is being timed, so its own time is taken out first; left in, it
would add a tenth of a millisecond to one sub-millisecond query in ten.
Raw timings stay in the run record.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.01
# probe duration that defines "reference speed": about the speed at which
# the earlier 1 ms probe (the same loop from i = 1) took 1.000 ms
REFERENCE_S = 85e-6
MIN_SAMPLES = 2
START = sum(Fraction(1, i) for i in range(1, 112))  # a 48-digit denominator


def probe():
    """The last eight steps of a harmonic sum: Fraction work on big numbers,
    as in the library's generic instances."""
    total = START
    best = Fraction(10**9)
    for i in range(112, 120):
        term = Fraction(i * 7919 % 1000003, i + 10007) + total
        if term < best:
            best = term
        total += Fraction(1, i)
    return total


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.times.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Mean of REFERENCE_S / probe over the probes in [start, end], or
        the nearest probes when the window holds fewer than MIN_SAMPLES.

        Probes are evenly spaced in time, so this mean is the work done in
        the window per second of reference speed: exact when the speed
        changes inside the window, and a probe stretched by an interruption
        only adds a term near zero.  Speed can change within a second, so a
        short timing takes the two nearest probes, one on each side as a rule,
        no more than about INTERVAL away.  A probe 50 ms away, as with one
        probe per 100 ms, is in another speed state about one time in four,
        and p99 on tau-generic (the tail of the (8,3) witness checks, run
        back to back within half a second) then ranged over 23% of its
        median across five seeds, against 7.5% with these probes.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            if lo > 0 and (hi == len(self.times) or start - self.times[lo - 1] < self.times[hi] - end):
                lo -= 1
            else:
                hi += 1
        return statistics.fmean(REFERENCE_S / d for d in self.durations[lo:hi])

    def _inside(self, start: float, end: float) -> float:
        """Seconds the probe itself ran inside [start, end]."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        return sum(self.durations[lo:hi])

    def unscaled(self, start: float, seconds: float) -> float:
        """A timing without the probes that interrupted it."""
        return seconds - self._inside(start, start + seconds)

    def scale(self, start: float, seconds: float) -> float:
        """A timing without its probes, at reference speed."""
        end = start + seconds
        return (seconds - self._inside(start, end)) * self.factor(start, end)
