"""Machine speed, sampled while a pass runs.

This benchmark runs on a few cores of a shared host, whose speed drifts by
a third within a minute: a fixed loop of Fraction and dict arithmetic,
timed back to back, takes anywhere from 0.16 to 0.41 s, and slow stretches
last tens of seconds.  CPU time tracks wall time, so the drift is in how
fast the core runs, not in scheduling.  A pass time taken alone then
measures the neighbours as much as the program.

`Sampler` interrupts the pass every PERIOD_S seconds of wall time (a
SIGALRM timer, no thread) and times one BURST, a fixed piece of the same
kind of arithmetic the program does, written here and not in the program,
so that no change to the program changes it.  The pass's own time is the
wall time between samples, with the bursts left out.  `normalized` weights
each stretch between samples by how long the burst took around it: it is
the pass's time at the speed at which one burst takes REF_BURST_S.
"""

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.05
# It only sets the scale: about the burst's time inside a pass, at its
# fastest, on the machine the figures in README.md were taken on.
REF_BURST_S = 0.0015

_A = {(i, j, i - j): (Fraction(i + 1, j + 2) if (i + j) % 2 else i * j + 1)
      for i in range(5) for j in range(4)}


def burst():
    """Multiply two fixed Laurent polynomials in (q, t, a) held as dicts."""
    out = {}
    for k1, c1 in _A.items():
        for k2, c2 in _A.items():
            key = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
            v = out.get(key, 0) + c1 * c2
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def burst_time():
    t0 = time.perf_counter()
    burst()
    return time.perf_counter() - t0


class Sampler:
    """Times a burst every PERIOD_S seconds between start() and stop()."""

    def __init__(self):
        self.stretches = []   # (own time since the previous sample, burst s)
        self._last = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        burst()
        t1 = time.perf_counter()
        self.stretches.append((t0 - self._last, t1 - t0))
        self._last = t1

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # the stretch after the last sample is weighted by a burst timed now
        tail = time.perf_counter() - self._last
        self.stretches.append((tail, burst_time()))

    def own_s(self):
        """Wall time of the pass with the bursts left out."""
        return sum(own for own, _ in self.stretches)

    def normalized(self, before_s=0.0):
        """The pass's time at reference speed: each stretch scaled by the
        median of the three bursts nearest to it, so that one burst slowed
        by an interruption does not count.  `before_s`, time spent before
        start(), is scaled by the first three."""
        bursts = [b for _, b in self.stretches]
        total = before_s * REF_BURST_S / statistics.median(bursts[:3])
        for i, (own, _) in enumerate(self.stretches):
            lo = max(0, min(i - 1, len(bursts) - 3))
            total += own * REF_BURST_S / statistics.median(bursts[lo:lo + 3])
        return total
