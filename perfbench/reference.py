"""A fixed reference computation that gauges the machine's current speed.

On a shared VM the speed of a core drifts with the load of other tenants:
here a job ran 1.8 times slower for minutes at a time, and the CPU time of
a process tracked its wall time, so the slowdown is in execution speed and
no CPU-time measure removes it.  The benchmark therefore runs this
reference, which never changes and never touches tatebv, in short bursts
before, after and (with the measured child stopped) during the measured
pieces of work, and scales each measured time by
``REFERENCE_S / local reference time``.  A scaled time reads as the time
the work would take on a machine on which the reference takes REFERENCE_S;
a change to tatebv moves it exactly as it moves the raw time.

The work is what tatebv spends most of its time on: column elimination of
a sparse matrix over F_3 held as dicts of ints, in pure Python.
"""

from __future__ import annotations

import random
import statistics
import time

REFERENCE_S = 0.035  # the reference's median on a quiet 2-vCPU Xeon VM
BURST = 3


def _eliminate(n: int = 220, p: int = 3) -> int:
    rng = random.Random(1)
    cols = [{rng.randrange(n): rng.randrange(1, p) for _ in range(6)} for _ in range(n)]
    pivots = {}
    for col in cols:
        while col:
            r = max(col)
            if r not in pivots:
                inv = pow(col[r], p - 2, p)
                pivots[r] = {k: v * inv % p for k, v in col.items()}
                break
            f = col[r]
            for k, v in pivots[r].items():
                x = (col.get(k, 0) - f * v) % p
                if x:
                    col[k] = x
                else:
                    col.pop(k, None)
    return len(pivots)


def burst() -> float:
    """Median seconds of BURST runs of the reference."""
    times = []
    for _ in range(BURST):
        start = time.perf_counter()
        _eliminate()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Gauge:
    """Scale factors from bursts taken around, and during, pieces of work."""

    def __init__(self):
        self.last = burst()
        self.bursts = [self.last]
        self._during: list = []

    def sample(self):
        """Takes a burst while a piece of work is paused."""
        self._during.append(burst())
        self.bursts.append(self._during[-1])

    def factor(self) -> float:
        """Takes a burst after a piece of work and returns the factor that
        scales the work's time: REFERENCE_S over the mean of the bursts just
        before, during and just after it."""
        after = burst()
        self.bursts.append(after)
        speeds = [self.last, *self._during, after]
        self.last, self._during = after, []
        return REFERENCE_S / statistics.mean(speeds)
