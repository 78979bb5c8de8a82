"""Speed probe: rescales wall times to a fixed machine speed.

A shared host can run this process at speeds up to 1.7x apart. The speed
changes within a fraction of a second and can stay low for tens of seconds, so
medians within a run cannot hide a slow stretch that covers the whole run.
While a SpeedProbe is active, a wall-clock timer interrupts the process every
PERIOD_S seconds and times `reference()`: small matrix products and a scan
over a list of tuples, the two kinds of work the package's hot paths do. Each
probe stands for the time from the midpoint with the previous probe to the
midpoint with the next, during which the machine is taken to run at
REFERENCE_S / (probe time) of the reference speed. `scaled(t0, t1)` integrates
that factor over [t0, t1], leaving out the probes themselves: the time the
interval would have taken at the reference speed: reference-speed seconds,
not wall seconds (0.5-0.95x the raw wall on the baseline host, as its
speed moves).

The probe runs inside the measured process, between gvqa bytecodes, so it
shares the core's caches and the allocator with gvqa. On the 2-vCPU baseline
host `reference()` took about 1.2 ms run back to back, 1.7 ms right after a
32 MB array scan and 2.0 ms after a 50 ms sleep; inside runs its median moved
between 1.2 and 2.2 ms with the host, on every workload. A change to the
package that alters what stays in cache can therefore move the probe, and with
it every scaled time. Runs report the raw walls and the median probe time next
to the scaled figures, so such a shift shows.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

# the speed changes within a fraction of a second; probing every 50 ms costs
# about 3% of the run, which scaled() leaves out
PERIOD_S = 0.05
# probe time, run back to back, at the fast speed of the machine the baseline
# was recorded on; it sets only the unit of the scaled times
REFERENCE_S = 1.15e-3
_ROWS = np.random.default_rng(0).normal(size=(32, 64))
_ENTRIES = [(f"q{i}", f"v{i // 4}", i) for i in range(3400)]


def reference() -> int:
    n = 0
    for _ in range(50):
        b = _ROWS @ _ROWS.T
        n += int(np.exp(b * 0.01).sum() > 0)
    for _ in range(4):
        n += len([e for e in _ENTRIES if e[1] != "v7" and e[0] != "q3"])
    return n


class SpeedProbe:
    """Context manager sampling the probe time while active; see the module doc."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (start, duration)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        reference()
        self.samples.append((t0, perf_counter() - t0))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] at the reference speed, probes left out."""
        if not self.samples:
            raise RuntimeError("no speed probe recorded")
        starts = [s for s, _ in self.samples]
        first = max(0, bisect.bisect_right(starts, t0) - 1)
        last = min(len(starts), bisect.bisect_left(starts, t1) + 1)
        total = 0.0
        for k in range(first, last):
            start, dur = self.samples[k]
            lo = (starts[k - 1] + start) / 2 if k else float("-inf")
            hi = (start + starts[k + 1]) / 2 if k + 1 < len(starts) else float("inf")
            busy = max(0.0, min(t1, hi) - max(t0, lo))
            if t0 <= start < t1:
                busy -= dur
            if busy > 0:
                total += busy * REFERENCE_S / dur
        return total
