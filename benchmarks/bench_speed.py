"""Host speed reference: scale the benchmark's timings to a fixed host speed.

A shared virtual machine runs the same code at a speed that drifts by 20-50%
over tens of seconds, as neighbours come and go; wall and CPU time drift
alike.  The harness therefore times a fixed reference loop (an interpreter
loop followed by numpy passes over a 1.6 MB array, the two kinds of work
oscispec does; it shares no code with oscispec) between items, and scales each
item's time by REFERENCE_S over the reference loop's duration around that
item.  A scaled time reads as the time the item would take on a host where
the reference loop takes REFERENCE_S.  A change to oscispec moves the item
times and not the reference loop, so it still shows in full; a slower or
faster host moves both, and the two largely cancel.  The scale assumes that
an item leaves nothing running after it returns: work left running would
slow the reference loop too and hide part of its own cost.  Raw times stay in
the run's report.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_ITERATIONS = 50_000
REFERENCE_ARRAY = np.linspace(0.0, 1.0, 200_000)
# Nominal duration of one reference loop, close to its duration on a 2-vCPU
# Xeon VM; scaled times are stated at this speed.
REFERENCE_S = 0.010


def reference_loop() -> float:
    """Wall seconds of one fixed loop: interpreter work, then array work."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    y = np.sin(REFERENCE_ARRAY * 3.1) * REFERENCE_ARRAY
    np.cumsum(y)
    y.sum()
    return time.perf_counter() - start


class HostSpeed:
    """Reference-loop durations with the time each one ended."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.ends: list[float] = []
        self.durations: list[float] = []
        reference_loop()  # first call pays for allocation, not speed

    def sample(self) -> None:
        duration = reference_loop()
        self.ends.append(time.perf_counter())
        self.durations.append(duration)

    def sample_if_due(self) -> None:
        """Sample unless one was taken less than `interval` seconds ago."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= self.interval:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean of the last sample before `start` and the
        first after `end` (whichever of the two exists)."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.ends, end)
        around = [self.durations[k] for k in (before, after) if 0 <= k < len(self.durations)]
        if not around:
            raise ValueError("no reference-loop sample around the interval")
        return REFERENCE_S / statistics.fmean(around)

    def summary(self) -> dict:
        ms = [d * 1e3 for d in self.durations]
        q = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
        return {"samples": len(ms), "p25_ms": q[0], "p50_ms": q[1], "p75_ms": q[2], "reference_ms": REFERENCE_S * 1e3}
