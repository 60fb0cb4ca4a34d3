"""Host-speed calibration: report times at a reference host speed.

The benchmark runs on shared machines whose speed drifts by ±20% over
seconds to minutes (other tenants on the same cores). A fixed piece of
pure-Python work, unrelated to the program, is timed every
:data:`EVERY` seconds between the workload's steps. Each window's
latencies are multiplied by :data:`REFERENCE_S` over the median burst
time in that window, and its rates divided by the same factor. A change
to the program moves the workload's times but not the bursts, so it
shows in full; a slower host moves both and cancels out. Unscaled
figures are kept in the run's record.

Bursts are timed only while the program is idle: the measuring thread
runs them between its own steps, holding :attr:`Calibration.quiet`,
which a workload with background load (remote_edit's editor) holds for
the length of each request. Otherwise a slower commit path would slow
the bursts beside it and scale its own cost away.
"""

from __future__ import annotations

import gc
import statistics
from contextlib import AbstractContextManager, nullcontext

from tracing import now

#: how often a burst runs during measurement, in seconds
EVERY = 0.25
#: what one burst takes on a quiet 2.1 GHz Xeon VM; scaled times are
#: times on a host that fast
REFERENCE_S = 0.00135


def burst() -> float:
    """Seconds one fixed batch of dict, tuple and string work takes now.

    The collector is paused so the program's heap is never scanned on
    the burst's account.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = now()
        for __ in range(8):
            table = {}
            for i in range(300):
                table[f"k{i}"] = [i, str(i) * 3, (i, i + 1)]
            "|".join(f"{k}={v[1]}" for k, v in table.items()).split("|")
        return now() - start
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Burst times, each with the time it ended."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._last = float("-inf")
        #: held while a burst runs (see the module docstring)
        self.quiet: AbstractContextManager = nullcontext()

    def take(self) -> None:
        with self.quiet:
            seconds = burst()
        self._last = now()
        self.samples.append((self._last, seconds))

    def maybe(self) -> None:
        """Take a burst when the last one is :data:`EVERY` seconds old."""
        if now() - self._last >= EVERY:
            self.take()

    def scale(self, lo: float = float("-inf"),
              hi: float = float("inf")) -> float:
        """Factor turning times measured in ``[lo, hi)`` into reference
        times: the reference burst over the median burst of that span
        (of the whole run when the span holds none)."""
        inside = [s for end, s in self.samples if lo <= end < hi]
        return REFERENCE_S / statistics.median(
            inside or [s for __, s in self.samples])
