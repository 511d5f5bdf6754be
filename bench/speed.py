"""Host-speed calibration for timings taken on a shared machine.

On a host shared with other tenants the same interpreter work can take
20-60% longer for minutes at a time, and process CPU time inflates with
wall time, so neither measures the program alone.  The benchmark
therefore times a fixed pure-Python reference kernel between operations
(:class:`SpeedProbe`) and reports every operation's time scaled to a
fixed speed: ``seconds * REFERENCE_S / mean kernel seconds``, over the
samples nearest the operation.  The kernel does what the simulator's hot
paths do (dict and list lookups spread over a few megabytes, heap pushes
and pops of tuples, method calls on slotted objects) and uses no
repository code.  A kernel without the large tables tracked the
program's slowdowns about half as well.

A program change could still reach the scale through state the two
share: a larger live heap makes garbage collections slower, and a
larger working set leaves colder caches.  Samples are therefore taken
after an operation's result is released, with the collector paused.
Planted slowdowns that double each cell's work, one of them also growing
the live heap by 75 MB, moved scaled ``wall_s`` by 2.01x, with the
run's median scale within 4% of the unplanted runs (bench/README.md).
"""

from __future__ import annotations

import bisect
import gc
import heapq
import resource
import statistics
import time
from typing import List

#: Nominal seconds of one reference-kernel call: reported times are host
#: seconds at the speed where the kernel takes this long.
REFERENCE_S = 0.010

#: Least host time between two probe samples.
PROBE_INTERVAL_S = 0.1

_TABLE_BITS = 16
_ITERATIONS = 6000


class _Slot:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, x: int) -> int:
        self.value += x & 7
        return self.value


class SpeedProbe:
    """Reference-kernel samples spread over a run."""

    def __init__(self) -> None:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self._table = {i: i for i in range(1 << _TABLE_BITS)}
        self._list = list(range(1 << _TABLE_BITS))
        #: Growth of the process's peak RSS (MB) from the kernel's tables,
        #: for callers that report the program's own peak.
        self.footprint_mb = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss - before) / 1024
        #: Host time at the middle of each sample, and its duration.
        self.times: List[float] = []
        self.samples: List[float] = []
        self._last = float("-inf")

    def _kernel(self) -> int:
        table, values = self._table, self._list
        mask = (1 << _TABLE_BITS) - 1
        heap: list = []
        slots = [_Slot() for _ in range(64)]
        x, total = 12345, 0
        for i in range(_ITERATIONS):
            x = (x * 1103515245 + 12345) & mask
            table[x] = table[x] + 1
            total += values[(x * 7) & mask]
            heapq.heappush(heap, (x, i))
            if len(heap) > 32:
                heapq.heappop(heap)
            total += slots[i & 63].add(i)
        return total

    def sample(self) -> float:
        """Time one kernel call; returns its host seconds.  The garbage
        collector is paused for the call, so the size of the program's
        heap does not enter the sample."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((t0 + end) / 2)
        self.samples.append(end - t0)
        self._last = end
        return end - t0

    def maybe_sample(self) -> None:
        """Sample unless the last sample was under PROBE_INTERVAL_S ago."""
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.sample()

    @property
    def scale(self) -> float:
        """Multiply host seconds by this to get reported seconds."""
        return scale_of(self.samples)

    def scale_at(self, t: float, k: int = 3) -> float:
        """:attr:`scale` from the ``k`` samples on each side of host time
        ``t``.  Slowdowns come and go within seconds, so the samples next
        to an operation track its speed better than the run's mean."""
        i = bisect.bisect_left(self.times, t)
        return scale_of(self.samples[max(0, i - k):i + k])


def scale_of(samples: List[float]) -> float:
    """The scale that kernel samples ``samples`` give."""
    return REFERENCE_S / statistics.fmean(samples)
