"""Flush+Reload receiver (Yarom & Falkner), used by the §5.1 AES attack.

The attacker shares read-only pages with the victim (the OpenSSL
T-tables, mapped from the shared library), so it can address the exact
victim lines.  Each round it *reloads* every monitored line with a
timed access — a fast reload means the victim touched the line during
the nap — then *flushes* them all to re-arm the channel before napping.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.kernel import actions as act
from repro.uarch.timing import LATENCY


class FlushReload:
    """Monitor a set of shared lines with Flush+Reload."""

    def __init__(self, lines: Sequence[int], threshold: Optional[float] = None):
        if not lines:
            raise ValueError("need at least one line to monitor")
        self.lines = list(lines)
        self.threshold = threshold if threshold is not None else LATENCY.hit_threshold()
        self._reload = act.TimedLoads(self.lines)
        self._flush = act.Flushes(self.lines)

    def measure(self) -> Iterator[act.Action]:
        """One Reload-then-Flush round; returns per-line hit booleans."""
        latencies = yield self._reload
        yield self._flush
        threshold = self.threshold
        return [latency < threshold for latency in latencies]

    def prime_only(self) -> Iterator[act.Action]:
        """Initial flush before the first victim step (no reload)."""
        yield self._flush
        return [False] * len(self.lines)
