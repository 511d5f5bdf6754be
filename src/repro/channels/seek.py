"""Payload-start detection (the attack's seek phase).

Crypto code occupies a tiny slice of a victim's runtime; burning the
preemption budget single-stepping startup code would exhaust it before
the secret-dependent region.  Real attacks therefore monitor a *landmark*
— a code line the victim fetches just before the sensitive call — with
a cheap one-line probe and a larger nap, switching to full-rate
measurement when it lights up.  Seek rounds are nearly budget-neutral:
the victim runs longer per round than the attacker spends measuring,
so Eq 2.1's left arm keeps re-granting the full S_slack deficit.

Two landmark probes are provided, matching the two channel families:
Flush+Reload (shared pages) and Prime+Probe (SGX, no shared memory).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.kernel import actions as act
from repro.channels.prime_probe import PrimeProbeSet
from repro.uarch.timing import LATENCY


class FlushReloadSeeker:
    """Reload-then-flush a single landmark line; True once it hits."""

    def __init__(self, marker_addr: int, threshold: Optional[float] = None):
        self.marker_addr = marker_addr
        self.threshold = threshold if threshold is not None else LATENCY.hit_threshold()
        self._reload = act.TimedLoads((marker_addr,))
        self._flush = act.Flushes((marker_addr,))

    def measure(self) -> Iterator[act.Action]:
        (latency,) = yield self._reload
        yield self._flush
        return latency < self.threshold


class PrimeProbeSeeker:
    """Probe-then-prime one LLC set congruent to the landmark line."""

    def __init__(self, pp_set: PrimeProbeSet):
        self.pp_set = pp_set
        self._primed = False

    def measure(self) -> Iterator[act.Action]:
        if not self._primed:
            yield from self.pp_set.prime()
            self._primed = True
            return False
        result = yield from self.pp_set.probe()
        yield from self.pp_set.prime()
        return result.victim_touched
