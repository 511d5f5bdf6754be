"""Payload-start detection (the attack's seek phase).

Crypto code occupies a tiny slice of a victim's runtime; burning the
preemption budget single-stepping startup code would exhaust it before
the secret-dependent region.  Real attacks therefore monitor a *landmark*
— a code line the victim fetches just before the sensitive call — with
a cheap one-line probe and a larger nap, switching to full-rate
measurement when it lights up.  Seek rounds are nearly budget-neutral:
the victim runs longer per round than the attacker spends measuring,
so Eq 2.1's left arm keeps re-granting the full S_slack deficit.

A seeker is one of the two receivers, Flush+Reload (shared pages) or
Prime+Probe (SGX, no shared memory), run over the landmark alone; its
``measure()`` reduces the receiver's round to "did the landmark light
up?".
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.kernel import actions as act
from repro.channels.flush_reload import FlushReload
from repro.channels.prime_probe import PrimeProbe, PrimeProbeSet


class FlushReloadSeeker(FlushReload):
    """Flush+Reload over the landmark line; True once it hits."""

    def __init__(self, marker_addr: int, threshold: Optional[float] = None):
        super().__init__((marker_addr,), threshold)

    def measure(self) -> Iterator[act.Action]:
        hits = yield from super().measure()
        return hits[0]


class PrimeProbeSeeker(PrimeProbe):
    """Prime+Probe over the one LLC set congruent to the landmark line;
    True once the victim touched it (False on the priming round)."""

    def __init__(self, pp_set: PrimeProbeSet):
        super().__init__([pp_set])

    def measure(self) -> Iterator[act.Action]:
        results = yield from super().measure()
        return results is not None and results[0].victim_touched
