"""LLC Prime+Probe receiver (Liu et al.), used by the §5.2 SGX attack.

Unlike Flush+Reload this needs no shared memory — essential against an
SGX enclave whose memory cannot be mapped.  The attacker fills a target
LLC set with its own lines (*prime*); a victim access to any congruent
line evicts one of them (inclusively, from the attacker's private
caches too); timing the reload of the whole set (*probe*) reveals the
eviction as one or more slow loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.kernel import actions as act
from repro.uarch.cache import CacheGeometry
from repro.uarch.eviction import build_llc_eviction_set
from repro.uarch.timing import LATENCY, LatencyModel


def prime_probe_threshold(latency: LatencyModel = LATENCY) -> float:
    """Cycle threshold separating a victim-evicted line from probe
    artifacts.

    Against an SGX victim every preemption is an AEX that flushes the
    core TLB — including the attacker's huge-page translations — so the
    first probe access per 2 MiB region legitimately pays a page walk
    on top of its LLC hit (~walk+llc cycles).  A genuinely evicted line
    reads at DRAM latency or above; the threshold sits halfway between
    the two.
    """
    walk_artifact = latency.page_walk + latency.llc_hit
    return (walk_artifact + latency.dram) / 2


@dataclass
class ProbeResult:
    """Decoded probe of one set."""

    set_label: str
    misses: int
    total_latency: float

    @property
    def victim_touched(self) -> bool:
        return self.misses > 0


class PrimeProbeSet:
    """One monitored LLC set."""

    def __init__(
        self,
        label: str,
        eviction_addrs: Sequence[int],
        threshold: Optional[float] = None,
    ):
        if not eviction_addrs:
            raise ValueError("empty eviction set")
        self.label = label
        self.addrs = list(eviction_addrs)
        self.threshold = (
            threshold if threshold is not None else prime_probe_threshold()
        )
        self._prime = act.Loads(self.addrs + self.addrs)
        self._probe = act.TimedLoads(self.addrs)

    @classmethod
    def for_target(
        cls,
        llc_geometry: CacheGeometry,
        label: str,
        target_addr: int,
        arena_base: int,
        extra_ways: int = 0,
    ) -> "PrimeProbeSet":
        """Build the set congruent to ``target_addr`` out of ``arena``.

        A *probe* set must hold exactly ``associativity`` lines: any
        more and the set evicts its own members, reading as a permanent
        false positive.  (Stall-only sets may over-provision; see
        :class:`repro.core.degradation.CodeLineStaller`.)"""
        addrs = build_llc_eviction_set(llc_geometry, target_addr, arena_base, extra_ways)
        return cls(label, addrs)

    def prime(self) -> Iterator[act.Action]:
        """Fill the set (two passes settle LRU the way real attacks do)."""
        yield self._prime
        return None

    def probe(self) -> Iterator[act.Action]:
        """Timed reload of the whole set; probing re-primes as it goes."""
        latencies = yield self._probe
        misses = 0
        total = 0.0
        for latency in latencies:
            total += latency
            if latency > self.threshold:
                misses += 1
        return ProbeResult(self.label, misses, total)


class PrimeProbe:
    """Probe-then-prime measurer over several sets.

    ``measure()`` probes every set (decoding the victim's activity from
    the nap) and then re-primes them, returning the list of
    :class:`ProbeResult` in set order.
    """

    def __init__(self, sets: Sequence[PrimeProbeSet]):
        if not sets:
            raise ValueError("need at least one set")
        self.sets = list(sets)
        self._primed = False

    def measure(self) -> Iterator[act.Action]:
        if not self._primed:
            # Precondition round: the sets have never been primed, so a
            # probe would read pure garbage.  Prime and report nothing.
            for pp_set in self.sets:
                yield from pp_set.prime()
            self._primed = True
            return None
        results: List[ProbeResult] = []
        for pp_set in self.sets:
            result = yield from pp_set.probe()
            results.append(result)
        for pp_set in self.sets:
            yield from pp_set.prime()
        return results
