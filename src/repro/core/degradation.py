"""Performance degradation (§4.3 "Combining ... with performance
degradation" and the §5.2 instruction-stall trick).

Slowing the victim's *first* post-preemption instruction widens the
window in which exactly one instruction retires, converting zero steps
into single steps.  Two degraders are provided:

* :class:`TlbEvictor` — evicts the victim code page's translation from
  both the L1 iTLB and the unified STLB using Gras-et-al-style eviction
  sets (executing a NOP from each congruent attacker page).  The
  victim's next fetch pays a full page walk.
* :class:`CodeLineStaller` — primes the LLC set congruent to a chosen
  victim *instruction* line.  Inclusivity back-invalidates the line
  from every private cache, so the victim's next fetch of that line
  goes to DRAM — usable both to stall the victim (larger usable τ) and,
  dual-purposed, as the Prime+Probe set that detects the fetch (§5.2).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.cpu.isa import Instruction, InstrKind
from repro.kernel import actions as act
from repro.uarch.cache import CacheGeometry
from repro.uarch.eviction import build_llc_eviction_set, build_tlb_eviction_set
from repro.uarch.tlb import TlbHierarchy


class TlbEvictor:
    """Evict the victim code page's iTLB and STLB entries each round."""

    def __init__(self, victim_code_addr: int, arena_base: int):
        self.victim_code_addr = victim_code_addr
        self.itlb_pages = build_tlb_eviction_set(
            TlbHierarchy.ITLB, victim_code_addr, arena_base
        )
        self.stlb_pages = build_tlb_eviction_set(
            TlbHierarchy.STLB, victim_code_addr, arena_base + (1 << 30)
        )
        # The eviction set never changes, so the batch is built once:
        # rebuilding ~20 frozen Instruction records every preemption
        # round used to dominate the degraded hot path.
        self._fetches = act.ExecInsts(
            Instruction(pc=page_addr, kind=InstrKind.NOP)
            for page_addr in self.itlb_pages + self.stlb_pages
        )

    def degrade(self) -> Iterator[act.Action]:
        """Execute one NOP from each congruent page.

        Instruction fetches fill the attacker's translations into both
        TLB levels, displacing the victim's entry by set contention.
        """
        # Must stay a generator: the kernel ``send()``s action results
        # back into the consuming body.
        yield self._fetches

    @property
    def pages_touched(self) -> int:
        return len(self.itlb_pages) + len(self.stlb_pages)


class CodeLineStaller:
    """Prime the LLC set of a victim instruction line (miss-stall it)."""

    def __init__(
        self,
        llc_geometry: CacheGeometry,
        victim_inst_addr: int,
        arena_base: int,
        extra_ways: int = 2,
    ):
        self.victim_inst_addr = victim_inst_addr
        self.eviction_set: List[int] = build_llc_eviction_set(
            llc_geometry, victim_inst_addr, arena_base, extra_ways
        )
        self._loads = act.Loads(self.eviction_set)

    def degrade(self) -> Iterator[act.Action]:
        """Touch every line of the eviction set, filling the LLC set and
        (by inclusion) purging the victim's line from all caches."""
        yield self._loads


class CompositeDegrader:
    """Run several degraders in sequence each round."""

    def __init__(self, *degraders):
        self.degraders = degraders

    def degrade(self) -> Iterator[act.Action]:
        for degrader in self.degraders:
            yield from degrader.degrade()
