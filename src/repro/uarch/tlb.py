"""Two-level TLB model (per-core L1 iTLB + unified STLB).

Entries are tagged ``(asid, vpn)`` — the attacker can never *hit* on a
victim translation, but it can *evict* one through set contention, which
is precisely the Gras et al. technique the paper's §4.3 performance
degradation uses.  An SGX AEX event flushes the whole structure
(:meth:`TlbHierarchy.flush_all`), which is why the paper's SGX attack
needs no explicit iTLB eviction.

Set indexing follows the linear-indexing results of Gras et al.: the set
is ``vpn mod n_sets``.

**Set identity.**  A level allocates its set dicts once, in its
constructor, and never replaces them: an eviction deletes from a set in
place, and ``flush_all`` (an SGX AEX, :meth:`TlbHierarchy.flush_core`)
clears each set in place.  The cache's resolved load walks
(:class:`repro.uarch.cache.LoadWalker`) hold STLB set dicts, and the
core's resolved fetch walks (:meth:`repro.cpu.core.Core.fetch_walk`)
hold iTLB and STLB set dicts; both rely on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.uarch.address import PAGE_SIZE, page_number
from repro.uarch.timing import LATENCY, LatencyModel

Tag = Tuple[int, int]  # (asid, vpn)

#: A data access through a 2 MiB page (``translate_data(huge=True)``)
#: is tagged with ``HUGE_VPN_BASE + addr // HUGE_PAGE_SIZE``, a VPN
#: namespace disjoint from any 4 KiB VPN.
HUGE_PAGE_SIZE = 2 * 1024 * 1024
HUGE_VPN_BASE = 1 << 48


@dataclass(frozen=True)
class TlbGeometry:
    """Shape of one TLB level (defaults: Coffee Lake iTLB and STLB)."""

    n_sets: int
    n_ways: int

    def set_index(self, vpn: int) -> int:
        return vpn % self.n_sets

    @property
    def n_entries(self) -> int:
        return self.n_sets * self.n_ways


class Tlb:
    """One set-associative LRU TLB level with (asid, vpn) tags.

    Each set is an insertion-ordered dict of tags (LRU first, MRU last),
    so membership, recency refresh and eviction are O(1).  The level
    holds the sets and counters; :class:`TlbHierarchy` walks them.
    """

    __slots__ = ("name", "geometry", "_sets", "hits", "misses", "evictions",
                 "version", "_n_sets", "_n_ways")

    def __init__(self, name: str, geometry: TlbGeometry):
        self.name = name
        self.geometry = geometry
        # Preallocated bucket per set (direct list subscript; see
        # CacheLevel for the rationale).
        self._sets: List[Dict[Tag, None]] = [{} for _ in range(geometry.n_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Bumped whenever an entry leaves this level (evict/flush);
        #: fills never bump it.  See repro.uarch.cache docstring.
        self.version = 0
        self._n_sets = geometry.n_sets
        self._n_ways = geometry.n_ways

    def contains(self, asid: int, vpn: int) -> bool:
        return (asid, vpn) in self._sets[vpn % self._n_sets]

    def contains_all(self, asid: int, vpns: Iterable[int]) -> bool:
        """True when every ``vpn`` is translated for ``asid``; batched
        :meth:`contains` for footprint certification."""
        sets = self._sets
        n_sets = self._n_sets
        for vpn in vpns:
            if (asid, vpn) not in sets[vpn % n_sets]:
                return False
        return True

    def resident_tags(self, set_index: int) -> Tuple[Tag, ...]:
        """Tags currently resident in ``set_index`` (LRU → MRU order)."""
        return tuple(self._sets[set_index])

    def occupied_sets(self):
        """Yield ``(set_index, tags)`` for every non-empty set, tags in
        LRU → MRU order.  Read-only view for structural oracles."""
        for index, bucket in enumerate(self._sets):
            if bucket:
                yield index, tuple(bucket)

    def flush_all(self) -> None:
        for bucket in self._sets:
            bucket.clear()
        self.version += 1


class TlbHierarchy:
    """Per-core iTLB + unified STLB with i9-9900K-like shapes.

    The data-side L1 TLB is not modelled separately: the paper only
    degrades *instruction* translations, and data loads reuse the STLB
    path, which is enough for every experiment.

    A translation walks the levels' sets directly.  A level that holds
    the ``(asid, vpn)`` tag counts a hit and moves the tag to the MRU
    end.  A level that misses counts a miss and, once the walk below it
    has resolved the translation, inserts the tag at the MRU end; when
    the set is full it first drops the LRU tag, counting an eviction and
    bumping the level's ``version``.  A fetch looks up the iTLB, then
    the STLB, and fills the missing levels STLB first; a data access
    uses the STLB alone.  The ``repro.validate.uarch`` reference TLB
    checks the walk's latencies, counters, LRU order and versions.
    """

    # Coffee Lake: 64-entry 8-way iTLB; 1536-entry 12-way STLB.
    ITLB = TlbGeometry(n_sets=8, n_ways=8)
    STLB = TlbGeometry(n_sets=128, n_ways=12)

    def __init__(self, n_cores: int, latency: LatencyModel = LATENCY):
        self.latency = latency
        self.itlb = [Tlb(f"iTLB#{c}", self.ITLB) for c in range(n_cores)]
        self.stlb = [Tlb(f"STLB#{c}", self.STLB) for c in range(n_cores)]
        # Hoisted miss costs (the model is frozen).
        self._stlb_hit = latency.stlb_hit
        self._page_walk = latency.page_walk

    def translate_fetch(self, core: int, asid: int, addr: int) -> int:
        """Translate an instruction fetch; returns extra cycles."""
        vpn = addr // PAGE_SIZE
        tag = (asid, vpn)
        itlb = self.itlb[core]
        b1 = itlb._sets[vpn % itlb._n_sets]
        if tag in b1:
            itlb.hits += 1
            del b1[tag]
            b1[tag] = None
            return 0
        itlb.misses += 1
        stlb = self.stlb[core]
        b2 = stlb._sets[vpn % stlb._n_sets]
        if tag in b2:
            stlb.hits += 1
            del b2[tag]
            b2[tag] = None
            latency = self._stlb_hit
        else:
            stlb.misses += 1
            if len(b2) >= stlb._n_ways:
                del b2[next(iter(b2))]
                stlb.evictions += 1
                stlb.version += 1
            b2[tag] = None
            latency = self._page_walk
        if len(b1) >= itlb._n_ways:
            del b1[next(iter(b1))]
            itlb.evictions += 1
            itlb.version += 1
        b1[tag] = None
        return latency

    def translate_data(
        self, core: int, asid: int, addr: int, *, huge: bool = False
    ) -> int:
        """Translate a data access; returns extra cycles.

        Data translations hit the STLB directly in this model (see class
        docstring); a miss costs a page walk.  ``huge`` maps the access
        through a 2 MiB page (MAP_HUGETLB buffers — standard practice
        for eviction-set arenas, whose lines are spread one LLC period
        apart and would otherwise thrash the 4 KiB STLB and drown the
        probe timing in page-walk latency).
        """
        if huge:
            # Tag huge translations in a disjoint VPN namespace.
            vpn = HUGE_VPN_BASE + addr // HUGE_PAGE_SIZE
        else:
            vpn = addr // PAGE_SIZE
        tag = (asid, vpn)
        stlb = self.stlb[core]
        bucket = stlb._sets[vpn % stlb._n_sets]
        if tag in bucket:
            stlb.hits += 1
            del bucket[tag]
            bucket[tag] = None
            return 0
        stlb.misses += 1
        if len(bucket) >= stlb._n_ways:
            del bucket[next(iter(bucket))]
            stlb.evictions += 1
            stlb.version += 1
        bucket[tag] = None
        return self._page_walk

    def flush_core(self, core: int) -> None:
        """Flush both levels on one core (SGX AEX, or full CR3 switch
        without PCID)."""
        self.itlb[core].flush_all()
        self.stlb[core].flush_all()

    def holds_fetch_translation(self, core: int, asid: int, addr: int) -> bool:
        """Non-destructive check used by tests and the degradation code."""
        vpn = page_number(addr)
        return self.itlb[core].contains(asid, vpn) or self.stlb[core].contains(
            asid, vpn
        )
