"""Set-associative cache model with an inclusive shared LLC.

The hierarchy mirrors the evaluated i9-9900K:

* per-core L1I and L1D: 32 KiB, 8-way (64 sets)
* per-core unified L2: 256 KiB, 4-way (1024 sets)
* shared L3 (LLC): inclusive, 16-way; sized per
  :class:`HierarchyGeometry` (default scaled down from 16 MiB to keep
  simulations fast — set-index behaviour, which is all the attacks use,
  is preserved for any power-of-two set count)

Inclusivity matters: evicting a line from the LLC back-invalidates every
private copy, which is exactly the mechanism the paper's §5.2 attack
uses to both observe and *stall* the victim's instruction fetch from
another cache level.

Each set is an insertion-ordered dict of line addresses (LRU first, MRU
last): membership, recency update and LRU eviction are all O(1), where
the previous list representation paid an O(ways) scan-and-remove on
every hit — the hottest loop in the whole hierarchy.

:class:`CacheLevel` owns the sets and counters of one level and has no
walk of its own: :meth:`MemoryHierarchy.access` is the walk, and its
docstring states what it does at each level.  ``access``, ``clflush``
and the LLC back-invalidation perform the dict operations inline,
because a simulated attack issues millions of loads and a method call
per level per load dominated their cost.  The ``repro.validate.uarch``
reference models check the walk's latency, LRU order, counters and
versions.

Every level also maintains a **version counter** bumped whenever a line
*leaves* the level (eviction, invalidation, flush).  Fills never bump
it: adding lines cannot un-certify a residency proof, so the executor's
fast-forward paths may memoize "footprint resident" against the version
and re-certify in O(1).

**Set identity.**  A level allocates its set dicts once, in its
constructor, and never replaces them: every removal deletes from a set
in place, and ``flush_all`` clears each set in place.  Walks resolved
ahead of time rely on this, because they hold the set dicts themselves:
the touchers of :meth:`MemoryHierarchy.make_line_toucher` (the kernel's
footprint, which holds L1 sets), the walks of a :class:`LoadWalker`
(the attacker's load batches, which hold one core's L1D, L2 and LLC
sets and, under the same rule in :mod:`repro.uarch.tlb`, STLB sets),
the flush walks of :meth:`MemoryHierarchy.flush_walk` (the attacker's
flush batches, which hold LLC sets and every core's private sets) and
the fetch walks of :meth:`repro.cpu.core.Core.fetch_walk` (the
attacker's ``ExecInsts`` batches, which hold one core's L1I, L2 and LLC
sets and its iTLB and STLB sets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.uarch.address import CACHE_LINE_SIZE, PAGE_SIZE, line_addr
from repro.uarch.timing import CPU_FREQ_GHZ, LATENCY, LatencyModel
from repro.uarch.tlb import HUGE_PAGE_SIZE, HUGE_VPN_BASE, TlbHierarchy

#: ``addr & _LINE_MASK == line_addr(addr)``; inlined in the hot paths.
_LINE_MASK = ~(CACHE_LINE_SIZE - 1)


@dataclass(frozen=True)
class CacheGeometry:
    """Shape of one cache level."""

    n_sets: int
    n_ways: int
    line_size: int = CACHE_LINE_SIZE

    def __post_init__(self) -> None:
        if self.n_sets & (self.n_sets - 1):
            raise ValueError(f"n_sets must be a power of two, got {self.n_sets}")
        if self.n_ways < 1:
            raise ValueError("n_ways must be >= 1")

    @property
    def size_bytes(self) -> int:
        return self.n_sets * self.n_ways * self.line_size

    def set_index(self, addr: int) -> int:
        """Cache set holding ``addr`` (physically-indexed approximation)."""
        return (addr // self.line_size) & (self.n_sets - 1)


@dataclass(frozen=True)
class HierarchyGeometry:
    """Shapes of all levels.  Defaults follow the i9-9900K, with the LLC
    set count reduced (same associativity) so that eviction-set
    experiments run quickly; attacks depend only on set indexing."""

    l1i: CacheGeometry = field(default_factory=lambda: CacheGeometry(64, 8))
    l1d: CacheGeometry = field(default_factory=lambda: CacheGeometry(64, 8))
    l2: CacheGeometry = field(default_factory=lambda: CacheGeometry(1024, 4))
    llc: CacheGeometry = field(default_factory=lambda: CacheGeometry(2048, 16))


class CacheLevel:
    """One set-associative, LRU cache level.

    Lines are identified by their line address.  Each set is an ordered
    dict of line addresses, most-recently-used last.
    """

    __slots__ = ("name", "geometry", "_sets", "hits", "misses", "evictions",
                 "version", "_set_mask", "_line_size", "_n_ways")

    def __init__(self, name: str, geometry: CacheGeometry):
        self.name = name
        self.geometry = geometry
        # One preallocated bucket per set, indexed directly: a list
        # subscript beats the ``dict.get`` + None-check this used to do
        # on every access in the hottest loop of the hierarchy.
        self._sets: List[Dict[int, None]] = [{} for _ in range(geometry.n_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Bumped whenever a line leaves this level (evict/invalidate/
        #: flush).  Fills do not bump it — see module docstring.
        self.version = 0
        # Hoisted set-index math: the geometry is frozen, so the mask,
        # line size and associativity never change after construction.
        self._set_mask = geometry.n_sets - 1
        self._line_size = geometry.line_size
        self._n_ways = geometry.n_ways

    def contains(self, addr: int) -> bool:
        """Presence check with no statistics or LRU side effects."""
        line = addr & _LINE_MASK
        return line in self._sets[(line // self._line_size) & self._set_mask]

    def contains_all(self, addrs: Iterable[int]) -> bool:
        """True when every address's line is resident (no side effects).

        Batched form of :meth:`contains` for footprint certification:
        one call certifies a whole loop body."""
        sets = self._sets
        mask = self._set_mask
        size = self._line_size
        for addr in addrs:
            line = addr & _LINE_MASK
            if line not in sets[(line // size) & mask]:
                return False
        return True

    def resident_lines(self, set_index: int) -> Tuple[int, ...]:
        """Lines currently resident in ``set_index`` (LRU → MRU order)."""
        return tuple(self._sets[set_index])

    def occupied_sets(self):
        """Yield ``(set_index, lines)`` for every non-empty set, lines
        in LRU → MRU order.  Read-only view for structural oracles."""
        for index, bucket in enumerate(self._sets):
            if bucket:
                yield index, tuple(bucket)

    def flush_all(self) -> None:
        for bucket in self._sets:
            bucket.clear()
        self.version += 1


class MemoryHierarchy:
    """Per-core private caches plus one shared inclusive LLC.

    ``access`` walks L1 → L2 → LLC → DRAM, fills every level on the way
    back and returns the load-to-use latency in cycles.  ``clflush``
    removes a line from the entire hierarchy (all cores), matching the
    x86 instruction the Flush+Reload receiver uses.
    """

    def __init__(
        self,
        n_cores: int,
        geometry: Optional[HierarchyGeometry] = None,
        latency: LatencyModel = LATENCY,
    ):
        self.geometry = geometry or HierarchyGeometry()
        self.latency = latency
        self.n_cores = n_cores
        geo = self.geometry
        self.l1i = [CacheLevel(f"L1I#{c}", geo.l1i) for c in range(n_cores)]
        self.l1d = [CacheLevel(f"L1D#{c}", geo.l1d) for c in range(n_cores)]
        self.l2 = [CacheLevel(f"L2#{c}", geo.l2) for c in range(n_cores)]
        self.llc = CacheLevel("LLC", geo.llc)
        # Every level in clflush's purge order (the LLC, then per core
        # L1I, L1D, L2) with its set list and index math, for the flush
        # walks; the private ones also for the back-invalidation.
        self._purge_order = tuple(
            (level._sets, level._line_size, level._set_mask, level)
            for level in (self.llc, *(
                private for c in range(n_cores)
                for private in (self.l1i[c], self.l1d[c], self.l2[c]))))
        self._private = self._purge_order[1:]
        #: Cores whose hardware prefetcher is currently disabled (the
        #: PreFence mitigation toggles membership at context switches).
        #: Empty by default, so the demand path never pays for it.
        self.prefetch_disabled: set = set()
        self.prefetches_issued = 0
        self.prefetches_suppressed = 0
        # Hoisted load-to-use latencies (the model is frozen).
        self._l1_hit = latency.l1_hit
        self._l2_hit = latency.l2_hit
        self._llc_hit = latency.llc_hit
        self._dram = latency.dram

    # ------------------------------------------------------------------
    # Core access paths
    # ------------------------------------------------------------------
    def access(self, core: int, addr: int, kind: str = "data",
               *, count_stats: bool = True) -> int:
        """Load/fetch ``addr`` from ``core``; returns latency in cycles.

        ``kind`` is ``"data"`` or ``"inst"`` and selects the L1 slice.
        ``count_stats=False`` performs all fills and LRU updates but
        skips the hit/miss counters (prefetches, see :meth:`prefetch`).

        The walk probes L1, L2 and the LLC in turn.  A hit counts in its
        level, moves the line to MRU and ends the probes; each miss
        counts in its level, and below the LLC the line comes from DRAM.
        The line is then filled into each level that missed, LLC first,
        at MRU.  A full set first drops its LRU line, counting an
        eviction and bumping the level's version.  A line missed in a
        level cannot reappear there before that level's fill
        (back-invalidation only removes lines), so the fills need no
        residency check.  The LLC's victim is purged from the private
        caches through :meth:`_back_invalidate`, one call per eviction,
        before the L2 fill.
        """
        line = addr & _LINE_MASK
        l1 = self.l1d[core] if kind == "data" else self.l1i[core]
        b1 = l1._sets[(line // l1._line_size) & l1._set_mask]
        if line in b1:
            if count_stats:
                l1.hits += 1
            del b1[line]
            b1[line] = None
            return self._l1_hit
        if count_stats:
            l1.misses += 1
        l2 = self.l2[core]
        b2 = l2._sets[(line // l2._line_size) & l2._set_mask]
        if line in b2:
            if count_stats:
                l2.hits += 1
            del b2[line]
            b2[line] = None
            latency = self._l2_hit
        else:
            if count_stats:
                l2.misses += 1
            llc = self.llc
            b3 = llc._sets[(line // llc._line_size) & llc._set_mask]
            if line in b3:
                if count_stats:
                    llc.hits += 1
                del b3[line]
                b3[line] = None
                latency = self._llc_hit
            else:
                # DRAM: fill the inclusive LLC first, back-invalidating
                # the line it evicts.
                if count_stats:
                    llc.misses += 1
                if len(b3) >= llc._n_ways:
                    victim = next(iter(b3))
                    del b3[victim]
                    llc.evictions += 1
                    llc.version += 1
                    b3[line] = None
                    self._back_invalidate(victim)
                else:
                    b3[line] = None
                latency = self._dram
            if len(b2) >= l2._n_ways:
                del b2[next(iter(b2))]
                l2.evictions += 1
                l2.version += 1
            b2[line] = None
        if len(b1) >= l1._n_ways:
            del b1[next(iter(b1))]
            l1.evictions += 1
            l1.version += 1
        b1[line] = None
        return latency

    def access_many(self, core: int, addrs: Iterable[int],
                    kind: str = "data") -> int:
        """:meth:`access` each of ``addrs`` in order; returns the summed
        latency in cycles."""
        access = self.access
        return sum(access(core, addr, kind) for addr in addrs)

    def make_line_toucher(self, core: int, addrs: Iterable[int],
                          kind: str = "data") -> Callable[[], None]:
        """A zero-argument callable that accesses a fixed tuple of
        line-aligned addresses from ``core``, in order, exactly as
        ``access(core, line, kind)`` per line would.

        The kernel's context-switch footprint touches one of 8 rotating
        line windows on every switch-in, and after the first switch
        almost every line hits in L1.  So each line's L1 set is looked
        up once, here: a hit moves the line to MRU in its resolved set,
        and the hits are added to the L1 counter once per call.  A miss goes through :meth:`access`,
        looked up at that moment, so the validate layer's
        ``inclusive-llc-leak`` plant reaches its back-invalidations.
        Holding the set dicts is safe by the set-identity rule (module
        docstring).
        """
        addrs = tuple(addrs)
        if any(a & ~_LINE_MASK for a in addrs):
            raise ValueError("make_line_toucher requires line-aligned addresses")
        l1 = self.l1d[core] if kind == "data" else self.l1i[core]
        size = l1._line_size
        mask = l1._set_mask
        pairs = tuple((l1._sets[(a // size) & mask], a) for a in addrs)

        def touch() -> None:
            hits = 0
            for bucket, line in pairs:
                if line in bucket:
                    hits += 1
                    del bucket[line]
                    bucket[line] = None
                else:
                    self.access(core, line, kind)
            l1.hits += hits

        return touch

    def prefetch(self, core: int, addr: int) -> None:
        """Bring an instruction line into ``core``'s caches, through its
        L1I, without charging the requester (the BTB-driven target
        prefetch).

        Prefetches move lines and recency exactly like demand accesses,
        but they are hardware-initiated: they must not count as demand
        hits/misses, or channel-noise accounting would blur the very
        statistic (§4.3) the attacks read.

        A core listed in :attr:`prefetch_disabled` issues nothing: the
        PreFence mitigation (:mod:`repro.mitigations.prefence`) parks
        cores there across context switches, and the suppressed/issued
        counters let its oracle prove the fence actually held."""
        if core in self.prefetch_disabled:
            self.prefetches_suppressed += 1
            return
        self.prefetches_issued += 1
        self.access(core, addr, "inst", count_stats=False)

    def clflush(self, addr: int) -> None:
        """Flush one line from every cache in the system: the LLC, then
        each core's L1I, L1D and L2, deleting it from each level's set
        and bumping the version of every level that held it.

        It runs a one-line flush walk, so the uarch campaign's checks of
        ``clflush`` against ``RefHierarchy`` check the loop that runs
        the attacker's ``Flushes`` batches."""
        self.run_flush_walk(self.flush_walk((addr,)), 0, 0.0, 0.0, [], 0.0)

    def flush_walk(self, addrs: Iterable[int]) -> Tuple[Any, ...]:
        """Resolve a clflush of each of ``addrs`` into a *flush walk*,
        the tuple ``(hierarchy, steps)``: per address, the line and its
        ``(set, level)`` pair in every level, in :meth:`clflush`'s purge
        order.  The walk depends only on this hierarchy, so it is valid
        on each of its cores and on no other machine.  Holding the set
        dicts is safe by the set-identity rule (module docstring)."""
        steps = []
        for addr in addrs:
            line = addr & _LINE_MASK
            steps.append((line, tuple(
                (sets[(line // size) & mask], level)
                for sets, size, mask, level in self._purge_order)))
        return self, tuple(steps)

    def run_flush_walk(self, walk: Tuple[Any, ...], i: int, t: float,
                       deadline: float, out: List[Any],
                       cost: float) -> Tuple[int, float]:
        """Flush ``walk``'s lines from index ``i`` on, from time ``t``
        ns.  Each element appends None to ``out`` and adds ``cost`` ns
        to ``t``, and the walk stops after the element that reaches
        ``deadline``.  Returns ``(next_index, t)``."""
        for line, pairs in walk[1][i:]:
            i += 1
            for bucket, level in pairs:
                if line in bucket:
                    del bucket[line]
                    level.version += 1
            out.append(None)
            t += cost
            if t >= deadline:
                break
        return i, t

    def is_cached_anywhere(self, addr: int) -> bool:
        """Presence probe used by tests and oracles (no side effects)."""
        if self.llc.contains(addr):
            return True
        return any(
            self.l1i[c].contains(addr)
            or self.l1d[c].contains(addr)
            or self.l2[c].contains(addr)
            for c in range(self.n_cores)
        )

    def flush_core_private(self, core: int) -> None:
        """Drop all private-cache state of one core (used by tests)."""
        self.l1i[core].flush_all()
        self.l1d[core].flush_all()
        self.l2[core].flush_all()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _back_invalidate(self, line: int) -> None:
        """Inclusive LLC eviction: purge the line from all private caches.

        A method of its own, not inlined into :meth:`access`, so that the
        validate layer's ``inclusive-llc-leak`` bug can disable exactly
        this purge on one instance (:func:`repro.validate.uarch.inject_llc_leak`).
        """
        for sets, size, mask, level in self._private:
            bucket = sets[(line // size) & mask]
            if line in bucket:
                del bucket[line]
                level.version += 1


class LoadWalker:
    """Data loads from one core, with every STLB and cache set of a
    fixed address tuple looked up once.

    A walker binds a core's levels, set lists and latencies;
    :meth:`walk` resolves a tuple of addresses in one address space
    into a *walk*, the tuple ``(walker, asid, steps)``.  For each
    address, ``steps`` holds the STLB set and ``(asid, vpn)`` tag that
    :meth:`TlbHierarchy.translate_data` walks, the line, and the line's
    L1D, L2 and LLC sets.  :meth:`run` then does, per element, what
    ``translate_data`` and then ``access(core, addr, "data")`` do: the
    same dict operations in the same order, and the same counter and
    version totals per pass.  An LLC eviction still calls
    ``hierarchy._back_invalidate``, looked up at that moment, so the
    validate layer's ``inclusive-llc-leak`` plant reaches it.  Holding
    the set dicts is safe by the set-identity rule (module docstring).

    A walk is valid only for the walker and ``asid`` it names: on
    another core, machine or address space the addresses map to other
    sets and tags.  It is a plain tuple because a one-shot batch
    builds one per pass.
    """

    __slots__ = ("hierarchy", "core", "_index", "_levels")

    def __init__(self, hierarchy: MemoryHierarchy, core: int,
                 tlbs: TlbHierarchy, huge: Tuple[int, int]):
        self.hierarchy = hierarchy
        self.core = core
        stlb = tlbs.stlb[core]
        l1, l2, llc = hierarchy.l1d[core], hierarchy.l2[core], hierarchy.llc
        self._levels = (
            stlb, l1, l2, llc,
            stlb.geometry.n_ways, l1._n_ways, l2._n_ways, llc._n_ways,
            tlbs.latency.page_walk, hierarchy._l1_hit, hierarchy._l2_hit,
            hierarchy._llc_hit, hierarchy._dram)
        # What :meth:`walk` indexes sets with.  The STLB's sets are
        # indexed ``vpn % n_sets``, as in TlbHierarchy.translate_data.
        self._index = (*huge, stlb._sets, stlb._n_sets,
                      l1._sets, l1._line_size, l1._set_mask,
                      l2._sets, l2._line_size, l2._set_mask,
                      llc._sets, llc._line_size, llc._set_mask)

    def walk(self, asid: int, addrs: Tuple[int, ...]) -> Tuple[Any, ...]:
        """Resolve data loads of ``addrs`` in address space ``asid``;
        an address inside the walker's huge-page bounds is translated
        through a 2 MiB page, as ``translate_data(huge=True)`` does."""
        (lo, hi, tsets, n_tsets, sets1, size1, mask1, sets2, size2, mask2,
         sets3, size3, mask3) = self._index
        steps = []
        for addr in addrs:
            if lo <= addr < hi:
                vpn = HUGE_VPN_BASE + addr // HUGE_PAGE_SIZE
            else:
                vpn = addr // PAGE_SIZE
            line = addr & _LINE_MASK
            steps.append((tsets[vpn % n_tsets], (asid, vpn), line,
                          sets1[(line // size1) & mask1],
                          sets2[(line // size2) & mask2],
                          sets3[(line // size3) & mask3]))
        return self, asid, tuple(steps)

    def run(self, walk: Tuple[Any, ...], i: int, t: float, deadline: float,
            out: List[Any], extra: int,
            jitter: Optional[Callable[[float, float], float]],
            sigma: float) -> Tuple[int, float]:
        """Load ``walk``'s addresses from index ``i`` on, from time
        ``t`` ns.

        Each element appends its result to ``out``: its latency in
        cycles, or with ``jitter`` the measured latency ``max(0, cycles
        + jitter(0.0, sigma))``.  It then adds ``(cycles + extra) /
        CPU_FREQ_GHZ`` ns to ``t``, and the walk stops after the
        element that reaches ``deadline``.  Returns ``(next_index,
        t)``.

        Each level's hits and evictions are counted in locals and added,
        with the misses and the versions those evictions bump, to the
        levels the pass reached when it returns, also when it stops at
        ``deadline``.  This is exact because nothing reads the counters
        inside a pass; ``_back_invalidate`` still bumps the private
        levels' versions in place, and the sums do not depend on order.
        """
        (stlb, l1, l2, llc, stlb_ways, l1_ways, l2_ways, llc_ways,
         page_walk, l1_hit, l2_hit, llc_hit, dram) = self._levels
        hierarchy = self.hierarchy
        start = i
        sh = se = h1 = e1 = h2 = e2 = h3 = e3 = 0
        for tset, tag, line, b1, b2, b3 in walk[2][i:]:
            i += 1
            if tag in tset:
                sh += 1
                del tset[tag]
                tset[tag] = None
                cycles = 0
            else:
                if len(tset) >= stlb_ways:
                    del tset[next(iter(tset))]
                    se += 1
                tset[tag] = None
                cycles = page_walk
            if line in b1:
                h1 += 1
                del b1[line]
                b1[line] = None
                cycles += l1_hit
            else:
                if line in b2:
                    h2 += 1
                    del b2[line]
                    b2[line] = None
                    cycles += l2_hit
                else:
                    if line in b3:
                        h3 += 1
                        del b3[line]
                        b3[line] = None
                        cycles += llc_hit
                    else:
                        if len(b3) >= llc_ways:
                            victim = next(iter(b3))
                            del b3[victim]
                            e3 += 1
                            b3[line] = None
                            hierarchy._back_invalidate(victim)
                        else:
                            b3[line] = None
                        cycles += dram
                    if len(b2) >= l2_ways:
                        del b2[next(iter(b2))]
                        e2 += 1
                    b2[line] = None
                if len(b1) >= l1_ways:
                    del b1[next(iter(b1))]
                    e1 += 1
                b1[line] = None
            if jitter is None:
                out.append(cycles)
            else:
                measured = cycles + jitter(0.0, sigma)
                out.append(measured if measured > 0.0 else 0.0)
            t += (cycles + extra) / CPU_FREQ_GHZ
            if t >= deadline:
                break
        # Misses follow from the hits: every element reaches the STLB
        # and L1D, and a level's misses go on to the next level.  Zero
        # totals are skipped: 20,000 fresh one-element passes ran 12%
        # slower with an add to every counter of every level.
        n = i - start
        if sh:
            stlb.hits += sh
        if n != sh:
            stlb.misses += n - sh
            if se:
                stlb.evictions += se
                stlb.version += se
        if h1:
            l1.hits += h1
            n -= h1
        if n:
            l1.misses += n
            if e1:
                l1.evictions += e1
                l1.version += e1
            if h2:
                l2.hits += h2
                n -= h2
            if n:
                l2.misses += n
                if e2:
                    l2.evictions += e2
                    l2.version += e2
                if h3:
                    llc.hits += h3
                    n -= h3
                if n:
                    llc.misses += n
                    if e3:
                        llc.evictions += e3
                        llc.version += e3
        return i, t
