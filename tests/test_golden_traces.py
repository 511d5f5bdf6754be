"""Golden traces: the optimized data structures must reproduce the
pre-optimization semantics operation for operation.

The perf work replaced the cache/TLB set representation (ordered dicts
indexed by a preallocated list) and the event engine's heap entries.
These tests drive the optimized structures and straightforward
reference models through identical randomized operation sequences and
require identical observable behaviour — hit/miss pattern, eviction
victims, LRU order, and event firing order (including cancellations).
"""

from __future__ import annotations

import random

from repro.sim.engine import Simulator
from repro.uarch.address import PAGE_SIZE
from repro.uarch.cache import CacheGeometry, CacheLevel
from repro.uarch.timing import LATENCY
from repro.uarch.tlb import TlbHierarchy


# ----------------------------------------------------------------------
# Reference models (the seed's semantics, written the obvious way)
# ----------------------------------------------------------------------
class RefLruSet:
    """One cache/TLB set as a plain list, LRU first, MRU last."""

    def __init__(self, n_ways: int):
        self.n_ways = n_ways
        self.entries: list = []

    def lookup(self, key, touch: bool = True) -> bool:
        if key in self.entries:
            if touch:
                self.entries.remove(key)
                self.entries.append(key)
            return True
        return False

    def fill(self, key):
        """Insert ``key``; return the evicted entry or None."""
        if key in self.entries:
            self.entries.remove(key)
            self.entries.append(key)
            return None
        victim = None
        if len(self.entries) >= self.n_ways:
            victim = self.entries.pop(0)
        self.entries.append(key)
        return victim


class RefCache:
    """Reference set-associative LRU cache over line addresses."""

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        self.sets = [RefLruSet(geometry.n_ways) for _ in range(geometry.n_sets)]

    def _set(self, addr: int) -> RefLruSet:
        return self.sets[self.geometry.set_index(addr)]

    def _line(self, addr: int) -> int:
        return addr - addr % self.geometry.line_size

    def lookup(self, addr: int, touch: bool = True) -> bool:
        return self._set(addr).lookup(self._line(addr), touch)

    def fill(self, addr: int):
        return self._set(addr).fill(self._line(addr))

    def resident_lines(self, set_index: int):
        return tuple(self.sets[set_index].entries)


# ----------------------------------------------------------------------
# CacheLevel vs reference
# ----------------------------------------------------------------------
class TestCacheGoldenTrace:
    GEOMETRY = CacheGeometry(n_sets=8, n_ways=4)

    def _random_ops(self, rng, n_ops):
        # Addresses concentrated on few sets so eviction happens often.
        for _ in range(n_ops):
            addr = rng.randrange(0, 64 * 8 * 16) * 4
            yield rng.choice(["lookup", "probe", "fill"]), addr

    def test_randomized_trace_matches_reference(self):
        rng = random.Random(1234)
        cache = CacheLevel("L1", self.GEOMETRY)
        ref = RefCache(self.GEOMETRY)
        for op, addr in self._random_ops(rng, 4000):
            if op == "lookup":
                assert cache.lookup(addr) == ref.lookup(addr)
            elif op == "probe":
                # touch=False must not perturb recency in either model.
                assert cache.lookup(addr, touch=False) == ref.lookup(
                    addr, touch=False
                )
            else:
                assert cache.fill(addr) == ref.fill(addr)
        for set_index in range(self.GEOMETRY.n_sets):
            assert cache.resident_lines(set_index) == ref.resident_lines(
                set_index
            )

    def test_eviction_order_is_lru(self):
        cache = CacheLevel("L1", self.GEOMETRY)
        line = self.GEOMETRY.line_size
        stride = self.GEOMETRY.n_sets * line  # same set every time
        ways = [i * stride for i in range(self.GEOMETRY.n_ways)]
        for addr in ways:
            assert cache.fill(addr) is None
        # Touch way 0 so way 1 becomes LRU, then overflow the set.
        assert cache.lookup(ways[0])
        assert cache.fill(self.GEOMETRY.n_ways * stride) == ways[1]


class TestTlbGoldenTrace:
    """The STLB walk of ``TlbHierarchy.translate_data`` and
    ``flush_core`` against one reference LRU set per STLB set."""

    def test_randomized_trace_matches_reference(self):
        rng = random.Random(99)
        tlbs = TlbHierarchy(1)
        stlb = tlbs.stlb[0]
        n_sets = TlbHierarchy.STLB.n_sets
        ref_sets = [RefLruSet(TlbHierarchy.STLB.n_ways) for _ in range(n_sets)]
        for _ in range(3000):
            asid = rng.randrange(3)
            # 24 pages over 4 sets: 18 tags compete for each set's 12 ways.
            vpn = rng.randrange(4) + n_sets * rng.randrange(6)
            tag = (asid, vpn)
            ref = ref_sets[vpn % n_sets]
            if rng.random() < 0.01:
                tlbs.flush_core(0)
                for each in ref_sets:
                    each.entries.clear()
            else:
                hit = ref.lookup(tag)
                if not hit:
                    ref.fill(tag)
                addr = vpn * PAGE_SIZE + rng.randrange(PAGE_SIZE)
                assert tlbs.translate_data(0, asid, addr) == (
                    0 if hit else LATENCY.page_walk)
            assert stlb.contains(asid, vpn) == (tag in ref.entries)
            assert stlb.resident_tags(vpn % n_sets) == tuple(ref.entries)


# ----------------------------------------------------------------------
# Event engine vs a naive sorted-list reference
# ----------------------------------------------------------------------
class TestEngineGoldenTrace:
    def test_firing_order_matches_reference(self):
        """Random schedule/cancel workload with mixed priorities and
        cancels issued from inside callbacks, drained in two phases:
        the heap (lazy deletion, tuple entries) must fire callbacks in
        exactly the order a naive scan for the least
        ``(time, priority, seq)`` picks."""
        rng = random.Random(7)
        sim = Simulator()
        fired: list = []
        handles = {}
        pending = {}  # label -> (time, priority, seq, in-callback victim)
        for seq in range(400):
            label = f"ev{seq}"
            when = float(rng.randrange(1, 50))
            priority = rng.choice((-1, 0, 0, 1))
            victim = f"ev{rng.randrange(400)}" if rng.random() < 0.2 else None

            def callback(lab=label, victim=victim):
                fired.append(lab)
                if victim is not None:
                    handles[victim].cancel()

            handles[label] = sim.call_at(when, callback, priority=priority)
            pending[label] = (when, priority, seq, victim)
            if rng.random() < 0.3:
                doomed = rng.choice(sorted(pending))
                handles[doomed].cancel()
                del pending[doomed]

        cut = 25.0
        expected, live = [], dict(pending)
        live_at_cut = None
        killed_in_callback = 0
        while live:
            label = min(live, key=lambda lab: live[lab][:3])
            if live_at_cut is None and live[label][0] > cut:
                live_at_cut = len(live)
            victim = live.pop(label)[3]
            expected.append(label)
            killed_in_callback += live.pop(victim, None) is not None
        first = [lab for lab in expected if pending[lab][0] <= cut]
        assert pending[first[-1]][0] == cut and killed_in_callback > 0

        assert sim.drain(max_time=cut) == len(first)
        assert fired == first  # events at exactly ``cut`` ran
        assert sim.now == cut  # the last event run, not past it
        assert sim.pending_count() == live_at_cut
        assert sim.drain() == len(expected) - len(first)
        assert fired == expected
        assert sim.now == pending[expected[-1]][0]
        assert sim.pending_count() == 0

    def test_pending_count_tracks_live_events(self):
        sim = Simulator()
        hs = [sim.call_at(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending_count() == 10
        hs[3].cancel()
        hs[7].cancel()
        assert sim.pending_count() == 8
        sim.drain(max_time=5.0)
        # Events at t=1,2,4,5 fired (t=4 was cancelled → 1,2,3,5 fire);
        # of t=6..10 one (t=8) was cancelled, leaving four live.
        assert sim.pending_count() == 4
