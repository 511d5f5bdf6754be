"""Golden traces: the optimized data structures must reproduce the
pre-optimization semantics operation for operation.

The perf work replaced the cache/TLB set representation (ordered dicts
indexed by a preallocated list), the event engine's heap entries and
its per-CPU dispatch events (now resident, re-armed in place).  These
tests drive the optimized structures and straightforward reference
models through identical randomized operation sequences and require
identical observable behaviour — hit/miss pattern, eviction victims,
LRU order, and firing order (including cancellations and re-arms).
"""

from __future__ import annotations

import random

from repro.sim.engine import Event, Simulator
from repro.uarch.address import PAGE_SIZE
from repro.uarch.cache import CacheGeometry, HierarchyGeometry, MemoryHierarchy
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

    def lookup(self, key) -> bool:
        if key in self.entries:
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

    def lookup(self, addr: int) -> bool:
        return self._set(addr).lookup(self._line(addr))

    def fill(self, addr: int):
        return self._set(addr).fill(self._line(addr))

    def invalidate(self, line: int) -> None:
        entries = self._set(line).entries
        if line in entries:
            entries.remove(line)

    def resident_lines(self, set_index: int):
        return tuple(self.sets[set_index].entries)


class RefInclusiveCore:
    """One core's L1D, L2 and inclusive LLC: look each level up in
    turn, fill every level that missed on the way back, and purge an
    LLC victim from the private levels."""

    def __init__(self, geometry: HierarchyGeometry):
        self.levels = (RefCache(geometry.l1d), RefCache(geometry.l2),
                       RefCache(geometry.llc))

    def access(self, addr: int) -> int:
        l1, l2, llc = self.levels
        if l1.lookup(addr):
            return LATENCY.l1_hit
        if l2.lookup(addr):
            l1.fill(addr)
            return LATENCY.l2_hit
        if llc.lookup(addr):
            l2.fill(addr)
            l1.fill(addr)
            return LATENCY.llc_hit
        victim = llc.fill(addr)
        if victim is not None:
            l1.invalidate(victim)
            l2.invalidate(victim)
        l2.fill(addr)
        l1.fill(addr)
        return LATENCY.dram


# ----------------------------------------------------------------------
# MemoryHierarchy.access vs reference
# ----------------------------------------------------------------------
class TestCacheGoldenTrace:
    GEOMETRY = CacheGeometry(n_sets=8, n_ways=4)
    # Small enough that every level evicts and LLC victims still have
    # private copies to purge.
    TIGHT = HierarchyGeometry(l1d=GEOMETRY, l2=CacheGeometry(16, 4),
                              llc=CacheGeometry(32, 4))

    def test_randomized_trace_matches_reference(self):
        rng = random.Random(1234)
        h = MemoryHierarchy(1, self.TIGHT)
        levels = (h.l1d[0], h.l2[0], h.llc)
        ref = RefInclusiveCore(self.TIGHT)
        for _ in range(4000):
            # Addresses concentrated on few sets so eviction happens often.
            addr = rng.randrange(0, 64 * 8 * 16) * 4
            assert h.access(0, addr) == ref.access(addr)
            for level, model in zip(levels, ref.levels):
                for set_index in range(level.geometry.n_sets):
                    assert level.resident_lines(set_index) == \
                        model.resident_lines(set_index)
        assert h.llc.evictions and h.l2[0].evictions

    def test_eviction_order_is_lru(self):
        # The default L2 and LLC put every line below in its own set.
        h = MemoryHierarchy(1, HierarchyGeometry(l1d=self.GEOMETRY))
        l1 = h.l1d[0]
        line = self.GEOMETRY.line_size
        stride = self.GEOMETRY.n_sets * line  # same L1D set every time
        ways = [i * stride for i in range(self.GEOMETRY.n_ways)]
        for addr in ways:
            h.access(0, addr)
        # Touch way 0 so way 1 becomes LRU, then overflow the set.
        assert h.access(0, ways[0]) == LATENCY.l1_hit
        h.access(0, self.GEOMETRY.n_ways * stride)
        assert l1.resident_lines(0) == (
            ways[2], ways[3], ways[0], self.GEOMETRY.n_ways * stride)
        assert l1.evictions == 1


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
# Event engine vs a naive scan reference
# ----------------------------------------------------------------------
class RefEngine:
    """The engine's contract written the obvious way: one dict of live
    entries, scanned for the least ``(time, priority, seq)``.  A
    resident event (a "slot") keeps one label, so re-arming it replaces
    its entry."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.live = {}  # label -> (time, priority, seq)

    def schedule(self, label, time, priority):
        assert time >= self.now
        self.live[label] = (time, priority, self.seq)
        self.seq += 1

    def cancel(self, label):
        self.live.pop(label, None)

    def next_label(self):
        return min(self.live, key=self.live.__getitem__)

    def drain(self, run, max_time=None):
        count = 0
        while self.live:
            label = self.next_label()
            time = self.live[label][0]
            if max_time is not None and time > max_time:
                break
            del self.live[label]
            self.now = time
            run(label)
            count += 1
        return count


class TestEngineGoldenTrace:
    N_EVENTS = 400
    N_SLOTS = 4
    #: Firings per slot that run scripted actions; later ones run none,
    #: so self-re-arming slots die out.
    SLOT_SCRIPT = 40
    PRIORITIES = (-1, 0, 0, 1)

    def _actions(self, rng):
        """One callback's script: ``("cancel", event)`` and
        ``("arm", slot, delay)`` actions."""
        out = []
        if rng.random() < 0.2:
            out.append(("cancel", f"ev{rng.randrange(self.N_EVENTS)}"))
        while rng.random() < 0.4:
            out.append(("arm", rng.randrange(self.N_SLOTS),
                        float(rng.randrange(0, 8))))
        return out

    def test_firing_order_matches_reference(self):
        """Random workload with mixed priorities: events are cancelled,
        and resident events ("slots") armed and re-armed earlier and
        later, both up front and from inside callbacks, often at the
        same ``(time, priority)`` as one-off events.  Drained in two
        phases, the engine (one heap, re-armed in place) must fire
        callbacks in exactly the order a naive scan for the least
        ``(time, priority, seq)`` picks."""
        rng = random.Random(7)
        event_script = {f"ev{i}": self._actions(rng)
                        for i in range(self.N_EVENTS)}
        slot_script = [[self._actions(rng) for _ in range(self.SLOT_SCRIPT)]
                       for _ in range(self.N_SLOTS)]
        slot_prio = [rng.choice(self.PRIORITIES) for _ in range(self.N_SLOTS)]
        prio = {f"slot{j}": p for j, p in enumerate(slot_prio)}
        sim, ref = Simulator(), RefEngine()
        handles, slots = {}, []
        logs = {"sim": [], "ref": []}
        firings = {"sim": [0] * self.N_SLOTS, "ref": [0] * self.N_SLOTS}
        seen = {"killed": 0, "earlier": 0, "later": 0, "ties": 0}

        def act(engine, actions):
            for action in actions:
                if action[0] == "cancel":
                    if engine == "sim":
                        handles[action[1]].cancel()
                    else:
                        seen["killed"] += action[1] in ref.live
                        ref.cancel(action[1])
                    continue
                _, j, delay = action
                if engine == "sim":
                    sim.arm(slots[j], sim.now + delay)
                    continue
                label, time = f"slot{j}", ref.now + delay
                if label in ref.live:
                    seen["earlier"] += time < ref.live[label][0]
                    seen["later"] += time > ref.live[label][0]
                ref.schedule(label, time, slot_prio[j])

        def run(engine, label):
            logs[engine].append(label)
            if engine == "ref":
                is_slot = label.startswith("slot")
                seen["ties"] += any(
                    entry[:2] == (ref.now, prio[label])
                    and other.startswith("slot") != is_slot
                    for other, entry in ref.live.items())
            if label.startswith("slot"):
                j = int(label[4:])
                n = firings[engine][j]
                firings[engine][j] = n + 1
                if n < self.SLOT_SCRIPT:
                    act(engine, slot_script[j][n])
            else:
                act(engine, event_script[label])

        for j in range(self.N_SLOTS):
            slots.append(Event(sim, lambda lab=f"slot{j}": run("sim", lab),
                               priority=slot_prio[j]))
        for i in range(self.N_EVENTS):
            label = f"ev{i}"
            when = float(rng.randrange(1, 50))
            prio[label] = rng.choice(self.PRIORITIES)
            handles[label] = sim.call_at(
                when, lambda lab=label: run("sim", lab), priority=prio[label])
            ref.schedule(label, when, prio[label])
            if rng.random() < 0.1:  # up-front arms and re-arms
                j = rng.randrange(self.N_SLOTS)
                sim.arm(slots[j], when)
                act("ref", [("arm", j, when)])
            if rng.random() < 0.3:
                doomed = rng.choice(sorted(
                    lab for lab in ref.live if lab.startswith("ev")))
                handles[doomed].cancel()
                ref.cancel(doomed)

        cut = 25.0
        assert sim.pending_count() == len(ref.live)
        assert sim.drain(max_time=cut) == ref.drain(
            lambda lab: run("ref", lab), max_time=cut)
        assert logs["sim"] == logs["ref"]
        assert sim.now == ref.now == cut  # events at exactly ``cut`` ran
        assert sim.pending_count() == len(ref.live)
        assert sim.peek_next_time() == ref.live[ref.next_label()][0] > cut
        assert sim.drain() == ref.drain(lambda lab: run("ref", lab))
        assert logs["sim"] == logs["ref"]
        assert sim.now == ref.now
        assert sim.pending_count() == 0 and sim.peek_next_time() is None
        assert sum(firings["sim"]) > self.N_SLOTS
        assert all(count > 0 for count in seen.values()), seen

        # A slot alone: peek, count and drain see it.
        lone = Event(sim, lambda: logs["sim"].append("lone"))
        sim.arm(lone, sim.now + 3.0)
        assert sim.peek_next_time() == sim.now + 3.0
        assert sim.pending_count() == 1
        assert sim.drain() == 1 and logs["sim"][-1] == "lone"
        assert sim.pending_count() == 0 and sim.peek_next_time() is None

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
