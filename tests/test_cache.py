"""Unit + property tests for the cache hierarchy."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.uarch.cache import CacheGeometry, HierarchyGeometry, MemoryHierarchy
from repro.uarch.timing import LATENCY
from repro.uarch.tlb import TlbHierarchy
from repro.validate.uarch import inject_llc_leak


class TestCacheGeometry:
    def test_size_bytes(self):
        assert CacheGeometry(64, 8).size_bytes == 32 * 1024

    def test_set_index_uses_line_number(self):
        g = CacheGeometry(64, 8)
        assert g.set_index(0) == 0
        assert g.set_index(64) == 1
        assert g.set_index(64 * 64) == 0  # wraps at n_sets

    def test_same_line_same_set(self):
        g = CacheGeometry(64, 8)
        assert g.set_index(0x1000) == g.set_index(0x103F)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(63, 8)

    def test_zero_ways_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(64, 0)


class TestCacheLevelLru:
    """Each level's LRU sets, driven through ``MemoryHierarchy.access``.
    The examples run a 4-set, 2-way L1D over an L2 and LLC that never
    evict, so every eviction and refresh in them is the L1D's own; the
    properties run tiny levels throughout."""

    STRIDE = 4 * 64  # same L1D set, different L2 and LLC sets

    def _hier(self):
        return MemoryHierarchy(1, HierarchyGeometry(
            l1d=CacheGeometry(4, 2), l2=CacheGeometry(64, 8),
            llc=CacheGeometry(256, 16)))

    def test_miss_then_hit(self):
        h = self._hier()
        assert not h.l1d[0].contains(0x100)
        assert h.access(0, 0x100) == LATENCY.dram
        assert h.l1d[0].contains(0x100)
        assert h.access(0, 0x100) == LATENCY.l1_hit

    def test_lru_eviction_order(self):
        h = self._hier()
        l1 = h.l1d[0]
        for addr in (0, self.STRIDE, 2 * self.STRIDE):
            h.access(0, addr)
        # The oldest line went first, down to the L2.
        assert l1.resident_lines(0) == (self.STRIDE, 2 * self.STRIDE)
        assert (l1.evictions, l1.version) == (1, 1)
        assert h.access(0, 0) == LATENCY.l2_hit

    def test_hit_refreshes_recency(self):
        h = self._hier()
        h.access(0, 0)
        h.access(0, self.STRIDE)
        assert h.access(0, 0) == LATENCY.l1_hit  # refresh line 0
        h.access(0, 2 * self.STRIDE)
        assert h.l1d[0].resident_lines(0) == (0, 2 * self.STRIDE)

    def test_refill_resident_line_evicts_nothing(self):
        h = self._hier()
        h.access(0, 0x40)
        h.access(0, 0x40 + self.STRIDE)  # the set is now full
        h.access(0, 0x40)
        l1 = h.l1d[0]
        assert l1.resident_lines(1) == (0x40 + self.STRIDE, 0x40)
        assert [(level.evictions, level.version)
                for level in (l1, h.l2[0], h.llc)] == [(0, 0)] * 3

    def test_hits_misses_counted(self):
        h = self._hier()
        h.access(0, 0)
        h.access(0, 0)
        l1 = h.l1d[0]
        assert l1.misses == 1
        assert l1.hits == 1
        assert (h.l2[0].hits, h.l2[0].misses) == (0, 1)
        assert (h.llc.hits, h.llc.misses) == (0, 1)

    @staticmethod
    def _tight():
        # Every level evicts, and LLC evictions back-invalidate.
        return MemoryHierarchy(1, HierarchyGeometry(
            l1i=CacheGeometry(4, 3), l1d=CacheGeometry(4, 3),
            l2=CacheGeometry(4, 3), llc=CacheGeometry(4, 3)))

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=200))
    @settings(max_examples=50)
    def test_occupancy_never_exceeds_ways(self, line_numbers):
        """Property: no set of any level ever holds more than `ways`
        lines."""
        h = self._tight()
        for n in line_numbers:
            h.access(0, n * 64)
        for level in (h.l1d[0], h.l2[0], h.llc):
            for set_index in range(4):
                assert len(level.resident_lines(set_index)) <= 3

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=200))
    @settings(max_examples=50)
    def test_most_recent_fill_is_always_resident(self, line_numbers):
        h = self._tight()
        for n in line_numbers:
            h.access(0, n * 64)
            for level in (h.l1d[0], h.l2[0], h.llc):
                assert level.contains(n * 64)


class TestMemoryHierarchy:
    def _hier(self, cores=2):
        geometry = HierarchyGeometry(
            l1i=CacheGeometry(8, 2),
            l1d=CacheGeometry(8, 2),
            l2=CacheGeometry(16, 2),
            llc=CacheGeometry(32, 4),
        )
        return MemoryHierarchy(cores, geometry)

    def test_latency_ladder(self):
        h = self._hier()
        assert h.access(0, 0x1000) == LATENCY.dram
        assert h.access(0, 0x1000) == LATENCY.l1_hit

    def test_l2_hit_after_l1_eviction(self):
        h = self._hier()
        h.access(0, 0x1000)
        # Evict from tiny L1 set by touching congruent lines.
        stride = 8 * 64
        h.access(0, 0x1000 + stride)
        h.access(0, 0x1000 + 2 * stride)
        latency = h.access(0, 0x1000)
        assert latency in (LATENCY.l2_hit, LATENCY.llc_hit)

    def test_llc_shared_between_cores(self):
        h = self._hier()
        h.access(0, 0x2000)
        assert h.access(1, 0x2000) == LATENCY.llc_hit

    def test_private_caches_are_private(self):
        h = self._hier()
        h.access(0, 0x2000)
        assert h.l1d[0].contains(0x2000)
        assert not h.l1d[1].contains(0x2000)

    def test_clflush_purges_everywhere(self):
        h = self._hier()
        h.access(0, 0x3000)
        h.access(1, 0x3000)
        h.clflush(0x3000)
        assert not h.is_cached_anywhere(0x3000)
        assert h.access(0, 0x3000) == LATENCY.dram

    def test_inclusive_back_invalidation(self):
        """Evicting a line from the LLC must purge private copies —
        the mechanism the §5.2 instruction-stall trick relies on."""
        h = self._hier()
        target = 0x4000
        h.access(0, target)
        assert h.l1d[0].contains(target)
        # Fill the LLC set with 4 other congruent lines (4-way LLC).
        stride = 32 * 64
        for i in range(1, 5):
            h.access(1, target + i * stride)
        assert not h.llc.contains(target)
        assert not h.l1d[0].contains(target)
        assert not h.l2[0].contains(target)

    def test_inst_and_data_l1_are_split(self):
        h = self._hier()
        h.access(0, 0x5000, kind="inst")
        assert h.l1i[0].contains(0x5000)
        assert not h.l1d[0].contains(0x5000)

    def test_prefetch_fills_without_distinct_latency(self):
        h = self._hier()
        h.prefetch(0, 0x6000)
        assert h.is_cached_anywhere(0x6000)

    def test_flush_core_private_keeps_llc(self):
        h = self._hier()
        h.access(0, 0x7000)
        h.flush_core_private(0)
        assert not h.l1d[0].contains(0x7000)
        assert h.llc.contains(0x7000)


def test_removals_and_flushes_keep_every_set_dict():
    """The set-identity rule: resolved walks (the kernel's footprint
    touchers, the attacker's load walks) hold set dicts, so no removal
    or flush may replace one."""
    h = TestMemoryHierarchy()._hier()
    tlbs = TlbHierarchy(2)
    levels = [*h.l1i, *h.l1d, *h.l2, h.llc, *tlbs.itlb, *tlbs.stlb]
    # Holding the dicts keeps a replaced one's id from being reused.
    held = [list(level._sets) for level in levels]
    before = [[id(bucket) for bucket in sets] for sets in held]

    target, stride = 0x4000, 32 * 64
    h.access(0, target)
    h.access(0, target + stride, kind="inst")
    for i in range(1, 5):  # the 4-way LLC set overflows
        h.access(1, target + i * stride)
    assert not h.l1d[0].contains(target)  # back-invalidated
    h.clflush(target + 2 * stride)
    assert not h.is_cached_anywhere(target + 2 * stride)
    h.flush_core_private(1)
    for page in range(0, 128 * 20, 128):  # one STLB and iTLB set overflow
        tlbs.translate_data(0, 1, page * 4096)
        tlbs.translate_fetch(1, 1, page * 4096)
    assert tlbs.stlb[0].evictions and tlbs.itlb[1].evictions
    tlbs.flush_core(0)
    for level in levels:
        level.flush_all()

    assert [[id(bucket) for bucket in level._sets]
            for level in levels] == before


def _state(h):
    """Every level's sets (LRU → MRU), counters and version."""
    return [(level.name, tuple(level.occupied_sets()), level.hits,
             level.misses, level.evictions, level.version)
            for level in (h.llc, *h.l1i, *h.l1d, *h.l2)]


@pytest.mark.parametrize("plant_late", [False, True],
                         ids=["healthy", "llc_leak_after_build"])
def test_toucher_matches_access_per_line(plant_late):
    """A footprint toucher does what ``access`` per line does, L1 hits
    and misses alike, also after an ``inclusive-llc-leak`` plant that
    lands once the touchers exist.  Hierarchy A runs touchers, B the
    per-line ``access`` calls, both between the same random accesses
    and flushes on two cores; the geometries are tiny, so toucher
    lines miss, the LLC evicts and private copies get purged."""
    geometry = HierarchyGeometry(
        l1i=CacheGeometry(4, 2), l1d=CacheGeometry(4, 2),
        l2=CacheGeometry(8, 2), llc=CacheGeometry(8, 4))
    a, b = MemoryHierarchy(2, geometry), MemoryHierarchy(2, geometry)
    purged = []
    if not plant_late:
        purge = b._back_invalidate

        def counting_purge(line):
            purged.append(b.is_cached_anywhere(line))
            purge(line)
        b._back_invalidate = counting_purge

    windows = {}
    for core in (0, 1):
        for kind in ("inst", "data"):
            for base in (0, 0x140, 0x1000):
                lines = tuple(range(base, base + 4 * 64, 64))
                windows[core, kind, base] = (
                    lines, a.make_line_toucher(core, lines, kind))
    if plant_late:
        inject_llc_leak(a)
        inject_llc_leak(b)

    rng = random.Random(5)
    keys = sorted(windows)
    toucher_misses = toucher_llc_evictions = 0
    for _ in range(3000):
        roll = rng.random()
        if roll < 0.4:
            core, kind, _ = key = rng.choice(keys)
            lines, touch = windows[key]
            l1 = a.l1d[core] if kind == "data" else a.l1i[core]
            misses, evictions = l1.misses, a.llc.evictions
            touch()
            for line in lines:
                b.access(core, line, kind)
            toucher_misses += l1.misses - misses
            toucher_llc_evictions += a.llc.evictions - evictions
        elif roll < 0.9:
            core = rng.randrange(2)
            kind = rng.choice(("inst", "data"))
            addr = rng.randrange(0x2000)
            assert a.access(core, addr, kind) == b.access(core, addr, kind)
        else:
            addr = rng.randrange(0x2000)
            a.clflush(addr)
            b.clflush(addr)
        assert _state(a) == _state(b)
    assert toucher_misses and toucher_llc_evictions
    if plant_late:
        assert a.llc.evictions  # every one of them under the plant
    else:
        assert any(purged)
