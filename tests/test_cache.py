"""Unit + property tests for the cache hierarchy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.uarch.cache import CacheGeometry, CacheLevel, HierarchyGeometry, MemoryHierarchy
from repro.uarch.timing import LATENCY
from repro.uarch.tlb import TlbHierarchy


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
    def _cache(self, ways=2):
        return CacheLevel("t", CacheGeometry(4, ways))

    def test_miss_then_hit(self):
        c = self._cache()
        assert not c.lookup(0x100)
        c.fill(0x100)
        assert c.lookup(0x100)

    def test_lru_eviction_order(self):
        c = self._cache(ways=2)
        stride = 4 * 64  # same set
        c.fill(0)
        c.fill(stride)
        evicted = c.fill(2 * stride)
        assert evicted == 0  # oldest goes first

    def test_hit_refreshes_recency(self):
        c = self._cache(ways=2)
        stride = 4 * 64
        c.fill(0)
        c.fill(stride)
        c.lookup(0)  # refresh line 0
        evicted = c.fill(2 * stride)
        assert evicted == stride

    def test_untouched_probe_does_not_refresh(self):
        c = self._cache(ways=2)
        stride = 4 * 64
        c.fill(0)
        c.fill(stride)
        c.lookup(0, touch=False)
        evicted = c.fill(2 * stride)
        assert evicted == 0

    def test_refill_resident_line_evicts_nothing(self):
        c = self._cache()
        c.fill(0x40)
        assert c.fill(0x40) is None

    def test_hits_misses_counted(self):
        c = self._cache()
        c.lookup(0)
        c.fill(0)
        c.lookup(0)
        assert c.misses == 1
        assert c.hits == 1

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=200))
    @settings(max_examples=50)
    def test_occupancy_never_exceeds_ways(self, line_numbers):
        """Property: no set ever holds more than `ways` lines."""
        geometry = CacheGeometry(4, 3)
        c = CacheLevel("t", geometry)
        for n in line_numbers:
            c.fill(n * 64)
        for set_index in range(4):
            assert len(c.resident_lines(set_index)) <= 3

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=200))
    @settings(max_examples=50)
    def test_most_recent_fill_is_always_resident(self, line_numbers):
        c = CacheLevel("t", CacheGeometry(4, 3))
        for n in line_numbers:
            c.fill(n * 64)
            assert c.contains(n * 64)


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
        h.prefetch(0, 0x6000, kind="inst")
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
