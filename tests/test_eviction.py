"""Unit tests for eviction-set construction."""

from hypothesis import given, settings, strategies as st

from repro.uarch.cache import CacheGeometry, HierarchyGeometry, MemoryHierarchy
from repro.uarch.eviction import (
    build_cache_eviction_set,
    build_llc_eviction_set,
    build_tlb_eviction_set,
    distinct_lines,
)
from repro.uarch.tlb import TlbHierarchy


class TestCacheEvictionSets:
    GEOMETRY = CacheGeometry(2048, 16)

    def test_all_congruent(self):
        target = 0x400100
        addrs = build_cache_eviction_set(self.GEOMETRY, target, 0x3000_0000)
        assert len(addrs) == 16
        assert all(
            self.GEOMETRY.set_index(a) == self.GEOMETRY.set_index(target)
            for a in addrs
        )

    def test_addresses_are_distinct_lines(self):
        addrs = build_cache_eviction_set(self.GEOMETRY, 0x400100, 0x3000_0000)
        assert distinct_lines(addrs) == len(addrs)

    def test_never_aliases_the_target(self):
        target = 0x400100
        addrs = build_cache_eviction_set(self.GEOMETRY, target, 0x3000_0000)
        assert all(a // 64 != target // 64 for a in addrs)

    def test_extra_ways(self):
        addrs = build_llc_eviction_set(self.GEOMETRY, 0x400100, 0x3000_0000,
                                       extra_ways=2)
        assert len(addrs) == 18

    def _hierarchy(self):
        return MemoryHierarchy(1, HierarchyGeometry(llc=self.GEOMETRY))

    def test_exactly_associativity_evicts_target(self):
        """Priming the set must displace the victim line, and the
        inclusive LLC takes its private copies with it."""
        h = self._hierarchy()
        target = 0x400100
        h.access(0, target)
        for addr in build_llc_eviction_set(self.GEOMETRY, target, 0x3000_0000):
            h.access(0, addr)
        assert not h.llc.contains(target)
        assert not h.is_cached_anywhere(target)

    def test_probe_set_does_not_self_evict(self):
        """With exactly `ways` lines, priming twice leaves all resident
        — the property that makes the set usable as a P+P probe."""
        h = self._hierarchy()
        addrs = build_llc_eviction_set(self.GEOMETRY, 0x400100, 0x3000_0000)
        for _ in range(2):
            for addr in addrs:
                h.access(0, addr)
        assert all(h.llc.contains(a) for a in addrs)
        assert h.llc.evictions == 0

    @given(st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=50)
    def test_congruence_for_any_target(self, target):
        addrs = build_cache_eviction_set(self.GEOMETRY, target, 0x5000_0000)
        want = self.GEOMETRY.set_index(target)
        assert all(self.GEOMETRY.set_index(a) == want for a in addrs)


class TestTlbEvictionSets:
    def test_itlb_set_congruence(self):
        target = 0x400000
        pages = build_tlb_eviction_set(TlbHierarchy.ITLB, target, 0x2000_0000)
        assert len(pages) == TlbHierarchy.ITLB.n_ways
        want = TlbHierarchy.ITLB.set_index(target // 4096)
        assert all(
            TlbHierarchy.ITLB.set_index(p // 4096) == want for p in pages
        )

    def test_pages_are_page_aligned_and_distinct(self):
        pages = build_tlb_eviction_set(TlbHierarchy.STLB, 0x400000, 0x2000_0000)
        assert all(p % 4096 == 0 for p in pages)
        assert len(set(pages)) == len(pages)

    def test_filling_the_set_evicts_victim_translation(self):
        tlbs = TlbHierarchy(1)
        victim_vpn = 0x400000 // 4096
        tlbs.translate_data(0, 1, 0x400000)
        for page in build_tlb_eviction_set(TlbHierarchy.STLB, 0x400000,
                                           0x2000_0000):
            tlbs.translate_data(0, 2, page)
        assert not tlbs.stlb[0].contains(1, victim_vpn)

    def test_arena_is_clear_of_target_page(self):
        pages = build_tlb_eviction_set(TlbHierarchy.ITLB, 0x400000, 0x2000_0000)
        assert all(p // 4096 != 0x400000 // 4096 for p in pages)
