"""Unit tests for the two-level TLB model."""

from repro.uarch.tlb import TlbHierarchy
from repro.uarch.timing import LATENCY

PAGE = 4096


class TestTlbLevel:
    """One level's LRU sets, driven through the hierarchy's walk: data
    translations use the STLB (128 sets, 12 ways) alone."""

    SETS = TlbHierarchy.STLB.n_sets
    WAYS = TlbHierarchy.STLB.n_ways

    def test_fill_then_hit(self):
        h = TlbHierarchy(1)
        assert h.translate_data(0, 1, 100 * PAGE) == LATENCY.page_walk
        assert h.translate_data(0, 1, 100 * PAGE) == 0

    def test_asid_isolation(self):
        """The attacker never *hits* on a victim translation."""
        h = TlbHierarchy(1)
        h.translate_data(0, 1, 100 * PAGE)
        assert h.translate_data(0, 2, 100 * PAGE) == LATENCY.page_walk

    def test_set_contention_evicts_other_asid(self):
        """...but it evicts them — the Gras et al. degradation."""
        h = TlbHierarchy(1)
        h.translate_data(0, 1, 100 * PAGE)  # victim entry
        for k in range(1, self.WAYS + 1):  # attacker, same set
            h.translate_data(0, 2, (100 + k * self.SETS) * PAGE)
        assert not h.stlb[0].contains(1, 100)

    def test_lru_within_set(self):
        h = TlbHierarchy(1)
        vpns = [k * self.SETS for k in range(self.WAYS + 1)]  # set 0
        for vpn in vpns[:-1]:
            h.translate_data(0, 1, vpn * PAGE)
        h.translate_data(0, 1, vpns[0] * PAGE)  # refresh the LRU entry
        h.translate_data(0, 1, vpns[-1] * PAGE)
        assert h.stlb[0].contains(1, vpns[0])
        assert not h.stlb[0].contains(1, vpns[1])
        assert h.stlb[0].resident_tags(0) == tuple(
            (1, vpn) for vpn in vpns[2:-1] + [vpns[0], vpns[-1]])

    def test_flush_all(self):
        h = TlbHierarchy(1)
        h.translate_fetch(0, 1, 5 * PAGE)
        h.stlb[0].flush_all()
        assert not h.stlb[0].contains(1, 5)
        assert h.itlb[0].contains(1, 5)


class TestTlbHierarchy:
    def test_fetch_miss_walk_then_hit(self):
        h = TlbHierarchy(1)
        addr = 0x400000
        assert h.translate_fetch(0, 1, addr) == LATENCY.page_walk
        assert h.translate_fetch(0, 1, addr) == 0

    def test_stlb_backs_itlb(self):
        h = TlbHierarchy(1)
        addr = 0x400000
        h.translate_fetch(0, 1, addr)
        h.itlb[0].flush_all()
        assert h.translate_fetch(0, 1, addr) == LATENCY.stlb_hit

    def test_data_translation_uses_stlb(self):
        h = TlbHierarchy(1)
        assert h.translate_data(0, 1, 0x600000) == LATENCY.page_walk
        assert h.translate_data(0, 1, 0x600000) == 0

    def test_huge_pages_share_one_entry(self):
        """2 MiB pages: addresses megabytes apart hit the same entry —
        what keeps eviction-set probes out of the STLB noise."""
        h = TlbHierarchy(1)
        base = 0x3000_0000
        assert h.translate_data(0, 1, base, huge=True) == LATENCY.page_walk
        assert h.translate_data(0, 1, base + 1_000_000, huge=True) == 0
        # …but a different 2 MiB frame walks again.
        assert h.translate_data(0, 1, base + 2 * 1024 * 1024,
                                huge=True) == LATENCY.page_walk

    def test_huge_and_small_namespaces_disjoint(self):
        h = TlbHierarchy(1)
        h.translate_data(0, 1, 0x1000, huge=True)
        assert h.translate_data(0, 1, 0x1000) == LATENCY.page_walk

    def test_flush_core_models_aex(self):
        h = TlbHierarchy(2)
        h.translate_fetch(0, 1, 0x400000)
        h.translate_fetch(1, 1, 0x400000)
        h.flush_core(0)
        assert not h.holds_fetch_translation(0, 1, 0x400000)
        assert h.holds_fetch_translation(1, 1, 0x400000)

    def test_geometries_match_coffee_lake(self):
        assert TlbHierarchy.ITLB.n_entries == 64
        assert TlbHierarchy.STLB.n_entries == 1536
