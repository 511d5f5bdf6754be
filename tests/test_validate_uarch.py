"""Cache/TLB validate layer: reference models, structural probe, leak bug.

The optimized hierarchy (insertion-ordered dicts) is checked two ways:
a brute-force reference model replays the same scripted sequences and
must agree on every latency, counter, per-set LRU order and version
bump; and a structural probe asserts machine-wide invariants (occupancy
bounds, LLC inclusivity) that hold at any instant.  The planted
``inclusive-llc-leak`` bug must be caught by both, and planted version
and TLB-order bugs by the reference comparison.  A stale fast-forward
residency certificate must be caught by the fast-forward oracle.
"""

from repro.cpu.core import Core
from repro.cpu.machine import Machine, MachineConfig
from repro.uarch.address import page_number
from repro.validate.harness import run_case, run_validate
from repro.validate.invariants import InvariantMonitor
from repro.validate.uarch import (
    UarchProbe,
    generate_uarch_ops,
    inject_llc_leak,
    run_fastforward_case,
    run_uarch_case,
)
from repro.validate.workload import generate_workload


# ----------------------------------------------------------------------
# Differential fuzzer (machine vs brute-force reference)
# ----------------------------------------------------------------------
def test_op_generator_is_deterministic():
    assert generate_uarch_ops(3) == generate_uarch_ops(3)
    assert generate_uarch_ops(3) != generate_uarch_ops(4)


def test_machine_matches_reference_on_clean_runs():
    for seed in range(6):
        assert run_uarch_case(seed) == [], seed


def test_leaky_machine_diverges_from_reference():
    machine = Machine(MachineConfig(n_cores=2))
    inject_llc_leak(machine.hierarchy)
    violations = run_uarch_case(0, machine=machine)
    assert violations
    # Lines the purge no longer removes also stop bumping the private
    # levels' versions, so the version rule fires alongside LRU order.
    assert {v.invariant for v in violations} <= {
        "cache-accounting", "cache-lru-order", "cache-occupancy",
        "llc-inclusivity", "cache-version",
    }


def _roll_back_eviction_bumps(hierarchy) -> None:
    """Planted bug: ``access`` undoes the LLC version bump of every
    eviction it causes, so an evicted line leaves the version unchanged
    (the stale-certificate hazard for fast-forward)."""
    access = hierarchy.access

    def access_without_bump(core, addr, kind="data", *, count_stats=True):
        evictions = hierarchy.llc.evictions
        latency = access(core, addr, kind, count_stats=count_stats)
        hierarchy.llc.version -= hierarchy.llc.evictions - evictions
        return latency

    hierarchy.access = access_without_bump


def test_missed_version_bump_caught_by_version_rule():
    machine = Machine(MachineConfig(n_cores=2))
    _roll_back_eviction_bumps(machine.hierarchy)
    violations = run_uarch_case(0, machine=machine)
    # Only the version changed: latencies, counters, LRU order and
    # inclusivity all still agree with the reference.
    assert {v.invariant for v in violations} == {"cache-version"}
    assert all("LLC" in v.detail for v in violations)


def test_tlb_set_order_checked_against_reference():
    machine = Machine(MachineConfig(n_cores=2))
    tlbs = machine.tlbs
    translate_data = tlbs.translate_data

    def translate_then_promote_lru(core, asid, addr, *, huge=False):
        # Planted bug: a 4 KiB translation also promotes its set's LRU
        # entry to MRU, leaving every counter as it was.
        cycles = translate_data(core, asid, addr, huge=huge)
        stlb = tlbs.stlb[core]
        bucket = stlb._sets[stlb.geometry.set_index(page_number(addr))]
        if not huge and len(bucket) > 1:
            lru = next(iter(bucket))
            del bucket[lru]
            bucket[lru] = None
        return cycles

    tlbs.translate_data = translate_then_promote_lru
    violations = run_uarch_case(0, machine=machine)
    assert {v.invariant for v in violations} == {"tlb-lru-order"}


def test_stale_footprint_certificate_caught_by_ff_oracle(monkeypatch):
    proven = Core._footprint_resident

    def trust_matching_key(self, asid, profile):
        # Planted bug: a memoized certificate is trusted whenever its
        # key matches, without comparing the L1I/iTLB versions, so a
        # loop line flushed between windows still counts as resident.
        cert = self._ff_cert
        if cert is not None and cert[0] == (
                asid, profile.base_pc, profile.insts_per_loop):
            return True
        return proven(self, asid, profile)

    monkeypatch.setattr(Core, "_footprint_resident", trust_matching_key)
    violations = run_fastforward_case(0)
    assert {v.invariant for v in violations} <= {
        "ff-retired", "ff-time", "ff-uarch-state", "ff-stats"}
    # Every victim runs past a flushed line on a stale certificate.
    assert {v.detail.split(":")[0] for v in violations} == {
        "straightline", "bounded", "phased"}


# ----------------------------------------------------------------------
# Structural probe
# ----------------------------------------------------------------------
def _fill_some_state(machine):
    for k in range(64):
        machine.hierarchy.access(k % machine.n_cores,
                                 0x40_0000 + k * 128 * 1024)
        machine.tlbs.translate_data(k % machine.n_cores, 0,
                                    0x40_0000 + k * 4096)


def test_probe_silent_on_healthy_machine():
    machine = Machine(MachineConfig(n_cores=2))
    _fill_some_state(machine)
    monitor = InvariantMonitor()
    UarchProbe(machine, monitor).check(0.0)
    assert monitor.ok, monitor.violations


def test_probe_detects_broken_inclusivity():
    machine = Machine(MachineConfig(n_cores=2))
    inject_llc_leak(machine.hierarchy)
    # Park a line in core 1's private caches, then force it out of the
    # LLC by overfilling its set from core 0.  With back-invalidation
    # broken the private copy survives with no LLC copy.
    target = 0x40_0000
    machine.hierarchy.access(1, target)
    llc_geom = machine.hierarchy.llc.geometry
    set_stride = llc_geom.n_sets * 64
    for k in range(1, llc_geom.n_ways + 2):
        machine.hierarchy.access(0, target + k * set_stride)
    monitor = InvariantMonitor()
    UarchProbe(machine, monitor).check(0.0)
    assert "llc-inclusivity" in monitor.names()


def test_occupied_sets_surface_resident_state():
    machine = Machine(MachineConfig(n_cores=1))
    machine.hierarchy.access(0, 0x1000)
    machine.tlbs.translate_data(0, 0, 0x1000)
    assert any(lines for _i, lines in
               machine.hierarchy.l1d[0].occupied_sets())
    assert any(tags for _i, tags in
               machine.tlbs.stlb[0].occupied_sets())


# ----------------------------------------------------------------------
# End-to-end wiring
# ----------------------------------------------------------------------
def test_llc_leak_caught_by_fuzz_harness():
    caught = set()
    for seed in range(24):
        spec = generate_workload(seed, n_cpus=2, profile="imbalance")
        caught |= set(
            run_case(spec, "cfs", bug="inclusive-llc-leak").invariants)
        if "llc-inclusivity" in caught:
            break
    assert "llc-inclusivity" in caught


def test_campaign_uarch_cells_clean_and_digested():
    base = run_validate(cases=2, seed=5, scheduler="cfs", jobs=1)
    extended = run_validate(cases=2, seed=5, scheduler="cfs", jobs=1,
                            uarch_cases=2)
    assert base.ok and extended.ok
    # The scripted uarch cells are part of the campaign digest.
    assert base.digest != extended.digest
