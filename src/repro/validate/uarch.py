"""Cache/TLB oracles for the validate layer.

Two complementary mechanisms cover the memory system:

* :class:`UarchProbe` — *structural* invariants checked on the live
  :class:`~repro.cpu.machine.Machine` during a fuzz run: LLC
  inclusivity (every private-cache line has an LLC copy), per-set
  occupancy never exceeding associativity, for caches and TLBs alike.
  These hold at every instant regardless of workload, so the harness
  samples them from its step probe and once more at quiescence.

* :func:`run_uarch_case` — a *differential* fuzzer that drives the real
  hierarchy and a deliberately naive reference model (plain lists, no
  O(1) tricks, structure transcribed from the hardware manuals rather
  than from ``repro.uarch``) through the same scripted access sequence
  and compares latency classes, hit/miss/eviction counters, per-set
  LRU order (caches and TLBs) and the version rule after every
  operation.  A bug in the optimized insertion-ordered-dict
  representation cannot hide in its own oracle.

The version rule is what ``Core._footprint_resident`` memoizes on: a
level's ``version`` advances iff a line or entry left it, and fills
never bump it.  A missed bump would let fast-forward certify a footprint
that was evicted, so the reference models count departures and the
runner checks every level after every operation.

:func:`inject_llc_leak` plants the ``inclusive-llc-leak`` bug: LLC
evictions stop back-invalidating private copies, silently breaking the
inclusivity guarantee §5.2's attack depends on.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.cpu.machine import Machine, MachineConfig
from repro.uarch.address import page_number
from repro.validate.invariants import MAX_VIOLATIONS, Violation

_HUGE_PAGE_SIZE = 2 * 1024 * 1024
_HUGE_VPN_BASE = 1 << 48


# ----------------------------------------------------------------------
# Brute-force reference models (lists, linear scans — slow on purpose)
# ----------------------------------------------------------------------
class RefLevel:
    """One set-associative LRU level as a list of lists."""

    def __init__(self, n_sets: int, n_ways: int, line_size: int = 64):
        self.n_sets = n_sets
        self.n_ways = n_ways
        self.line_size = line_size
        self.sets: List[List[int]] = [[] for _ in range(n_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Lines that left this level (evictions plus invalidations).
        self.version = 0

    def _line(self, addr: int) -> int:
        return addr - (addr % self.line_size)

    def _bucket(self, addr: int) -> List[int]:
        return self.sets[(addr // self.line_size) % self.n_sets]

    def lookup(self, addr: int, *, count_stats: bool = True) -> bool:
        line = self._line(addr)
        bucket = self._bucket(addr)
        if line in bucket:
            if count_stats:
                self.hits += 1
            bucket.remove(line)
            bucket.append(line)
            return True
        if count_stats:
            self.misses += 1
        return False

    def fill(self, addr: int) -> Optional[int]:
        line = self._line(addr)
        bucket = self._bucket(addr)
        if line in bucket:
            bucket.remove(line)
            bucket.append(line)
            return None
        victim = None
        if len(bucket) >= self.n_ways:
            victim = bucket.pop(0)
            self.evictions += 1
            self.version += 1
        bucket.append(line)
        return victim

    def invalidate(self, addr: int) -> None:
        line = self._line(addr)
        bucket = self._bucket(addr)
        if line in bucket:
            bucket.remove(line)
            self.version += 1


class RefHierarchy:
    """Reference reimplementation of the inclusive-LLC walk."""

    def __init__(self, n_cores: int, geometry, latency):
        self.n_cores = n_cores
        self.latency = latency
        self.l1i = [RefLevel(geometry.l1i.n_sets, geometry.l1i.n_ways)
                    for _ in range(n_cores)]
        self.l1d = [RefLevel(geometry.l1d.n_sets, geometry.l1d.n_ways)
                    for _ in range(n_cores)]
        self.l2 = [RefLevel(geometry.l2.n_sets, geometry.l2.n_ways)
                   for _ in range(n_cores)]
        self.llc = RefLevel(geometry.llc.n_sets, geometry.llc.n_ways)

    def access(self, core: int, addr: int, kind: str = "data",
               *, count_stats: bool = True) -> int:
        l1 = self.l1d[core] if kind == "data" else self.l1i[core]
        if l1.lookup(addr, count_stats=count_stats):
            return self.latency.l1_hit
        if self.l2[core].lookup(addr, count_stats=count_stats):
            l1.fill(addr)
            return self.latency.l2_hit
        if self.llc.lookup(addr, count_stats=count_stats):
            self.l2[core].fill(addr)
            l1.fill(addr)
            return self.latency.llc_hit
        evicted = self.llc.fill(addr)
        if evicted is not None:
            for c in range(self.n_cores):
                self.l1i[c].invalidate(evicted)
                self.l1d[c].invalidate(evicted)
                self.l2[c].invalidate(evicted)
        self.l2[core].fill(addr)
        l1.fill(addr)
        return self.latency.dram

    def prefetch(self, core: int, addr: int) -> None:
        self.access(core, addr, kind="inst", count_stats=False)

    def clflush(self, addr: int) -> None:
        self.llc.invalidate(addr)
        for c in range(self.n_cores):
            self.l1i[c].invalidate(addr)
            self.l1d[c].invalidate(addr)
            self.l2[c].invalidate(addr)


class RefTlb:
    """One TLB level as a list of (asid, vpn) tags per set."""

    def __init__(self, n_sets: int, n_ways: int):
        self.n_sets = n_sets
        self.n_ways = n_ways
        self.sets: List[List[Tuple[int, int]]] = [[] for _ in range(n_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Entries that left this level.
        self.version = 0

    def lookup(self, asid: int, vpn: int) -> bool:
        bucket = self.sets[vpn % self.n_sets]
        tag = (asid, vpn)
        if tag in bucket:
            self.hits += 1
            bucket.remove(tag)
            bucket.append(tag)
            return True
        self.misses += 1
        return False

    def fill(self, asid: int, vpn: int) -> None:
        bucket = self.sets[vpn % self.n_sets]
        tag = (asid, vpn)
        if tag in bucket:
            bucket.remove(tag)
        elif len(bucket) >= self.n_ways:
            bucket.pop(0)
            self.evictions += 1
            self.version += 1
        bucket.append(tag)


class RefTlbHierarchy:
    """Reference iTLB + STLB walk."""

    def __init__(self, n_cores: int, itlb_geom, stlb_geom, latency):
        self.latency = latency
        self.itlb = [RefTlb(itlb_geom.n_sets, itlb_geom.n_ways)
                     for _ in range(n_cores)]
        self.stlb = [RefTlb(stlb_geom.n_sets, stlb_geom.n_ways)
                     for _ in range(n_cores)]

    def translate_fetch(self, core: int, asid: int, addr: int) -> int:
        vpn = page_number(addr)
        if self.itlb[core].lookup(asid, vpn):
            return 0
        if self.stlb[core].lookup(asid, vpn):
            self.itlb[core].fill(asid, vpn)
            return self.latency.stlb_hit
        self.stlb[core].fill(asid, vpn)
        self.itlb[core].fill(asid, vpn)
        return self.latency.page_walk

    def translate_data(self, core: int, asid: int, addr: int,
                       *, huge: bool = False) -> int:
        if huge:
            vpn = _HUGE_VPN_BASE + addr // _HUGE_PAGE_SIZE
        else:
            vpn = page_number(addr)
        if self.stlb[core].lookup(asid, vpn):
            return 0
        self.stlb[core].fill(asid, vpn)
        return self.latency.page_walk


# ----------------------------------------------------------------------
# Structural probe (runs against the live machine)
# ----------------------------------------------------------------------
class UarchProbe:
    """Structural cache/TLB invariants over a live machine.

    ``check`` walks every non-empty set; cost is proportional to
    resident state, so the harness samples it rather than running it at
    every event boundary.
    """

    def __init__(self, machine: Machine, monitor) -> None:
        self.machine = machine
        self.monitor = monitor

    def check(self, now: float) -> None:
        self._check_occupancy(now)
        self._check_inclusivity(now)
        self._check_tlbs(now)

    # -- individual invariants ----------------------------------------
    def _check_occupancy(self, now: float) -> None:
        hierarchy = self.machine.hierarchy
        levels = [hierarchy.llc]
        for c in range(self.machine.n_cores):
            levels += [hierarchy.l1i[c], hierarchy.l1d[c], hierarchy.l2[c]]
        for level in levels:
            ways = level.geometry.n_ways
            for set_index, lines in level.occupied_sets():
                if len(lines) > ways:
                    self.monitor.report(
                        "cache-occupancy", now,
                        f"{level.name} set {set_index} holds {len(lines)} "
                        f"lines but has only {ways} ways",
                    )
                if len(set(lines)) != len(lines):
                    self.monitor.report(
                        "cache-occupancy", now,
                        f"{level.name} set {set_index} holds duplicate lines",
                    )

    def _check_inclusivity(self, now: float) -> None:
        hierarchy = self.machine.hierarchy
        llc = hierarchy.llc
        for c in range(self.machine.n_cores):
            for level in (hierarchy.l1i[c], hierarchy.l1d[c],
                          hierarchy.l2[c]):
                for set_index, lines in level.occupied_sets():
                    for line in lines:
                        if not llc.contains(line):
                            self.monitor.report(
                                "llc-inclusivity", now,
                                f"{level.name} set {set_index} holds line "
                                f"{line:#x} with no LLC copy (inclusivity "
                                f"broken)",
                            )
                            return  # one witness is enough per sample

    def _check_tlbs(self, now: float) -> None:
        tlbs = self.machine.tlbs
        for c in range(self.machine.n_cores):
            for tlb in (tlbs.itlb[c], tlbs.stlb[c]):
                ways = tlb.geometry.n_ways
                for set_index, tags in tlb.occupied_sets():
                    if len(tags) > ways:
                        self.monitor.report(
                            "tlb-occupancy", now,
                            f"{tlb.name} set {set_index} holds {len(tags)} "
                            f"tags but has only {ways} ways",
                        )


# ----------------------------------------------------------------------
# Differential uarch fuzzing (scripted sequences, machine vs reference)
# ----------------------------------------------------------------------
def _level_pairs(machine: Machine, ref: "RefHierarchy",
                 rtlb: "RefTlbHierarchy") -> List[Tuple]:
    """Every (machine level, reference level) pair, caches then TLBs
    per core, LLC first."""
    h, t = machine.hierarchy, machine.tlbs
    pairs: List[Tuple] = [(h.llc, ref.llc)]
    for c in range(machine.n_cores):
        pairs += [(h.l1i[c], ref.l1i[c]), (h.l1d[c], ref.l1d[c]),
                  (h.l2[c], ref.l2[c]), (t.itlb[c], rtlb.itlb[c]),
                  (t.stlb[c], rtlb.stlb[c])]
    return pairs


def generate_uarch_ops(seed: int, n_cores: int = 2,
                       n_ops: int = 400) -> List[Tuple]:
    """Deterministic scripted access sequence.

    The address pool aliases heavily: a handful of page-sized strides
    inside a few LLC-set groups, so sets fill, LRU order matters and
    evictions (hence back-invalidations) actually happen.
    """
    rng = random.Random(seed)
    pool: List[int] = []
    base = 0x40_0000
    for group in range(3):
        for k in range(24):
            # Same L1/L2/LLC set within a group, distinct lines.
            pool.append(base + group * 64 + k * 128 * 1024)
    ops: List[Tuple] = []
    for _ in range(n_ops):
        roll = rng.random()
        core = rng.randrange(n_cores)
        addr = rng.choice(pool)
        if roll < 0.45:
            ops.append(("access", core, addr,
                        "data" if rng.random() < 0.7 else "inst"))
        elif roll < 0.55:
            # The speculative smear's entry point (a loop over
            # access): must be indistinguishable from the same
            # accesses issued one at a time against the reference.
            many = tuple(rng.choice(pool)
                         for _ in range(rng.randrange(2, 7)))
            ops.append(("access_many", core, many,
                        "data" if rng.random() < 0.7 else "inst"))
        elif roll < 0.65:
            ops.append(("prefetch", core, addr))
        elif roll < 0.75:
            ops.append(("clflush", addr))
        elif roll < 0.87:
            ops.append(("tlb_fetch", core, rng.randrange(2), addr))
        else:
            ops.append(("tlb_data", core, rng.randrange(2), addr,
                        rng.random() < 0.3))
    return ops


def run_uarch_case(seed: int, n_cores: int = 2, n_ops: int = 400,
                   machine: Optional[Machine] = None) -> List[Violation]:
    """Drive the machine and the reference through one scripted
    sequence; return all divergences as violations.

    ``machine`` lets a test hand in a pre-sabotaged instance; by
    default a fresh one is built.
    """
    machine = machine or Machine(MachineConfig(n_cores=n_cores))
    geometry = machine.hierarchy.geometry
    latency = machine.hierarchy.latency
    ref = RefHierarchy(n_cores, geometry, latency)
    rtlb = RefTlbHierarchy(n_cores, machine.tlbs.ITLB, machine.tlbs.STLB,
                           latency)
    violations: List[Violation] = []

    def report(invariant: str, step: int, detail: str) -> None:
        if len(violations) < MAX_VIOLATIONS:
            violations.append(Violation(invariant, float(step), detail))

    pairs = _level_pairs(machine, ref, rtlb)
    versions = [(real.version, model.version) for real, model in pairs]
    ops = generate_uarch_ops(seed, n_cores=n_cores, n_ops=n_ops)
    for step, op in enumerate(ops):
        kind = op[0]
        touched_addr = None
        touched_tlbs = ()
        if kind == "access":
            _, core, addr, akind = op
            got = machine.hierarchy.access(core, addr, kind=akind)
            want = ref.access(core, addr, kind=akind)
            touched_addr = addr
            if got != want:
                report("cache-accounting", step,
                       f"access core{core} {addr:#x} ({akind}) returned "
                       f"latency {got}, reference says {want}")
        elif kind == "access_many":
            _, core, addrs, akind = op
            got = machine.hierarchy.access_many(core, addrs, kind=akind)
            want = sum(ref.access(core, a, kind=akind) for a in addrs)
            touched_addr = addrs[-1]
            if got != want:
                report("cache-accounting", step,
                       f"access_many core{core} "
                       f"{[hex(a) for a in addrs]} ({akind}) returned "
                       f"total latency {got}, reference says {want}")
        elif kind == "prefetch":
            _, core, addr = op
            machine.hierarchy.prefetch(core, addr)
            ref.prefetch(core, addr)
            touched_addr = addr
        elif kind == "clflush":
            _, addr = op
            machine.hierarchy.clflush(addr)
            ref.clflush(addr)
            touched_addr = addr
        elif kind == "tlb_fetch":
            _, core, asid, addr = op
            got = machine.tlbs.translate_fetch(core, asid, addr)
            want = rtlb.translate_fetch(core, asid, addr)
            vpn = page_number(addr)
            touched_tlbs = ((machine.tlbs.itlb[core], rtlb.itlb[core], vpn),
                            (machine.tlbs.stlb[core], rtlb.stlb[core], vpn))
            if got != want:
                report("tlb-accounting", step,
                       f"translate_fetch core{core} asid{asid} {addr:#x} "
                       f"returned {got}, reference says {want}")
        elif kind == "tlb_data":
            _, core, asid, addr, huge = op
            got = machine.tlbs.translate_data(core, asid, addr, huge=huge)
            want = rtlb.translate_data(core, asid, addr, huge=huge)
            vpn = (_HUGE_VPN_BASE + addr // _HUGE_PAGE_SIZE if huge
                   else page_number(addr))
            touched_tlbs = ((machine.tlbs.stlb[core], rtlb.stlb[core], vpn),)
            if got != want:
                report("tlb-accounting", step,
                       f"translate_data core{core} asid{asid} {addr:#x} "
                       f"(huge={huge}) returned {got}, reference says {want}")

        # LRU order of every touched set must match the reference
        # exactly — the optimized dict ordering IS the LRU state.
        if touched_addr is not None:
            line = touched_addr - (touched_addr % 64)
            for c in range(n_cores):
                levels = [
                    (machine.hierarchy.l1i[c], ref.l1i[c]),
                    (machine.hierarchy.l1d[c], ref.l1d[c]),
                    (machine.hierarchy.l2[c], ref.l2[c]),
                ]
                for real, model in levels:
                    idx = real.geometry.set_index(line)
                    got_lines = real.resident_lines(idx)
                    want_lines = tuple(model.sets[idx])
                    if got_lines != want_lines:
                        report("cache-lru-order", step,
                               f"{real.name} set {idx} order "
                               f"{[hex(a) for a in got_lines]} != reference "
                               f"{[hex(a) for a in want_lines]}")
            idx = machine.hierarchy.llc.geometry.set_index(line)
            got_lines = machine.hierarchy.llc.resident_lines(idx)
            want_lines = tuple(ref.llc.sets[idx])
            if got_lines != want_lines:
                report("cache-lru-order", step,
                       f"LLC set {idx} order {[hex(a) for a in got_lines]} "
                       f"!= reference {[hex(a) for a in want_lines]}")
        for real, model, vpn in touched_tlbs:
            idx = real.geometry.set_index(vpn)
            got_tags = real.resident_tags(idx)
            want_tags = tuple(model.sets[idx])
            if got_tags != want_tags:
                report("tlb-lru-order", step,
                       f"{real.name} set {idx} order {got_tags} != "
                       f"reference {want_tags}")

        # Version rule: a level's version advances iff a line or entry
        # left it during this operation, and never goes back.
        for i, (real, model) in enumerate(pairs):
            got_delta = real.version - versions[i][0]
            left = model.version - versions[i][1]
            if got_delta < 0 or (got_delta > 0) != (left > 0):
                invariant = ("tlb-version" if "TLB" in real.name.upper()
                             else "cache-version")
                report(invariant, step,
                       f"{kind}: {real.name} version moved by {got_delta} "
                       f"while {left} entries left it (reference)")
            versions[i] = (real.version, model.version)
        if len(violations) >= MAX_VIOLATIONS:
            return violations

    for real, model in pairs:
        got_counts = (real.hits, real.misses, real.evictions)
        want_counts = (model.hits, model.misses, model.evictions)
        if got_counts != want_counts:
            invariant = ("tlb-accounting" if "TLB" in real.name.upper()
                         else "cache-accounting")
            report(invariant, len(ops),
                   f"{real.name} counters (hits, misses, evictions) "
                   f"{got_counts} != reference {want_counts}")

    # Final structural sweep with a throwaway monitor.
    class _Collector:
        def report(self, invariant, time, detail):
            report(invariant, int(time), detail)

    UarchProbe(machine, _Collector()).check(float(len(ops)))
    return violations


# ----------------------------------------------------------------------
# Fast-forward certification (arithmetic fast paths vs interpreter)
# ----------------------------------------------------------------------
def generate_ff_windows(seed: int, n_windows: int = 14) -> List[Tuple[float, float]]:
    """Deterministic (gap, length) preemption-window schedule in ns.

    Lengths span sub-warm-up slivers through multi-loop stretches, so a
    case exercises the warm-up prefix (whole and cut short by the
    deadline), the steady twin's partial-line and whole-loop branches
    and the interpreter between them.
    """
    rng = random.Random(seed)
    windows: List[Tuple[float, float]] = []
    for _ in range(n_windows):
        gap = rng.uniform(50.0, 800.0)
        length = rng.choice([
            rng.uniform(5.0, 60.0),        # inside warm-up / one line
            rng.uniform(100.0, 3_000.0),   # a few lines to a few loops
            rng.uniform(5_000.0, 40_000.0),  # whole-loop multiplies
        ])
        windows.append((gap, length))
    return windows


#: Victim time of the bounded and phased fast-forward victims: most
#: window schedules run past the end of the bounded stream and past
#: the phased startup's certified limit into its tail and payload.
_FF_VICTIM_NS = 40_000.0


def _ff_victims():
    """The steady-stream victims production fast-forwards, by name."""
    from repro.attacks.common import PhasedProgram
    from repro.cpu.program import StraightlineProgram
    from repro.uarch.timing import CPU_FREQ_GHZ
    from repro.victims.aes_ttable import TTableAes, build_aes_program

    def phased():
        payload = build_aes_program(TTableAes(bytes(range(16))), bytes(16))
        return PhasedProgram(_FF_VICTIM_NS, payload)

    return [
        # The §4.3 resolution victim: an unbounded loop.
        ("straightline", lambda: StraightlineProgram(0x400000)),
        # The defense grid's benign victim: the same loop, bounded.
        ("bounded", lambda: StraightlineProgram(
            0x400000, total=int(_FF_VICTIM_NS * CPU_FREQ_GHZ))),
        # Every §5 attack: startup loop, landmark tail, traced payload.
        ("phased", phased),
    ]


def _run_ff_schedule(program_factory, windows, flush_slot, flushed, *,
                     fast: bool):
    """One single-core machine running ``windows`` preemption slices of
    the factory's program, with the arithmetic fast paths on or off.

    Before each window whose index is in ``flushed``, one line of the
    victim's loop (``flush_slot``, modulo the loop's lines) is flushed
    from every cache, as an attacker's clflush would, so a window can
    start with its residency certificate stale.
    """
    machine = Machine(MachineConfig(n_cores=1))
    core = machine.cores[0]
    core.fast_forward = fast
    program = program_factory()
    lines = program.steady_state(0)[0].line_addrs
    flush_line = lines[flush_slot % len(lines)]
    t = 0.0
    slices: List[Tuple[int, float]] = []
    for step, (gap, length) in enumerate(windows):
        if step in flushed:
            machine.hierarchy.clflush(flush_line)
        core.on_context_switch()
        start = t + gap
        retired, end = core.run_program(1, program, start, start + length)
        slices.append((retired, end))
        t = end
    return machine, core, slices


def _uarch_state_snapshot(machine: Machine) -> Tuple:
    """Observable μarch end state: per-set residency of every level the
    victim touches, plus iTLB/STLB contents."""
    h, tlbs = machine.hierarchy, machine.tlbs
    return (
        tuple(sorted(h.l1i[0].occupied_sets())),
        tuple(sorted(h.l1d[0].occupied_sets())),
        tuple(sorted(h.l2[0].occupied_sets())),
        tuple(sorted(h.llc.occupied_sets())),
        tuple(sorted(tlbs.itlb[0].occupied_sets())),
        tuple(sorted(tlbs.stlb[0].occupied_sets())),
    )


def run_fastforward_case(seed: int, n_windows: int = 14) -> List[Violation]:
    """Certify the fast-forward paths against the interpreter oracle.

    Two identical machines run the same preemption-window schedule, one
    with every arithmetic fast path enabled and one forced through the
    per-instruction interpreter, for each steady-stream victim that
    production code fast-forwards (:func:`_ff_victims`).  Before some
    windows, chosen by the seed, one loop line is flushed on both
    machines.  Retired counts, final cache/TLB residency and the
    architectural core stats must match exactly.  End times may drift
    by ULPs only (bounded here at a part in 10⁹): the steady twin's
    whole-loop multiply reassociates the per-instruction sum.
    """
    windows = generate_ff_windows(seed, n_windows)
    rng = random.Random(f"ff-flush:{seed}")
    flush_slot = rng.randrange(1 << 16)
    flushed = frozenset(
        step for step in range(len(windows)) if rng.random() < 0.75)
    violations: List[Violation] = []

    def report(invariant: str, step: int, detail: str) -> None:
        if len(violations) < MAX_VIOLATIONS:
            violations.append(Violation(invariant, float(step), detail))

    for name, factory in _ff_victims():
        m_fast, c_fast, got = _run_ff_schedule(
            factory, windows, flush_slot, flushed, fast=True)
        m_ref, c_ref, want = _run_ff_schedule(
            factory, windows, flush_slot, flushed, fast=False)
        for step, (g, w) in enumerate(zip(got, want)):
            if g[0] != w[0]:
                report("ff-retired", step,
                       f"{name}: window {step} retired {g[0]} fast vs "
                       f"{w[0]} interpreted")
            if w[1] and abs(g[1] - w[1]) > 1e-9 * abs(w[1]):
                report("ff-time", step,
                       f"{name}: window {step} end time {g[1]!r} fast "
                       f"drifted beyond ULP tolerance from {w[1]!r}")
        if _uarch_state_snapshot(m_fast) != _uarch_state_snapshot(m_ref):
            report("ff-uarch-state", len(windows),
                   f"{name}: final cache/TLB residency diverged between "
                   f"fast-forward and interpreted runs")
        # Architectural view only: the ff_*/spec_* introspection fields
        # record which code path retired the stream, so they differ by
        # construction between the two runs.
        if c_fast.stats.architectural() != c_ref.stats.architectural():
            report("ff-stats", len(windows),
                   f"{name}: core stats diverged: {c_fast.stats} fast vs "
                   f"{c_ref.stats} interpreted")
    return violations


# ----------------------------------------------------------------------
# Planted bug
# ----------------------------------------------------------------------
def inject_llc_leak(hierarchy) -> None:
    """Break inclusivity: LLC evictions no longer purge private copies.

    Patches the bound method on the *instance* — every Core holds a
    reference to this hierarchy object, so swapping the object itself
    would leave the cores talking to the healthy one.
    """
    hierarchy._back_invalidate = lambda line: None
