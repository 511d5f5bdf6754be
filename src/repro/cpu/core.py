"""Logical core: executes instructions against microarchitectural state.

The core charges each retired instruction a cycle cost assembled from

* the fetch path — iTLB translation (only when the PC crosses into a
  new page) and an I-cache line fill (only when the PC crosses into a
  new line or the line is not resident),
* BTB prediction — a valid colliding entry triggers a target-line
  prefetch (the §5.3 channel) and a misprediction penalty when the
  prediction disagrees with the actual next PC,
* the execute path — D-TLB translation plus data-cache latency for
  loads, a fixed ``lfence`` cost for LVI-fenced instructions.

Interrupt semantics follow hardware: interrupts are taken at
instruction boundaries, so an instruction that has begun executing when
the timer fires still retires.  This boundary rule is what makes the
paper's performance-degradation single-stepping work: a slow first
instruction widens the window in which *exactly one* instruction
retires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Tuple

from repro.cpu.isa import Instruction, InstrKind
from repro.cpu.program import Program
from repro.uarch.address import CACHE_LINE_SIZE, PAGE_SIZE
from repro.uarch.btb import Btb
from repro.uarch.cache import MemoryHierarchy
from repro.uarch.timing import CPU_FREQ_GHZ, LatencyModel, cycles_to_ns
from repro.uarch.tlb import TlbHierarchy

#: Upper bits preserved when the BTB's 32-bit target is resolved against
#: the fetch region (see Btb docstring / Fig 5.3's 4 GiB padding).
_REGION_MASK = ~((1 << 32) - 1)

#: Inlined address math for the per-instruction fetch path
#: (``pc >> _PAGE_SHIFT == page_number(pc)``,
#: ``pc & _FETCH_LINE_MASK == line_addr(pc)``).
_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_FETCH_LINE_MASK = ~(CACHE_LINE_SIZE - 1)

#: A fetch walk step's BTB effect (see :meth:`Core.fetch_walk`): a taken
#: control transfer allocates its entry, a plain instruction invalidates
#: a valid colliding one, an untaken branch leaves the BTB alone.
_BTB_ALLOCATE, _BTB_INVALIDATE, _BTB_KEEP = range(3)


@dataclass
class CoreStats:
    instructions_retired: int = 0
    loads: int = 0
    stores: int = 0
    mispredicts: int = 0
    speculative_issues: int = 0
    # Fast-path introspection (telemetry): which parts of the certified
    # window engaged and how many instructions the arithmetic fast
    # paths retired without touching μarch state.  Plain int adds once
    # per *window* (never per instruction), pulled into gauges at
    # snapshot time.
    ff_steady_windows: int = 0
    ff_warmup_windows: int = 0
    ff_uniform_bulk_retires: int = 0
    ff_insts_fast_forwarded: int = 0
    spec_early_outs: int = 0

    def architectural(self):
        """The architecturally-meaningful counters only.

        The ``ff_*``/``spec_*`` introspection fields describe *which
        code path* retired the instructions, so they legitimately differ
        between a fast-forwarded run and its interpreted twin; oracles
        certifying fast-forward equivalence compare this view instead of
        whole-struct equality."""
        return (self.instructions_retired, self.loads, self.stores,
                self.mispredicts, self.speculative_issues)


class Core:
    """One logical core bound to the machine's shared structures."""

    def __init__(
        self,
        core_id: int,
        hierarchy: MemoryHierarchy,
        tlbs: TlbHierarchy,
        btb: Btb,
        latency: LatencyModel,
    ):
        self.core_id = core_id
        self.hierarchy = hierarchy
        self.tlbs = tlbs
        self.btb = btb
        self.latency = latency
        # Hoisted conversion: the latency model is frozen, so the ns
        # cost of a base instruction never changes after construction.
        self._base_inst_ns = cycles_to_ns(latency.base_inst)
        self.stats = CoreStats()
        self._last_fetch_line: Optional[int] = None
        self._last_fetch_page: Optional[int] = None
        self._pipeline_cold = True
        self._warmup_remaining = latency.frontend_warmup_insts
        #: Master switch for every arithmetic fast path (the certified
        #: window and the uniform bulk retire).  Differential tests
        #: disable it to run the pure per-instruction interpreter as
        #: the reference.
        self.fast_forward = True
        # Memoized footprint certificate: (key, l1i.version,
        # itlb.version) of the last successful residency proof.  Version
        # counters only advance when lines *leave* a level, so equal
        # versions re-certify the whole footprint in O(1) instead of
        # re-probing every line and page per preemption window.
        self._ff_cert: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Context switching hooks
    # ------------------------------------------------------------------
    def on_context_switch(self) -> None:
        """Reset fetch locality; the next instruction re-probes I-side
        structures (its line/page may have been evicted meanwhile)."""
        self._last_fetch_line = None
        self._last_fetch_page = None
        self._pipeline_cold = True
        self._warmup_remaining = self.latency.frontend_warmup_insts

    # ------------------------------------------------------------------
    # Instruction execution (victim path)
    # ------------------------------------------------------------------
    def execute(self, asid: int, inst: Instruction) -> float:
        """Execute one instruction for address space ``asid``.

        Returns the cost in **nanoseconds** and applies all
        microarchitectural side effects.  The attacker's ``ExecInsts``
        batches take the same steps through :meth:`run_fetch_walk`, and
        the tests hold that walk to this method: a change here belongs
        there too.
        """
        lat = self.latency
        cycles = float(lat.base_inst)
        if self._pipeline_cold:
            cycles += lat.pipeline_refill
            self._pipeline_cold = False
        if self._warmup_remaining > 0:
            cycles += lat.frontend_warmup_extra
            self._warmup_remaining -= 1
        cycles += self._fetch(asid, inst.pc)
        predicted = self.btb.predict(inst.pc)
        if predicted is not None:
            resolved = (inst.pc & _REGION_MASK) | (predicted & ~_REGION_MASK)
            self.hierarchy.prefetch(self.core_id, resolved)
            if resolved != inst.next_pc:
                cycles += lat.branch_mispredict
                self.stats.mispredicts += 1
        if inst.kind.is_control_transfer:
            if inst.kind is not InstrKind.BRANCH or inst.taken:
                target = inst.target if inst.target is not None else inst.next_pc
                self.btb.on_control_transfer(inst.pc, target)
        else:
            self.btb.on_plain_instruction(inst.pc)
        if inst.kind is InstrKind.LOAD:
            assert inst.mem_addr is not None
            cycles += self.tlbs.translate_data(self.core_id, asid, inst.mem_addr)
            cycles += self.hierarchy.access(self.core_id, inst.mem_addr, kind="data")
            self.stats.loads += 1
        elif inst.kind is InstrKind.STORE:
            assert inst.mem_addr is not None
            cycles += self.tlbs.translate_data(self.core_id, asid, inst.mem_addr)
            self.hierarchy.access(self.core_id, inst.mem_addr, kind="data")
            self.stats.stores += 1
        if inst.fenced:
            cycles += lat.lfence
        self.stats.instructions_retired += 1
        return cycles_to_ns(cycles)

    def issue_speculative(self, asid: int, inst: Instruction) -> None:
        """Apply only the cache side effects of a squashed instruction.

        Used for the post-interrupt speculative window: loads beyond the
        retirement boundary still pollute the caches (Fig 5.1's smear)
        but retire nothing and cost the victim no time.
        """
        if inst.kind.is_memory and inst.mem_addr is not None:
            self.hierarchy.access(self.core_id, inst.mem_addr, kind="data")
            self.stats.speculative_issues += 1

    def _fetch(self, asid: int, pc: int) -> float:
        """Frontend cost for fetching ``pc``; 0 when staying on a warm line."""
        cycles = 0.0
        page = pc >> _PAGE_SHIFT
        if page != self._last_fetch_page:
            cycles += self.tlbs.translate_fetch(self.core_id, asid, pc)
            self._last_fetch_page = page
        line = pc & _FETCH_LINE_MASK
        if line != self._last_fetch_line:
            latency = self.hierarchy.access(self.core_id, pc, kind="inst")
            if latency > self.latency.l1_hit:
                cycles += latency  # pipelined L1 hits are free; misses stall
            self._last_fetch_line = line
        return cycles

    # ------------------------------------------------------------------
    # Resolved fetch walks (the attacker's ExecInsts batches)
    # ------------------------------------------------------------------
    def fetch_walk(self, asid: int,
                   insts: Iterable[Instruction]) -> Tuple[Any, ...]:
        """Resolve :meth:`execute` of each of ``insts`` in address space
        ``asid`` into a *fetch walk*, the tuple ``(core, asid, steps)``.

        An ``ExecInsts`` batch (an iTLB/STLB eviction set's NOPs, a BTB
        gadget's JMP or RET) is a fixed tuple yielded again every round,
        so per instruction a step holds what ``execute`` would look up:
        the page, its ``(asid, vpn)`` tag and the iTLB and STLB sets
        :meth:`TlbHierarchy.translate_fetch` walks, the line and its
        L1I, L2 and LLC sets, the BTB slot, the PC and the next PC, the
        BTB effect (``_BTB_ALLOCATE`` with the target,
        ``_BTB_INVALIDATE`` or ``_BTB_KEEP``) and the fence.  Holding
        the set dicts is safe by the set-identity rule of
        :mod:`repro.uarch.cache` and :mod:`repro.uarch.tlb`.  A walk is
        valid only on this core and for ``asid``.

        A batch carries no loads or stores (the attacker's loads are
        ``Loads``/``TimedLoads``), so a LOAD or STORE raises TypeError.
        """
        core = self.core_id
        itlb, stlb = self.tlbs.itlb[core], self.tlbs.stlb[core]
        hierarchy = self.hierarchy
        l1, l2, llc = hierarchy.l1i[core], hierarchy.l2[core], hierarchy.llc
        steps = []
        for inst in insts:
            kind = inst.kind
            if kind.is_memory:
                raise TypeError(f"a fetch walk runs no {kind.name}: {inst!r}")
            pc = inst.pc
            if not kind.is_control_transfer:
                effect, target = _BTB_INVALIDATE, None
            elif kind is InstrKind.BRANCH and not inst.taken:
                effect, target = _BTB_KEEP, None
            else:
                effect = _BTB_ALLOCATE
                target = inst.target if inst.target is not None else inst.next_pc
            page = pc >> _PAGE_SHIFT
            line = pc & _FETCH_LINE_MASK
            steps.append((
                page, (asid, page), itlb._sets[page % itlb._n_sets],
                stlb._sets[page % stlb._n_sets],
                line, l1._sets[(line // l1._line_size) & l1._set_mask],
                l2._sets[(line // l2._line_size) & l2._set_mask],
                llc._sets[(line // llc._line_size) & llc._set_mask],
                Btb.index_of(pc), pc, inst.next_pc, effect, target,
                inst.fenced))
        return self, asid, tuple(steps)

    def run_fetch_walk(self, walk: Tuple[Any, ...], i: int, t: float,
                       deadline: float, out: List[Any]) -> Tuple[int, float]:
        """Execute ``walk``'s instructions from index ``i`` on, from time
        ``t`` ns.

        Each element does what :meth:`execute` does for a non-memory
        instruction, with the same dict operations and counter
        statements in the same order: the pipeline-refill and warm-up
        adds; on a new page, ``translate_fetch``'s iTLB→STLB walk; on a
        new line, the L1I→L2→LLC walk of ``access(core, pc, "inst")``,
        whose latency counts only above an L1 hit; a valid BTB entry's
        target prefetch through ``hierarchy.prefetch`` (so a core parked
        in ``prefetch_disabled`` issues none) and mispredict; the BTB
        update; the fence.  An LLC eviction calls
        ``hierarchy._back_invalidate`` as it is at that moment, so the
        validate layer's ``inclusive-llc-leak`` plant reaches it.  The
        latencies are integer cycles, so their sum is exact in any
        grouping.  The element appends its cost in ns to ``out`` and
        adds it to ``t``; the walk stops after the element that reaches
        ``deadline``.  Counters, versions and :class:`CoreStats` are
        updated in place; the core's fetch state is read when the pass
        starts and written back when it returns.  Returns
        ``(next_index, t)``.
        """
        lat = self.latency
        base, refill, warm_extra = (float(lat.base_inst), lat.pipeline_refill,
                                    lat.frontend_warmup_extra)
        mispredict, lfence, l1_hit = lat.branch_mispredict, lat.lfence, lat.l1_hit
        core, tlbs, hierarchy = self.core_id, self.tlbs, self.hierarchy
        itlb, stlb = tlbs.itlb[core], tlbs.stlb[core]
        itlb_ways, stlb_ways = itlb._n_ways, stlb._n_ways
        stlb_hit, page_walk = tlbs._stlb_hit, tlbs._page_walk
        l1, l2, llc = hierarchy.l1i[core], hierarchy.l2[core], hierarchy.llc
        l1_ways, l2_ways, llc_ways = l1._n_ways, l2._n_ways, llc._n_ways
        h_l1_hit, h_l2_hit = hierarchy._l1_hit, hierarchy._l2_hit
        h_llc_hit, dram = hierarchy._llc_hit, hierarchy._dram
        btb, stats = self.btb, self.stats
        entries = btb._entries
        cold, warmup = self._pipeline_cold, self._warmup_remaining
        last_page, last_line = self._last_fetch_page, self._last_fetch_line
        for (page, tag, tset1, tset2, line, b1, b2, b3, slot, pc, next_pc,
             effect, target, fenced) in walk[2][i:]:
            i += 1
            cycles = base
            if cold:
                cycles += refill
                cold = False
            if warmup > 0:
                cycles += warm_extra
                warmup -= 1
            if page != last_page:
                if tag in tset1:
                    itlb.hits += 1
                    del tset1[tag]
                    tset1[tag] = None
                else:
                    itlb.misses += 1
                    if tag in tset2:
                        stlb.hits += 1
                        del tset2[tag]
                        tset2[tag] = None
                        cycles += stlb_hit
                    else:
                        stlb.misses += 1
                        if len(tset2) >= stlb_ways:
                            del tset2[next(iter(tset2))]
                            stlb.evictions += 1
                            stlb.version += 1
                        tset2[tag] = None
                        cycles += page_walk
                    if len(tset1) >= itlb_ways:
                        del tset1[next(iter(tset1))]
                        itlb.evictions += 1
                        itlb.version += 1
                    tset1[tag] = None
                last_page = page
            if line != last_line:
                if line in b1:
                    l1.hits += 1
                    del b1[line]
                    b1[line] = None
                    latency = h_l1_hit
                else:
                    l1.misses += 1
                    if line in b2:
                        l2.hits += 1
                        del b2[line]
                        b2[line] = None
                        latency = h_l2_hit
                    else:
                        l2.misses += 1
                        if line in b3:
                            llc.hits += 1
                            del b3[line]
                            b3[line] = None
                            latency = h_llc_hit
                        else:
                            llc.misses += 1
                            if len(b3) >= llc_ways:
                                victim = next(iter(b3))
                                del b3[victim]
                                llc.evictions += 1
                                llc.version += 1
                                b3[line] = None
                                hierarchy._back_invalidate(victim)
                            else:
                                b3[line] = None
                            latency = dram
                        if len(b2) >= l2_ways:
                            del b2[next(iter(b2))]
                            l2.evictions += 1
                            l2.version += 1
                        b2[line] = None
                    if len(b1) >= l1_ways:
                        del b1[next(iter(b1))]
                        l1.evictions += 1
                        l1.version += 1
                    b1[line] = None
                if latency > l1_hit:
                    cycles += latency
                last_line = line
            entry = entries.get(slot)
            if entry is not None and entry.valid:
                resolved = (pc & _REGION_MASK) | (entry.target & ~_REGION_MASK)
                hierarchy.prefetch(core, resolved)
                if resolved != next_pc:
                    cycles += mispredict
                    stats.mispredicts += 1
                if effect == _BTB_INVALIDATE:
                    entry.valid = False
                    btb.invalidations += 1
            if effect == _BTB_ALLOCATE:
                btb.on_control_transfer(pc, target)
            if fenced:
                cycles += lfence
            stats.instructions_retired += 1
            cost = cycles / CPU_FREQ_GHZ
            out.append(cost)
            t += cost
            if t >= deadline:
                break
        self._pipeline_cold, self._warmup_remaining = cold, warmup
        self._last_fetch_page, self._last_fetch_line = last_page, last_line
        return i, t

    # ------------------------------------------------------------------
    # Program execution against a deadline (used by the kernel)
    # ------------------------------------------------------------------
    def run_program(
        self, asid: int, program: Program, start: float, deadline: float
    ) -> Tuple[int, float]:
        """Run ``program`` from ``start`` until an interrupt at ``deadline``.

        Returns ``(instructions_retired, end_time)``.  Per the boundary
        rule, an instruction whose execution straddles the deadline
        still retires, so ``end_time`` may exceed ``deadline``.  The
        speculative smear past the boundary is issued separately
        (:meth:`speculate`, from the body's preemption hook).
        """
        t = start
        retired = 0
        fast = self.fast_forward
        while t < deadline:
            if fast:
                forwarded = self._try_fast_forward(asid, program, t, deadline)
                if forwarded:
                    count, t = forwarded
                    program.retired += count
                    self.stats.instructions_retired += count
                    self.stats.ff_insts_fast_forwarded += count
                    retired += count
                    continue
            inst = program.current()
            if inst is None:
                return retired, t  # program finished before the interrupt
            cost = self.execute(asid, inst)
            t += cost
            program.retire()
            retired += 1
            if t >= deadline:
                break
            run = program.uniform_region_length(program.retired) if fast else 0
            if run > 1 and not inst.fenced and self._warmup_remaining == 0:
                per_inst = self._base_inst_ns
                budget = int((deadline - t) / per_inst)
                bulk = min(run, max(budget, 0))
                if bulk > 0:
                    # Uniform straight-line region on a warm line: retire
                    # arithmetically without touching uarch state.
                    program.retired += bulk
                    self.stats.instructions_retired += bulk
                    self.stats.ff_uniform_bulk_retires += 1
                    self.stats.ff_insts_fast_forwarded += bulk
                    retired += bulk
                    t += bulk * per_inst
        return retired, t

    def _try_fast_forward(
        self, asid: int, program: Program, t: float, deadline: float
    ):
        """Certified whole-window fast-forward for uniform steady streams.

        Engages from *any* slot when the program certifies a
        slot-independent uniform stream (:meth:`Program.steady_state`:
        every instruction one base cycle once the loop footprint is
        resident) and the footprint is proven resident.  The window is
        then retired by an **arithmetic twin** of the per-instruction
        loop, minus the microarchitectural work, in up to three parts:

        1. the remaining frontend warm-up.  Its only timing content is
           ``base + frontend_warmup_extra`` cycles per instruction (plus
           ``pipeline_refill`` on the first after a switch), because a
           resident footprint makes every fetch free and a steady stream
           has no memory operands, fences or mispredicting transfers;
        2. the uniform-line bulk retire that ``run_program`` performs
           right after the last warm-up instruction;
        3. the program's steady twin (``program.steady_twin``):
           chunk-head additions, uniform-line bulk multiplies and
           whole-loop multiplies.

        Parts 1 and 2 re-add exactly the floats :meth:`execute` and
        ``run_program`` would have produced, in the same order; part 3
        reassociates the per-instruction sum only through its
        whole-loop multiplies, so end times stay within ULPs of
        interpretation and are bit-reproducible for a given
        configuration.  That matters because vruntime-sensitive
        schedulers (EEVDF eligibility) amplify even ULP-level timing
        drift into different preemption counts.  Like every forwarded
        window it skips recency touches, hit/miss counters and the
        loop-back jump's BTB refresh (see ARCHITECTURE.md's fast-forward
        drift contract).  The straddling instruction past the deadline
        is included (boundary rule).

        Returns ``(instructions, end_time_ns)`` or None; the caller
        advances the program cursor and adopts ``end_time`` directly.
        """
        idx0 = program.retired
        state = program.steady_state(idx0)
        if state is None:
            return None
        profile, certified = state
        n = self._warmup_remaining
        if n > 0:
            if certified is not None and certified < n + 1:
                return None  # stream may end mid-warm-up: execute() decides
        elif self._pipeline_cold:
            return None
        if not self._footprint_resident(asid, profile):
            return None
        per_inst = self._base_inst_ns
        idx = idx0
        if n > 0:
            lat = self.latency
            warm_ns = cycles_to_ns(float(lat.base_inst + lat.frontend_warmup_extra))
            executed = 0
            if self._pipeline_cold:
                t += cycles_to_ns(float(
                    lat.base_inst + lat.pipeline_refill + lat.frontend_warmup_extra
                ))
                self._pipeline_cold = False
                executed = 1
            while executed < n and t < deadline:
                t += warm_ns
                executed += 1
            self._warmup_remaining = n - executed
            self.stats.ff_warmup_windows += 1
            last = program.instruction_at(idx0 + executed - 1)
            self._last_fetch_page = last.pc >> _PAGE_SHIFT
            self._last_fetch_line = last.pc & _FETCH_LINE_MASK
            idx += executed
            if executed < n or t >= deadline:
                return executed, t
            run = program.uniform_region_length(idx)
            if run > 1:
                budget = int((deadline - t) / per_inst)
                bulk = min(run, max(budget, 0))
                if bulk > 0:
                    idx += bulk
                    t += bulk * per_inst
            if certified is not None:
                certified -= idx - idx0
            if t >= deadline or (certified is not None and certified < 1):
                return idx - idx0, t
        steady = program.steady_twin(idx, t, deadline, per_inst, certified)
        if steady is not None:
            idx += steady[0]
            t = steady[1]
            self.stats.ff_steady_windows += 1
        return (idx - idx0, t) if idx > idx0 else None

    def _footprint_resident(self, asid: int, profile) -> bool:
        """Every loop line in this core's L1I, every page translated.

        A successful proof is memoized against the L1I/iTLB version
        counters: versions only advance when an entry is removed, and
        removals are the only way a resident footprint can stop being
        resident, so unchanged versions re-certify in O(1).
        """
        l1i = self.hierarchy.l1i[self.core_id]
        itlb = self.tlbs.itlb[self.core_id]
        key = (asid, profile.base_pc, profile.insts_per_loop)
        cert = self._ff_cert
        if (cert is not None and cert[0] == key
                and cert[1] == l1i.version and cert[2] == itlb.version):
            return True
        if not (l1i.contains_all(profile.line_addrs)
                and itlb.contains_all(asid, profile.page_vpns)):
            return False
        self._ff_cert = (key, l1i.version, itlb.version)
        return True

    def warm_resume(self, asid: int, program: Program, depth: int) -> None:
        """AEX-Notify model (§6, Constable et al.): a trusted in-enclave
        prefetch handler runs after ERESUME, warming the working set of
        the next ``depth`` instructions (lines, translations, data) and
        refilling the frontend, so the enclave makes significant forward
        progress before the next interrupt can land."""
        for offset in range(depth):
            inst = program.instruction_at(program.retired + offset)
            if inst is None:
                break
            self.tlbs.translate_fetch(self.core_id, asid, inst.pc)
            self.hierarchy.access(self.core_id, inst.pc, kind="inst")
            if inst.mem_addr is not None:
                self.tlbs.translate_data(self.core_id, asid, inst.mem_addr)
                self.hierarchy.access(self.core_id, inst.mem_addr, kind="data")
        self._pipeline_cold = False
        self._warmup_remaining = 0

    def speculate(self, asid: int, program: Program, window: int) -> None:
        """Issue cache effects for up to ``window`` unretired instructions."""
        retired = program.retired
        state = program.steady_state(retired)
        if state is not None and (
                state[1] is None or state[1] >= window):
            # Certified-uniform stream ahead: every instruction in the
            # window is a base-cost (non-memory, unfenced) op, so the
            # scan below would collect nothing.  The victim loops of
            # §4.3 hit this on every preemption.
            self.stats.spec_early_outs += 1
            return
        last_retired = program.instruction_at(retired - 1)
        if last_retired is not None and last_retired.fenced:
            return
        addrs = []
        for offset in range(window):
            inst = program.instruction_at(program.retired + offset)
            if inst is None:
                break
            if inst.fenced:
                # An lfence after the load serializes: neither this load
                # nor anything younger issues before the squash lands.
                break
            if inst.kind.is_memory and inst.mem_addr is not None:
                addrs.append(inst.mem_addr)
        if addrs:
            # Squashed loads still fill the caches (Fig 5.1's smear):
            # one access per address, in program order.
            self.hierarchy.access_many(self.core_id, addrs, kind="data")
            self.stats.speculative_issues += len(addrs)
