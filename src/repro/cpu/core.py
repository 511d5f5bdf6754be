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
from typing import Optional, Tuple

from repro.cpu.isa import Instruction, InstrKind
from repro.cpu.program import Program
from repro.uarch.address import CACHE_LINE_SIZE, PAGE_SIZE
from repro.uarch.btb import Btb
from repro.uarch.cache import MemoryHierarchy
from repro.uarch.timing import LatencyModel, cycles_to_ns
from repro.uarch.tlb import TlbHierarchy

#: Upper bits preserved when the BTB's 32-bit target is resolved against
#: the fetch region (see Btb docstring / Fig 5.3's 4 GiB padding).
_REGION_MASK = ~((1 << 32) - 1)

#: Inlined address math for the per-instruction fetch path
#: (``pc >> _PAGE_SHIFT == page_number(pc)``,
#: ``pc & _FETCH_LINE_MASK == line_addr(pc)``).
_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
_FETCH_LINE_MASK = ~(CACHE_LINE_SIZE - 1)


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
        microarchitectural side effects.
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
            self.hierarchy.prefetch(self.core_id, resolved, kind="inst")
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
                    program.retire_bulk(count)
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
                    program.retire_bulk(bulk)
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
        3. the steady twin (``program.steady_twin``, or the generic loop
           below): chunk-head additions, uniform-line bulk multiplies and
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
        twin = program.steady_twin
        if twin is not None:
            # The program ships a specialized twin with the same float
            # sequence inlined; the generic loop below is the reference.
            steady = twin(idx, t, deadline, per_inst, certified)
            if steady is not None:
                idx += steady[0]
                t = steady[1]
                self.stats.ff_steady_windows += 1
            return (idx - idx0, t) if idx > idx0 else None
        idx1 = idx
        while t < deadline:
            loop = program.loop_profile(idx)
            if loop is not None:
                per_loop = cycles_to_ns(loop.cycles_per_loop)
                window = deadline - t
                if window >= 2 * per_loop:
                    loops = int(window / per_loop)
                    if loop.max_loops is not None:
                        loops = min(loops, loop.max_loops)
                    if loops >= 1:
                        idx += loops * loop.insts_per_loop
                        t += loops * per_loop
                        continue
            if certified is not None and idx - idx1 >= certified:
                break  # past the certified region: execute() decides
            t += per_inst  # chunk-head instruction (line warm: base cost)
            idx += 1
            if t >= deadline:
                break
            run = program.uniform_region_length(idx)
            if run > 1:
                budget = int((deadline - t) / per_inst)
                bulk = min(run, budget if budget > 0 else 0)
                if bulk > 0:
                    idx += bulk
                    t += bulk * per_inst
        if idx > idx1:
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
            # One batched walk issues the same accesses in the same
            # order as per-instruction issue_speculative calls.
            self.hierarchy.access_many(self.core_id, addrs, kind="data")
            self.stats.speculative_issues += len(addrs)
