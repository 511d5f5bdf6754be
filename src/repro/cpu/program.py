"""Victim program abstraction.

A :class:`Program` exposes the dynamic instruction stream by index so
the execution engine can (a) retire instructions one at a time against
a deadline, (b) squash and later re-execute an in-flight instruction cut
off by an interrupt, and (c) peek *ahead* of the retirement point to
model speculative cache pollution (the "smear" of Fig 5.1).

Two concrete flavours cover every victim in the paper:

* :class:`TraceProgram` — a materialized list of instructions produced
  by actually running the algorithm (AES, base64, GCD).
* :class:`StraightlineProgram` — the §4.3 resolution victim: an
  unbounded loop of same-size instructions, synthesized on demand so an
  80 000-preemption experiment does not materialize millions of records.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cpu.isa import Instruction, InstrKind
from repro.uarch.timing import cycles_to_ns


@dataclass(frozen=True)
class LoopProfile:
    """Steady-state description of a tight loop, enabling the executor
    to fast-forward whole iterations arithmetically once the loop's
    footprint is resident (all lines in L1I, all pages translated).

    ``cycles_per_loop`` assumes every fetch hits; the executor verifies
    residency before using it and falls back to per-instruction
    execution otherwise.
    """

    base_pc: int
    insts_per_loop: int
    line_addrs: Tuple[int, ...]
    page_vpns: Tuple[int, ...]
    cycles_per_loop: float
    #: Iterations available before the stream ends (None = unbounded).
    max_loops: Optional[int] = None


class Program(ABC):
    """Indexable dynamic instruction stream with a retirement cursor."""

    def __init__(self) -> None:
        self.retired = 0

    @abstractmethod
    def instruction_at(self, index: int) -> Optional[Instruction]:
        """The ``index``-th dynamic instruction, or None past the end."""

    @property
    def done(self) -> bool:
        return self.instruction_at(self.retired) is None

    def current(self) -> Optional[Instruction]:
        """The next instruction to retire."""
        return self.instruction_at(self.retired)

    def retire(self) -> None:
        self.retired += 1

    def reset(self) -> None:
        self.retired = 0

    @property
    def current_pc(self) -> Optional[int]:
        """PC the victim would resume at — what the paper's eBPF probe
        records at every schedule-in."""
        inst = self.current()
        return inst.pc if inst is not None else None

    def uniform_region_length(self, index: int) -> int:
        """Length of the uniform-cost run starting at ``index``.

        Returns how many consecutive instructions from ``index`` are
        plain single-cycle instructions on an already-warm line/page, so
        the executor may bulk-retire them arithmetically.  The default
        (0) disables the fast path; :class:`StraightlineProgram`
        overrides it.
        """
        return 0

    def loop_profile(self, index: int) -> Optional[LoopProfile]:
        """Steady-state loop description at ``index``, if the program is
        a tight loop (see :class:`LoopProfile`).  Default: none."""
        return None

    def steady_state(self, index: int) -> Optional[Tuple[LoopProfile, Optional[int]]]:
        """Slot-independent uniform-stream description at ``index``.

        Returns ``(steady_profile, insts_remaining)`` when *every*
        instruction from ``index`` onward costs exactly one base cycle
        once the loop footprint is resident — regardless of where inside
        the loop ``index`` falls.  ``insts_remaining`` is None for an
        unbounded stream.  The executor verifies residency before
        trusting the profile.  Default: none (no fast path).  A program
        that certifies a steady state also provides ``steady_twin``
        (see :meth:`StraightlineProgram.steady_twin`).
        """
        return None


class TraceProgram(Program):
    """A finite, fully materialized instruction trace."""

    def __init__(self, instructions: List[Instruction], name: str = "trace"):
        super().__init__()
        self.name = name
        self.instructions = instructions

    def instruction_at(self, index: int) -> Optional[Instruction]:
        if 0 <= index < len(self.instructions):
            return self.instructions[index]
        return None

    def __len__(self) -> int:
        return len(self.instructions)

    def labels(self) -> List[str]:
        """Ground-truth labels in retirement order (analysis only)."""
        return [i.label for i in self.instructions if i.label]


#: Shortest tight run the closed form takes.  Below it the line-by-line
#: adds are cheaper than working out the closed form.
_CLOSED_FORM_MIN_LINES = 8


class _TwinConstants:
    """Per-``(program, per_inst)`` constants of
    :meth:`StraightlineProgram.steady_twin`, and the binade arithmetic
    of its closed forms: the tight run's and a long window's head's.

    Every add of the twin puts ``run * per_inst`` on ``t`` for a run of
    1 to ``per_line - 1`` instructions (a chunk head is a run of one).
    Inside one binade of ``t`` every float is a multiple of ``ulp(t)``,
    so each such add rounds its constant to the same multiple of the
    ulp, ``ulps[run]·ulp``, whatever ``t`` is, and a sequence of adds
    that stays in the binade advances ``t`` by exactly the sum of their
    ``ulps``.  A tight-run line is two adds, ``t += per_inst`` then
    ``t += full_bulk``, so ``k`` lines advance ``t`` by
    ``k·(ulps[1] + ulps[per_line - 1])·ulp``.  Two cases break that: a
    constant that is an odd multiple of half an ulp (an exact tie, which
    round-half-even settles by the low bit of ``t``), and ``t < 1``,
    where the adds leave the binade at once.  There the caller adds line
    by line.
    """

    __slots__ = ("per_inst", "per_line", "per_loop", "two_loops",
                 "long_window", "full_run", "full_bulk", "full_guard",
                 "tight_guard", "last_tight", "last_closed",
                 "closed_window", "low", "top", "ulp", "ulps", "adds",
                 "loop_end")

    def __init__(self, program: "StraightlineProgram", per_inst: float):
        per_line = 64 // program.inst_size
        loop_insts = program.loop_insts
        self.per_inst = per_inst
        self.per_line = per_line
        self.per_loop = per_loop = cycles_to_ns(float(loop_insts))
        self.two_loops = two_loops = 2 * per_loop
        # Routing for the head's closed form: a window that still holds
        # two whole loops after the head.  The head ends in a line of
        # per_line - 2 bulk instructions, so it takes lines of at least
        # four instructions and a loop of whole lines.
        self.long_window = (two_loops + per_loop
                            if per_line >= 4 and not loop_insts % per_line
                            else math.inf)
        # run * per_inst and (run + 1) * per_inst for a full run.
        self.full_run = full_run = per_line - 1
        self.full_bulk = full_run * per_inst
        self.full_guard = full_guard = per_line * per_inst
        # Conservative routing guard for the tight run: when the window
        # still holds per_line + 3 base instructions, the chunk head
        # cannot straddle the deadline and the full-line bulk guard
        # certainly passes, so the per-line decisions are forced and
        # only the two float adds remain.  Routing compares never touch
        # ``t`` itself.
        self.tight_guard = tight_guard = (per_line + 3) * per_inst
        # Last line boundary whose bulk is still a full run (the final
        # line stops one short of the loop-back jump).
        self.last_tight = last_tight = loop_insts - 2 * per_line
        # Routing for the closed form: runs of fewer lines are cheaper to
        # add line by line.  The window bound is the guard of the run's
        # last such line, give or take the rounding of ``t``.
        self.last_closed = last_tight - (_CLOSED_FORM_MIN_LINES - 1) * per_line
        self.closed_window = (tight_guard
                              + (_CLOSED_FORM_MIN_LINES - 1) * full_guard)
        # Binade [low, top) of the last closed form, its ulp, the ulps
        # of each run there (None: the closed forms do not apply), a
        # tight-run line's ulps, and the last line's plus the jump's.
        self.low = self.top = self.ulp = 0.0
        self.ulps: Optional[List[int]] = None
        self.adds = self.loop_end = 0

    def tight_lines(self, t: float, deadline: float,
                    lines: int) -> Tuple[int, float]:
        """Closed form of the tight run's next lines from ``t``.

        ``lines`` lines are left before the loop-back line, and the
        caller has checked that the first passes the guard
        ``deadline - t >= tight_guard``.  Returns ``(k, t_k)``: the first
        ``k`` lines end at ``t_k``, ``k`` being the least of ``lines``,
        the lines that keep ``t`` inside its binade, and the first line
        that fails the guard (``deadline - t`` only shrinks as ``t``
        grows, so the guard fails once and for good).  ``k`` is 0 where
        the closed form does not apply.
        """
        if not self.low <= t < self.top:
            self._enter_binade(t)
        adds = self.adds
        if not adds:
            return 0, t
        ulp = self.ulp
        # Every intermediate sum stays below ``top``: t + k·adds·ulp,
        # like t, is a multiple of the ulp, so it is at most top - ulp.
        k = (int((self.top - t) / ulp) - 1) // adds
        if k > lines:
            k = lines
        if k < 1:
            return 0, t
        # t + j·step is exact for every j <= k: an integer multiple of a
        # power of two inside the binade.
        step = adds * ulp
        guard = self.tight_guard
        if deadline - (t + (k - 1) * step) < guard:
            # The guard stops the run first: estimate its first failing
            # line, then settle it with the loop's own compare.
            j = int((deadline - guard - t) / step) + 1
            j = 1 if j < 1 else (k - 1 if j > k - 1 else j)
            while deadline - (t + j * step) >= guard:
                j += 1
            while j > 1 and deadline - (t + (j - 1) * step) < guard:
                j -= 1
            k = j
        return k, t + k * step

    def _enter_binade(self, t: float) -> None:
        if t < 1.0:
            self.low, self.top, self.ulps, self.adds = 0.0, 1.0, None, 0
            return
        ulp = math.ulp(t)
        # Dividing by a power of two is exact, so each quotient carries
        # the exact rounding of its constant to the ulp grid.
        per_line = self.per_line
        per_inst = self.per_inst
        ulps: Optional[List[int]] = [0]
        for run in range(1, per_line if per_line > 1 else 2):
            quot = run * per_inst / ulp
            frac = quot % 1.0
            if frac == 0.5:
                ulps = None  # an exact tie
                break
            ulps.append(int(quot) + (frac > 0.5))
        self.top = math.ldexp(1.0, math.frexp(t)[1])
        self.low = self.top / 2
        self.ulp = ulp
        self.ulps = ulps
        if ulps is None:
            self.adds = 0
        else:
            self.adds = ulps[1] + ulps[per_line - 1]
            if per_line >= 4:
                self.loop_end = ulps[1] + ulps[per_line - 2] + ulps[1]


class StraightlineProgram(Program):
    """Unbounded loop of same-byte-length instructions (§4.3 victim).

    The victim runs ``loop_bytes`` worth of ``inst_size``-byte NOPs and
    jumps back to the top.  Instruction count per preemption is then
    just the retired-index delta, exactly like the paper's PC-delta
    measurement.  ``total`` bounds the stream for experiments that want
    the victim to eventually exit (None = infinite).
    """

    def __init__(
        self,
        base_pc: int = 0x400000,
        inst_size: int = 4,
        loop_bytes: int = 4096,
        total: Optional[int] = None,
    ):
        super().__init__()
        if loop_bytes % inst_size:
            raise ValueError("loop_bytes must be a multiple of inst_size")
        self.base_pc = base_pc
        self.inst_size = inst_size
        self.loop_insts = loop_bytes // inst_size
        self.total = total
        # Instructions are a pure function of the loop slot, so memoize
        # them: an 80 000-preemption run asks for the same thousand
        # frozen records millions of times.
        self._slot_cache: List[Optional[Instruction]] = [None] * self.loop_insts
        self._steady_profile: Optional[LoopProfile] = None
        self._twin_consts: Optional[_TwinConstants] = None

    def instruction_at(self, index: int) -> Optional[Instruction]:
        if self.total is not None and index >= self.total:
            return None
        slot = index % self.loop_insts
        inst = self._slot_cache[slot]
        if inst is None:
            pc = self.base_pc + slot * self.inst_size
            if slot == self.loop_insts - 1:
                inst = Instruction(
                    pc=pc, kind=InstrKind.JMP, target=self.base_pc, size=self.inst_size
                )
            else:
                inst = Instruction(pc=pc, kind=InstrKind.NOP, size=self.inst_size)
            self._slot_cache[slot] = inst
        return inst

    @property
    def done(self) -> bool:
        total = self.total
        return total is not None and self.retired >= total

    @property
    def current_pc(self) -> Optional[int]:
        retired = self.retired
        total = self.total
        if total is not None and retired >= total:
            return None
        return self.base_pc + retired % self.loop_insts * self.inst_size

    def uniform_region_length(self, index: int) -> int:
        """Instructions until the next line boundary or loop-back jump.

        Within a cache line of NOPs every instruction costs exactly the
        base cycle once the line is resident, so the executor may retire
        the remainder of the current line in one step.  A region never
        starts at a line boundary: the boundary instruction must execute
        normally to warm the line (and possibly the page) first.
        """
        if self.total is not None and index >= self.total:
            return 0
        slot = index % self.loop_insts
        per_line = 64 // self.inst_size
        if slot % per_line == 0:
            return 0  # line boundary: must fetch normally first
        run = per_line - (slot % per_line)
        run = min(run, self.loop_insts - 1 - slot)  # stop before the jump
        if self.total is not None:
            run = min(run, self.total - index)
        return run if run > 0 else 0

    def loop_profile(self, index: int) -> Optional[LoopProfile]:
        """Whole-loop fast-forward is valid from any loop-top index."""
        if index % self.loop_insts != 0:
            return None
        max_loops = None
        if self.total is not None:
            max_loops = (self.total - index) // self.loop_insts
            if max_loops < 1:
                return None
        steady = self._steady_profile
        if steady is None:
            loop_bytes = self.loop_insts * self.inst_size
            lines = tuple(range(self.base_pc, self.base_pc + loop_bytes, 64))
            pages = tuple(
                sorted({pc // 4096 for pc in range(self.base_pc,
                                                   self.base_pc + loop_bytes, 4096)}
                       | {(self.base_pc + loop_bytes - 1) // 4096})
            )
            steady = LoopProfile(
                base_pc=self.base_pc,
                insts_per_loop=self.loop_insts,
                line_addrs=lines,
                page_vpns=pages,
                cycles_per_loop=float(self.loop_insts),  # 1 cycle/inst, fetches hit
                max_loops=None,
            )
            self._steady_profile = steady
        if max_loops is None:
            return steady
        return LoopProfile(
            base_pc=steady.base_pc,
            insts_per_loop=steady.insts_per_loop,
            line_addrs=steady.line_addrs,
            page_vpns=steady.page_vpns,
            cycles_per_loop=steady.cycles_per_loop,
            max_loops=max_loops,
        )

    def steady_state(self, index: int) -> Optional[Tuple[LoopProfile, Optional[int]]]:
        """Every NOP (and the loop-back jump, predicted by its own BTB
        entry) costs one base cycle once the loop is resident, so the
        stream is uniform from *any* slot, not just the loop top."""
        if self.total is None:
            profile = self._steady_profile or self.loop_profile(0)
            return None if profile is None else (profile, None)
        remaining = self.total - index
        if remaining < 1:
            return None
        profile = self.loop_profile(index - index % self.loop_insts)
        if profile is None:
            return None
        return profile, remaining

    def steady_twin(self, idx0: int, t: float, deadline: float,
                    per_inst: float, certified: Optional[int]):
        """Arithmetic twin of the per-instruction loop over a steady
        window (the third part of ``Core._try_fast_forward``).

        Performs the *exact* float-accumulation sequence of the generic
        twin loop kept in ``tests/test_tier2_fastpath.py`` — chunk-head
        additions, uniform-line bulk multiplies and whole-loop
        multiplies, in the same order — but with the loop structure
        (line length, loop length, stream bound) inlined as local
        integers instead of rediscovered through ``loop_profile`` /
        ``uniform_region_length`` calls per cache line.  The twin is the
        hottest region of the tau-sweep profile; inlining replaces ~70
        Python method calls per preemption window with straight
        int/float arithmetic while staying bit-identical (EEVDF
        eligibility amplifies even ULP drift into different preemption
        counts).  ``certified`` is a hard stop: no chunk head and no
        whole loop starts ``certified`` instructions past ``idx0`` or
        later.

        Returns ``(instructions, end_time_ns)``, or None when nothing
        retires.
        """
        consts = self._twin_consts
        if consts is None or consts.per_inst != per_inst:
            consts = self._twin_consts = _TwinConstants(self, per_inst)
        loop_insts = self.loop_insts
        total = self.total
        idx = idx0
        if total is None:
            # Unbounded stream (the §4.3 resolution victim) — the hot
            # case.  ``certified`` is always None here (steady_state
            # returns an unbounded remaining), so the stream-bound and
            # certification checks vanish; the loop slot is tracked
            # incrementally instead of recomputed as ``idx %
            # loop_insts`` (idx grows without bound, making that modulo
            # a long-int division); and the per-line deadline budget is
            # resolved with one float multiply in the common case — if
            # ``(run+1) * per_inst`` still fits in the window then
            # ``int(window / per_inst) >= run`` certainly holds (run is
            # tiny, so one spare per_inst dwarfs the rounding error of
            # correctly-rounded IEEE ops), and the division that the
            # reference performs would have returned ``bulk = run``
            # anyway.  Every ``t`` update below is operation-for-
            # operation the sequence the generic loop performs, or the
            # exact closed form of a run of them.
            per_line = consts.per_line
            last_bulk_slot = loop_insts - 1  # stop before the loop jump
            per_loop = consts.per_loop
            two_loops = consts.two_loops
            full_run = consts.full_run
            full_bulk = consts.full_bulk
            full_guard = consts.full_guard
            tight_guard = consts.tight_guard
            last_tight = consts.last_tight
            last_closed = consts.last_closed
            closed_window = consts.closed_window
            slot = idx % loop_insts
            if slot and deadline - t >= consts.long_window:
                # A long window (a tick of a victim running alone) from
                # mid-loop: its head, up to the loop-back, in closed form
                # (see _TwinConstants), so the loop below starts at the
                # whole-loop multiply.  The head is the chunk head at
                # ``slot``; the rest of its line, a bulk add or, for a
                # rest of one, the chunk head the loop adds instead (a
                # run of one either way); a tight-run line per full line
                # up to the last; the last line's chunk head and bulk
                # of per_line - 2; and the jump.  A head that would
                # reach the binade's top, or end within ``tight_guard``
                # of the deadline (where the loop's per-line decisions
                # are not all forced), is left to the loop.
                if not consts.low <= t < consts.top:
                    consts._enter_binade(t)
                ulps = consts.ulps
                if ulps is not None:
                    n = ulps[1]
                    head = slot + 1
                    if head <= last_bulk_slot:
                        run = -head % per_line  # 0 at a line boundary
                        if run >= last_bulk_slot - head:
                            # The last line: its rest, then the jump.
                            n += ulps[last_bulk_slot - head] + ulps[1]
                        else:
                            n += (ulps[run] + consts.loop_end
                                  + ((last_tight - head - run) // per_line + 1)
                                  * consts.adds)
                    ulp = consts.ulp
                    if n < (consts.top - t) / ulp:
                        # Exact: a multiple of the ulp below ``top``.
                        end = t + n * ulp
                        if deadline - end >= tight_guard:
                            idx += loop_insts - slot
                            slot = 0
                            t = end
            while t < deadline:
                if not slot % per_line:
                    if not slot:
                        window = deadline - t
                        if window >= two_loops:
                            loops = int(window / per_loop)
                            idx += loops * loop_insts
                            t += loops * per_loop
                            continue
                    # Tight run over consecutive full warm lines: each
                    # line is exactly one chunk-head add plus one bulk
                    # add of the precomputed full-line product — the
                    # identical op pair the generic path performs when
                    # its (forced, see tight_guard) decisions all take
                    # the full-line branch, at the loop top too.  A run
                    # long enough to repay it takes the closed form
                    # first; the loop adds whatever the closed form left
                    # (short runs, a tie binade, t < 1, the lines past a
                    # power of two).  Slot never wraps here (last_tight
                    # keeps the loop-back jump line out).
                    if slot <= last_closed and deadline - t >= closed_window:
                        lines, t = consts.tight_lines(
                            t, deadline, (last_tight - slot) // per_line + 1)
                        idx += lines * per_line
                        slot += lines * per_line
                    while slot <= last_tight and deadline - t >= tight_guard:
                        t += per_inst
                        t += full_bulk
                        idx += per_line
                        slot += per_line
                t += per_inst  # chunk-head instruction (line warm)
                idx += 1
                slot += 1
                if slot == loop_insts:
                    slot = 0
                if t >= deadline:
                    break
                rem = slot % per_line
                if rem:
                    run = per_line - rem
                    stop = last_bulk_slot - slot
                    if run > stop:
                        run = stop
                    if run > 1:
                        if run == full_run and full_guard <= deadline - t:
                            # Full warm line with headroom: the two
                            # precomputed constants are the identical
                            # float products the generic ops produce.
                            idx += run
                            slot += run
                            t += full_bulk
                        elif (run + 1) * per_inst <= deadline - t:
                            idx += run
                            slot += run
                            t += run * per_inst
                        else:
                            budget = int((deadline - t) / per_inst)
                            bulk = (run if run < budget
                                    else (budget if budget > 0 else 0))
                            if bulk > 0:
                                idx += bulk
                                slot += bulk
                                t += bulk * per_inst
            count = idx - idx0
            if count < 1:
                return None
            return count, t
        per_line = consts.per_line
        per_loop = consts.per_loop
        two_loops = consts.two_loops
        while t < deadline:
            if certified is not None and idx - idx0 >= certified:
                break  # past the certified region: execute() decides
            if idx % loop_insts == 0:
                max_loops = (total - idx) // loop_insts
                if max_loops >= 1:
                    window = deadline - t
                    if window >= two_loops:
                        loops = int(window / per_loop)
                        if loops > max_loops:
                            loops = max_loops
                        if loops >= 1:
                            idx += loops * loop_insts
                            t += loops * per_loop
                            continue
            t += per_inst  # chunk-head instruction (line warm: base cost)
            idx += 1
            if t >= deadline:
                break
            # uniform_region_length(idx), inlined
            if idx >= total:
                run = 0
            else:
                slot = idx % loop_insts
                rem = slot % per_line
                if rem == 0:
                    run = 0
                else:
                    run = per_line - rem
                    stop = loop_insts - 1 - slot
                    if run > stop:
                        run = stop
                    if run > total - idx:
                        run = total - idx
            if run > 1:
                budget = int((deadline - t) / per_inst)
                bulk = min(run, budget if budget > 0 else 0)
                if bulk > 0:
                    idx += bulk
                    t += bulk * per_inst
        count = idx - idx0
        if count < 1:
            return None
        return count, t
