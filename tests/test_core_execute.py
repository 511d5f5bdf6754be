"""Unit tests for per-instruction execution on a core."""

import pytest

from repro.cpu.isa import Instruction, InstrKind, load, nop
from repro.cpu.machine import Machine, MachineConfig
from repro.cpu.program import StraightlineProgram, TraceProgram
from repro.uarch.timing import LATENCY, cycles_to_ns


@pytest.fixture
def core():
    return Machine(MachineConfig(n_cores=1)).core(0)


def warm(core, asid=1, pc=0x400000):
    """Consume the post-switch pipeline/warm-up penalties."""
    for i in range(LATENCY.frontend_warmup_insts + 2):
        core.execute(asid, nop(pc + 4 * i))


class TestExecutionCosts:
    def test_first_instruction_pays_refill_and_warmup(self, core):
        cold = core.execute(1, nop(0x400000))
        warm_cost = core.execute(1, nop(0x400004))
        assert cold > warm_cost

    def test_warm_nop_costs_base_cycle(self, core):
        warm(core)
        cost = core.execute(1, nop(0x400000 + 4 * 10))  # warmed line
        assert cost == pytest.approx(cycles_to_ns(LATENCY.base_inst))

    def test_context_switch_resets_warmup(self, core):
        warm(core)
        core.on_context_switch()
        cost = core.execute(1, nop(0x400000))
        assert cost > cycles_to_ns(LATENCY.base_inst)

    def test_load_includes_memory_latency(self, core):
        warm(core)
        # First touch of the page+line: page walk + DRAM.
        cold = core.execute(1, load(0x400100, 0x600000))
        hot = core.execute(1, load(0x400104, 0x600000))
        assert cold > hot
        assert hot >= cycles_to_ns(LATENCY.l1_hit)

    def test_fenced_instruction_costs_extra(self, core):
        warm(core)
        core.execute(1, load(0x400100, 0x600000))
        plain = core.execute(1, load(0x400104, 0x600000))
        fenced = core.execute(1, load(0x400108, 0x600000, fenced=True))
        assert fenced == pytest.approx(plain + cycles_to_ns(LATENCY.lfence))

    def test_new_line_fetch_miss_costs(self, core):
        warm(core)
        same_line = core.execute(1, nop(0x400000 + 4 * 14))
        new_line = core.execute(1, nop(0x402000))  # cold line, same page? no
        assert new_line > same_line


class TestBtbInteraction:
    def test_jump_allocates_entry(self, core):
        core.execute(1, Instruction(pc=0x400000, kind=InstrKind.JMP,
                                    target=0x400100))
        assert core.btb.predict(0x400000) == 0x400100

    def test_plain_instruction_invalidates_colliding_entry(self, core):
        core.execute(1, Instruction(pc=0x400000 + (1 << 32),
                                    kind=InstrKind.JMP, target=0x500000))
        core.execute(1, nop(0x400000))
        assert core.btb.predict(0x400000) is None

    def test_prediction_triggers_region_resolved_prefetch(self, core):
        """The Fig 5.3 mechanism: the predicted low-32 target is
        resolved against the fetching region's upper bits."""
        victim_pc = 0x400000
        prime_pc = victim_pc + (1 << 32)
        delta = 0x440
        core.execute(1, Instruction(pc=prime_pc, kind=InstrKind.JMP,
                                    target=prime_pc + delta))
        probe_pc = victim_pc + 2 * (1 << 32)
        marker = probe_pc + delta
        assert not core.hierarchy.is_cached_anywhere(marker)
        core.execute(1, Instruction(pc=probe_pc, kind=InstrKind.RET,
                                    target=probe_pc + 1))
        assert core.hierarchy.is_cached_anywhere(marker)

    def test_untaken_branch_does_not_allocate(self, core):
        core.execute(1, Instruction(pc=0x400000, kind=InstrKind.BRANCH,
                                    target=0x400100, taken=False))
        assert core.btb.predict(0x400000) is None


class TestRunProgram:
    def test_boundary_instruction_retires(self, core):
        """An instruction in flight at the deadline still retires —
        the rule enabling degradation-based single-stepping."""
        prog = TraceProgram([nop(0x400000 + 4 * i) for i in range(100)])
        retired, end = core.run_program(1, prog, 0.0, 1.0)
        assert retired >= 1
        assert end >= 1.0

    def test_zero_window_retires_nothing(self, core):
        prog = TraceProgram([nop(0x400000)])
        retired, end = core.run_program(1, prog, 5.0, 5.0)
        assert retired == 0
        assert end == 5.0

    def test_program_completion_before_deadline(self, core):
        prog = TraceProgram([nop(0x400000 + 4 * i) for i in range(3)])
        retired, end = core.run_program(1, prog, 0.0, 1e6)
        assert retired == 3
        assert prog.done
        assert end < 1e6

    def test_steady_fast_forward_matches_slow_path(self):
        """Property: the steady twin must retire the same instruction
        count as per-instruction execution over the same wall time
        (steady state).  Suppressing the loop profile also suppresses
        the program's steady state, so the slow side is the
        interpreter."""
        window = 50_000.0  # 50 µs

        def run(machine):
            prog = StraightlineProgram()
            core = machine.core(0)
            warm(core)  # not the program; warm the pipeline state only
            core.on_context_switch()
            # Warm pass so both paths start steady-state.
            core.run_program(1, prog, 0.0, 2_000.0)
            start = prog.retired
            _, end = core.run_program(1, prog, 2_000.0, 2_000.0 + window)
            return prog.retired - start

        fast = run(Machine(MachineConfig(n_cores=1)))
        # Slow path: identical machine but loop profiles suppressed.
        machine = Machine(MachineConfig(n_cores=1))
        prog = StraightlineProgram()
        prog.loop_profile = lambda index: None  # type: ignore[assignment]
        core = machine.core(0)
        core.on_context_switch()
        core.run_program(1, prog, 0.0, 2_000.0)
        start = prog.retired
        core.run_program(1, prog, 2_000.0, 2_000.0 + window)
        slow = prog.retired - start
        assert abs(fast - slow) / slow < 0.01

    def test_speculate_issues_loads_but_retires_nothing(self, core):
        target = 0x660000
        prog = TraceProgram([nop(0x400000), load(0x400004, target)])
        prog.retire()  # boundary after the first nop
        before = prog.retired
        core.speculate(1, prog, window=3)
        assert prog.retired == before
        assert core.hierarchy.is_cached_anywhere(target)

    def test_speculate_blocked_by_fence(self, core):
        target = 0x660000
        prog = TraceProgram(
            [nop(0x400000), load(0x400004, target, fenced=True)]
        )
        prog.retire()
        core.speculate(1, prog, window=3)
        assert not core.hierarchy.is_cached_anywhere(target)

    def test_warm_resume_preloads_working_set(self, core):
        """AEX-Notify model: lines/translations of the next K
        instructions become resident and the frontend is warm."""
        target = 0x660000
        prog = TraceProgram([nop(0x400000), load(0x400004, target)])
        core.warm_resume(1, prog, depth=2)
        assert core.hierarchy.is_cached_anywhere(target)
        cost = core.execute(1, prog.current())
        assert cost < cycles_to_ns(LATENCY.pipeline_refill)
