"""Unit + property tests for victim program abstractions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.isa import Instruction, InstrKind, branch, load, nop, store
from repro.cpu.program import StraightlineProgram, TraceProgram


class TestInstruction:
    def test_load_requires_address(self):
        with pytest.raises(ValueError):
            Instruction(pc=0, kind=InstrKind.LOAD)

    def test_jmp_requires_target(self):
        with pytest.raises(ValueError):
            Instruction(pc=0, kind=InstrKind.JMP)

    def test_next_pc_falls_through(self):
        assert nop(0x100).next_pc == 0x104

    def test_next_pc_taken_branch(self):
        assert branch(0x100, 0x200, taken=True).next_pc == 0x200

    def test_next_pc_not_taken_branch(self):
        assert branch(0x100, 0x200, taken=False).next_pc == 0x104

    def test_control_transfer_classification(self):
        assert InstrKind.JMP.is_control_transfer
        assert InstrKind.RET.is_control_transfer
        assert not InstrKind.LOAD.is_control_transfer
        assert InstrKind.STORE.is_memory
        assert not InstrKind.NOP.is_memory

    def test_constructors(self):
        assert load(0, 0x100).mem_addr == 0x100
        assert store(0, 0x100).kind is InstrKind.STORE


class TestTraceProgram:
    def _prog(self, n=5):
        return TraceProgram([nop(0x100 + 4 * i) for i in range(n)])

    def test_sequential_retirement(self):
        p = self._prog(3)
        assert p.current().pc == 0x100
        p.retire()
        assert p.current().pc == 0x104
        assert p.retired == 1

    def test_done_at_end(self):
        p = self._prog(2)
        assert not p.done
        p.retire()
        p.retire()
        assert p.done
        assert p.current() is None

    def test_reset(self):
        p = self._prog(2)
        p.retire()
        p.reset()
        assert p.retired == 0

    def test_current_pc_tracks_cursor(self):
        p = self._prog(2)
        assert p.current_pc == 0x100
        p.retire()
        assert p.current_pc == 0x104
        p.retire()
        assert p.current_pc is None

    def test_out_of_range_index(self):
        p = self._prog(2)
        assert p.instruction_at(-1) is None
        assert p.instruction_at(99) is None

    def test_labels(self):
        p = TraceProgram([nop(0, label="a"), nop(4), nop(8, label="b")])
        assert p.labels() == ["a", "b"]


class TestStraightlineProgram:
    def test_loop_wraps(self):
        p = StraightlineProgram(base_pc=0x400000, loop_bytes=64)
        per_loop = p.loop_insts
        assert p.instruction_at(0).pc == p.instruction_at(per_loop).pc

    def test_last_slot_is_jump_back(self):
        p = StraightlineProgram(base_pc=0x400000, loop_bytes=64)
        jump = p.instruction_at(p.loop_insts - 1)
        assert jump.kind is InstrKind.JMP
        assert jump.target == 0x400000

    def test_total_bounds_stream(self):
        p = StraightlineProgram(total=10)
        assert p.instruction_at(9) is not None
        assert p.instruction_at(10) is None

    def test_infinite_stream(self):
        p = StraightlineProgram()
        assert p.instruction_at(10**9) is not None

    def test_invalid_loop_size(self):
        with pytest.raises(ValueError):
            StraightlineProgram(inst_size=3, loop_bytes=64)

    def test_uniform_region_stops_at_line_boundary(self):
        p = StraightlineProgram(inst_size=4)
        per_line = 16
        assert p.uniform_region_length(0) == 0  # boundary must fetch
        assert p.uniform_region_length(1) == per_line - 1
        assert p.uniform_region_length(per_line) == 0

    def test_uniform_region_stops_before_jump(self):
        p = StraightlineProgram(inst_size=4, loop_bytes=4096)
        last = p.loop_insts - 1
        assert p.uniform_region_length(last - 1) <= 1

    def test_loop_profile_at_loop_top_only(self):
        p = StraightlineProgram()
        assert p.loop_profile(0) is not None
        assert p.loop_profile(1) is None
        assert p.loop_profile(p.loop_insts) is not None

    def test_loop_profile_geometry(self):
        p = StraightlineProgram(base_pc=0x400000, loop_bytes=4096)
        profile = p.loop_profile(0)
        assert profile.insts_per_loop == 1024
        assert len(profile.line_addrs) == 64
        assert profile.cycles_per_loop == 1024.0

    def test_finite_profile_caps_loops(self):
        p = StraightlineProgram(loop_bytes=64, total=40)
        profile = p.loop_profile(0)
        assert profile.max_loops == 40 // p.loop_insts

    @pytest.mark.parametrize("total", [None, 1, 37, 2 * 16 + 5])
    def test_cursor_reads_match_the_stream(self, total):
        """``done`` and ``current_pc`` read the cursor arithmetically;
        they agree with the instruction stream, before, at and past the
        end of a bounded one."""
        p = StraightlineProgram(base_pc=0x400000, inst_size=4,
                                loop_bytes=64, total=total)
        for retired in list(range(3 * p.loop_insts)) + [10**9]:
            p.retired = retired
            inst = p.instruction_at(retired)
            assert p.done is (inst is None)
            assert p.current_pc == (None if inst is None else inst.pc)

    def test_finite_profile_none_when_no_full_loop_left(self):
        p = StraightlineProgram(loop_bytes=64, total=40)
        per_loop = p.loop_insts
        last_top = (40 // per_loop) * per_loop
        assert p.loop_profile(last_top) is None

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_pc_always_within_loop(self, index):
        p = StraightlineProgram(base_pc=0x400000, loop_bytes=4096)
        inst = p.instruction_at(index)
        assert 0x400000 <= inst.pc < 0x401000

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=50)
    def test_uniform_region_instructions_really_are_uniform(self, index):
        """Every instruction inside a declared uniform region must be a
        plain NOP on the same line — the fast path's soundness."""
        p = StraightlineProgram()
        run = p.uniform_region_length(index)
        if run:
            line = p.instruction_at(index).pc // 64
            for offset in range(run):
                inst = p.instruction_at(index + offset)
                assert inst.kind is InstrKind.NOP
                assert inst.pc // 64 == line
