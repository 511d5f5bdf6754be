"""Thread bodies and the action protocol."""

import pytest

from repro.cpu.machine import Machine, MachineConfig
from repro.cpu.program import StraightlineProgram
from repro.kernel import actions as act
from repro.kernel.threads import (
    BlockRequest,
    ComputeBody,
    CoroutineBody,
    ProgramBody,
    RunOutcome,
)


class FakeCtx:
    """Minimal ExecContext: every action costs 10 ns, results echo."""

    def __init__(self):
        self.machine = Machine(MachineConfig(n_cores=1))
        self.core = self.machine.core(0)
        self.asid = 1
        self.executed = []

    def exec_action(self, action, now):
        self.executed.append(type(action).__name__)
        if isinstance(action, act.Nanosleep):
            return 0.0, None, BlockRequest("nanosleep", action.ns)
        if isinstance(action, act.Exit):
            return 0.0, None, BlockRequest("exit")
        if isinstance(action, act.GetTime):
            return 10.0, now + 10.0, None
        return 10.0, "result", None

    def exec_batch(self, batch, i, t, deadline, out):
        self.executed.append(type(batch).__name__)
        while i < len(batch.items):
            i += 1
            out.append("result")
            t += 10.0
            if t >= deadline:
                break
        return i, t

    def draw_spec_window(self):
        return 2


class TestCoroutineBody:
    def test_runs_actions_until_deadline(self):
        def gen():
            for _ in range(100):
                yield act.Compute(1.0)

        body = CoroutineBody(gen())
        outcome = body.run(FakeCtx(), 0.0, 35.0)
        assert outcome.block is None and not outcome.exited
        assert outcome.end == pytest.approx(40.0)  # one action overshoot
        assert body.actions_executed == 4

    def test_resumes_where_it_stopped(self):
        ctx = FakeCtx()

        def gen():
            for _ in range(6):
                yield act.Compute(1.0)

        body = CoroutineBody(gen())
        body.run(ctx, 0.0, 25.0)
        outcome = body.run(ctx, 25.0, 1e9)
        assert outcome.exited
        assert body.actions_executed == 6

    def test_block_request_propagates(self):
        def gen():
            yield act.Compute(1.0)
            yield act.Nanosleep(500.0)
            yield act.Compute(1.0)

        body = CoroutineBody(gen())
        outcome = body.run(FakeCtx(), 0.0, 1e9)
        assert outcome.block == BlockRequest("nanosleep", 500.0)
        # Resume after the (external) wake: the rest still runs.
        outcome = body.run(FakeCtx(), 100.0, 1e9)
        assert outcome.exited

    def test_results_delivered_via_send(self):
        received = []

        def gen():
            (value,) = yield act.Loads((0x1000,))
            received.append(value)

        CoroutineBody(gen()).run(FakeCtx(), 0.0, 1e9)
        assert received == ["result"]

    def test_batch_resumes_at_its_cursor(self):
        received = []

        def gen():
            received.append((yield act.Loads(range(5))))

        ctx = FakeCtx()
        body = CoroutineBody(gen())
        outcome = body.run(ctx, 0.0, 25.0)
        assert outcome == RunOutcome(30.0)  # the third element overshoots
        assert body.actions_executed == 3 and received == []
        outcome = body.run(ctx, 30.0, 1e9)
        assert outcome.exited
        assert received == [["result"] * 5]
        assert body.actions_executed == 5

    def test_exit_action_terminates(self):
        def gen():
            yield act.Exit()
            yield act.Compute(1.0)  # never reached

        body = CoroutineBody(gen())
        outcome = body.run(FakeCtx(), 0.0, 1e9)
        assert outcome.exited

    def test_generator_return_terminates(self):
        def gen():
            yield act.Compute(1.0)

        body = CoroutineBody(gen())
        outcome = body.run(FakeCtx(), 0.0, 1e9)
        assert outcome.exited


class TestProgramBody:
    def test_exits_when_program_done(self):
        ctx = FakeCtx()
        body = ProgramBody(StraightlineProgram(total=10))
        outcome = body.run(ctx, 0.0, 1e9)
        assert outcome.exited

    def test_partial_window_keeps_state(self):
        ctx = FakeCtx()
        program = StraightlineProgram(total=100_000)
        body = ProgramBody(program)
        body.run(ctx, 0.0, 50.0)
        assert 0 < program.retired < 100_000

    def test_on_preempted_speculates_with_machine_window(self):
        ctx = FakeCtx()
        program = StraightlineProgram(total=100)
        body = ProgramBody(program)  # spec_window None → ctx draw (2)
        body.run(ctx, 0.0, 5.0)
        before = ctx.core.stats.speculative_issues
        body.on_preempted(ctx)
        # NOPs carry no memory effects, so counts stay equal — but the
        # call must not advance retirement.
        assert ctx.core.stats.speculative_issues == before
        retired = program.retired
        body.on_preempted(ctx)
        assert program.retired == retired

    def test_explicit_zero_spec_window(self):
        ctx = FakeCtx()
        body = ProgramBody(StraightlineProgram(total=100), spec_window=0)
        body.run(ctx, 0.0, 5.0)
        body.on_preempted(ctx)  # must not raise nor speculate
        assert ctx.core.stats.speculative_issues == 0


class TestComputeBody:
    def test_infinite_body_consumes_whole_window(self):
        outcome = ComputeBody().run(FakeCtx(), 10.0, 50.0)
        assert outcome == RunOutcome(50.0)

    def test_finite_body_exits_at_duration(self):
        body = ComputeBody(duration_ns=30.0)
        first = body.run(FakeCtx(), 0.0, 20.0)
        assert not first.exited
        second = body.run(FakeCtx(), 20.0, 100.0)
        assert second.exited
        assert second.end == pytest.approx(30.0)
