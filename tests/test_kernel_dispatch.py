"""Integration tests for the kernel dispatch loop, timers and syscalls."""

import pytest

from repro.cpu.machine import Machine, MachineConfig
from repro.cpu.program import StraightlineProgram
from repro.experiments.setup import build_env
from repro.kernel import actions as act
from repro.kernel.threads import ComputeBody, CoroutineBody, ProgramBody
from repro.sched.task import Task, TaskState
from repro.victims.sgx import make_enclave_task

MS = 1_000_000


def coroutine_task(name, gen):
    return Task(name, body=CoroutineBody(gen))


class TestBasicScheduling:
    def test_single_task_runs_and_exits(self):
        env = build_env(seed=0)
        done = []

        def body():
            yield act.Compute(1000.0)
            now = yield act.GetTime()  # body-local clock, not sim.now
            done.append(now)
            yield act.Exit()

        task = coroutine_task("t", body())
        env.kernel.spawn(task, cpu=0)
        env.kernel.run_until(max_time=1e9)
        assert task.state is TaskState.EXITED
        assert done and done[0] >= 1000.0

    def test_program_victim_runs_to_completion(self):
        env = build_env(seed=0)
        program = StraightlineProgram(total=5000)
        victim = Task("v", body=ProgramBody(program))
        env.kernel.spawn(victim, cpu=0)
        env.kernel.run_until(
            predicate=lambda: victim.state is TaskState.EXITED, max_time=1e9
        )
        assert program.retired == 5000

    def test_two_compute_tasks_share_fairly(self):
        env = build_env(seed=0)
        a = Task("a", body=ComputeBody())
        b = Task("b", body=ComputeBody())
        env.kernel.spawn(a, cpu=0)
        env.kernel.spawn(b, cpu=0)
        env.kernel.run_until(max_time=100 * MS)
        total = a.sum_exec_runtime + b.sum_exec_runtime
        assert total > 90 * MS
        assert abs(a.sum_exec_runtime - b.sum_exec_runtime) / total < 0.10

    def test_tick_descheduling_respects_min_granularity(self):
        env = build_env(seed=0)
        a = Task("a", body=ComputeBody())
        b = Task("b", body=ComputeBody())
        env.kernel.spawn(a, cpu=0)
        env.kernel.spawn(b, cpu=0)
        env.kernel.run_until(max_time=30 * MS)
        switches = [
            s for s in env.tracer.switches if s.reason == "tick" and s.next_pid
        ]
        assert switches, "tick preemption should have occurred"
        # Consecutive tick switches are at least S_min apart.
        for first, second in zip(switches, switches[1:]):
            assert second.time - first.time >= env.params.s_min - env.params.tick


class TestNanosleep:
    def test_sleep_duration_respected(self):
        env = build_env(seed=0)
        wakes = []

        def body():
            yield act.SetTimerSlack(1.0)
            start = yield act.GetTime()
            yield act.Nanosleep(5 * MS)
            end = yield act.GetTime()
            wakes.append(end - start)
            yield act.Exit()

        env.kernel.spawn(coroutine_task("s", body()), cpu=0)
        env.kernel.run_until(max_time=1e9)
        assert len(wakes) == 1
        assert 5 * MS <= wakes[0] <= 5 * MS + 50_000

    def test_default_timer_slack_delays_wakeup(self):
        env = build_env(seed=0)
        wakes = []

        def body(set_slack):
            if set_slack:
                yield act.SetTimerSlack(1.0)
            start = yield act.GetTime()
            yield act.Nanosleep(1 * MS)
            end = yield act.GetTime()
            wakes.append(end - start)
            yield act.Exit()

        env.kernel.spawn(coroutine_task("default", body(False)), cpu=0)
        env.kernel.run_until(max_time=1e9)
        env2 = build_env(seed=0)
        env2.kernel.spawn(coroutine_task("tight", body(True)), cpu=0)
        env2.kernel.run_until(max_time=1e9)
        default_slack, tight = wakes
        # Identical jitter streams: the only difference is the slack.
        assert default_slack > tight

    def test_sleeping_task_yields_cpu(self):
        env = build_env(seed=0)
        other = Task("other", body=ComputeBody())

        def body():
            yield act.Nanosleep(10 * MS)
            yield act.Exit()

        env.kernel.spawn(coroutine_task("sleeper", body()), cpu=0)
        env.kernel.spawn(other, cpu=0)
        env.kernel.run_until(max_time=10 * MS)
        assert other.sum_exec_runtime > 9 * MS


class TestPosixTimer:
    def test_periodic_timer_wakes_pause(self):
        env = build_env(seed=0)
        wake_times = []

        def body():
            yield act.TimerCreate(2 * MS)
            for _ in range(3):
                yield act.Pause()
                now = yield act.GetTime()
                wake_times.append(now)
            yield act.TimerCancel()
            yield act.Exit()

        task = coroutine_task("m2", body())
        env.kernel.spawn(task, cpu=0)
        env.kernel.run_until(max_time=1e9)
        assert task.state is TaskState.EXITED
        assert len(wake_times) == 3
        gaps = [b - a for a, b in zip(wake_times, wake_times[1:])]
        for gap in gaps:
            assert gap == pytest.approx(2 * MS, rel=0.05)

    def test_timer_overrun_counted_not_queued(self):
        env = build_env(seed=0)
        wakes = []

        def body():
            yield act.TimerCreate(1 * MS)
            yield act.Pause()
            # Handler takes 3 periods: the expiries in between are
            # overruns, not queued wakeups.
            yield act.Compute(3 * MS)
            yield act.Pause()
            now = yield act.GetTime()
            wakes.append(now)
            yield act.TimerCancel()
            yield act.Exit()

        task = coroutine_task("overrun", body())
        env.kernel.spawn(task, cpu=0)
        env.kernel.run_until(max_time=1e9)
        assert task.state is TaskState.EXITED
        assert len(wakes) == 1


class TestWakeupPreemption:
    def test_well_slept_wakeup_preempts_running_victim(self):
        env = build_env(seed=0)
        victim = Task("v", body=ComputeBody())

        def attacker_body():
            yield act.SetTimerSlack(1.0)
            yield act.Nanosleep(5e9)
            yield act.Compute(1000.0)
            yield act.Exit()

        attacker = coroutine_task("a", attacker_body())
        env.kernel.spawn(victim, cpu=0)
        env.kernel.spawn(attacker, cpu=0)
        env.kernel.run_until(
            predicate=lambda: attacker.state is TaskState.EXITED,
            max_time=6e9,
        )
        preempts = env.tracer.preemption_switches(attacker.pid)
        assert len(preempts) == 1
        assert victim.preemptions_suffered == 1

    def test_failed_preemption_records_exit_to_victim(self):
        env = build_env(seed=0)
        victim = Task("v", body=ComputeBody())

        def napper_body():
            # Immediately napping gives no sleeper credit: vruntime gap
            # stays below S_preempt, so the wake cannot preempt.
            yield act.Compute(100.0)
            yield act.Nanosleep(1000.0)
            yield act.Exit()

        napper = coroutine_task("n", napper_body())
        env.kernel.spawn(victim, cpu=0)
        env.kernel.spawn(napper, cpu=0)
        env.kernel.run_until(max_time=20 * MS)
        failed = [w for w in env.tracer.wakeups if w.pid == napper.pid
                  and not w.preempted]
        assert failed


class TestEnclaveTransitions:
    def test_aex_flushes_tlb(self):
        env = build_env(seed=0)
        program = StraightlineProgram()  # endless: outlives the hibernation
        victim = make_enclave_task("enclave", program)

        def attacker_body():
            yield act.SetTimerSlack(1.0)
            yield act.Nanosleep(5e9)
            yield act.Compute(1000.0)
            yield act.Exit()

        attacker = coroutine_task("a", attacker_body())
        env.kernel.spawn(victim, cpu=0)
        env.kernel.spawn(attacker, cpu=0)
        # Stop exactly when the AEX lands (the victim would re-fill the
        # TLB as soon as it resumes).
        env.kernel.run_until(
            predicate=lambda: bool(
                env.tracer.preemption_switches(attacker.pid)
            ),
            max_time=6e9,
        )
        assert victim.preemptions_suffered >= 1
        assert not env.machine.tlbs.holds_fetch_translation(
            0, victim.pid, program.base_pc
        )

    def test_enclave_resume_costs_more(self):
        def preemption_gap(enclave):
            env = build_env(seed=0)
            program = StraightlineProgram()  # endless
            if enclave:
                victim = make_enclave_task("v", program)
            else:
                victim = Task("v", body=ProgramBody(program))

            def attacker_body():
                yield act.SetTimerSlack(1.0)
                yield act.Nanosleep(5e9)
                for _ in range(3):
                    yield act.Compute(1000.0)
                    yield act.Nanosleep(10_000.0)
                yield act.Exit()

            attacker = coroutine_task("a", attacker_body())
            env.kernel.spawn(victim, cpu=0)
            env.kernel.spawn(attacker, cpu=0)
            env.kernel.run_until(
                predicate=lambda: attacker.state is TaskState.EXITED,
                max_time=6e9,
            )
            exits = env.tracer.exits_for(victim.pid)
            return program.retired, exits

        plain_retired, _ = preemption_gap(False)
        enclave_retired, _ = preemption_gap(True)
        # Same nap interval: the enclave victim retires less because
        # AEX + ERESUME eat into each window.
        assert enclave_retired < plain_retired


class TestMultiCore:
    def test_unpinned_spawn_picks_idle_cpu(self):
        env = build_env(n_cores=4, seed=0)
        busy = Task("busy", body=ComputeBody())
        busy.pin_to(0)
        env.kernel.spawn(busy, cpu=0)
        env.kernel.run_until(max_time=1 * MS)
        fresh = Task("fresh", body=ComputeBody())
        env.kernel.spawn(fresh)
        assert fresh.cpu != 0

    def test_load_balancer_spreads_waiting_tasks(self):
        env = build_env(n_cores=2, seed=0)
        tasks = [Task(f"t{i}", body=ComputeBody()) for i in range(2)]
        for t in tasks:
            env.kernel.spawn(t, cpu=0)  # both forced onto cpu0
        env.kernel.run_until(max_time=20 * MS)
        assert {t.cpu for t in tasks} == {0, 1}

    def test_balance_event_stops_when_idle_and_rearms_on_spawn(self):
        env = build_env(n_cores=2, seed=0)
        kernel = env.kernel
        balance = kernel._balance_event
        short = Task("short", body=ComputeBody(0.5 * MS))
        kernel.spawn(short, cpu=0)
        kernel.run_until()  # returns once the heap drains
        assert short.state is TaskState.EXITED
        assert balance.entry is None
        assert kernel.sim.pending_count() == 0

        late = [Task(f"late{i}", body=ComputeBody()) for i in range(2)]
        for t in late:
            kernel.spawn(t, cpu=0)
        assert balance.entry is not None
        tick = balance.entry[0]
        assert tick == kernel.now + 4 * MS
        kernel.run_until(max_time=tick)
        assert [(m.time, m.src_cpu, m.dst_cpu)
                for m in kernel.balancer.migrations] == [(tick, 0, 1)]
        assert sorted(t.cpu for t in late) == [0, 1]

    def test_pinned_task_never_migrates(self):
        env = build_env(n_cores=2, seed=0)
        pinned = Task("p", body=ComputeBody())
        pinned.pin_to(0)
        env.kernel.spawn(pinned, cpu=0)
        env.kernel.spawn(Task("other", body=ComputeBody()), cpu=0)
        env.kernel.run_until(max_time=20 * MS)
        assert pinned.cpu == 0
        assert pinned.migrations == 0

    def test_spawn_rejects_disallowed_cpu(self):
        env = build_env(n_cores=2, seed=0)
        t = Task("t", body=ComputeBody())
        t.pin_to(1)
        with pytest.raises(ValueError):
            env.kernel.spawn(t, cpu=0)
