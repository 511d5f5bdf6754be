"""The Controlled Preemption primitive end to end (§4.1–§4.3)."""

import pytest

from repro.core.budget import (
    eevdf_expected_preemptions,
    expected_preemptions,
    max_attacker_time,
)
from repro.core.primitive import ControlledPreemption, PreemptionConfig
from repro.core.wakeup import WakeupMethod
from repro.cpu.program import StraightlineProgram
from repro.experiments.setup import build_env
from repro.kernel import actions as act
from repro.kernel.threads import CoroutineBody, ProgramBody
from repro.sched.params import SchedParams
from repro.sched.task import Task, TaskState

PARAMS = SchedParams.for_cores(16)
MS = 1_000_000


def run_attack(config, scheduler="cfs", seed=0, **attacker_kwargs):
    env = build_env(scheduler, n_cores=1, seed=seed)
    victim = Task("victim", body=ProgramBody(StraightlineProgram()))
    attacker = ControlledPreemption(config, **attacker_kwargs)
    env.kernel.spawn(victim, cpu=0)
    attacker.launch(env.kernel, 0)
    attacker.run(env.kernel, max_time=30e9)
    return env, victim, attacker


class TestBudgetFormulas:
    def test_cfs_formula(self):
        assert expected_preemptions(PARAMS, 10_000, 2_000) == 1000

    def test_cfs_ceil(self):
        assert expected_preemptions(PARAMS, 10_001, 2_001) == 1000

    def test_unbounded_when_victim_outruns_attacker(self):
        assert expected_preemptions(PARAMS, 1_000, 2_000) == float("inf")

    def test_eevdf_formula_uses_base_slice(self):
        assert eevdf_expected_preemptions(PARAMS, 10_000, 0) == pytest.approx(
            PARAMS.base_slice / 10_000, abs=1
        )

    def test_max_attacker_time_is_budget(self):
        assert max_attacker_time(PARAMS) == 8 * MS


class TestRepeatedPreemption:
    def test_hundreds_of_preemptions_single_thread(self):
        """The headline claim: one thread, hundreds of preemptions."""
        env, victim, attacker = run_attack(
            PreemptionConfig(nap_ns=900.0, rounds=5000,
                             extra_compute_ns=12_000.0,
                             stop_on_exhaustion=True)
        )
        count = env.tracer.consecutive_preemptions(
            victim.pid, attacker.task.pid
        )
        assert count > 300

    def test_count_matches_budget_model(self):
        env, victim, attacker = run_attack(
            PreemptionConfig(nap_ns=900.0, rounds=5000,
                             extra_compute_ns=20_000.0,
                             stop_on_exhaustion=True)
        )
        count = env.tracer.consecutive_preemptions(
            victim.pid, attacker.task.pid
        )
        expected = expected_preemptions(PARAMS, 20_000.0, 0.0)
        # Iv > 0 in practice, so the measured count exceeds the
        # Iv = 0 lower bound but stays within ~2×.
        assert expected * 0.8 <= count <= expected * 2.5

    def test_budget_exhaustion_detected(self):
        env, victim, attacker = run_attack(
            PreemptionConfig(nap_ns=900.0, rounds=5000,
                             extra_compute_ns=20_000.0,
                             stop_on_exhaustion=True)
        )
        assert attacker.exhausted_at is not None
        assert attacker.samples[attacker.exhausted_at].budget_exhausted
        assert len(attacker.useful_samples) == attacker.exhausted_at

    def test_eevdf_budget_smaller_than_cfs(self):
        counts = {}
        for scheduler in ("cfs", "eevdf"):
            env, victim, attacker = run_attack(
                PreemptionConfig(nap_ns=900.0, rounds=5000,
                                 extra_compute_ns=12_000.0,
                                 stop_on_exhaustion=True),
                scheduler=scheduler,
            )
            counts[scheduler] = env.tracer.consecutive_preemptions(
                victim.pid, attacker.task.pid
            )
        # budget 8 ms vs one 3 ms base slice
        assert counts["eevdf"] < counts["cfs"]
        assert counts["eevdf"] > 100

    def test_method2_timer_also_preempts(self):
        env, victim, attacker = run_attack(
            PreemptionConfig(nap_ns=900.0, rounds=300,
                             method=WakeupMethod.TIMER,
                             extra_compute_ns=12_000.0,
                             stop_on_exhaustion=False)
        )
        preempts = env.tracer.preemption_switches(attacker.task.pid)
        assert len(preempts) > 200


class TestSamples:
    def test_sample_times_increase(self):
        env, victim, attacker = run_attack(
            PreemptionConfig(nap_ns=900.0, rounds=50,
                             stop_on_exhaustion=False)
        )
        times = [s.time for s in attacker.samples]
        assert times == sorted(times)
        assert len(times) == 50

    def test_on_sample_callback(self):
        seen = []
        env, victim, attacker = run_attack(
            PreemptionConfig(nap_ns=900.0, rounds=10,
                             stop_on_exhaustion=False),
            on_sample=seen.append,
        )
        assert len(seen) == 10

    def test_nice_attacker_configurable(self):
        env, victim, attacker = run_attack(
            PreemptionConfig(nap_ns=900.0, rounds=10,
                             stop_on_exhaustion=False),
            nice=5,
        )
        assert attacker.task.nice == 5


def _napper():
    """A neighbour whose short naps fire timers on the attacker's CPU."""
    while True:
        yield act.Compute(3_000.0)
        yield act.Nanosleep(2_000.0)


class TestEpisode:
    def test_wake_time_stops_once_the_timer_is_armed(self):
        # The attacker starts 50 µs in, after the napper's timers have
        # fired, and each firing rebinds the CPU's timer list: the
        # hibernation must still be seen the moment it is armed.
        env = build_env("cfs", n_cores=1, seed=0)
        env.kernel.spawn(Task("napper", body=CoroutineBody(_napper())), cpu=0)
        attacker = ControlledPreemption(
            PreemptionConfig(nap_ns=900.0, rounds=5, hibernate_ns=100e6))
        env.kernel.sim.call_at(50_000.0,
                               lambda: attacker.launch(env.kernel, 0))
        wake = attacker.wake_time(env.kernel, 0, within=1e9)
        assert env.kernel.now < 1e6
        assert 100e6 <= wake - env.kernel.now < 100e6 + 1e6

    def test_wake_time_raises_when_nothing_is_armed_in_time(self):
        # Behind a running victim the attacker's prologue cannot arm
        # its timer within 1 ns.
        env = build_env("cfs", n_cores=1, seed=0)
        env.kernel.spawn(Task("victim", body=ProgramBody(StraightlineProgram())),
                         cpu=0)
        attacker = ControlledPreemption(PreemptionConfig(nap_ns=900.0))
        attacker.launch(env.kernel, 0)
        with pytest.raises(RuntimeError, match="failed to hibernate"):
            attacker.wake_time(env.kernel, 0, within=1.0)

    def test_run_returns_when_the_attacker_exits(self):
        env, victim, attacker = run_attack(
            PreemptionConfig(nap_ns=900.0, rounds=20, hibernate_ns=100e6,
                             stop_on_exhaustion=False))
        assert attacker.task.state is TaskState.EXITED
        assert victim.state is not TaskState.EXITED
        assert len(attacker.samples) == 20
        # The run stopped at the exit, not at max_time.
        assert env.kernel.now < attacker.samples[-1].time + 1e6


class TestMitigationsStopThePrimitive:
    def test_no_wakeup_preemption_blocks_everything(self):
        from repro.sched.features import SchedFeatures

        env = build_env(
            "cfs", n_cores=1, seed=0,
            features=SchedFeatures.no_wakeup_preemption(),
        )
        victim = Task("victim", body=ProgramBody(StraightlineProgram()))
        attacker = ControlledPreemption(
            PreemptionConfig(nap_ns=900.0, rounds=100,
                             stop_on_exhaustion=False)
        )
        env.kernel.spawn(victim, cpu=0)
        attacker.launch(env.kernel, 0)
        attacker.run(env.kernel, max_time=30e9)
        assert env.tracer.preemption_switches(attacker.task.pid) == []
