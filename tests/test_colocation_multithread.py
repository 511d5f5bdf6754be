"""Colocation (§4.4) and the round-robin budget extension (§4.3)."""

import pytest

import repro.obs as obs
from repro.core.colocation import achieve_colocation, launch_dummies
from repro.core.multithread import RoundRobinAttack, RoundRobinConfig
from repro.core.primitive import PreemptionConfig
from repro.cpu.program import StraightlineProgram
from repro.experiments.setup import build_env
from repro.kernel.threads import ComputeBody, ProgramBody
from repro.sched.task import Task, TaskState


class TestColocation:
    def test_victim_lands_on_the_idle_core(self):
        env = build_env(n_cores=8, seed=1)
        result = achieve_colocation(
            env.kernel,
            lambda: Task("victim", body=ProgramBody(StraightlineProgram())),
            target_cpu=5,
        )
        assert result.success
        assert result.victim.cpu == 5
        assert result.n_attacker_threads == 8

    def test_dummies_cover_all_other_cores(self):
        env = build_env(n_cores=4, seed=1)
        dummies = launch_dummies(env.kernel, leave_idle=2)
        assert len(dummies) == 3
        assert {d.cpu for d in dummies} == {0, 1, 3}
        assert all(d.allowed_cpus == frozenset({d.cpu}) for d in dummies)

    def test_victim_stays_during_attack(self):
        env = build_env(n_cores=4, seed=1)
        result = achieve_colocation(
            env.kernel,
            lambda: Task("victim", body=ProgramBody(StraightlineProgram())),
        )
        env.kernel.run_until(max_time=env.kernel.now + 50e6)
        assert result.victim.cpu == result.target_cpu
        assert result.victim.migrations == 0

    def test_pinned_victim_rejected(self):
        env = build_env(n_cores=4, seed=1)

        def pinned_victim():
            victim = Task("victim", body=ProgramBody(StraightlineProgram()))
            victim.pin_to(0)
            return victim

        with pytest.raises(ValueError):
            achieve_colocation(env.kernel, pinned_victim)

    def test_single_core_machine_rejected(self):
        env = build_env(n_cores=1, seed=1)
        with pytest.raises(ValueError):
            achieve_colocation(
                env.kernel,
                lambda: Task("v", body=ProgramBody(StraightlineProgram())),
            )


class TestRoundRobin:
    def _run(self, handoff):
        env = build_env(n_cores=1, seed=2)
        victim = Task("victim", body=ProgramBody(StraightlineProgram()))
        env.kernel.spawn(victim, cpu=0)
        base = PreemptionConfig(
            nap_ns=900.0,
            rounds=0,  # per-thread rounds come from the rotation config
            hibernate_ns=5e9,
            extra_compute_ns=40_000.0,  # single-thread budget ≈ 200
            stop_on_exhaustion=True,
        )
        attack = RoundRobinAttack(
            RoundRobinConfig(
                base=base,
                n_threads=3,
                rounds_per_thread=150,
                handoff=handoff,
                per_thread_ns=150 * 42_000.0,
            )
        )
        attack.launch(env.kernel, 0)
        env.kernel.run_until(
            predicate=lambda: all(
                a.task.state is TaskState.EXITED for a in attack.attackers
            ),
            max_time=60e9,
        )
        return attack

    def test_signal_handoff_exceeds_single_thread_budget(self):
        """§4.3: rotating threads push past one thread's budget; the
        hand-off is an explicit wake-up signal."""
        attack = self._run("signal")
        single_budget = 8_000_000 / 40_000  # = 200
        assert attack.total_preemptions > single_budget * 1.5

    def test_signal_handoff_threads_count_their_samples(self):
        """Every ring thread runs the one attacker loop, metrics
        included."""
        metrics = obs.configure(metrics=True).metrics
        try:
            attack = self._run("signal")
        finally:
            obs.reset()
        samples = sum(len(a.samples) for a in attack.attackers)
        assert samples > 0
        assert metrics.get("attack.samples").value == samples
        assert metrics.get("attack.preemptions_per_window").count == 3

    def test_timed_handoff_also_works(self):
        attack = self._run("timed")
        single_budget = 8_000_000 / 40_000
        assert attack.total_preemptions > single_budget * 1.5

    def test_signal_handoff_is_gapless(self):
        """With signalling, A2 starts right where A1 stopped — no idle
        window between budget refills."""
        attack = self._run("signal")
        ends_starts = []
        for a, b in zip(attack.attackers, attack.attackers[1:]):
            if a.useful_samples and b.useful_samples:
                ends_starts.append(
                    b.useful_samples[0].time - a.useful_samples[-1].time
                )
        assert ends_starts
        # Hand-off gap ≈ one failed-preemption stall (≤ ~2 S_min), far
        # below the timed mode's coarse slot estimate.
        assert all(gap < 10e6 for gap in ends_starts)

    def test_threads_hand_off_in_time_order(self):
        env = build_env(n_cores=1, seed=2)
        victim = Task("victim", body=ProgramBody(StraightlineProgram()))
        env.kernel.spawn(victim, cpu=0)
        base = PreemptionConfig(
            nap_ns=900.0, rounds=0, hibernate_ns=5e9,
            extra_compute_ns=40_000.0, stop_on_exhaustion=True,
        )
        attack = RoundRobinAttack(
            RoundRobinConfig(base=base, n_threads=2, rounds_per_thread=100,
                             per_thread_ns=100 * 42_000.0)
        )
        attack.launch(env.kernel, 0)
        env.kernel.run_until(
            predicate=lambda: all(
                a.task.state is TaskState.EXITED for a in attack.attackers
            ),
            max_time=30e9,
        )
        first = attack.attackers[0].useful_samples
        second = attack.attackers[1].useful_samples
        assert first and second
        assert first[-1].time < second[-1].time
        merged = attack.samples
        assert [s.time for s in merged] == sorted(s.time for s in merged)
