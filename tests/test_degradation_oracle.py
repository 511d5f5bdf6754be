"""Performance degradation and measurement oracles (§4.2/§4.3)."""

import statistics

from repro.analysis.histogram import resolution_stats
from repro.core.degradation import CodeLineStaller, CompositeDegrader, TlbEvictor
from repro.core.oracle import OracleGatedMeasurer, VictimPresenceOracle, ZeroStepFilter
from repro.core.primitive import ControlledPreemption, PreemptionConfig
from repro.cpu.program import StraightlineProgram
from repro.experiments.setup import build_env
from repro.kernel import actions as act
from repro.kernel.threads import ProgramBody
from repro.sched.task import Task
from repro.uarch.cache import HierarchyGeometry
from repro.victims.layout import ATTACKER_LLC_ARENA, ATTACKER_TLB_ARENA
from tests.test_channels import Driver


def run_resolution(tau, degrader, rounds=300, seed=7):
    env = build_env("cfs", n_cores=1, seed=seed)
    program = StraightlineProgram()
    victim = Task("victim", body=ProgramBody(program))
    attacker = ControlledPreemption(
        PreemptionConfig(nap_ns=tau, rounds=rounds, stop_on_exhaustion=False),
        degrader=degrader,
    )
    env.kernel.spawn(victim, cpu=0)
    attacker.launch(env.kernel, 0)
    attacker.run(env.kernel, max_time=30e9)
    samples = env.tracer.retired_per_preemption(victim.pid, attacker.task.pid)
    return samples[1:-1], program


class TestTlbEvictor:
    def test_eviction_sets_cover_both_levels(self):
        evictor = TlbEvictor(0x400000, ATTACKER_TLB_ARENA)
        assert len(evictor.itlb_pages) == 8
        assert len(evictor.stlb_pages) == 12
        assert evictor.pages_touched == 20

    def test_degradation_improves_single_step_rate(self):
        """§4.3b: with iTLB eviction a larger τ still yields mostly
        single steps; without it the same τ smears to tens."""
        tau = 780.0
        program_pc = StraightlineProgram().base_pc
        plain, _ = run_resolution(tau, None)
        degraded, _ = run_resolution(
            tau, TlbEvictor(program_pc, ATTACKER_TLB_ARENA)
        )
        assert statistics.median(degraded) < statistics.median(plain)
        stats = resolution_stats(degraded)
        assert stats.under_10_fraction + stats.single_fraction > 0.5

    def test_single_step_majority_at_calibrated_tau(self):
        program_pc = StraightlineProgram().base_pc
        samples, _ = run_resolution(
            740.0, TlbEvictor(program_pc, ATTACKER_TLB_ARENA)
        )
        stats = resolution_stats(samples)
        assert stats.single_fraction > 0.5  # Fig 4.3b's headline


class TestCodeLineStaller:
    def test_eviction_set_is_congruent_and_oversized(self):
        llc = HierarchyGeometry().llc
        staller = CodeLineStaller(llc, 0x400000, ATTACKER_LLC_ARENA)
        assert len(staller.eviction_set) == llc.n_ways + 2
        want = llc.set_index(0x400000)
        assert all(llc.set_index(a) == want for a in staller.eviction_set)

    def test_priming_purges_the_victim_line(self):
        env = build_env(seed=0)
        hierarchy = env.machine.hierarchy
        target = 0x400000
        hierarchy.access(0, target, kind="inst")
        staller = CodeLineStaller(
            env.machine.config.geometry.llc, target, ATTACKER_LLC_ARENA
        )
        for addr in staller.eviction_set:
            hierarchy.access(0, addr, kind="data")
        assert not hierarchy.is_cached_anywhere(target)

    def test_composite_runs_all(self):
        llc = HierarchyGeometry().llc
        one = CodeLineStaller(llc, 0x400000, ATTACKER_LLC_ARENA)
        two = CodeLineStaller(llc, 0x400040, ATTACKER_LLC_ARENA + 0x10_0000)
        actions = list(CompositeDegrader(one, two).degrade())
        assert all(isinstance(a, act.Loads) for a in actions)
        assert [a.items for a in actions] == [tuple(one.eviction_set),
                                              tuple(two.eviction_set)]
        assert (sum(len(a.items) for a in actions)
                == len(one.eviction_set) + len(two.eviction_set))


class TestZeroStepFilter:
    def test_none_is_zero_step(self):
        assert ZeroStepFilter.is_zero_step(None)

    def test_all_false_hits_is_zero_step(self):
        assert ZeroStepFilter.is_zero_step([False, False])

    def test_any_hit_is_progress(self):
        assert not ZeroStepFilter.is_zero_step([False, True])

    def test_filter_drops_only_zero_steps(self):
        payloads = [[True], [False], None, [False, True]]
        assert ZeroStepFilter.filter(payloads) == [[True], [False, True]]


class TestVictimPresenceOracle:
    def test_requires_template(self):
        import pytest

        with pytest.raises(ValueError):
            VictimPresenceOracle([])

    def test_detects_presence_in_simulation(self):
        """Drive the oracle generator by hand against machine state."""
        env = build_env(seed=0)
        driver = Driver(env.machine)
        hierarchy = env.machine.hierarchy
        line = 0x400000
        oracle = VictimPresenceOracle([line])
        # Warm-up round: the first reload also pays the page walk that
        # fills the attacker's translation.
        driver.run(oracle.measure())

        def drive(present):
            hierarchy.clflush(line)
            if present:
                hierarchy.access(0, line)
            return driver.run(oracle.measure())

        assert drive(present=True) is True
        assert drive(present=False) is False
