"""Each validate oracle must detect a synthetic violation.

An oracle that never fires is indistinguishable from a working
scheduler — so every invariant gets a deliberately broken input here
and must report, plus one clean run that must stay silent.
"""

import pytest

from repro.kernel.threads import ComputeBody
from repro.kernel.tracing import (
    KernelTracer,
    MigrationRecord,
    SwitchRecord,
    WakeupRecord,
)
from repro.sched.cfs import CfsScheduler
from repro.sched.eevdf import EevdfScheduler
from repro.sched.loadbalance import Migration
from repro.sched.params import SchedParams
from repro.sched.runqueue import RunQueue
from repro.sched.task import Task, TaskState
from repro.validate.harness import run_case
from repro.validate.invariants import (
    InvariantMonitor,
    PolicyProbe,
    check_migrations,
    check_no_lost_wakeups,
    check_runtime_conservation,
    check_switch_stream,
    check_vruntime_monotonic,
    ref_migrate_delta,
)
from repro.validate.workload import generate_workload

PARAMS = SchedParams.for_cores(16)


def make_task(name, vruntime=0.0, nice=0, deadline=0.0):
    task = Task(name, body=ComputeBody(), nice=nice)
    task.vruntime = vruntime
    task.last_sleep_vruntime = vruntime
    task.deadline = deadline
    return task


def probed(policy_cls, **kwargs):
    monitor = InvariantMonitor()
    return PolicyProbe(policy_cls(PARAMS, **kwargs), monitor), monitor


# ----------------------------------------------------------------------
# Decision-level oracles (PolicyProbe)
# ----------------------------------------------------------------------
class _NoClampCfs(CfsScheduler):
    def place_waking(self, rq, task):
        task.vruntime = rq.min_vruntime  # forgets S_slack and τ_sleep


class _StaleDeadlineEevdf(EevdfScheduler):
    def place_waking(self, rq, task):
        super().place_waking(rq, task)
        task.deadline = task.vruntime  # forgets the vslice renewal


class _PickCurrentCfs(CfsScheduler):
    def pick_next(self, rq):
        return rq.current  # returns a task that is not queued


class _ForgetfulSleepCfs(CfsScheduler):
    def on_dequeue_sleep(self, rq, task):
        pass  # drops the Eq 2.1 right-hand clamp state


def test_eq21_placement_violation_detected():
    probe, monitor = probed(_NoClampCfs)
    rq = RunQueue(0)
    rq.min_vruntime = 10_000_000.0
    task = make_task("w", vruntime=500.0)
    probe.place_waking(rq, task)
    assert "eq2.1-placement" in monitor.names()


def test_eq21_clean_placement_is_silent():
    probe, monitor = probed(CfsScheduler)
    rq = RunQueue(0)
    rq.min_vruntime = 10_000_000.0
    probe.place_waking(rq, make_task("w", vruntime=500.0))
    assert monitor.ok


def test_eevdf_stale_deadline_detected():
    probe, monitor = probed(_StaleDeadlineEevdf)
    rq = RunQueue(0)
    rq.add(make_task("peer", vruntime=5_000_000.0))
    probe.place_waking(rq, make_task("w", vruntime=100.0))
    assert "eevdf-deadline" in monitor.names()


def test_placement_rewinding_sleep_detected():
    class _RewindCfs(CfsScheduler):
        def place_waking(self, rq, task):
            task.vruntime = 0.0

    probe, monitor = probed(_RewindCfs)
    rq = RunQueue(0)
    probe.place_waking(rq, make_task("w", vruntime=9_000.0))
    assert "placement-rewinds-sleep" in monitor.names()


def test_eq22_inconsistency_detected():
    from repro.validate.harness import _CfsSkipSlack

    probe, monitor = probed(_CfsSkipSlack)
    rq = RunQueue(0)
    # Positive lag but below S_preempt: reference denies, bug grants.
    curr = make_task("curr", vruntime=PARAMS.s_preempt / 2)
    wakee = make_task("wakee", vruntime=0.0)
    assert probe.wants_wakeup_preempt(rq, curr, wakee) is True
    assert "eq2.2-consistency" in monitor.names()


def test_pick_not_queued_detected():
    probe, monitor = probed(_PickCurrentCfs)
    rq = RunQueue(0)
    rq.current = make_task("curr")
    rq.add(make_task("queued"))
    probe.pick_next(rq)
    assert "pick-not-queued" in monitor.names()


def test_cfs_greedy_pick_detected():
    from repro.validate.harness import _CfsGreedyPick

    probe, monitor = probed(_CfsGreedyPick)
    rq = RunQueue(0)
    rq.add(make_task("small", vruntime=100.0))
    rq.add(make_task("big", vruntime=900.0))
    assert probe.pick_next(rq).name == "big"
    assert "cfs-pick-leftmost" in monitor.names()


def test_eevdf_ineligible_pick_detected():
    from repro.validate.harness import _EevdfGreedyPick

    probe, monitor = probed(_EevdfGreedyPick)
    rq = RunQueue(0)
    # `late` is far past the average (ineligible) but holds the earliest
    # deadline; `early` is eligible.
    rq.add(make_task("early", vruntime=100.0, deadline=9_000.0))
    rq.add(make_task("late", vruntime=50_000.0, deadline=1_000.0))
    assert probe.pick_next(rq).name == "late"
    assert "eevdf-eligibility" in monitor.names()


def test_forgotten_sleep_vruntime_detected():
    probe, monitor = probed(_ForgetfulSleepCfs)
    rq = RunQueue(0)
    task = make_task("t", vruntime=7_000.0)
    task.last_sleep_vruntime = 0.0
    probe.on_dequeue_sleep(rq, task)
    assert "sleep-vruntime-recorded" in monitor.names()


def test_min_vruntime_regression_detected():
    monitor = InvariantMonitor()
    rq = RunQueue(0)
    rq.min_vruntime = 5_000.0
    monitor.check_min_vruntime(rq, now=1.0)
    rq.min_vruntime = 4_000.0  # regressed
    monitor.check_min_vruntime(rq, now=2.0)
    assert "min-vruntime-monotonic" in monitor.names()


# ----------------------------------------------------------------------
# Migration oracles
# ----------------------------------------------------------------------
class _SkipRenormCfs(CfsScheduler):
    def migrate(self, src_rq, dst_rq, task):
        pass  # the pre-fix bug: absolute vruntime crosses CPUs


class _ForgetSleepShiftCfs(CfsScheduler):
    def migrate(self, src_rq, dst_rq, task):
        sleep = task.last_sleep_vruntime
        super().migrate(src_rq, dst_rq, task)
        task.last_sleep_vruntime = sleep  # clamp state left behind


def test_probe_detects_skipped_renormalization():
    probe, monitor = probed(_SkipRenormCfs)
    src, dst = RunQueue(0), RunQueue(1)
    src.min_vruntime = 1_000.0
    dst.min_vruntime = 9_000.0
    probe.migrate(src, dst, make_task("t", vruntime=1_500.0))
    assert "migration-renormalization" in monitor.names()


def test_probe_detects_unshifted_sleep_clamp():
    probe, monitor = probed(_ForgetSleepShiftCfs)
    src, dst = RunQueue(0), RunQueue(1)
    src.min_vruntime = 1_000.0
    dst.min_vruntime = 9_000.0
    probe.migrate(src, dst, make_task("t", vruntime=1_500.0))
    assert "migration-renormalization" in monitor.names()


@pytest.mark.parametrize("policy_cls", [CfsScheduler, EevdfScheduler])
def test_probe_clean_migration_is_silent(policy_cls):
    probe, monitor = probed(policy_cls)
    src, dst = RunQueue(0), RunQueue(1)
    src.min_vruntime = 1_000.0
    dst.min_vruntime = 9_000.0
    dst.add(make_task("peer", vruntime=9_500.0))
    probe.migrate(src, dst, make_task("t", vruntime=1_500.0))
    assert monitor.ok, monitor.violations


def _synthetic_migration(task, *, scheduler="cfs", src_min=1_000.0,
                         dst_min=5_000.0, src_avg=1_200.0,
                         dst_avg=5_200.0, v_before=1_500.0,
                         renormalize=True, src_nr=2, was_current=False):
    delta = ref_migrate_delta(scheduler, src_min, dst_min, src_avg, dst_avg)
    return Migration(
        task, 0, 1, 10.0,
        vruntime_before=v_before,
        vruntime_after=v_before + (delta if renormalize else 0.0),
        src_min_vruntime=src_min, dst_min_vruntime=dst_min,
        src_avg_vruntime=src_avg, dst_avg_vruntime=dst_avg,
        src_nr_running=src_nr, was_current=was_current,
    )


def _traced(migrations):
    tracer = KernelTracer()
    for m in migrations:
        tracer.record_migration(MigrationRecord(
            m.time, m.src_cpu, m.dst_cpu, m.task.pid,
            m.vruntime_before, m.vruntime_after))
    return tracer


@pytest.mark.parametrize("scheduler", ["cfs", "eevdf"])
def test_clean_migration_record_passes_all_oracles(scheduler):
    task = make_task("t")
    task.migrations = 1
    m = _synthetic_migration(task, scheduler=scheduler)
    assert check_migrations([m], _traced([m]), [task], scheduler) == []


@pytest.mark.parametrize("scheduler", ["cfs", "eevdf"])
def test_unrenormalized_record_detected(scheduler):
    task = make_task("t")
    task.migrations = 1
    m = _synthetic_migration(task, scheduler=scheduler, renormalize=False)
    names = {v.invariant
             for v in check_migrations([m], _traced([m]), [task], scheduler)}
    # The skipped rebase both breaks the arithmetic and inflates the
    # task's lag on the destination.
    assert "migration-renormalization" in names
    assert "migration-bounded-lag" in names


def test_underloaded_donor_detected():
    task = make_task("t")
    task.migrations = 1
    m = _synthetic_migration(task, src_nr=1)
    names = {v.invariant
             for v in check_migrations([m], _traced([m]), [task], "cfs")}
    assert "migration-donor-overloaded" in names


def test_migration_of_running_task_detected():
    task = make_task("t")
    task.migrations = 1
    m = _synthetic_migration(task, was_current=True)
    names = {v.invariant
             for v in check_migrations([m], _traced([m]), [task], "cfs")}
    assert "migration-of-current" in names


def test_migration_outside_affinity_detected():
    task = make_task("t")
    task.migrations = 1
    task.pin_to(0)  # dst_cpu is 1
    m = _synthetic_migration(task)
    names = {v.invariant
             for v in check_migrations([m], _traced([m]), [task], "cfs")}
    assert "migration-pinned" in names


def test_migration_count_mismatch_with_trace_detected():
    task = make_task("t")
    task.migrations = 1
    m = _synthetic_migration(task)
    names = {v.invariant
             for v in check_migrations([m], KernelTracer(), [task], "cfs")}
    assert "migration-count-conservation" in names


def test_migration_count_mismatch_with_task_detected():
    task = make_task("t")
    task.migrations = 0  # balancer says 1
    m = _synthetic_migration(task)
    names = {v.invariant
             for v in check_migrations([m], _traced([m]), [task], "cfs")}
    assert "migration-count-conservation" in names


def test_vruntime_drop_across_migration_tolerated():
    """Renormalizing onto a lagging CPU legally rewinds the absolute
    vruntime; the monotonic oracle must reset at the migration."""
    tracer = KernelTracer(sample_vruntime=True)
    tracer.record_vruntime(1.0, 100, 5_000.0)
    tracer.record_migration(MigrationRecord(1.5, 0, 1, 100,
                                            5_000.0, 2_000.0))
    tracer.record_vruntime(2.0, 100, 2_000.0)
    assert check_vruntime_monotonic(tracer) == []


def test_vruntime_drop_without_own_migration_still_detected():
    tracer = KernelTracer(sample_vruntime=True)
    tracer.record_vruntime(1.0, 100, 5_000.0)
    # Another task migrating must not excuse pid 100's regression.
    tracer.record_migration(MigrationRecord(1.5, 0, 1, 999, 0.0, 0.0))
    tracer.record_vruntime(2.0, 100, 4_000.0)
    violations = check_vruntime_monotonic(tracer)
    assert [v.invariant for v in violations] == ["vruntime-monotonic"]


# ----------------------------------------------------------------------
# Post-hoc trace oracles
# ----------------------------------------------------------------------
def test_vruntime_regression_in_trace_detected():
    tracer = KernelTracer(sample_vruntime=True)
    tracer.record_vruntime(1.0, 100, 5_000.0)
    tracer.record_vruntime(2.0, 100, 4_000.0)  # regressed
    violations = check_vruntime_monotonic(tracer)
    assert [v.invariant for v in violations] == ["vruntime-monotonic"]


def test_switch_stream_continuity_break_detected():
    tracer = KernelTracer()
    tracer.record_switch(SwitchRecord(1.0, 0, None, 100, "tick"))
    # Switches out pid 101, but pid 100 was the one switched in.
    tracer.record_switch(SwitchRecord(2.0, 0, 101, 102, "tick"))
    names = {v.invariant for v in check_switch_stream(tracer)}
    assert "switch-stream-continuity" in names


def test_dual_occupancy_in_trace_detected():
    tracer = KernelTracer()
    tracer.record_switch(SwitchRecord(1.0, 0, None, 100, "tick"))
    tracer.record_switch(SwitchRecord(2.0, 1, None, 100, "tick"))
    names = {v.invariant for v in check_switch_stream(tracer)}
    assert "single-cpu-occupancy" in names


def test_lost_wakeup_detected():
    tracer = KernelTracer()
    stuck = make_task("stuck")
    stuck.state = TaskState.RUNNABLE  # runnable with no pending event
    violations = check_no_lost_wakeups(tracer, [stuck], heap_drained=True)
    assert [v.invariant for v in violations] == ["no-lost-wakeups"]


def test_woken_but_never_run_detected():
    tracer = KernelTracer()
    ghost = make_task("ghost")
    ghost.state = TaskState.SLEEPING
    tracer.record_wakeup(WakeupRecord(5.0, 0, ghost.pid, 0.0, None, 0.0,
                                      preempted=False))
    violations = check_no_lost_wakeups(tracer, [ghost], heap_drained=True)
    assert [v.invariant for v in violations] == ["no-lost-wakeups"]


def test_runtime_conservation_task_mismatch_detected():
    monitor = InvariantMonitor()
    task = make_task("t")
    task.sum_exec_runtime = 10_000.0
    monitor.charged_per_task[task.pid] = 7_000.0  # lost 3 µs somewhere
    violations = check_runtime_conservation(monitor, [task], {}, 0.0)
    assert [v.invariant for v in violations] == ["runtime-conservation"]


def test_runtime_conservation_double_charge_detected():
    monitor = InvariantMonitor()
    monitor.charged_per_cpu[0] = 20_000.0
    violations = check_runtime_conservation(
        monitor, [], {0: 15_000.0}, 0.0)
    assert [v.invariant for v in violations] == ["runtime-conservation"]


def test_runtime_conservation_respects_preemption_slack():
    """A rewind observed by the StepProbe is credited back — the
    legitimate interrupt-boundary overshoot must not fire the oracle."""
    monitor = InvariantMonitor()
    monitor.charged_per_cpu[0] = 20_000.0
    monitor.accounting_slack[0] = 6_000.0
    assert check_runtime_conservation(monitor, [], {0: 15_000.0}, 0.0) == []


# ----------------------------------------------------------------------
# End-to-end: clean runs stay clean, injected bugs are caught
# ----------------------------------------------------------------------
def test_clean_case_has_no_violations():
    spec = generate_workload(0, n_cpus=2)
    for scheduler in ("cfs", "eevdf"):
        outcome = run_case(spec, scheduler)
        assert outcome.ok, outcome.violations


@pytest.mark.parametrize("bug,invariant", [
    ("skip-eq22-slack", "eq2.2-consistency"),
    ("min-vruntime-regress", "min-vruntime-monotonic"),
    ("greedy-pick", "cfs-pick-leftmost"),
])
def test_injected_bug_caught_by_expected_invariant(bug, invariant):
    caught = set()
    for seed in range(12):
        outcome = run_case(generate_workload(seed, n_cpus=2), "cfs", bug=bug)
        caught.update(outcome.invariants)
    assert invariant in caught


@pytest.mark.parametrize("scheduler", ["cfs", "eevdf"])
def test_migration_renorm_bug_caught_end_to_end(scheduler):
    """The kernel-level bug (balancer skips the policy's migrate hook)
    must be caught on the migration-forcing imbalance profile."""
    caught = set()
    for seed in range(24):
        spec = generate_workload(seed, n_cpus=2, profile="imbalance")
        caught |= set(run_case(spec, scheduler,
                               bug="skip-migration-renorm").invariants)
        if "migration-renormalization" in caught:
            break
    assert "migration-renormalization" in caught
    assert "migration-bounded-lag" in caught


@pytest.mark.parametrize("scheduler", ["cfs", "eevdf"])
def test_lost_kick_caught_by_work_conservation(scheduler):
    """With ``lost-kick`` no spawn, wakeup or migration arms a dispatch:
    runnable tasks wait on CPUs whose dispatch event is unarmed, which
    the work-conservation oracle must report."""
    spec = generate_workload(0, n_cpus=2, profile="imbalance")
    outcome = run_case(spec, scheduler, bug="lost-kick")
    assert "work-conservation" in outcome.invariants


def test_clean_imbalance_cases_have_no_violations():
    for seed in range(6):
        spec = generate_workload(seed, n_cpus=2, profile="imbalance")
        for scheduler in ("cfs", "eevdf"):
            outcome = run_case(spec, scheduler)
            assert outcome.ok, outcome.violations
