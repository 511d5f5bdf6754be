"""Invariant oracles for the scheduler fuzzer.

Two kinds of oracle cover the simulation core:

* **Online** checks run inside the simulation through
  :class:`PolicyProbe`, a transparent wrapper around the
  :class:`~repro.sched.base.SchedPolicy` under test.  At every policy
  decision it compares the result against an *independent reference
  reimplementation* of the paper's equations (Eq 2.1 placement, Eq 2.2
  wakeup preemption, CFS leftmost pick, EEVDF eligibility) and checks
  the runqueue aggregates (min_vruntime monotonicity, charge
  conservation).  A step probe additionally checks cross-CPU state at
  every event boundary (work conservation, no task current on two CPUs).

* **Post-hoc** checks walk the :class:`~repro.kernel.tracing.KernelTracer`
  record streams after the run: per-task vruntime monotonicity, switch-
  stream consistency, and lost wakeups at quiescence.

Every violated invariant becomes a :class:`Violation`; the harness
collects them, the shrinker minimizes the workload that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.sched.cfs import CfsScheduler
from repro.sched.eevdf import EevdfScheduler
from repro.sched.runqueue import RunQueue
from repro.sched.task import Task, TaskState

_EPS = 1e-6
#: Stop collecting after this many violations — one bug tends to fire
#: on every subsequent decision, and the shrinker only needs the name.
MAX_VIOLATIONS = 50


@dataclass(frozen=True)
class Violation:
    """One observed invariant breach."""

    invariant: str
    time: float
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] t={self.time:.0f}ns: {self.detail}"


# ----------------------------------------------------------------------
# Reference reimplementations (kept deliberately independent of the
# policy classes: they re-derive the decisions from the paper's
# equations so a bug in sched/ cannot hide in its own oracle).
# ----------------------------------------------------------------------
def ref_cfs_effective_slack(params, features) -> float:
    return params.s_bnd / 2 if features.gentle_fair_sleepers else float(params.s_bnd)


def ref_cfs_place_waking(params, features, min_vruntime: float,
                         last_sleep_vruntime: float) -> float:
    """Eq 2.1: τ_wakeup = max(τ_min − S_slack, τ_sleep)."""
    return max(min_vruntime - ref_cfs_effective_slack(params, features),
               last_sleep_vruntime)


def ref_wakeup_guards(features, curr_slice_exec: float) -> Optional[bool]:
    """Feature gates shared by both policies; ``False`` means the guard
    denies preemption, ``None`` means the policy body decides."""
    if not features.wakeup_preemption:
        return False
    if (features.wakeup_min_slice_ns > 0
            and curr_slice_exec < features.wakeup_min_slice_ns):
        return False
    return None


def ref_cfs_wakeup_preempt(params, features, curr: Task, wakee: Task) -> bool:
    """Eq 2.2: preempt iff τ_curr − τ_wakeup > S_preempt."""
    gate = ref_wakeup_guards(features, curr.slice_exec)
    if gate is not None:
        return gate
    return curr.vruntime - wakee.vruntime > params.s_preempt


def ref_avg_vruntime(rq: RunQueue) -> float:
    tasks = list(rq.all_tasks())
    if not tasks:
        return rq.min_vruntime
    total = sum(t.weight for t in tasks)
    weighted = 0.0  # left to right, as RunQueue.avg_vruntime sums
    for t in tasks:
        weighted += t.vruntime * t.weight
    return weighted / total


def ref_eevdf_vslice(params, task: Task) -> float:
    request = task.slice if task.slice > 0 else params.base_slice
    return task.vruntime_delta(request)


def ref_eevdf_eligible(rq: RunQueue, task: Task) -> bool:
    return task.vruntime <= ref_avg_vruntime(rq) + 1e-9


def ref_eevdf_wakeup_preempt(params, features, rq: RunQueue,
                             curr: Task, wakee: Task) -> bool:
    gate = ref_wakeup_guards(features, curr.slice_exec)
    if gate is not None:
        return gate
    if not ref_eevdf_eligible(rq, wakee):
        return False
    if features.run_to_parity and curr.vruntime < curr.deadline:
        return False
    return wakee.deadline < curr.deadline


def ref_cfs_pick(rq: RunQueue) -> Optional[Task]:
    if not rq.queued:
        return None
    return min(rq.queued, key=lambda t: (t.vruntime, t.pid))


def ref_migrate_delta(scheduler: str, src_min: float, dst_min: float,
                      src_avg: float, dst_avg: float) -> float:
    """Expected vruntime shift for a cross-CPU move.

    CFS rebases against min_vruntime (``migrate_task_rq_fair``); EEVDF
    preserves lag against the load-weighted average.  Both baselines
    are taken with the task detached from both runqueues.
    """
    if scheduler == "eevdf":
        return dst_avg - src_avg
    return dst_min - src_min


# ----------------------------------------------------------------------
# Online monitor
# ----------------------------------------------------------------------
class InvariantMonitor:
    """Accumulates violations and per-run accounting state."""

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        self._min_vruntime_seen: Dict[int, float] = {}
        self.charged_per_task: Dict[int, float] = {}
        self.charged_per_cpu: Dict[int, float] = {}
        #: Accounting-clock rewinds observed per CPU (the legitimate
        #: interrupt-boundary overshoot a preemption discards); credited
        #: back in the runtime-conservation bound.
        self.accounting_slack: Dict[int, float] = {}
        self.preempt_decisions = 0
        self.placements = 0
        self.picks = 0

    def report(self, invariant: str, time: float, detail: str) -> None:
        if len(self.violations) < MAX_VIOLATIONS:
            self.violations.append(Violation(invariant, time, detail))

    @property
    def ok(self) -> bool:
        return not self.violations

    def names(self) -> List[str]:
        return sorted({v.invariant for v in self.violations})

    # -- shared runqueue checks ----------------------------------------
    def check_min_vruntime(self, rq: RunQueue, now: float) -> None:
        last = self._min_vruntime_seen.get(rq.cpu)
        if last is not None and rq.min_vruntime < last - _EPS:
            self.report(
                "min-vruntime-monotonic", now,
                f"cpu{rq.cpu} min_vruntime regressed "
                f"{last:.1f} -> {rq.min_vruntime:.1f}",
            )
        self._min_vruntime_seen[rq.cpu] = rq.min_vruntime


class PolicyProbe:
    """Transparent SchedPolicy wrapper checking every decision.

    Duck-types the :class:`~repro.sched.base.SchedPolicy` surface the
    kernel uses; all decisions are delegated to ``inner`` unchanged, so
    a probed run is bit-identical to an unprobed one.
    """

    def __init__(self, inner, monitor: InvariantMonitor,
                 clock=lambda: 0.0) -> None:
        self.inner = inner
        self.monitor = monitor
        self.clock = clock
        self._is_cfs = isinstance(inner, CfsScheduler)
        self._is_eevdf = isinstance(inner, EevdfScheduler)

    # -- passthrough surface -------------------------------------------
    @property
    def params(self):
        return self.inner.params

    @property
    def features(self):
        return self.inner.features

    @property
    def name(self) -> str:
        return self.inner.name

    # -- probed decisions ----------------------------------------------
    def charge(self, rq: RunQueue, task: Task, exec_ns: float) -> None:
        now = self.clock()
        self.inner.charge(rq, task, exec_ns)
        mon = self.monitor
        mon.charged_per_task[task.pid] = (
            mon.charged_per_task.get(task.pid, 0.0) + exec_ns)
        mon.charged_per_cpu[rq.cpu] = (
            mon.charged_per_cpu.get(rq.cpu, 0.0) + exec_ns)
        mon.check_min_vruntime(rq, now)

    def place_waking(self, rq: RunQueue, task: Task) -> None:
        now = self.clock()
        mon = self.monitor
        mon.placements += 1
        pre_min = rq.min_vruntime
        pre_avg = ref_avg_vruntime(rq)
        pre_sleep = task.last_sleep_vruntime
        self.inner.place_waking(rq, task)
        if self._is_cfs:
            expected = ref_cfs_place_waking(self.params, self.features,
                                            pre_min, pre_sleep)
            if abs(task.vruntime - expected) > _EPS:
                mon.report(
                    "eq2.1-placement", now,
                    f"pid{task.pid} placed at {task.vruntime:.1f}, "
                    f"Eq 2.1 reference says {expected:.1f} "
                    f"(min={pre_min:.1f}, sleep={pre_sleep:.1f})",
                )
        elif self._is_eevdf:
            vslice = ref_eevdf_vslice(self.params, task)
            if self.features.place_lag:
                expected = max(pre_avg - vslice, pre_sleep)
            else:
                expected = max(pre_avg, pre_sleep)
            if abs(task.vruntime - expected) > _EPS:
                mon.report(
                    "eevdf-placement", now,
                    f"pid{task.pid} placed at {task.vruntime:.1f}, "
                    f"reference says {expected:.1f}",
                )
            if abs(task.deadline - (task.vruntime + vslice)) > _EPS:
                mon.report(
                    "eevdf-deadline", now,
                    f"pid{task.pid} deadline {task.deadline:.1f} != "
                    f"vruntime + vslice {task.vruntime + vslice:.1f}",
                )
        if task.vruntime < pre_sleep - _EPS:
            mon.report(
                "placement-rewinds-sleep", now,
                f"pid{task.pid} placed below its sleep vruntime "
                f"({task.vruntime:.1f} < {pre_sleep:.1f})",
            )

    def place_initial(self, rq: RunQueue, task: Task) -> None:
        pre = task.vruntime
        self.inner.place_initial(rq, task)
        if task.vruntime < pre - _EPS:
            self.monitor.report(
                "initial-placement-rewind", self.clock(),
                f"pid{task.pid} fork placement moved vruntime backwards",
            )

    def wants_wakeup_preempt(self, rq: RunQueue, curr: Task,
                             wakee: Task) -> bool:
        now = self.clock()
        mon = self.monitor
        mon.preempt_decisions += 1
        decision = self.inner.wants_wakeup_preempt(rq, curr, wakee)
        if self._is_cfs:
            expected = ref_cfs_wakeup_preempt(self.params, self.features,
                                              curr, wakee)
        elif self._is_eevdf:
            expected = ref_eevdf_wakeup_preempt(self.params, self.features,
                                                rq, curr, wakee)
        else:
            return decision
        if decision != expected:
            mon.report(
                "eq2.2-consistency", now,
                f"policy {'granted' if decision else 'denied'} preemption of "
                f"pid{curr.pid} (v={curr.vruntime:.1f}) by pid{wakee.pid} "
                f"(v={wakee.vruntime:.1f}); reference says "
                f"{'grant' if expected else 'deny'}",
            )
        return decision

    def tick_preempt(self, rq: RunQueue, curr: Task) -> bool:
        return self.inner.tick_preempt(rq, curr)

    def pick_next(self, rq: RunQueue) -> Optional[Task]:
        now = self.clock()
        mon = self.monitor
        mon.picks += 1
        picked = self.inner.pick_next(rq)
        if picked is not None and picked not in rq.queued:
            mon.report(
                "pick-not-queued", now,
                f"pick_next returned pid{picked.pid} which is not queued",
            )
        if self._is_cfs:
            expected = ref_cfs_pick(rq)
            if picked is not expected:
                mon.report(
                    "cfs-pick-leftmost", now,
                    f"pick_next chose "
                    f"{picked.pid if picked else None}, leftmost is "
                    f"{expected.pid if expected else None}",
                )
        elif self._is_eevdf and picked is not None:
            eligible = [t for t in rq.queued
                        if ref_eevdf_eligible(rq, t)]
            if eligible and not ref_eevdf_eligible(rq, picked):
                mon.report(
                    "eevdf-eligibility", now,
                    f"picked pid{picked.pid} (v={picked.vruntime:.1f}) is "
                    f"ineligible while {len(eligible)} eligible tasks are "
                    f"queued",
                )
        mon.check_min_vruntime(rq, now)
        return picked

    def on_dequeue_sleep(self, rq: RunQueue, task: Task) -> None:
        self.inner.on_dequeue_sleep(rq, task)
        if abs(task.last_sleep_vruntime - task.vruntime) > _EPS:
            self.monitor.report(
                "sleep-vruntime-recorded", self.clock(),
                f"pid{task.pid} slept at {task.vruntime:.1f} but recorded "
                f"{task.last_sleep_vruntime:.1f}",
            )

    def migrate(self, src_rq: RunQueue, dst_rq: RunQueue, task: Task) -> None:
        now = self.clock()
        mon = self.monitor
        v_before = task.vruntime
        sleep_before = task.last_sleep_vruntime
        delta_ref = ref_migrate_delta(
            "eevdf" if self._is_eevdf else "cfs",
            src_rq.min_vruntime, dst_rq.min_vruntime,
            ref_avg_vruntime(src_rq), ref_avg_vruntime(dst_rq))
        self.inner.migrate(src_rq, dst_rq, task)
        if abs(task.vruntime - (v_before + delta_ref)) > _EPS:
            mon.report(
                "migration-renormalization", now,
                f"pid{task.pid} migrated cpu{src_rq.cpu}->cpu{dst_rq.cpu} "
                f"with vruntime {v_before:.1f} -> {task.vruntime:.1f}; "
                f"reference shift is {delta_ref:+.1f}",
            )
        if abs(task.last_sleep_vruntime
               - (sleep_before + (task.vruntime - v_before))) > _EPS:
            mon.report(
                "migration-renormalization", now,
                f"pid{task.pid} sleep-clamp state not shifted with the "
                f"vruntime across cpu{src_rq.cpu}->cpu{dst_rq.cpu}",
            )


# ----------------------------------------------------------------------
# Step probe (cross-CPU checks at every event boundary)
# ----------------------------------------------------------------------
class StepProbe:
    """``run_until`` predicate checking kernel-wide state each step."""

    def __init__(self, kernel, monitor: InvariantMonitor) -> None:
        self.kernel = kernel
        self.monitor = monitor
        self._last_accounted: Dict[int, float] = {}

    def __call__(self) -> bool:
        kernel = self.kernel
        now = kernel.now
        mon = self.monitor
        running: Dict[int, int] = {}
        for st in kernel.cpus:
            rq = st.rq
            prev = self._last_accounted.get(rq.cpu)
            if prev is not None and st.accounted_until < prev - _EPS:
                # A preemption discarded the charged overshoot window;
                # the next task's charges legally overlap it.
                mon.accounting_slack[rq.cpu] = (
                    mon.accounting_slack.get(rq.cpu, 0.0)
                    + prev - st.accounted_until)
            self._last_accounted[rq.cpu] = st.accounted_until
            curr = rq.current
            if curr is not None:
                if curr.pid in running:
                    mon.report(
                        "single-cpu-occupancy", now,
                        f"pid{curr.pid} current on cpu{running[curr.pid]} "
                        f"and cpu{rq.cpu}",
                    )
                running[curr.pid] = rq.cpu
                if curr in rq.queued:
                    mon.report(
                        "current-not-queued", now,
                        f"pid{curr.pid} is current and queued on cpu{rq.cpu}",
                    )
            elif (not st.switching and rq.queued and st.dispatch.entry is None
                  and st.pending_block is None):
                mon.report(
                    "work-conservation", now,
                    f"cpu{rq.cpu} idle with {len(rq.queued)} runnable tasks "
                    f"and no dispatch pending",
                )
            mon.check_min_vruntime(rq, now)
        return False  # never stops the run


# ----------------------------------------------------------------------
# Post-hoc trace checks
# ----------------------------------------------------------------------
def check_vruntime_monotonic(tracer) -> List[Violation]:
    """Per-task vruntime never decreases *within one runqueue*.

    Both policies clamp wake placement at the vruntime the task slept
    with, so any decrease means placement or accounting rewound time —
    except across a migration, where the renormalization legitimately
    rebases the vruntime (possibly downward, to a lagging CPU's clock).
    The tracer's migration stream marks those rebasing points; the
    per-pid baseline resets at each one.
    """
    violations: List[Violation] = []
    mig_times: Dict[int, List[float]] = {}
    for m in tracer.migrations:
        mig_times.setdefault(m.pid, []).append(m.time)
    last: Dict[int, float] = {}
    last_time: Dict[int, float] = {}
    for sample in tracer.vruntime_samples:
        prev = last.get(sample.pid)
        migrated_between = any(
            last_time.get(sample.pid, 0.0) <= mt <= sample.time
            for mt in mig_times.get(sample.pid, ()))
        if (prev is not None and not migrated_between
                and sample.vruntime < prev - _EPS):
            violations.append(Violation(
                "vruntime-monotonic", sample.time,
                f"pid{sample.pid} vruntime regressed "
                f"{prev:.1f} -> {sample.vruntime:.1f}",
            ))
            if len(violations) >= MAX_VIOLATIONS:
                break
        last[sample.pid] = sample.vruntime
        last_time[sample.pid] = sample.time
    return violations


#: Tolerance for renormalization arithmetic: baselines and averages go
#: through one float summation each, so exact equality is too strict.
_MIGRATE_EPS = 1e-3


def check_migrations(migrations, tracer, tasks,
                     scheduler: str) -> List[Violation]:
    """Migration-path oracles over the balancer's enriched records.

    Recomputes the expected renormalization from the baselines each
    :class:`~repro.sched.loadbalance.Migration` snapshotted at move
    time — independent of the policy's own ``migrate`` hook, so a
    balancer that skips the hook entirely is still caught.  Also
    enforces the idle-pull preconditions (donor overloaded, never the
    running task, never a task pinned away from the destination),
    bounded lag across the move, and conservation of the migration
    count against both the kernel trace and per-task counters.
    """
    violations: List[Violation] = []

    def report(invariant: str, time: float, detail: str) -> None:
        if len(violations) < MAX_VIOLATIONS:
            violations.append(Violation(invariant, time, detail))

    for m in migrations:
        expected = m.vruntime_before + ref_migrate_delta(
            scheduler, m.src_min_vruntime, m.dst_min_vruntime,
            m.src_avg_vruntime, m.dst_avg_vruntime)
        if abs(m.vruntime_after - expected) > _MIGRATE_EPS:
            report(
                "migration-renormalization", m.time,
                f"pid{m.task.pid} cpu{m.src_cpu}->cpu{m.dst_cpu}: vruntime "
                f"{m.vruntime_before:.1f} -> {m.vruntime_after:.1f}, "
                f"reference renormalization gives {expected:.1f}",
            )
        if m.src_nr_running <= 1:
            report(
                "migration-donor-overloaded", m.time,
                f"pid{m.task.pid} pulled from cpu{m.src_cpu} with only "
                f"{m.src_nr_running} runnable (donor must be overloaded)",
            )
        if m.was_current:
            report(
                "migration-of-current", m.time,
                f"pid{m.task.pid} was running on cpu{m.src_cpu} when pulled",
            )
        if not m.task.can_run_on(m.dst_cpu):
            report(
                "migration-pinned", m.time,
                f"pid{m.task.pid} migrated to cpu{m.dst_cpu} outside its "
                f"affinity mask {sorted(m.task.allowed_cpus) if m.task.allowed_cpus else 'all'}",
            )
        if scheduler == "eevdf":
            lag_before = m.src_avg_vruntime - m.vruntime_before
            lag_after = m.dst_avg_vruntime - m.vruntime_after
        else:
            lag_before = m.src_min_vruntime - m.vruntime_before
            lag_after = m.dst_min_vruntime - m.vruntime_after
        if abs(lag_after) > abs(lag_before) + _MIGRATE_EPS:
            report(
                "migration-bounded-lag", m.time,
                f"pid{m.task.pid} relative lag grew across the move: "
                f"{lag_before:.1f} -> {lag_after:.1f} "
                f"(starvation/monopoly risk on cpu{m.dst_cpu})",
            )

    traced = list(tracer.migrations)
    if len(traced) != len(migrations):
        report(
            "migration-count-conservation", 0.0,
            f"balancer performed {len(migrations)} migrations but the "
            f"kernel trace recorded {len(traced)}",
        )
    per_pid: Dict[int, int] = {}
    for m in migrations:
        per_pid[m.task.pid] = per_pid.get(m.task.pid, 0) + 1
    for task in tasks:
        if task.migrations != per_pid.get(task.pid, 0):
            report(
                "migration-count-conservation", 0.0,
                f"pid{task.pid} counts {task.migrations} migrations but the "
                f"balancer recorded {per_pid.get(task.pid, 0)}",
            )
    return violations


def check_switch_stream(tracer) -> List[Violation]:
    """Switch-stream consistency: no task current on two CPUs at once,
    and each switch-out names the task the previous switch put on."""
    violations: List[Violation] = []
    current: Dict[int, Optional[int]] = {}
    for rec in tracer.switches:
        cpu = rec.cpu
        known = current.get(cpu, "unknown")
        if known != "unknown" and rec.prev_pid is not None \
                and rec.prev_pid != known:
            violations.append(Violation(
                "switch-stream-continuity", rec.time,
                f"cpu{cpu} switched out pid{rec.prev_pid} but last "
                f"switched in {known}",
            ))
        current[cpu] = rec.next_pid
        occupants = [p for p in current.values() if p is not None]
        if len(occupants) != len(set(occupants)):
            dupes = sorted({p for p in occupants if occupants.count(p) > 1})
            violations.append(Violation(
                "single-cpu-occupancy", rec.time,
                f"pids {dupes} current on more than one CPU",
            ))
        if len(violations) >= MAX_VIOLATIONS:
            break
    return violations


def check_no_lost_wakeups(tracer, tasks, heap_drained: bool) -> List[Violation]:
    """Every wakeup leads to a run (or an explicit deny that resolves by
    quiescence).  If the event heap drained, no task may still be
    RUNNABLE — a runnable task with no pending dispatch is lost."""
    violations: List[Violation] = []
    if heap_drained:
        for task in tasks:
            if task.state in (TaskState.RUNNABLE, TaskState.RUNNING):
                violations.append(Violation(
                    "no-lost-wakeups", 0.0,
                    f"pid{task.pid} still {task.state.value} at quiescence "
                    f"(wakeups={task.wakeups})",
                ))
    woken_never_ran = {}
    for w in tracer.wakeups:
        woken_never_ran[w.pid] = w
    for s in tracer.switches:
        if s.next_pid is not None:
            woken_never_ran.pop(s.next_pid, None)
    if heap_drained:
        for pid, w in sorted(woken_never_ran.items()):
            task = next((t for t in tasks if t.pid == pid), None)
            if task is not None and task.state is TaskState.EXITED:
                continue  # ran before tracing saw it, then exited
            violations.append(Violation(
                "no-lost-wakeups", w.time,
                f"pid{pid} woken at t={w.time:.0f} "
                f"(preempt={'granted' if w.preempted else 'denied'}) but "
                f"never switched in before quiescence",
            ))
    return violations[:MAX_VIOLATIONS]


def check_runtime_conservation(monitor: InvariantMonitor, tasks,
                               accounted_until: Dict[int, float],
                               end_time: float) -> List[Violation]:
    """Charged CPU time is conserved: what the policy charged equals
    what tasks accumulated, and no CPU charges past its accounting
    clock.  ``accounted_until`` is each CPU's final ``accounted_until``
    — the clock every charge advances, so charging the same window
    twice pushes the charge sum past it.  (Plain wall time is not the
    bound: a body may legally overshoot the horizon by one window.)"""
    violations: List[Violation] = []
    for task in tasks:
        charged = monitor.charged_per_task.get(task.pid, 0.0)
        if abs(charged - task.sum_exec_runtime) > 1.0:  # 1 ns tolerance
            violations.append(Violation(
                "runtime-conservation", end_time,
                f"pid{task.pid} charged {charged:.1f} ns but accumulated "
                f"{task.sum_exec_runtime:.1f} ns",
            ))
    for cpu, charged in sorted(monitor.charged_per_cpu.items()):
        limit = (accounted_until.get(cpu, 0.0)
                 + monitor.accounting_slack.get(cpu, 0.0))
        if charged > limit + 1.0:
            violations.append(Violation(
                "runtime-conservation", end_time,
                f"cpu{cpu} charged {charged:.1f} ns but its accounting "
                f"clock only reached {limit:.1f} ns (double accounting)",
            ))
    return violations
