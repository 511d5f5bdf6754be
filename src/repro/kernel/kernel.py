"""The kernel: dispatch loop, hrtimers, syscalls, context switches.

Execution model
---------------
Each logical CPU advances through its *dispatch* event on the shared
simulator, a resident :class:`~repro.sim.engine.Event` re-armed in
place.  A dispatch at time ``t``:

1. charges the current task's vruntime up to ``t`` (``update_curr``);
2. processes a pending blocking syscall, if the last window ended in one;
3. delivers due hrtimer interrupts (wakeups + Eq 2.2 preemption checks),
   consuming IRQ-entry time;
4. runs the periodic scheduler tick when due (Scenario 1 checks);
5. performs a context switch if one is needed (with its cost); otherwise
6. runs the current task's body until the CPU's *event horizon* — the
   earliest pending hrtimer or tick — and re-arms the dispatch where
   the body stopped.  A switch arms the CPU's other resident event,
   its switch completion, at the end of the switch cost.

Interrupts are taken at instruction boundaries: a body may overshoot
its horizon by the one action, batch element or instruction in flight,
exactly the behaviour that makes performance-degradation
single-stepping work.  The rest of an interrupted batch runs in the
body's next window.

Timer-interrupt wakeups follow the CFS quirk the paper highlights: a
successful Eq 2.2 check switches to *the waking thread*, not to a
global pick, even if a third queued thread has a smaller vruntime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cpu.machine import Machine
from repro.kernel import actions as act
from repro.kernel.costs import CostModel
from repro.kernel.threads import BlockRequest, ExecContext
from repro.kernel.tracing import (
    ExitToUserRecord,
    KernelTracer,
    MigrationRecord,
    SwitchRecord,
    WakeupRecord,
)
from repro.obs import get_obs
from repro.obs.collect import kernel_counts
from repro.sched.base import SchedPolicy
from repro.sched.loadbalance import BALANCE_INTERVAL_NS, LoadBalancer
from repro.sched.runqueue import RunQueue
from repro.sched.task import Task, TaskState
from repro.sim.engine import Event, Simulator
from repro.sim.rng import RngStreams
from repro.uarch.cache import LoadWalker
from repro.uarch.timing import cycles_to_ns
from repro.victims.layout import ATTACKER_HUGE_REGION

_EPS = 1e-6

#: Base of the region the kernel's own code/data occupy in the flat
#: simulated address space (far above any task's allocations).
KERNEL_REGION_BASE = 0xFFFF_0000_0000

#: Cache lines the kernel's own code/data touch during each context
#: switch — the §4.3 "channel noise from the kernel's footprint".
#: Attacks that monitor L1-sized structures see this pollution;
#: monitoring the L2/LLC (as the paper recommends) does not.
KERNEL_FOOTPRINT_INST_LINES = 16
KERNEL_FOOTPRINT_DATA_LINES = 8

#: Measurement jitter (cycles, σ) added to rdtscp-timed loads.
TIMED_LOAD_JITTER_CYCLES = 1.5

#: Floor on periodic-timer intervals.  Real hrtimers throttle expiry
#: storms whose handling outruns the period ("hrtimer: interrupt took
#: too long"); without a floor a sub-µs period would starve the armer
#: itself.  One µs sits just above the modelled IRQ path.
PERIODIC_MIN_NS = 1_000.0


@dataclass
class KernelConfig:
    """Kernel-level knobs independent of the scheduling policy."""

    #: AEX-Notify mitigation (§6): depth of the trusted prefetch
    #: handler's warm-up on every enclave resume.  0 disables it.
    aex_notify_depth: int = 0


@dataclass
class _Timer:
    expiry: float
    task: Task
    cpu: int
    interval: Optional[float] = None  # periodic (POSIX timer) when set
    is_signal: bool = False  # Method 2: delivery pays signal cost
    cancelled: bool = False


@dataclass
class _CpuState:
    rq: RunQueue
    dispatch: Event
    finish_switch: Event
    tick_next: Optional[float] = None
    accounted_until: float = 0.0
    switching: bool = False
    need_resched: bool = False
    resched_reason: str = "tick"
    switch_to: Optional[Task] = None
    incoming: Optional[Task] = None  # switched to when finish_switch runs
    pending_block: Optional[BlockRequest] = None
    timers: List[_Timer] = field(default_factory=list)


class _KernelExecContext(ExecContext):
    """ExecContext implementation bound to one (kernel, cpu, task).

    The kernel keeps one pooled instance per CPU and rebinds ``task``/
    ``asid`` per body invocation (see ``Kernel._ctx``): bodies use the
    context transiently, and two bodies never run on one CPU at once.
    """

    __slots__ = ("kernel", "cpu", "task", "core", "asid", "_walker",
                 "_base_inst", "_timed_extra", "_flush_ns", "_rdtscp_ns",
                 "_jitter", "_spec_window", "_spec_draw")

    def __init__(self, kernel: "Kernel", cpu: int,
                 task: Optional[Task] = None):
        self.kernel = kernel
        self.cpu = cpu
        self.task = task
        self.asid = None if task is None else task.pid
        self.core = kernel.machine.core(cpu)
        # Actions and batch loops run for every probe of every attack;
        # their constants (the machine's configuration is fixed for the
        # kernel's life), this CPU's load walker (userspace attack
        # buffers in the LLC arena use 2 MiB pages) and the
        # ``timed_load`` and ``spec`` draws are bound once here.
        config = kernel.machine.config
        lat = config.latency
        self._walker = LoadWalker(self.core.hierarchy, cpu, self.core.tlbs,
                                  ATTACKER_HUGE_REGION)
        self._base_inst = lat.base_inst
        self._timed_extra = 2 * lat.rdtscp + lat.base_inst
        self._flush_ns = cycles_to_ns(lat.clflush)
        self._rdtscp_ns = cycles_to_ns(lat.rdtscp)
        self._jitter = kernel.rng.stream("timed_load").gauss
        self._spec_window = config.spec_window
        self._spec_draw = kernel.rng.stream("spec").randint

    def draw_spec_window(self) -> int:
        window = self._spec_window
        if window <= 0:
            return 0
        return self._spec_draw(0, window)

    # ------------------------------------------------------------------
    # Action execution: dispatched on exact action type through
    # ``_DISPATCH`` — one dict hit instead of an isinstance chain (this
    # runs for every single action of every coroutine body).
    # ------------------------------------------------------------------
    def exec_action(self, action, now: float):
        try:
            handler = _DISPATCH[type(action)]
        except KeyError:
            raise TypeError(f"unknown action {action!r}") from None
        return handler(self, action, now)

    def _act_compute(self, action, now):
        return action.ns, None, None

    def _act_get_time(self, action, now):
        cost = self._rdtscp_ns
        return cost, now + cost, None

    def _act_set_timer_slack(self, action, now):
        self.task.timer_slack = action.ns
        return self.kernel.costs.syscall_entry(), None, None

    def _act_timer_create(self, action, now):
        k = self.kernel
        cost = 2 * k.costs.syscall_entry()
        first = action.first_after_ns
        if first is None:
            first = action.interval_ns
        k.arm_periodic_timer(self.task, self.cpu, now + cost + first,
                             action.interval_ns)
        return cost, None, None

    def _act_timer_cancel(self, action, now):
        self.kernel.cancel_timers(self.task)
        return self.kernel.costs.syscall_entry(), None, None

    def _act_signal_task(self, action, now):
        k = self.kernel
        cost = k.costs.syscall_entry() + k.costs.signal_delivery()
        k.signal_task(action.target_pid, self.cpu)
        return cost, None, None

    def _act_nanosleep(self, action, now):
        return 0.0, None, BlockRequest("nanosleep", action.ns)

    def _act_pause(self, action, now):
        return 0.0, None, BlockRequest("pause")

    def _act_exit(self, action, now):
        return 0.0, None, BlockRequest("exit")

    # ------------------------------------------------------------------
    # Batches.  ``Loads`` and ``TimedLoads`` run through the load walk
    # the batch keeps (repro.uarch.cache.LoadWalker), one loop for both
    # kinds, and ``ExecInsts`` through the fetch walk it keeps
    # (Core.fetch_walk).  Both walks name what they were resolved for,
    # the walker or the core (this CPU of this kernel), and the asid,
    # and are rebuilt when either differs.  ``Flushes`` run through the
    # flush walk the batch keeps (MemoryHierarchy.flush_walk), which
    # names the hierarchy and holds on any of its CPUs.  Each element
    # makes its μarch calls, then any jitter draw, then its ``t +=
    # cost`` add; a loop stops after the element that reaches
    # ``deadline`` (see ExecContext.exec_batch).
    # ------------------------------------------------------------------
    def exec_batch(self, batch, i, t, deadline, out):
        kind = type(batch)
        if kind is act.TimedLoads:
            extra, jitter = self._timed_extra, self._jitter
        elif kind is act.Loads:
            extra, jitter = self._base_inst, None
        elif kind is act.Flushes:
            hierarchy, walk = self.core.hierarchy, batch.walk
            if walk is None or walk[0] is not hierarchy:
                walk = batch.walk = hierarchy.flush_walk(batch.items)
            return hierarchy.run_flush_walk(walk, i, t, deadline, out,
                                            self._flush_ns)
        elif kind is act.ExecInsts:
            core, walk = self.core, batch.walk
            if walk is None or walk[0] is not core or walk[1] != self.asid:
                walk = batch.walk = core.fetch_walk(self.asid, batch.items)
            return core.run_fetch_walk(walk, i, t, deadline, out)
        else:
            raise TypeError(f"unknown batch {batch!r}")
        walker, walk = self._walker, batch.walk
        if walk is None or walk[0] is not walker or walk[1] != self.asid:
            walk = batch.walk = walker.walk(self.asid, batch.items)
        return walker.run(walk, i, t, deadline, out, extra, jitter,
                          TIMED_LOAD_JITTER_CYCLES)


_DISPATCH = {
    act.Compute: _KernelExecContext._act_compute,
    act.GetTime: _KernelExecContext._act_get_time,
    act.SetTimerSlack: _KernelExecContext._act_set_timer_slack,
    act.TimerCreate: _KernelExecContext._act_timer_create,
    act.TimerCancel: _KernelExecContext._act_timer_cancel,
    act.SignalTask: _KernelExecContext._act_signal_task,
    act.Nanosleep: _KernelExecContext._act_nanosleep,
    act.Pause: _KernelExecContext._act_pause,
    act.Exit: _KernelExecContext._act_exit,
}


class Kernel:
    """Simulated OS kernel running one scheduling policy over a machine."""

    def __init__(
        self,
        machine: Machine,
        policy: SchedPolicy,
        rng: Optional[RngStreams] = None,
        *,
        tracer: Optional[KernelTracer] = None,
        config: Optional[KernelConfig] = None,
        mitigations: Optional[Any] = None,
    ):
        self.machine = machine
        self.policy = policy
        self.params = policy.params
        self.rng = rng or RngStreams(seed=0)
        self.sim = Simulator()
        self.tracer = tracer or KernelTracer()
        self.config = config or KernelConfig()
        # Mitigation stack (repro.mitigations: LEASH / SchedGuard /
        # PreFence): duck-typed so the kernel never imports the
        # mitigations package.  ``self._mit is None`` is the only cost
        # the default path pays.
        self._mit = mitigations
        if self._mit is not None:
            self._mit.on_attach(self)
        self.costs = CostModel(self.rng)
        self.cpus = [
            _CpuState(RunQueue(c),
                      Event(self.sim, partial(self._dispatch, c), priority=10),
                      Event(self.sim, partial(self._finish_switch, c),
                            priority=5))
            for c in range(machine.n_cores)
        ]
        self.balancer = LoadBalancer([st.rq for st in self.cpus],
                                     policy=policy)
        self.tasks: List[Task] = []
        self.timer_fires = 0
        # Observability reads the tracer's records, never the event
        # paths: run_until folds their growth into the metrics registry
        # (with metrics on), and a traced kernel's records become the
        # Perfetto trace at export.
        obs = get_obs()
        self._metrics = obs.metrics
        self._metrics_on = self._metrics.enabled
        # kernel_counts() and the fold's positions in the switch,
        # wakeup and migration streams and timer_fires as of the last
        # fold (see run_until).
        self._folded: Dict[str, float] = {}
        self._folded_at = (0, 0, 0, 0)
        self._trace = obs.tracer
        self._tracing = self._trace.enabled
        self._trace.register(self.tracer, self.tasks, machine.n_cores)
        # Kernel-footprint touchers, per CPU and window: the switch
        # path touches one of 8 rotating line windows, so each (cpu,
        # window, kind)'s L1 sets are looked up once (see
        # MemoryHierarchy.make_line_toucher) and reused thereafter.
        self._kfoot_touchers: List[List[Optional[Tuple]]] = [
            [None] * 8 for _ in range(machine.n_cores)]
        # One pooled ExecContext per CPU (rebound per body invocation)
        # and the prebound kfoot window draw — both allocation-rate
        # fixes for the switch path.
        self._exec_ctxs = [_KernelExecContext(self, c)
                           for c in range(machine.n_cores)]
        self._kfoot_draw = self.rng.stream("kfoot").randrange
        # Load balancing runs through one resident event, armed while
        # any task is left to schedule on a multi-core machine.
        self._balance_event = Event(self.sim, self._balance_tick)
        if machine.n_cores > 1:
            self.sim.arm(self._balance_event,
                         self.sim.now + BALANCE_INTERVAL_NS)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def spawn(
        self,
        task: Task,
        cpu: Optional[int] = None,
        *,
        wake_placement: bool = False,
        sleep_vruntime: Optional[float] = None,
    ) -> Task:
        """Make ``task`` runnable (fork + wake).  ``cpu`` pins the
        initial placement; otherwise the load balancer's idlest-CPU
        selection is used (the lever of §4.4).

        ``wake_placement`` places the task through the Scenario 2 path
        (Eq 2.1) instead of fork placement — modelling a victim that was
        blocked (e.g. on IO) and is now woken, with
        ``sleep_vruntime`` as the vruntime it slept at."""
        if task.body is None:
            raise ValueError(f"{task} has no body")
        if cpu is None:
            cpu = self.balancer.select_cpu(task)
        if not task.can_run_on(cpu):
            raise ValueError(f"{task} cannot run on cpu{cpu}")
        st = self.cpus[cpu]
        if st.rq.current is not None:
            self._charge(st, st.rq.current, self.sim.now)
        if wake_placement:
            if sleep_vruntime is not None:
                task.last_sleep_vruntime = sleep_vruntime
                task.vruntime = sleep_vruntime
            self.policy.place_waking(st.rq, task)
        else:
            self.policy.place_initial(st.rq, task)
        st.rq.add(task)
        self.tasks.append(task)
        # The balance event stops once every known task has exited; a
        # spawn arriving later (staggered fork bursts) must re-arm it or
        # the rest of the run goes unbalanced.
        if len(self.cpus) > 1 and self._balance_event.entry is None:
            self.sim.arm(self._balance_event,
                         self.sim.now + BALANCE_INTERVAL_NS)
        self._kick(cpu)
        return task

    def run_until(
        self,
        predicate: Optional[Callable[[], bool]] = None,
        *,
        max_time: Optional[float] = None,
        max_events: int = 50_000_000,
    ) -> None:
        """Advance the simulation until ``predicate()`` holds, the event
        heap drains, or ``max_time``/``max_events`` is hit.

        With metrics on, the growth of :func:`kernel_counts` and of the
        scheduling counts since the previous fold is then added to the
        registry, so a cell counts every kernel it built; with tracing
        also on, the running totals of the former become Perfetto
        counter-track points."""
        events = self.sim.drain(predicate, max_time=max_time,
                                max_events=max_events)
        if self._metrics_on:
            self._fold_counts()
        if events >= max_events:
            raise RuntimeError("kernel.run_until exceeded max_events")

    def _fold_counts(self) -> None:
        metrics = self._metrics
        counts = kernel_counts(self)
        folded = self._folded
        now = self.sim.now
        for name, value in counts.items():
            counter = metrics.counter(name)
            counter.inc(value - folded.get(name, 0))
            if self._tracing:
                self._trace.counter(name, now, 0, counter.value)
        self._folded = counts
        # The scheduling counts, from the records appended since.
        tracer = self.tracer
        n_switches, n_wakeups, n_migrations, timer_fires = self._folded_at
        switches = metrics.counter("kernel.switches")
        left = {reason: metrics.counter(f"kernel.switch.{reason}")
                for reason in ("block", "preempt_wakeup", "tick", "exit",
                               "idle")}
        for record in tracer.switches[n_switches:]:
            if record.next_pid is not None:
                switches.inc()
            # Count why a running task leaves the CPU.  A switch onto
            # an empty CPU has none: its last task was counted when it
            # blocked or exited.
            if record.prev_pid is not None or record.next_pid is None:
                left[record.reason].inc()
        wakeups = tracer.wakeups[n_wakeups:]
        metrics.counter("kernel.wakeups").inc(len(wakeups))
        granted = metrics.counter("sched.wakeup_preempt.granted")
        denied = metrics.counter("sched.wakeup_preempt.denied")
        lag = metrics.histogram("sched.wakeup_lag_ns")
        for record in wakeups:
            if record.curr_pid is not None:
                (granted if record.preempted else denied).inc()
                # Eq 2.2 margin: how far behind the current task the
                # wakee was placed (positive → wakee is owed CPU).
                lag.observe(record.curr_vruntime - record.placed_vruntime)
        metrics.counter("kernel.timer_fires").inc(
            self.timer_fires - timer_fires)
        metrics.counter("kernel.migrations").inc(
            len(tracer.migrations) - n_migrations)
        self._folded_at = (len(tracer.switches), len(tracer.wakeups),
                           len(tracer.migrations), self.timer_fires)

    def task_exited(self, task: Task) -> bool:
        return task.state is TaskState.EXITED

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def arm_oneshot_timer(self, task: Task, cpu: int, nominal_expiry: float) -> _Timer:
        """nanosleep-style timer: fires within the task's timer slack."""
        actual = nominal_expiry + self.costs.timer_slack_draw(task.timer_slack)
        timer = _Timer(actual, task, cpu)
        self.cpus[cpu].timers.append(timer)
        self._kick_for_timer(cpu, timer)
        return timer

    def arm_periodic_timer(
        self, task: Task, cpu: int, first_expiry: float, interval: float
    ) -> _Timer:
        interval = max(interval, PERIODIC_MIN_NS)
        timer = _Timer(
            expiry=first_expiry, task=task, cpu=cpu, interval=interval, is_signal=True
        )
        self.cpus[cpu].timers.append(timer)
        self._kick_for_timer(cpu, timer)
        return timer

    def signal_task(self, target_pid: int, from_cpu: int) -> None:
        """Deliver a wake-up signal to ``target_pid`` (kill semantics):
        a task blocked in pause() wakes through Scenario 2; a runnable
        or running target just accrues the (ignored) signal."""
        for task in self.tasks:
            if task.pid == target_pid:
                if task.state is TaskState.SLEEPING:
                    self._wake_task(from_cpu, task)
                return
        raise ValueError(f"no task with pid {target_pid}")

    def cancel_timers(self, task: Task) -> None:
        for st in self.cpus:
            for timer in st.timers:
                if timer.task is task:
                    timer.cancelled = True

    def _kick_for_timer(self, cpu: int, timer: _Timer) -> None:
        """Ensure an idle CPU wakes up to deliver the new timer."""
        st = self.cpus[cpu]
        if st.rq.current is None and not st.switching:
            self._schedule_dispatch(cpu, timer.expiry)

    # ------------------------------------------------------------------
    # Dispatch machinery.  Helpers that run every round are inlined and
    # each ``max`` is a compare returning the same float; see
    # docs/ARCHITECTURE.md for what must stay a call.
    # ------------------------------------------------------------------
    def _ctx(self, cpu: int, task: Task) -> _KernelExecContext:
        """Pooled per-CPU ExecContext, rebound to ``task``.

        Bodies only use the context for the duration of one ``run`` /
        ``on_preempted`` call and one CPU runs one body at a time, so a
        single instance per CPU replaces a per-invocation allocation.
        """
        ctx = self._exec_ctxs[cpu]
        ctx.task = task
        ctx.asid = task.pid
        return ctx

    def _schedule_dispatch(self, cpu: int, time: float) -> None:
        now = self.sim.now
        if now > time:
            time = now
        dispatch = self.cpus[cpu].dispatch
        entry = dispatch.entry
        if entry is None or entry[0] > time + _EPS:
            self.sim.arm(dispatch, time)

    def _kick(self, cpu: int) -> None:
        self._schedule_dispatch(cpu, self.sim.now)

    def _dispatch(self, cpu: int) -> None:
        st = self.cpus[cpu]
        if st.switching:
            return
        now = self.sim.now
        rq = st.rq
        curr = rq.current
        if curr is not None and now > st.accounted_until:
            self._charge(st, curr, now)

        # 2. blocking syscall from the previous window
        if st.pending_block is not None:
            self._handle_block(cpu)
            return

        # 3. due hrtimers → interrupt
        irq_ns = 0.0
        due = None
        for timer in st.timers:
            if not timer.cancelled and timer.expiry <= now + _EPS:
                if due is None:
                    due = []
                due.append(timer)
        if due:
            irq_ns = self.costs.irq_entry()
            for timer in due:
                irq_ns += self._fire_timer(cpu, timer)
            st.timers = [t for t in st.timers if not t.cancelled and t.expiry > now + _EPS]
            # The IRQ window occupies the CPU; charge whoever is current
            # and continue below — a successful wakeup's context switch
            # must happen in this dispatch, or a periodic timer shorter
            # than the IRQ path would starve it forever (an interrupt
            # storm must not livelock the scheduler).
            curr = rq.current
            if curr is not None:
                self._charge(st, curr, now + irq_ns)

        # 4. scheduler tick (catch up if several lapsed while the CPU
        # was busy in an IRQ window or a long switch)
        if st.tick_next is not None and now >= st.tick_next - _EPS:
            while st.tick_next is not None and now >= st.tick_next - _EPS:
                st.tick_next += self.params.tick
            curr = rq.current
            if curr is not None:
                resched = self.policy.tick_preempt(rq, curr)
                if self._mit is not None:
                    self._mit.on_tick(rq, curr, now)
                    resched = self._mit.filter_tick_preempt(
                        rq, curr, resched, now)
                if resched:
                    st.need_resched = True
                    st.resched_reason = "tick"

        # 5. context switch (delayed past the IRQ window just consumed)
        curr = rq.current
        if curr is None or st.need_resched:
            self._begin_switch(cpu, at=now + irq_ns if irq_ns else None)
            return
        if irq_ns:
            # Interrupt handled, no switch: resume the body afterwards.
            self._schedule_dispatch(cpu, now + irq_ns)
            return

        # 6. run the body up to the event horizon (next live timer or tick)
        horizon = st.tick_next
        for timer in st.timers:
            if not timer.cancelled and (horizon is None
                                        or timer.expiry < horizon):
                horizon = timer.expiry
        if horizon is None:
            # A running task with no tick cannot happen (tick is armed
            # whenever the CPU is busy), but stay safe.
            horizon = now + self.params.tick
        if horizon <= now + _EPS:
            self._schedule_dispatch(cpu, horizon)
            return
        ctx = self._exec_ctxs[cpu]
        ctx.task = curr
        ctx.asid = curr.pid
        outcome = curr.body.run(ctx, now, horizon)
        end = outcome.end
        self._charge(st, curr, end)
        if outcome.exited:
            st.pending_block = BlockRequest("exit")
        elif outcome.block is not None:
            st.pending_block = outcome.block
        if now > end:
            end = now
        entry = st.dispatch.entry
        if entry is None or entry[0] > end + _EPS:
            self.sim.arm(st.dispatch, end)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _charge(self, st: _CpuState, task: Task, upto: float) -> None:
        """update_curr: charge ``st``'s current ``task`` up to ``upto``."""
        delta = upto - st.accounted_until
        if delta > 0:
            self.policy.charge(st.rq, task, delta)
            st.accounted_until = upto
            if self.tracer.sample_vruntime:
                self.tracer.record_vruntime(upto, task.pid, task.vruntime)

    # ------------------------------------------------------------------
    # Blocking syscalls (Scenario 3)
    # ------------------------------------------------------------------
    def _handle_block(self, cpu: int) -> None:
        st = self.cpus[cpu]
        block = st.pending_block
        st.pending_block = None
        curr = st.rq.current
        assert curr is not None and block is not None
        now = self.sim.now
        if block.kind == "exit":
            curr.state = TaskState.EXITED
            st.rq.current = None
            self.tracer.record_switch(
                SwitchRecord(now, cpu, curr.pid, None, "exit", curr.vruntime)
            )
            self._begin_switch(cpu)
            return
        syscall_ns = self.costs.syscall_entry()
        self.policy.charge(st.rq, curr, syscall_ns)
        end = now + syscall_ns
        st.accounted_until = end
        self.policy.on_dequeue_sleep(st.rq, curr)
        curr.state = TaskState.SLEEPING
        st.rq.current = None
        if block.kind == "nanosleep":
            self.arm_oneshot_timer(curr, cpu, end + block.ns)
        # 'pause' blocks with no timer of its own (a periodic timer or
        # another thread's signal will wake it).
        self.tracer.record_switch(
            SwitchRecord(now, cpu, curr.pid, None, "block", curr.vruntime)
        )
        self._begin_switch(cpu, at=end)

    # ------------------------------------------------------------------
    # Wakeups (Scenario 2)
    # ------------------------------------------------------------------
    def _fire_timer(self, cpu: int, timer: _Timer) -> float:
        """Deliver one due timer; returns extra IRQ-path nanoseconds."""
        self.timer_fires += 1
        extra = self.costs.timer_fire()
        task = timer.task
        if timer.interval is not None and not timer.cancelled:
            # Re-arm the periodic timer for its next *future* period.
            # Expirations that were overshot (e.g. by a long handler)
            # are overruns, not queued firings — POSIX semantics.
            next_expiry = timer.expiry + timer.interval
            while next_expiry <= self.sim.now + _EPS:
                next_expiry += timer.interval
            next_timer = _Timer(
                expiry=next_expiry,
                task=task,
                cpu=timer.cpu,
                interval=timer.interval,
                is_signal=timer.is_signal,
            )
            self.cpus[timer.cpu].timers.append(next_timer)
        if task.state is not TaskState.SLEEPING:
            return extra
        if timer.is_signal:
            extra += self.costs.signal_delivery()
        self._wake_task(cpu, task)
        return extra

    def _wake_task(self, cpu: int, task: Task) -> None:
        """Scenario 2: move ``task`` from the waitqueue to a runqueue,
        place its vruntime (Eq 2.1) and run the preemption check (Eq 2.2)."""
        target = cpu if task.can_run_on(cpu) else self.balancer.select_cpu(task)
        st = self.cpus[target]
        rq = st.rq
        now = self.sim.now
        curr = rq.current
        if curr is not None and now > st.accounted_until:
            self._charge(st, curr, now)
        self.policy.place_waking(rq, task)
        rq.add(task)
        task.wakeups += 1
        curr = rq.current
        preempt = False
        if curr is not None:
            preempt = self.policy.wants_wakeup_preempt(rq, curr, task)
            if self._mit is not None:
                # Mitigations see every attempt (LEASH's perf signal),
                # and may veto the grant (SchedGuard's blocking slot).
                preempt = self._mit.filter_wakeup_preempt(
                    rq, curr, task, preempt, now)
        self.tracer.record_wakeup(WakeupRecord(
            now, target, task.pid, task.vruntime,
            curr.pid if curr else None, curr.vruntime if curr else 0.0,
            preempt))
        if preempt:
            assert curr is not None
            curr.preemptions_suffered += 1
            st.need_resched = True
            st.resched_reason = "preempt_wakeup"
            st.switch_to = task
        elif curr is not None and target == cpu:
            # Failed preemption: the interrupt returns straight to the
            # interrupted task — a kernel exit the paper's stop rule
            # watches for.
            self._record_exit(target, curr)
        if target != cpu:
            self._kick(target)

    # ------------------------------------------------------------------
    # Context switching
    # ------------------------------------------------------------------
    def _begin_switch(self, cpu: int, at: Optional[float] = None) -> None:
        st = self.cpus[cpu]
        sim_now = self.sim.now
        now = at if at is not None else sim_now
        st.need_resched = False
        rq = st.rq
        prev = rq.current
        if prev is not None:
            # Involuntary deschedule: apply SGX AEX / speculative smear.
            prev.body.on_preempted(self._ctx(cpu, prev))
            if prev.enclave:
                self.machine.tlbs.flush_core(cpu)
            prev.state = TaskState.RUNNABLE
            rq.current = None
            rq.add(prev)
        next_task = st.switch_to
        st.switch_to = None
        if next_task is not None and next_task not in rq.queued:
            next_task = None  # migrated or state changed meanwhile
        if next_task is None:
            next_task = self.policy.pick_next(rq)
        if next_task is None:
            # Idle.
            st.tick_next = None
            self.tracer.record_switch(
                SwitchRecord(now, cpu, prev.pid if prev else None, None, "idle")
            )
            pending = [t.expiry for t in st.timers if not t.cancelled]
            if pending:
                self._schedule_dispatch(cpu, min(pending))
            return
        if self._mit is not None:
            self._mit.on_context_switch(cpu, prev, next_task, now)
        rq.remove(next_task)
        st.switching = True
        cost = self.costs.context_switch()
        if prev is not None and prev.enclave:
            cost += self.costs.aex()
        reason = st.resched_reason if prev is not None else "block"
        self.tracer.record_switch(
            SwitchRecord(
                now,
                cpu,
                prev.pid if prev else None,
                next_task.pid,
                reason,
                prev.vruntime if prev else 0.0,
                next_task.vruntime,
            )
        )
        st.incoming = next_task
        end = now + cost
        self.sim.arm(st.finish_switch, sim_now if sim_now > end else end)

    def _finish_switch(self, cpu: int) -> None:
        st = self.cpus[cpu]
        st.switching = False
        task, st.incoming = st.incoming, None
        now = self.sim.now
        st.rq.current = task
        task.state = TaskState.RUNNING
        task.slice_exec = 0.0
        st.accounted_until = now
        core = self.machine.cores[cpu]
        core.on_context_switch()
        self._touch_kernel_footprint(cpu)
        if st.tick_next is None:
            st.tick_next = now + self.params.tick
        delay = 0.0
        if task.enclave:
            delay = self.costs.eresume()
            program = task.body.program
            if self.config.aex_notify_depth > 0 and program is not None:
                # The trusted handler runs inside the enclave after
                # ERESUME; its warm-up work extends the resume delay.
                core.warm_resume(task.pid, program,
                                 self.config.aex_notify_depth)
                delay += self.costs.eresume()
        self._record_exit(cpu, task)
        self._schedule_dispatch(cpu, now + delay)

    def _record_exit(self, cpu: int, task: Task) -> None:
        program = task.body.program
        if program is not None:
            record = ExitToUserRecord(self.sim.now, cpu, task.pid,
                                      program.current_pc, program.retired)
        else:
            record = ExitToUserRecord(self.sim.now, cpu, task.pid)
        self.tracer.record_exit(record)

    def _touch_kernel_footprint(self, cpu: int) -> None:
        """Model the kernel's own cache footprint on the switch path.

        A rotating window of kernel-text/data lines is accessed so the
        pollution is neither fully fixed (unrealistically learnable) nor
        uniform noise.  This is the channel noise §4.3 attributes to the
        kernel and mitigates by monitoring structures larger than L1.
        """
        window = self._kfoot_draw(0, 8)
        # The footprint's LLC sets model where this kernel build's
        # switch-path text/data happen to map — chosen away from the
        # victims' hot sets, the common case on a 16K-set LLC.  (When
        # they do collide, §4.3's channel-noise mitigations apply.)
        # Each toucher accesses its window's lines in order, as
        # per-line access() calls would, with the L1 sets looked up
        # once per window.
        touchers = self._kfoot_touchers[cpu][window]
        if touchers is None:
            hierarchy = self.machine.hierarchy
            offset = window * 64
            base = KERNEL_REGION_BASE + 1500 * 64 + offset
            data_base = KERNEL_REGION_BASE + 0x10_0000 + 1800 * 64 + offset
            touchers = (
                hierarchy.make_line_toucher(
                    cpu,
                    range(base, base + KERNEL_FOOTPRINT_INST_LINES * 64, 64),
                    kind="inst"),
                hierarchy.make_line_toucher(
                    cpu,
                    range(data_base,
                          data_base + KERNEL_FOOTPRINT_DATA_LINES * 64, 64),
                    kind="data"),
            )
            self._kfoot_touchers[cpu][window] = touchers
        touchers[0]()
        touchers[1]()

    # ------------------------------------------------------------------
    # Load balancing
    # ------------------------------------------------------------------
    def _balance_tick(self) -> None:
        now = self.sim.now
        # Settle every CPU's accounting before moving anything: the
        # renormalization rebases the task against min/avg vruntime
        # baselines, which are stale until the running tasks are
        # charged up to `now` (update_curr before detach_task).
        for st in self.cpus:
            if st.rq.current is not None:
                self._charge(st, st.rq.current, now)
        for migration in self.balancer.balance(now):
            self.tracer.record_migration(MigrationRecord(
                migration.time, migration.src_cpu, migration.dst_cpu,
                migration.task.pid,
                vruntime_before=migration.vruntime_before,
                vruntime_after=migration.vruntime_after,
            ))
            self._kick(migration.dst_cpu)
        # Keep balancing only while there is anything left to schedule.
        if any(t.state is not TaskState.EXITED for t in self.tasks):
            self.sim.arm(self._balance_event, now + BALANCE_INTERVAL_NS)
