"""Randomized scheduler workloads for the invariant fuzzer.

A *workload* is a JSON-serializable specification of a task mix: how
many CPUs, how long to run, and for each task its nice value, optional
pinning, how it is spawned (fork vs. Scenario 2 wake placement) and the
script of userspace actions it performs (compute bursts, nanosleeps,
pause/signal pairs, POSIX timers, timer-slack changes).  The generator
draws every choice from :class:`repro.sim.rng.RngStreams`, so a
workload is a pure function of its seed — the property the shrinker and
the replayable reproducers rely on.

The specs deliberately stay within the model's legal envelope (no task
pauses forever unless that is a *legitimate* block; signal targets are
spawned tasks) so that every invariant violation the harness reports is
a scheduler bug, not a malformed workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.kernel import actions as act
from repro.kernel.kernel import Kernel
from repro.kernel.threads import ComputeBody, CoroutineBody
from repro.sched.task import Task
from repro.sim.rng import RngStreams

__all__ = [
    "TaskSpec",
    "WorkloadSpec",
    "generate_workload",
    "build_tasks",
    "spawn_tasks",
    "FEATURE_VARIANTS",
]

MS = 1_000_000.0
US = 1_000.0

#: Base pid for workload tasks — fixed so traces (and their digests) do
#: not depend on how many Tasks were created earlier in the process.
WORKLOAD_PID_BASE = 100

#: Named feature-flag variants the fuzzer samples from (the same knobs
#: ``repro.sched.features`` models).  ``{}`` is the kernel default.
FEATURE_VARIANTS: Dict[str, Dict[str, Any]] = {
    "default": {},
    "no-gentle-sleepers": {"gentle_fair_sleepers": False},
    "no-wakeup-preemption": {"wakeup_preemption": False},
    "min-slice-guard": {"wakeup_min_slice_ns": 100_000.0},
    "run-to-parity": {"run_to_parity": True},
    "no-place-lag": {"place_lag": False},
}


@dataclass
class TaskSpec:
    """One task of a workload (JSON-serializable)."""

    name: str
    nice: int = 0
    #: ``None`` → the load balancer's idlest-CPU fork placement.
    pinned_cpu: Optional[int] = None
    #: Spawn through the Scenario 2 wake path (Eq 2.1) instead of fork
    #: placement, pretending the task slept at ``sleep_vruntime``.
    wake_placement: bool = False
    sleep_vruntime: float = 0.0
    #: ``"script"`` → a CoroutineBody driven by ``events``;
    #: ``"compute"`` → a pure ComputeBody (optionally finite).
    kind: str = "script"
    duration_ns: Optional[float] = None
    #: Script events, each ``{"op": ..., ...}``; see ``_script_gen``.
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Spawn this many ns into the run (0 → at t=0).  Staggered fork
    #: bursts are what trip the balancer mid-run.
    spawn_at_ns: float = 0.0
    #: Affinity mask wider than a single pin (``None`` → any CPU).
    allowed_cpus: Optional[List[int]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "nice": self.nice,
            "pinned_cpu": self.pinned_cpu,
            "wake_placement": self.wake_placement,
            "sleep_vruntime": self.sleep_vruntime,
            "kind": self.kind,
            "duration_ns": self.duration_ns,
            "events": [dict(e) for e in self.events],
            "spawn_at_ns": self.spawn_at_ns,
            "allowed_cpus": (list(self.allowed_cpus)
                            if self.allowed_cpus is not None else None),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TaskSpec":
        return cls(**data)


@dataclass
class WorkloadSpec:
    """A complete fuzz case: machine shape + task mix + feature flags."""

    seed: int
    n_cpus: int = 1
    horizon_ns: float = 10 * MS
    #: SchedFeatures overrides (empty → defaults).
    features: Dict[str, Any] = field(default_factory=dict)
    tasks: List[TaskSpec] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "n_cpus": self.n_cpus,
            "horizon_ns": self.horizon_ns,
            "features": dict(self.features),
            "tasks": [t.to_dict() for t in self.tasks],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WorkloadSpec":
        tasks = [TaskSpec.from_dict(t) for t in data.get("tasks", [])]
        return cls(
            seed=data["seed"],
            n_cpus=data.get("n_cpus", 1),
            horizon_ns=data.get("horizon_ns", 10 * MS),
            features=dict(data.get("features", {})),
            tasks=tasks,
        )


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def generate_workload(
    seed: int,
    *,
    n_cpus: int = 2,
    max_tasks: int = 6,
    horizon_ns: Optional[float] = None,
    feature_variants: bool = True,
    profile: str = "mixed",
) -> WorkloadSpec:
    """Draw one random workload from ``seed``.

    The mix covers the regimes the paper's phenomenology depends on:
    always-runnable hogs (Scenario 1 tick preemption), sleep/wake loops
    (Scenario 2 placement + Eq 2.2), pause/periodic-timer pairs
    (Method 2 wakeups), cross-task signals, pinned vs. migratable tasks
    and nice values across the weight table.

    ``profile`` selects the mix family:

    * ``"classic"``  — the original single-queue-heavy mix above;
    * ``"imbalance"``— imbalance-forcing mixes that make the idle-pull
      balancer actually migrate (pinned dummy floods, staggered fork
      bursts, affinity-constrained tasks, sleep/wake storms) plus
      cache probe/flood pairs for the uarch oracles;
    * ``"mixed"``    — draws per-seed between the two (the default fuzz
      diet, so one campaign covers both regimes).
    """
    if profile not in ("mixed", "imbalance", "classic"):
        raise ValueError(f"unknown workload profile {profile!r}")
    rng = RngStreams(seed=seed)
    r = rng.stream("workload")
    n_tasks = r.randint(2, max(2, max_tasks))
    if horizon_ns is None:
        horizon_ns = r.uniform(5 * MS, 20 * MS)
    features: Dict[str, Any] = {}
    if feature_variants:
        features = dict(r.choice(sorted(FEATURE_VARIANTS.values(),
                                        key=repr)))

    use_imbalance = n_cpus > 1 and (
        profile == "imbalance"
        or (profile == "mixed" and r.random() < 0.35))
    if use_imbalance:
        # Give the 4 ms balance period several chances to fire.
        horizon_ns = max(horizon_ns, 16 * MS)
        tasks = _generate_imbalance(r, n_cpus, horizon_ns)
        return WorkloadSpec(
            seed=seed, n_cpus=n_cpus, horizon_ns=horizon_ns,
            features=features, tasks=tasks,
        )

    tasks: List[TaskSpec] = []
    for i in range(n_tasks):
        name = f"t{i}"
        nice = r.choice([-20, -10, -5, -1, 0, 0, 0, 1, 5, 10, 19])
        pinned = r.choice([None] * 2 + list(range(n_cpus)))
        wake_placement = r.random() < 0.25
        sleep_vruntime = r.uniform(0.0, 20 * MS) if wake_placement else 0.0
        if r.random() < 0.25:
            # A pure CPU hog, optionally finite.
            duration = r.choice([None, r.uniform(1 * MS, horizon_ns)])
            tasks.append(TaskSpec(
                name=name, nice=nice, pinned_cpu=pinned,
                wake_placement=wake_placement,
                sleep_vruntime=sleep_vruntime,
                kind="compute", duration_ns=duration,
            ))
            continue
        events = _generate_script(r, i, n_tasks)
        tasks.append(TaskSpec(
            name=name, nice=nice, pinned_cpu=pinned,
            wake_placement=wake_placement, sleep_vruntime=sleep_vruntime,
            kind="script", events=events,
        ))
    return WorkloadSpec(
        seed=seed, n_cpus=n_cpus, horizon_ns=horizon_ns,
        features=features, tasks=tasks,
    )


#: Line-aliasing address pool for the cache probe/flood scripts: all
#: addresses map to one LLC set group (stride = one LLC way period for
#: the default scaled-down geometry), far below the attacker huge-page
#: region the layout reserves.
_CACHE_POOL_BASE = 0x0080_0000
_LLC_SET_STRIDE = 131072


def _cache_addrs(set_offset: int, count: int) -> List[int]:
    return [_CACHE_POOL_BASE + set_offset * 64 + k * _LLC_SET_STRIDE
            for k in range(count)]


def _generate_imbalance(r, n_cpus: int,
                        horizon_ns: float) -> List[TaskSpec]:
    """Imbalance-forcing task mix: make the idle-pull balancer work.

    Construction (all knobs randomized per seed):

    * pinned dummy flood on up to N−1 CPUs — §4.4's dummies; some
      finite, so their CPU later goes idle and starts pulling, and
      sometimes *stacked* two deep so the donor's queued task is a
      pinned dummy the balancer must refuse to move;
    * more migratable tasks than free CPUs, some affinity-constrained
      to 2-CPU masks, running sleep/wake storms — queues build up,
      sleepers leave CPUs idle exactly at balance ticks;
    * a staggered fork burst (``spawn_at_ns``) arriving mid-run, after
      the initial placement has settled;
    * optionally a cache probe/flood pair for the uarch oracles: the
      probe touches a few lines of one LLC set group from one CPU, the
      flood streams enough lines through the same sets from another to
      force LLC evictions → back-invalidations of the probe's lines.
    """
    tasks: List[TaskSpec] = []

    n_flood = r.randint(1, max(1, n_cpus - 1))
    stack_donor = r.random() < 0.5
    for i in range(n_flood):
        finite = r.random() < 0.4
        tasks.append(TaskSpec(
            name=f"t{len(tasks)}", nice=r.choice([-5, 0, 0, 5]),
            pinned_cpu=i, kind="compute",
            duration_ns=(round(r.uniform(1 * MS, horizon_ns / 2), 1)
                         if finite else None),
        ))
    if stack_donor:
        # Second pinned dummy on the first flood CPU: an overloaded
        # donor whose queued task is unmigratable.
        tasks.append(TaskSpec(
            name=f"t{len(tasks)}", nice=0, pinned_cpu=0, kind="compute",
            duration_ns=round(r.uniform(1 * MS, horizon_ns), 1),
        ))

    if r.random() < 0.8:
        # A "napper" pinned to the last CPU: asleep across most balance
        # ticks, so its CPU is reliably idle and pulling.
        nap_events: List[Dict[str, Any]] = []
        for _ in range(r.randint(4, 6)):
            nap_events.append({"op": "sleep",
                               "ns": round(r.uniform(1.5 * MS, 3.5 * MS), 1)})
            nap_events.append({"op": "compute",
                               "ns": round(r.uniform(30 * US, 150 * US), 1)})
        tasks.append(TaskSpec(
            name=f"t{len(tasks)}", nice=0, pinned_cpu=n_cpus - 1,
            kind="script", events=nap_events,
        ))

    n_migratable = r.randint(2, 4)
    for _ in range(n_migratable):
        allowed = None
        if n_cpus > 2 and r.random() < 0.4:
            allowed = sorted(r.sample(range(n_cpus), 2))
        events: List[Dict[str, Any]] = []
        for _ in range(r.randint(3, 6)):
            roll = r.random()
            if roll < 0.55:
                events.append({"op": "compute",
                               "ns": round(r.uniform(500 * US, 3 * MS), 1)})
            elif roll < 0.8:
                events.append({"op": "sleep",
                               "ns": round(r.uniform(20 * US, 500 * US), 1)})
            else:
                events.append({"op": "sleep",
                               "ns": round(r.uniform(1 * MS, 3 * MS), 1)})
        if r.random() < 0.3:
            # Most migratable tasks run finite scripts and exit — a CPU
            # that drains goes idle and starts pulling; a mix of eternal
            # spinners would eventually park one on every CPU and no
            # balance tick would ever find an idle puller.
            events.append({"op": "spin",
                           "ns": round(r.uniform(200 * US, 1 * MS), 1)})
        tasks.append(TaskSpec(
            name=f"t{len(tasks)}", nice=r.choice([-1, 0, 0, 1, 5]),
            allowed_cpus=allowed, kind="script", events=events,
        ))

    if r.random() < 0.6:
        # Staggered fork burst: arrives after initial placement settled.
        burst_at = round(r.uniform(0.5 * MS, horizon_ns / 2), 1)
        for j in range(r.randint(1, 3)):
            tasks.append(TaskSpec(
                name=f"t{len(tasks)}", nice=0, kind="compute",
                duration_ns=round(r.uniform(1 * MS, 4 * MS), 1),
                spawn_at_ns=round(burst_at + j * 200 * US, 1),
            ))

    if r.random() < 0.5:
        # Cache probe/flood pair on distinct CPUs (finite, so they free
        # their CPUs once the uarch state is interesting).
        probe_cpu = 0
        flood_cpu = 1 if n_cpus > 2 else n_cpus - 1
        probe_addrs = _cache_addrs(0, 4)
        flood_addrs = _cache_addrs(0, r.randint(18, 24))
        tasks.append(TaskSpec(
            name=f"t{len(tasks)}", nice=0, pinned_cpu=probe_cpu,
            kind="script",
            events=[{"op": "loads", "addrs": probe_addrs},
                    {"op": "sleep", "ns": round(r.uniform(50 * US, 200 * US), 1)},
                    {"op": "loads", "addrs": probe_addrs},
                    {"op": "sleep", "ns": round(r.uniform(50 * US, 200 * US), 1)},
                    {"op": "loads", "addrs": probe_addrs}],
        ))
        tasks.append(TaskSpec(
            name=f"t{len(tasks)}", nice=0, pinned_cpu=flood_cpu,
            kind="script",
            events=[{"op": "loads", "addrs": flood_addrs},
                    {"op": "sleep", "ns": round(r.uniform(20 * US, 100 * US), 1)},
                    {"op": "loads", "addrs": flood_addrs}],
        ))
    return tasks


def _generate_script(r, index: int, n_tasks: int) -> List[Dict[str, Any]]:
    """Random event script for task ``index`` of ``n_tasks``."""
    events: List[Dict[str, Any]] = []
    if r.random() < 0.3:
        events.append({"op": "slack", "ns": r.choice([1.0, 1_000.0, 50_000.0])})
    timer_armed = False
    for _ in range(r.randint(2, 8)):
        roll = r.random()
        if roll < 0.40:
            events.append({"op": "compute",
                           "ns": round(r.uniform(20 * US, 2 * MS), 1)})
        elif roll < 0.65:
            events.append({"op": "sleep",
                           "ns": round(r.uniform(5 * US, 1 * MS), 1)})
        elif roll < 0.75 and not timer_armed:
            events.append({
                "op": "timer",
                "interval_ns": round(r.uniform(50 * US, 2 * MS), 1),
                "first_ns": round(r.uniform(0.0, 500 * US), 1),
            })
            timer_armed = True
        elif roll < 0.85 and timer_armed:
            # A pause is only legal noise when a timer can wake it.
            events.append({"op": "pause"})
        elif roll < 0.93 and n_tasks > 1:
            target = r.randrange(n_tasks - 1)
            if target >= index:
                target += 1
            events.append({"op": "signal", "target": target})
        else:
            events.append({"op": "compute",
                           "ns": round(r.uniform(20 * US, 500 * US), 1)})
    if timer_armed and r.random() < 0.5:
        events.append({"op": "timer_cancel"})
        timer_armed = False
    if r.random() < 0.5:
        # Keep running until the horizon so the run stays busy.
        events.append({"op": "spin", "ns": round(r.uniform(200 * US, 1 * MS), 1)})
    return events


# ----------------------------------------------------------------------
# Materialization
# ----------------------------------------------------------------------
def _script_gen(events: List[Dict[str, Any]],
                pids: List[int]) -> Generator[act.Action, Any, None]:
    """Translate a script into the kernel's action protocol."""
    for event in events:
        op = event["op"]
        if op == "compute":
            yield act.Compute(event["ns"])
        elif op == "sleep":
            yield act.Nanosleep(event["ns"])
        elif op == "pause":
            yield act.Pause()
        elif op == "timer":
            yield act.TimerCreate(event["interval_ns"],
                                  first_after_ns=event.get("first_ns"))
        elif op == "timer_cancel":
            yield act.TimerCancel()
        elif op == "signal":
            yield act.SignalTask(pids[event["target"]])
        elif op == "loads":
            yield act.Loads(event["addrs"])
        elif op == "slack":
            yield act.SetTimerSlack(event["ns"])
        elif op == "spin":
            while True:
                yield act.Compute(event["ns"])
        else:
            raise ValueError(f"unknown workload op {op!r}")


def build_tasks(spec: WorkloadSpec) -> List[Tuple[Task, TaskSpec]]:
    """Materialize Task objects (with deterministic pids) for ``spec``."""
    pids = [WORKLOAD_PID_BASE + i for i in range(len(spec.tasks))]
    out: List[Tuple[Task, TaskSpec]] = []
    for i, tspec in enumerate(spec.tasks):
        if tspec.kind == "compute":
            body = ComputeBody(tspec.duration_ns)
        elif tspec.kind == "script":
            body = CoroutineBody(_script_gen(tspec.events, pids))
        else:
            raise ValueError(f"unknown task kind {tspec.kind!r}")
        task = Task(tspec.name, body=body, nice=tspec.nice, pid=pids[i])
        if tspec.pinned_cpu is not None:
            task.pin_to(min(tspec.pinned_cpu, spec.n_cpus - 1))
        elif tspec.allowed_cpus is not None:
            task.allowed_cpus = frozenset(
                min(c, spec.n_cpus - 1) for c in tspec.allowed_cpus)
        out.append((task, tspec))
    return out


def spawn_tasks(kernel: Kernel, spec: WorkloadSpec) -> List[Task]:
    """Build ``spec``'s tasks and spawn them on ``kernel``, each at its
    ``spawn_at_ns`` (through the event queue) or at once, a pinned one
    on its CPU clamped to the machine; returns the tasks."""
    tasks = []
    for task, tspec in build_tasks(spec):
        cpu = None
        if tspec.pinned_cpu is not None:
            cpu = min(tspec.pinned_cpu, spec.n_cpus - 1)

        def do_spawn(task=task, tspec=tspec, cpu=cpu):
            kernel.spawn(
                task, cpu=cpu,
                wake_placement=tspec.wake_placement,
                sleep_vruntime=(tspec.sleep_vruntime
                                if tspec.wake_placement else None),
            )

        if tspec.spawn_at_ns > 0:
            kernel.sim.call_at(tspec.spawn_at_ns, do_spawn)
        else:
            do_spawn()
        tasks.append(task)
    return tasks
