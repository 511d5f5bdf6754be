"""Defense invariant oracles: prove the mitigation policies do what
their specs claim.

Each policy in :mod:`repro.mitigations` ships with a machine-checkable
invariant, validated here against randomized scheduler workloads (the
same generator the invariant fuzzer uses):

* **SchedGuard** — *no protected task is ever preempted inside a
  guarded slot*: every ``preempt_wakeup``/``tick`` switch whose
  outgoing task is protected must fall outside the most recent
  blocking slot the policy logged for that pid.
* **PreFence** — *zero cross-switch prefetches under a fence-always
  policy*: the memory hierarchy's issued-prefetch counter must stay at
  zero (suppressions are the policy working; issues are it failing).
* **LEASH** — *interventions only against flagged tasks*: replaying
  the ordered event log, every ``deny``/``throttle``/``penalty`` must
  target a pid inside the currently-flagged set implied by the
  ``flag``/``unflag`` events, and the counters must match the log.

Each oracle is proven *live* by a planted bug (``DEFENSE_BUGS``): a
sabotaged policy subclass that keeps the bookkeeping but drops the
enforcement.  The test suite shrinks each caught case to a minimal
workload (≤ a handful of tasks) via :func:`repro.validate.shrink.
shrink_workload`, exactly like the scheduler-invariant fuzzer.

PreFence cases append a fixed branchy *driver* task (a GCD trace
program) to the workload: fuzz tasks are compute/script bodies that
never fetch instructions through the front end, so without the driver
the fence would be trivially unexercised and the stale-enable bug
invisible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cpu.machine import Machine, MachineConfig
from repro.kernel.kernel import Kernel
from repro.kernel.threads import ProgramBody
from repro.kernel.tracing import KernelTracer
from repro.mitigations.leash import LeashPolicy
from repro.mitigations.policy import MitigationStack
from repro.mitigations.prefence import PreFencePolicy
from repro.mitigations.schedguard import SchedGuardPolicy
from repro.sched.task import Task
from repro.sim.rng import RngStreams
from repro.validate.harness import make_validate_policy
from repro.validate.invariants import Violation
from repro.validate.workload import (WORKLOAD_PID_BASE, WorkloadSpec,
                                     spawn_tasks)
from repro.victims.gcd import build_gcd_program

__all__ = [
    "DEFENSES",
    "DEFENSE_BUGS",
    "DefenseCaseOutcome",
    "check_schedguard_slots",
    "check_prefence_fence",
    "check_leash_events",
    "run_defense_case",
    "fuzz_defense",
]

DEFENSES = ("leash", "schedguard", "prefence")

#: The preemption switch reasons a blocking defense must be able to
#: veto (voluntary ``block``/``exit``/``idle`` switches are the task's
#: own doing and out of any defense's jurisdiction).
_PREEMPT_REASONS = ("preempt_wakeup", "tick")

#: Fixed odd operands for the PreFence driver's GCD trace: enough
#: secret-dependent branches to keep the front end prefetching for the
#: whole case.
_DRIVER_GCD_A = 1_000_003
_DRIVER_GCD_B = 998_527
_DRIVER_PID = WORKLOAD_PID_BASE - 1


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def check_schedguard_slots(policy: SchedGuardPolicy,
                           tracer: KernelTracer) -> List[Violation]:
    """No ``preempt_wakeup``/``tick`` switch may evict a protected task
    strictly inside its most recent guarded slot."""
    slots_by_pid: Dict[int, List[Tuple[float, float]]] = {}
    for pid, start, end in policy.slot_log:
        slots_by_pid.setdefault(pid, []).append((start, end))
    violations: List[Violation] = []
    for rec in tracer.switches:
        if rec.reason not in _PREEMPT_REASONS or rec.prev_pid is None:
            continue
        slots = slots_by_pid.get(rec.prev_pid)
        if not slots:
            continue
        for start, end in reversed(slots):
            if start <= rec.time:
                if rec.time < end:
                    violations.append(Violation(
                        "schedguard-slot",
                        rec.time,
                        f"pid {rec.prev_pid} preempted ({rec.reason}) "
                        f"{rec.time - start:.0f}ns into its "
                        f"[{start:.0f}, {end:.0f}) blocking slot",
                    ))
                break
    return violations


def check_prefence_fence(policy: PreFencePolicy,
                         hierarchy: Any) -> List[Violation]:
    """Under a fence-always PreFence (empty ``protect``), the hierarchy
    must never issue a prefetch — every attempt must be suppressed."""
    violations: List[Violation] = []
    if policy.protect:
        return violations  # per-core mode: issues on unfenced cores are legal
    issued = getattr(hierarchy, "prefetches_issued", 0)
    if issued > 0:
        violations.append(Violation(
            "prefence-fence",
            0.0,
            f"{issued} prefetch(es) issued under a fence-always policy "
            f"({hierarchy.prefetches_suppressed} suppressed)",
        ))
    return violations


def check_leash_events(policy: LeashPolicy) -> List[Violation]:
    """Replay the LEASH event log: interventions must only ever target
    pids flagged at that moment, the log must be time-ordered, and the
    counters must equal what the log records."""
    violations: List[Violation] = []
    flagged: set = set()
    counts = {"flag": 0, "unflag": 0, "deny": 0, "throttle": 0,
              "penalty": 0}
    last_time = float("-inf")
    for at, kind, pid in policy.events:
        if at < last_time:
            violations.append(Violation(
                "leash-log-order", at,
                f"{kind} event at {at:.0f}ns after {last_time:.0f}ns"))
        last_time = at
        if kind not in counts:
            violations.append(Violation(
                "leash-log-order", at, f"unknown event kind {kind!r}"))
            continue
        counts[kind] += 1
        if kind == "flag":
            if pid in flagged:
                violations.append(Violation(
                    "leash-double-flag", at, f"pid {pid} flagged twice"))
            flagged.add(pid)
        elif kind == "unflag":
            if pid not in flagged:
                violations.append(Violation(
                    "leash-intervention", at,
                    f"unflag of never-flagged pid {pid}"))
            flagged.discard(pid)
        elif pid not in flagged:  # deny / throttle / penalty
            violations.append(Violation(
                "leash-intervention", at,
                f"{kind} against unflagged pid {pid}"))
    for kind, counter in (("flag", policy.flags), ("deny", policy.denials),
                          ("throttle", policy.throttles),
                          ("penalty", policy.penalties)):
        if counts[kind] != counter:
            violations.append(Violation(
                "leash-counter", last_time,
                f"{kind} counter {counter} != {counts[kind]} logged events"))
    return violations


# ----------------------------------------------------------------------
# Planted bugs: bookkeeping intact, enforcement dropped
# ----------------------------------------------------------------------
class _SchedGuardLeaky(SchedGuardPolicy):
    """Opens and logs blocking slots but never denies a preemption."""

    def filter_wakeup_preempt(self, rq, curr, wakee, decision, now):
        return decision

    def filter_tick_preempt(self, rq, curr, decision, now):
        return decision


class _LeashThrottleUnflagged(LeashPolicy):
    """Slice-throttles *any* long-running task, flagged or not."""

    def filter_tick_preempt(self, rq, curr, decision, now):
        if (not decision and curr.slice_exec >= self.throttle_slice_ns
                and rq.queued):
            self.throttles += 1
            self.events.append((now, "throttle", curr.pid))
            return True
        return decision


class _PreFenceStaleEnable(PreFencePolicy):
    """Remembers the hierarchy but never actually disables prefetch."""

    def on_attach(self, kernel):
        self._hierarchy = kernel.machine.hierarchy

    def on_context_switch(self, cpu, prev, nxt, now):
        pass


DEFENSE_BUGS: Dict[str, str] = {
    "schedguard-leaky": "schedguard",
    "leash-throttle-unflagged": "leash",
    "prefence-stale-enable": "prefence",
}


def _build_defense(defense: str, bug: Optional[str],
                   task_names: Tuple[str, ...]):
    if bug is not None and DEFENSE_BUGS.get(bug) != defense:
        raise ValueError(
            f"bug {bug!r} does not sabotage defense {defense!r}; "
            f"known: {sorted(DEFENSE_BUGS)}")
    if defense == "schedguard":
        cls = _SchedGuardLeaky if bug else SchedGuardPolicy
        # Guard every workload task: the oracle checks slot consistency,
        # not selectivity, and universal protection maximizes exercise.
        return cls(protect=tuple(sorted(task_names)))
    if defense == "leash":
        cls = _LeashThrottleUnflagged if bug else LeashPolicy
        return cls()
    if defense == "prefence":
        cls = _PreFenceStaleEnable if bug else PreFencePolicy
        return cls(protect=())  # fence-always
    raise ValueError(f"unknown defense {defense!r}; known: {DEFENSES}")


# ----------------------------------------------------------------------
# Case runner
# ----------------------------------------------------------------------
@dataclass
class DefenseCaseOutcome:
    """One defense-oracle fuzz case (plain data)."""

    seed: int
    scheduler: str
    defense: str
    bug: Optional[str]
    invariants: Tuple[str, ...]
    violations: Tuple[str, ...]
    n_switches: int
    n_preemptions: int
    defense_stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.invariants


def run_defense_case(spec: WorkloadSpec, scheduler: str, defense: str, *,
                     bug: Optional[str] = None) -> DefenseCaseOutcome:
    """Run one workload with ``defense`` installed and its oracle armed.

    ``bug`` plants the matching sabotaged policy so tests can prove the
    oracle actually catches a broken defense.
    """
    names = tuple(t.name for t in spec.tasks)
    policy_obj = _build_defense(defense, bug, names)
    stack = MitigationStack([policy_obj])
    sched_policy = make_validate_policy(scheduler, spec.features)
    machine = Machine(MachineConfig(n_cores=spec.n_cpus))
    rng = RngStreams(seed=spec.seed)
    tracer = KernelTracer()
    kernel = Kernel(machine, sched_policy, rng, tracer=tracer,
                    mitigations=stack)
    spawn_tasks(kernel, spec)
    if defense == "prefence":
        # Branchy driver: the only workload member whose instruction
        # stream exercises the front-end prefetcher (see module doc).
        info = build_gcd_program(_DRIVER_GCD_A, _DRIVER_GCD_B)
        driver = Task("driver", body=ProgramBody(info.program),
                      pid=_DRIVER_PID)
        kernel.spawn(driver, cpu=0)
    kernel.run_until(max_time=spec.horizon_ns)

    if defense == "schedguard":
        violations = check_schedguard_slots(policy_obj, tracer)
    elif defense == "prefence":
        violations = check_prefence_fence(policy_obj, machine.hierarchy)
    else:
        violations = check_leash_events(policy_obj)
    preemptions = sum(1 for s in tracer.switches
                      if s.reason in _PREEMPT_REASONS)
    return DefenseCaseOutcome(
        seed=spec.seed,
        scheduler=scheduler,
        defense=defense,
        bug=bug,
        invariants=tuple(sorted({v.invariant for v in violations})),
        violations=tuple(str(v) for v in violations),
        n_switches=len(tracer.switches),
        n_preemptions=preemptions,
        defense_stats=stack.snapshot(),
    )


def fuzz_defense(defense: str, *, cases: int = 20, seed: int = 0,
                 scheduler: str = "cfs", bug: Optional[str] = None,
                 n_cpus: int = 2,
                 max_tasks: int = 6) -> List[DefenseCaseOutcome]:
    """Small defense-oracle fuzz campaign (serial, deterministic)."""
    from repro.parallel import derive_seed
    from repro.validate.workload import generate_workload

    outcomes = []
    for index in range(cases):
        case_seed = derive_seed(seed, "validate-defense", defense,
                                scheduler, index)
        spec = generate_workload(case_seed, n_cpus=n_cpus,
                                 max_tasks=max_tasks)
        outcomes.append(run_defense_case(spec, scheduler, defense, bug=bug))
    return outcomes
