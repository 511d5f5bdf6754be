"""Fuzzing harness: run randomized workloads under invariant oracles.

``run_case`` executes one :class:`~repro.validate.workload.WorkloadSpec`
under one scheduling policy with every oracle armed (the
:class:`~repro.validate.invariants.PolicyProbe` on the policy, the
:class:`~repro.validate.invariants.StepProbe` on the event loop, the
post-hoc trace checks afterwards) and returns a :class:`CaseOutcome`
whose ``digest`` captures the full schedule bit-exactly.

``run_validate`` is the CLI entry point (``python -m repro validate``):
it fans ``--cases`` independent cases out over :mod:`repro.parallel`
(derived seeds, so parallel == serial bit-for-bit), shrinks any failing
case to a minimal reproducer, and emits the reproducer as a replayable
run manifest (``python -m repro replay <file>``).

``--inject-bug`` plants a known scheduler bug (e.g. dropping the Eq 2.2
S_preempt threshold) to demonstrate — and in tests, to *prove* — that
the oracles catch it and the shrinker converges.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.cpu.machine import Machine, MachineConfig
from repro.kernel.kernel import Kernel
from repro.kernel.tracing import KernelTracer
from repro.parallel import derive_seed, parallel_map
from repro.sched.cfs import CfsScheduler
from repro.sched.eevdf import EevdfScheduler
from repro.sched.features import SchedFeatures
from repro.sched.params import SchedParams
from repro.sim.rng import RngStreams
from repro.validate.invariants import (
    InvariantMonitor,
    PolicyProbe,
    StepProbe,
    check_migrations,
    check_no_lost_wakeups,
    check_runtime_conservation,
    check_switch_stream,
    check_vruntime_monotonic,
)
from repro.validate.uarch import (
    UarchProbe,
    inject_llc_leak,
    run_fastforward_case,
    run_uarch_case,
)
from repro.validate.workload import WorkloadSpec, generate_workload, spawn_tasks

#: Scheduler params come from the paper's 16-core testbed, like every
#: experiment in this repo (see repro.experiments.setup).
PARAMS_CORE_COUNT = 16

SCHEDULERS = ("cfs", "eevdf")


# ----------------------------------------------------------------------
# Deliberate bugs (for oracle validation and the --inject-bug demo)
# ----------------------------------------------------------------------
class _CfsSkipSlack(CfsScheduler):
    """Eq 2.2 without the S_preempt threshold: any positive lag preempts."""

    def wants_wakeup_preempt(self, rq, curr, wakee):
        if not self.features.wakeup_preemption:
            return False
        if (self.features.wakeup_min_slice_ns > 0
                and curr.slice_exec < self.features.wakeup_min_slice_ns):
            return False
        return curr.vruntime - wakee.vruntime > 0.0


class _EevdfSkipEligibility(EevdfScheduler):
    """EEVDF wakeup preemption without the eligibility gate."""

    def wants_wakeup_preempt(self, rq, curr, wakee):
        if not self.features.wakeup_preemption:
            return False
        if (self.features.wakeup_min_slice_ns > 0
                and curr.slice_exec < self.features.wakeup_min_slice_ns):
            return False
        if self.features.run_to_parity and curr.vruntime < curr.deadline:
            return False
        return wakee.deadline < curr.deadline


class _MinVruntimeClampBug:
    """update_min_vruntime without the kernel's monotonic clamp."""

    def charge(self, rq, task, exec_ns):
        super().charge(rq, task, exec_ns)
        candidates = [t.vruntime for t in rq.all_tasks()]
        if candidates:
            rq.min_vruntime = min(candidates)


class _CfsMinVruntimeRegress(_MinVruntimeClampBug, CfsScheduler):
    pass


class _EevdfMinVruntimeRegress(_MinVruntimeClampBug, EevdfScheduler):
    pass


class _CfsGreedyPick(CfsScheduler):
    """pick_next chooses the *largest* vruntime (inverted comparator)."""

    def pick_next(self, rq):
        if not rq.queued:
            return None
        return max(rq.queued, key=lambda t: (t.vruntime, t.pid))


class _EevdfGreedyPick(EevdfScheduler):
    """pick_next ignores eligibility (earliest deadline overall)."""

    def pick_next(self, rq):
        if not rq.queued:
            return None
        return min(rq.queued, key=lambda t: (t.deadline, t.vruntime, t.pid))


_BUGGY_POLICIES = {
    ("skip-eq22-slack", "cfs"): _CfsSkipSlack,
    ("skip-eq22-slack", "eevdf"): _EevdfSkipEligibility,
    ("min-vruntime-regress", "cfs"): _CfsMinVruntimeRegress,
    ("min-vruntime-regress", "eevdf"): _EevdfMinVruntimeRegress,
    ("greedy-pick", "cfs"): _CfsGreedyPick,
    ("greedy-pick", "eevdf"): _EevdfGreedyPick,
}

#: Bugs planted below the policy layer (kernel / balancer / memory
#: hierarchy), applied to the constructed kernel rather than the policy
#: class.
_KERNEL_BUGS: Tuple[str, ...] = (
    "skip-migration-renorm",  # balancer moves tasks with absolute vruntime
    "inclusive-llc-leak",     # LLC evictions stop back-invalidating
    "lost-kick",              # no _kick arms a dispatch
)

#: Public names accepted by ``--inject-bug``.
BUG_NAMES: Tuple[str, ...] = tuple(sorted(
    {k[0] for k in _BUGGY_POLICIES} | set(_KERNEL_BUGS)))


def make_validate_policy(scheduler: str, features: Optional[Dict[str, Any]],
                         bug: Optional[str] = None):
    """Build the (optionally sabotaged) policy for one case run."""
    params = SchedParams.for_cores(PARAMS_CORE_COUNT)
    feats = SchedFeatures(**features) if features else SchedFeatures.default()
    if bug is not None and bug not in _KERNEL_BUGS:
        key = (bug, scheduler)
        if key not in _BUGGY_POLICIES:
            raise ValueError(
                f"unknown bug {bug!r} for {scheduler!r}; known: {BUG_NAMES}")
        return _BUGGY_POLICIES[key](params, feats)
    if scheduler == "cfs":
        return CfsScheduler(params, feats)
    if scheduler == "eevdf":
        return EevdfScheduler(params, feats)
    raise ValueError(f"unknown scheduler {scheduler!r}")


# ----------------------------------------------------------------------
# One case
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CaseOutcome:
    """Result of one fuzz case (plain data; repr is the digest input
    for manifest replay, so every field must be deterministic)."""

    seed: int
    scheduler: str
    n_cpus: int
    n_tasks: int
    digest: str
    invariants: Tuple[str, ...]  # names of violated invariants
    violations: Tuple[str, ...]  # rendered Violation strings
    end_time_ns: float
    n_switches: int
    n_wakeups: int
    n_preempt_grants: int
    n_migrations: int
    per_task_runtime: Tuple[Tuple[int, float], ...]

    @property
    def ok(self) -> bool:
        return not self.invariants


#: Sample the (state-proportional) uarch structural probe once per this
#: many event-loop steps, plus once at quiescence.
_UARCH_SAMPLE_EVERY = 32


def run_case(spec: WorkloadSpec, scheduler: str, *,
             bug: Optional[str] = None) -> CaseOutcome:
    """Run one workload under every oracle; return the outcome."""
    if bug is not None and bug not in BUG_NAMES:
        raise ValueError(f"unknown bug {bug!r}; known: {BUG_NAMES}")
    monitor = InvariantMonitor()
    policy = make_validate_policy(scheduler, spec.features, bug)
    probe = PolicyProbe(policy, monitor)
    machine = Machine(MachineConfig(n_cores=spec.n_cpus))
    rng = RngStreams(seed=spec.seed)
    tracer = KernelTracer(sample_vruntime=True)
    kernel = Kernel(machine, probe, rng, tracer=tracer)
    probe.clock = lambda: kernel.sim.now
    if bug == "skip-migration-renorm":
        # The pre-fix balancer: detach/attach with absolute vruntime.
        kernel.balancer.policy = None
    elif bug == "inclusive-llc-leak":
        inject_llc_leak(machine.hierarchy)
    elif bug == "lost-kick":
        kernel._kick = lambda cpu: None
    tasks = spawn_tasks(kernel, spec)
    step_probe = StepProbe(kernel, monitor)
    uarch_probe = UarchProbe(machine, monitor)
    steps = 0

    def predicate() -> bool:
        nonlocal steps
        steps += 1
        if steps % _UARCH_SAMPLE_EVERY == 0:
            uarch_probe.check(kernel.now)
        return step_probe()

    kernel.run_until(predicate=predicate, max_time=spec.horizon_ns)
    step_probe()  # sample once more: the final event isn't followed by a step
    uarch_probe.check(kernel.now)
    heap_drained = kernel.sim.peek_next_time() is None
    end_time = kernel.now

    violations = list(monitor.violations)
    violations += check_vruntime_monotonic(tracer)
    violations += check_switch_stream(tracer)
    violations += check_no_lost_wakeups(tracer, tasks, heap_drained)
    accounted = {c: st.accounted_until for c, st in enumerate(kernel.cpus)}
    violations += check_runtime_conservation(monitor, tasks, accounted,
                                             end_time)
    violations += check_migrations(kernel.balancer.migrations, tracer,
                                   tasks, scheduler)

    grants = sum(1 for w in tracer.wakeups if w.preempted)
    return CaseOutcome(
        seed=spec.seed,
        scheduler=scheduler,
        n_cpus=spec.n_cpus,
        n_tasks=len(spec.tasks),
        digest=_trace_digest(tracer, tasks),
        invariants=tuple(sorted({v.invariant for v in violations})),
        violations=tuple(str(v) for v in violations),
        end_time_ns=end_time,
        n_switches=len(tracer.switches),
        n_wakeups=len(tracer.wakeups),
        n_preempt_grants=grants,
        n_migrations=len(kernel.balancer.migrations),
        per_task_runtime=tuple(
            (t.pid, t.sum_exec_runtime) for t in tasks),
    )


def _trace_digest(tracer: KernelTracer, tasks) -> str:
    """Bit-exact digest of the schedule: every switch, wakeup and
    migration record plus each task's final accounting state."""
    h = hashlib.sha256()
    for rec in tracer.switches:
        h.update(repr(rec).encode())
    for rec in tracer.wakeups:
        h.update(repr(rec).encode())
    for rec in tracer.migrations:
        h.update(repr(rec).encode())
    for task in tasks:
        h.update(
            f"{task.pid}|{task.vruntime!r}|{task.sum_exec_runtime!r}|"
            f"{task.state.value}|{task.wakeups}|{task.migrations}".encode()
        )
    return h.hexdigest()


def replay_case(case: Dict[str, Any], scheduler: str,
                bug: Optional[str] = None) -> CaseOutcome:
    """Manifest-replay entry point: re-run an emitted reproducer.

    ``case`` is a :meth:`WorkloadSpec.to_dict` dictionary, exactly as a
    shrunken reproducer manifest records it.
    """
    return run_case(WorkloadSpec.from_dict(case), scheduler, bug=bug)


# ----------------------------------------------------------------------
# The fuzz campaign
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FailureSummary:
    scheduler: str
    case_seed: int
    invariants: Tuple[str, ...]
    shrunk_tasks: int
    #: Excluded from repr so the report digest is location-independent.
    reproducer_path: Optional[str] = field(default=None, repr=False,
                                           compare=False)
    #: ``--differential`` divergence lines for this failing seed.
    differential: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ValidateReport:
    """Aggregate result of one ``repro validate`` campaign."""

    cases: int
    schedulers: Tuple[str, ...]
    cpus: int
    seed: int
    bug: Optional[str]
    digest: str
    n_switches: int
    n_wakeups: int
    n_preempt_grants: int
    failures: Tuple[FailureSummary, ...]
    n_migrations: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def run_fuzz_case(case_index: int, root_seed: int, cpus: int,
                  scheduler: str, bug: Optional[str] = None,
                  max_tasks: int = 6,
                  profile: str = "mixed") -> CaseOutcome:
    """One campaign cell (module-level so the pool can pickle it)."""
    case_seed = derive_seed(root_seed, "validate", scheduler, case_index)
    spec = generate_workload(case_seed, n_cpus=cpus, max_tasks=max_tasks,
                             profile=profile)
    return run_case(spec, scheduler, bug=bug)


def _fuzz_cell(cell: Dict[str, Any]) -> CaseOutcome:
    return run_fuzz_case(**cell)


def run_validate(
    cases: int = 100,
    seed: int = 0,
    cpus: int = 2,
    scheduler: str = "both",
    bug: Optional[str] = None,
    *,
    jobs: Optional[int] = None,
    shrink: bool = True,
    out_dir: Optional[str] = None,
    max_tasks: int = 6,
    profile: str = "mixed",
    differential: bool = False,
    uarch_cases: int = 0,
    ff_cases: int = 0,
) -> ValidateReport:
    """Fuzz ``cases`` random workloads per scheduler under all oracles.

    Results are bit-identical for any ``jobs`` (each case derives its
    seed from ``(seed, scheduler, index)``, never from pool order).  On
    a violation the workload is shrunk to a minimal reproducer; with
    ``out_dir`` set, the reproducer is written as a replayable manifest.

    ``profile`` selects the workload family (see
    :func:`~repro.validate.workload.generate_workload`).
    ``differential=True`` additionally re-runs every failing seed across
    the CFS/EEVDF feature grid and attaches the divergence summary to
    its :class:`FailureSummary`.  ``uarch_cases`` appends that many
    scripted cache/TLB differential cases (machine vs brute-force
    reference) to the campaign; ``ff_cases`` appends that many
    fast-forward certification cases (arithmetic fast paths vs the
    per-instruction interpreter on scheduled preemption windows).
    """
    from repro.validate.shrink import emit_reproducer, shrink_workload

    if scheduler == "both":
        schedulers: Tuple[str, ...] = SCHEDULERS
    elif scheduler in SCHEDULERS:
        schedulers = (scheduler,)
    else:
        raise ValueError(f"unknown scheduler {scheduler!r}")
    cells = [
        dict(case_index=i, root_seed=seed, cpus=cpus, scheduler=s,
             bug=bug, max_tasks=max_tasks, profile=profile)
        for s in schedulers for i in range(cases)
    ]
    outcomes = parallel_map(_fuzz_cell, cells, jobs=jobs)

    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(outcome.digest.encode())
    failures: List[FailureSummary] = []
    for outcome in outcomes:
        if outcome.ok:
            continue
        spec = generate_workload(outcome.seed, n_cpus=outcome.n_cpus,
                                 max_tasks=max_tasks, profile=profile)
        target = set(outcome.invariants)
        diff_lines: Tuple[str, ...] = ()
        if differential:
            from repro.validate.differential import run_differential

            diff_report = run_differential(spec=spec, bug=bug)
            diff_lines = diff_report.divergence + tuple(
                f"{r.scheduler}/{r.variant}: "
                f"{','.join(r.outcome.invariants) or 'ok'}"
                for r in diff_report.results if not r.outcome.ok)
        if shrink:
            def still_fails(candidate: WorkloadSpec) -> bool:
                result = run_case(candidate, outcome.scheduler, bug=bug)
                return bool(target & set(result.invariants))

            spec = shrink_workload(spec, still_fails)
        path = None
        if out_dir is not None:
            path = emit_reproducer(spec, outcome.scheduler, bug, out_dir)
        failures.append(FailureSummary(
            scheduler=outcome.scheduler,
            case_seed=outcome.seed,
            invariants=outcome.invariants,
            shrunk_tasks=len(spec.tasks),
            reproducer_path=path,
            differential=diff_lines,
        ))
    for i in range(uarch_cases):
        uarch_seed = derive_seed(seed, "validate-uarch", i)
        uarch_violations = run_uarch_case(uarch_seed)
        digest.update(f"uarch:{uarch_seed}:"
                      f"{len(uarch_violations)}".encode())
        if uarch_violations:
            failures.append(FailureSummary(
                scheduler="uarch",
                case_seed=uarch_seed,
                invariants=tuple(sorted(
                    {v.invariant for v in uarch_violations})),
                shrunk_tasks=0,
            ))
    for i in range(ff_cases):
        ff_seed = derive_seed(seed, "validate-ff", i)
        ff_violations = run_fastforward_case(ff_seed)
        digest.update(f"ff:{ff_seed}:{len(ff_violations)}".encode())
        if ff_violations:
            failures.append(FailureSummary(
                scheduler="fast-forward",
                case_seed=ff_seed,
                invariants=tuple(sorted(
                    {v.invariant for v in ff_violations})),
                shrunk_tasks=0,
            ))
    return ValidateReport(
        cases=cases,
        schedulers=schedulers,
        cpus=cpus,
        seed=seed,
        bug=bug,
        digest=digest.hexdigest(),
        n_switches=sum(o.n_switches for o in outcomes),
        n_wakeups=sum(o.n_wakeups for o in outcomes),
        n_preempt_grants=sum(o.n_preempt_grants for o in outcomes),
        failures=tuple(failures),
        n_migrations=sum(o.n_migrations for o in outcomes),
    )
