"""§6 mitigations: configuration knobs *and* active scheduler policies.

Two tiers of defense live here:

**Configuration** (the paper's §6 — policy knobs, not new mechanism):

* :func:`no_wakeup_preemption` — the Linux security team's recommended
  setting; removes Eq 2.2 entirely (responsiveness cost).
* :func:`min_scheduling_interval` — Varadarajan-et-al-style guard: a
  wakeup may only preempt a thread that has run at least this long.
* :func:`aex_notify` — Constable et al.'s SGX co-design: a trusted
  prefetch handler guarantees enclave forward progress per resume.

**Active policies** (PAPERS.md's scheduler-side defenses, modelled as
pluggable :class:`~repro.mitigations.policy.MitigationPolicy` hooks —
see docs/MITIGATIONS.md):

* :class:`~repro.mitigations.leash.LeashPolicy` — windowed
  perf-signal heuristic flags preemption-storm tasks and throttles
  them (vruntime penalty, denied preemption, slice cap).
* :class:`~repro.mitigations.schedguard.SchedGuardPolicy` — per-cgroup
  blocking slots during which the protected task cannot be preempted.
* :class:`~repro.mitigations.prefence.PreFencePolicy` — prefetcher
  disable across context switches, wired to the prefetcher model.

:func:`repro.experiments.mitigations.evaluate_mitigations` measures the
knobs and policies with the standard characterization harness, and
:mod:`repro.experiments.defense_grid` runs the full attack × defense ×
scheduler arena.
"""

from repro.kernel.kernel import KernelConfig
from repro.mitigations.leash import LeashPolicy
from repro.mitigations.policy import (
    MITIGATION_POLICIES,
    MitigationPolicy,
    MitigationStack,
    build_stack,
    canonical_mitigation,
    mitigation_name,
    register_policy,
)
from repro.mitigations.prefence import PreFencePolicy
from repro.mitigations.schedguard import SchedGuardPolicy
from repro.sched.features import SchedFeatures


def no_wakeup_preemption() -> SchedFeatures:
    """Scheduler features with NO_WAKEUP_PREEMPTION set."""
    return SchedFeatures.no_wakeup_preemption()


def min_scheduling_interval(interval_ns: float) -> SchedFeatures:
    """Scheduler features enforcing a minimum interval before wakeup
    preemption may land."""
    return SchedFeatures.min_slice_guard(interval_ns)


def aex_notify(depth: int = 80) -> KernelConfig:
    """Kernel config with the AEX-Notify prefetch handler enabled."""
    return KernelConfig(aex_notify_depth=depth)


_LAZY_EXPERIMENT_EXPORTS = ("MitigationResult", "evaluate_mitigations")


def __getattr__(name: str):
    # Lazy: repro.experiments.mitigations imports this package (for the
    # policy classes), so re-exporting its evaluator eagerly would be a
    # circular import.  PEP 562 defers it to first attribute access.
    if name in _LAZY_EXPERIMENT_EXPORTS:
        from repro.experiments import mitigations as _em
        return getattr(_em, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "MitigationResult",
    "evaluate_mitigations",
    "no_wakeup_preemption",
    "min_scheduling_interval",
    "aex_notify",
    "MitigationPolicy",
    "MitigationStack",
    "MITIGATION_POLICIES",
    "LeashPolicy",
    "SchedGuardPolicy",
    "PreFencePolicy",
    "build_stack",
    "canonical_mitigation",
    "mitigation_name",
    "register_policy",
]
