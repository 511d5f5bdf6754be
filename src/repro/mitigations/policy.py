"""Pluggable scheduler-side mitigation policies.

The §6 mitigations shipped as *configuration* (feature flags, kernel
knobs).  The defenses PAPERS.md names — LEASH, SchedGuard, PreFence —
are *active policies*: they watch the schedule and intervene.  This
module gives them a common shape:

* :class:`MitigationPolicy` — the hook protocol.  The kernel consults
  an installed policy at exactly three points:

  - **preemption decision** (:meth:`~MitigationPolicy.filter_wakeup_preempt`
    / :meth:`~MitigationPolicy.filter_tick_preempt`): after the
    scheduling policy (Eq 2.2 / tick) has decided, the mitigation may
    veto or force the preemption;
  - **context switch** (:meth:`~MitigationPolicy.on_context_switch`):
    observed as the switch begins, before the next task runs;
  - **tick** (:meth:`~MitigationPolicy.on_tick`): the periodic
    scheduler tick, for windowed bookkeeping.

* :class:`MitigationStack` — an ordered composition.  Filters chain
  (each policy sees the previous decision), observers fan out.

* a registry + :func:`build_stack` / :func:`canonical_mitigation`, so a
  defense travels the experiment wire as plain JSON
  (``{"policy": "leash", "window_ns": 1e6, ...}``) and equal spellings
  canonicalize to one cell-cache key.  A policy's kwargs normalize
  through the wire's own rules
  (:func:`repro.experiments.wire.normalize_params` over the policy
  class), so the spec is the one record of a defense; a live policy
  is never turned back into one.

Policies are deliberately kernel-agnostic: the kernel only calls the
hooks when a stack is installed, so the default (no mitigations) path
is bit-identical to a kernel without this module.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

# Bound under its own name: ``bench/layers.py`` counts the calls made
# through the name ``normalize_params`` as cells entering the harness
# (its ``wire`` layer), while a policy's kwargs are canonicalized
# inside a cell, as part of the experiment.
from repro.experiments.wire import normalize_params as _normalize_kwargs

__all__ = [
    "MitigationPolicy",
    "MitigationStack",
    "MITIGATION_POLICIES",
    "register_policy",
    "build_stack",
    "canonical_mitigation",
    "mitigation_name",
    "protected_names",
]


class MitigationPolicy:
    """Base class / protocol for scheduler-side defenses.

    Subclasses override the hooks they need; every hook defaults to a
    no-op that preserves the scheduler's decision.  ``rq``/``curr``/
    ``wakee`` are live kernel objects (:class:`repro.sched.runqueue.
    RunQueue`, :class:`repro.sched.task.Task`); ``now`` is simulated
    nanoseconds.
    """

    #: Registry name; subclasses must override.
    name: str = "mitigation"

    def on_attach(self, kernel: Any) -> None:
        """Called once when the kernel installs the policy."""

    def filter_wakeup_preempt(self, rq: Any, curr: Any, wakee: Any,
                              decision: bool, now: float) -> bool:
        """Veto/confirm a wakeup-preemption decision (Eq 2.2 already
        ran; ``decision`` is the scheduler's verdict)."""
        return decision

    def filter_tick_preempt(self, rq: Any, curr: Any,
                            decision: bool, now: float) -> bool:
        """Veto/force a tick-preemption decision."""
        return decision

    def on_context_switch(self, cpu: int, prev: Any, nxt: Any,
                          now: float) -> None:
        """A context switch to ``nxt`` is beginning on ``cpu``."""

    def on_tick(self, rq: Any, curr: Any, now: float) -> None:
        """Periodic scheduler tick on ``rq``'s CPU."""

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe counters/state for reporting."""
        return {}


class MitigationStack:
    """Ordered composition of mitigation policies.

    Decision filters chain in order — each policy receives the decision
    the previous one produced — and observation hooks fan out to every
    policy.  An empty stack is not built (:func:`build_stack` returns
    ``None``) so the kernel's fast path stays a single ``is None``
    check.
    """

    __slots__ = ("policies",)

    def __init__(self, policies: Iterable[MitigationPolicy]):
        self.policies: List[MitigationPolicy] = list(policies)

    def __iter__(self):
        return iter(self.policies)

    def __len__(self) -> int:
        return len(self.policies)

    def on_attach(self, kernel: Any) -> None:
        for policy in self.policies:
            policy.on_attach(kernel)

    def filter_wakeup_preempt(self, rq: Any, curr: Any, wakee: Any,
                              decision: bool, now: float) -> bool:
        for policy in self.policies:
            decision = policy.filter_wakeup_preempt(rq, curr, wakee,
                                                    decision, now)
        return decision

    def filter_tick_preempt(self, rq: Any, curr: Any,
                            decision: bool, now: float) -> bool:
        for policy in self.policies:
            decision = policy.filter_tick_preempt(rq, curr, decision, now)
        return decision

    def on_context_switch(self, cpu: int, prev: Any, nxt: Any,
                          now: float) -> None:
        for policy in self.policies:
            policy.on_context_switch(cpu, prev, nxt, now)

    def on_tick(self, rq: Any, curr: Any, now: float) -> None:
        for policy in self.policies:
            policy.on_tick(rq, curr, now)

    def snapshot(self) -> Dict[str, Any]:
        return {policy.name: policy.snapshot() for policy in self.policies}


#: Registry of policy names → classes.  Concrete policies register at
#: import time (see :mod:`repro.mitigations.leash` et al.).
MITIGATION_POLICIES: Dict[str, type] = {}


def register_policy(cls: type) -> type:
    """Class decorator adding a policy class to the registry."""
    name = getattr(cls, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError(f"{cls!r} has no registry name")
    MITIGATION_POLICIES[name] = cls
    return cls


MitigationSpec = Union[None, str, Mapping[str, Any]]


def protected_names(protect: Iterable[Any]) -> List[str]:
    """A ``protect`` collection's canonical form: its names as strings,
    sorted and deduplicated, so ``["b", "a", "a"]`` and ``("a", "b")``
    key and behave identically.  SchedGuard and PreFence canonicalize
    their spec with it and build their ``protect`` tuple from it.  A
    bare string, which would protect each of its characters, is
    rejected as an unknown kwarg is."""
    if isinstance(protect, (str, bytes)):
        raise TypeError(f"protect must be a list of task names, not the "
                        f"string {protect!r} (write [{protect!r}])")
    return sorted({str(name) for name in protect})


def canonical_mitigation(spec: MitigationSpec) -> Optional[Dict[str, Any]]:
    """The canonical, JSON-safe form of a mitigation spec.

    ``None``/``"none"``/``"off"``/``"baseline"`` (also as
    ``{"policy": name}``) → ``None``, so a defense-off cell can never
    share a key with any defense-on cell; a policy name or a
    ``{"policy": name, **kwargs}`` dict → ``{"policy": name,
    **kwargs}`` with the kwargs normalized against the policy class by
    :func:`repro.experiments.wire.normalize_params` (defaults filled,
    ints coerced where the default is a float, unknown names rejected,
    the class's ``__wire_canonical__`` applied), so equal spellings
    dedupe to one cache key.
    """
    if spec is None:
        return None
    if isinstance(spec, str):
        name, kwargs = spec, {}
    elif isinstance(spec, Mapping):
        kwargs = dict(spec)
        name = kwargs.pop("policy", None)
        if not isinstance(name, str) or not name:
            raise ValueError(
                f"mitigation spec {spec!r} is missing its 'policy' name"
            )
    else:
        raise TypeError(
            f"mitigation spec must be None, a name or a dict; "
            f"got {type(spec).__name__}"
        )
    if name in ("none", "off", "baseline"):
        if kwargs:
            raise ValueError(f"no-defense spec {name!r} takes no kwargs")
        return None
    cls = MITIGATION_POLICIES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown mitigation policy {name!r}; "
            f"known: {sorted(MITIGATION_POLICIES)}"
        )
    return {"policy": name, **_normalize_kwargs(cls, kwargs)}


def build_stack(
    spec: Union[MitigationSpec, MitigationStack],
) -> Optional[MitigationStack]:
    """Build a one-policy :class:`MitigationStack` from a spec (or
    ``None`` for no defense).

    Accepts ``None``, a policy name, a spec dict, or an existing stack
    (passed through).  An empty result is ``None`` so the kernel keeps
    its zero-cost default path.
    """
    if isinstance(spec, MitigationStack):
        return spec if len(spec) else None
    canonical = canonical_mitigation(spec)
    if canonical is None:
        return None
    kwargs = dict(canonical)
    cls = MITIGATION_POLICIES[kwargs.pop("policy")]
    return MitigationStack([cls(**kwargs)])


def mitigation_name(spec: MitigationSpec) -> str:
    """Short display name for a spec (``"none"`` for no defense)."""
    canonical = canonical_mitigation(spec)
    if canonical is None:
        return "none"
    return str(canonical["policy"])
