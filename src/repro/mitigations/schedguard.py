"""SchedGuard: per-cgroup blocking preemption slots.

SchedGuard (arxiv 2104.04528) lets a container reserve *blocking
slots*: while a protected task is inside its slot, other tasks cannot
preempt it, denying an attacker the fine-grained interleaving that
container-escape and side-channel attacks need.

Model: every time a task belonging to a protected cgroup is switched
in, a slot of ``slot_ns`` opens.  For as long as the task remains
current inside its slot, both wakeup preemption (Eq 2.2) and tick
preemption of it are denied — the slot is *blocking*, so the victim
always runs at least ``slot_ns`` per scheduling, collapsing the
attacker's preemption resolution from τ-sized slivers to slot-sized
chunks.  Voluntary blocking (the task sleeping on its own) is never
delayed: SchedGuard constrains *preemption*, not the task itself.

Membership is by :attr:`repro.sched.task.Task.cgroup`, falling back to
the task name when no cgroup is set — attack harnesses name their
victim task ``"victim"``, so ``protect=("victim",)`` guards it without
extra plumbing.

Every opened slot is logged as ``(pid, start, end)``; the validate
oracle cross-checks the kernel's switch records against this log to
prove no protected task was ever wakeup-preempted inside a slot.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.mitigations.policy import (MitigationPolicy, protected_names,
                                      register_policy)

__all__ = ["SchedGuardPolicy"]


@register_policy
class SchedGuardPolicy(MitigationPolicy):
    name = "schedguard"
    __wire_canonical__ = {"protect": protected_names}

    def __init__(
        self,
        *,
        slot_ns: float = 500_000.0,
        protect: Tuple[str, ...] = ("victim",),
    ):
        if slot_ns <= 0:
            raise ValueError("slot_ns must be positive")
        self.slot_ns = float(slot_ns)
        self.protect = tuple(protected_names(protect))
        self._slot_until: Dict[int, float] = {}
        #: Every slot ever opened: (pid, start, end).
        self.slot_log: List[Tuple[int, float, float]] = []
        self.slots_opened = 0
        self.wakeup_denials = 0
        self.tick_denials = 0

    def _protected(self, task: Any) -> bool:
        group = getattr(task, "cgroup", "") or task.name
        return group in self.protect

    def _in_slot(self, task: Any, now: float) -> bool:
        until = self._slot_until.get(task.pid)
        return until is not None and now < until

    # -- hooks ---------------------------------------------------------
    def on_context_switch(self, cpu: int, prev: Any, nxt: Any,
                          now: float) -> None:
        if nxt is not None and self._protected(nxt):
            end = now + self.slot_ns
            self._slot_until[nxt.pid] = end
            self.slot_log.append((nxt.pid, now, end))
            self.slots_opened += 1

    def filter_wakeup_preempt(self, rq: Any, curr: Any, wakee: Any,
                              decision: bool, now: float) -> bool:
        if decision and self._protected(curr) and self._in_slot(curr, now):
            self.wakeup_denials += 1
            return False
        return decision

    def filter_tick_preempt(self, rq: Any, curr: Any,
                            decision: bool, now: float) -> bool:
        if decision and self._protected(curr) and self._in_slot(curr, now):
            self.tick_denials += 1
            return False
        return decision

    def snapshot(self) -> Dict[str, Any]:
        return {
            "slots_opened": self.slots_opened,
            "wakeup_denials": self.wakeup_denials,
            "tick_denials": self.tick_denials,
            "protect": list(self.protect),
        }
