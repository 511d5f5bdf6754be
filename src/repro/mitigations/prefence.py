"""PreFence: prefetcher disable across context switches.

PreFence observes that hardware prefetchers leak across context
switches — the §5.3 BTB/GCD channel in this repo is exactly that: the
victim's branch targets are pulled into the shared cache by BTB-driven
instruction prefetch, where the attacker times them.  The defense
disables the prefetcher whenever a sensitive task runs, fencing its
prefetch activity at every context switch.

Model: :class:`repro.uarch.cache.MemoryHierarchy` keeps a
``prefetch_disabled`` core set consulted by its ``prefetch`` path.
On every context switch this policy updates the switching core's
membership: disabled while a protected task (by cgroup, falling back
to task name) is in — or, with the default empty ``protect``, for
*every* task, the conservative fence-always configuration.  Demand
accesses are untouched; only hardware-initiated prefetches are fenced,
so the performance cost is the lost prefetch coverage, which the
hierarchy's suppressed-prefetch counter quantifies.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.mitigations.policy import (MitigationPolicy, protected_names,
                                      register_policy)

__all__ = ["PreFencePolicy"]


@register_policy
class PreFencePolicy(MitigationPolicy):
    name = "prefence"
    __wire_canonical__ = {"protect": protected_names}

    def __init__(self, *, protect: Tuple[str, ...] = ()):
        #: Empty = fence every task (prefetch never crosses a switch).
        self.protect = tuple(protected_names(protect))
        self._hierarchy: Any = None
        self.fences = 0
        self.unfences = 0

    def _protected(self, task: Any) -> bool:
        if not self.protect:
            return True
        group = getattr(task, "cgroup", "") or task.name
        return group in self.protect

    # -- hooks ---------------------------------------------------------
    def on_attach(self, kernel: Any) -> None:
        self._hierarchy = kernel.machine.hierarchy
        if not self.protect:
            # Fence-always: no window between attach and first switch.
            for core in range(kernel.machine.n_cores):
                self._hierarchy.prefetch_disabled.add(core)
                self.fences += 1

    def on_context_switch(self, cpu: int, prev: Any, nxt: Any,
                          now: float) -> None:
        if self._hierarchy is None:
            return
        disabled = self._hierarchy.prefetch_disabled
        if nxt is not None and self._protected(nxt):
            if cpu not in disabled:
                disabled.add(cpu)
                self.fences += 1
        elif cpu in disabled:
            disabled.discard(cpu)
            self.unfences += 1

    def snapshot(self) -> Dict[str, Any]:
        hier = self._hierarchy
        return {
            "fences": self.fences,
            "unfences": self.unfences,
            "protect": list(self.protect),
            "prefetches_issued": getattr(hier, "prefetches_issued", 0),
            "prefetches_suppressed": getattr(hier, "prefetches_suppressed", 0),
        }
