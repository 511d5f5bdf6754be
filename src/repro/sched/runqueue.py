"""Per-CPU runqueue.

Holds the runnable-but-not-running tasks plus the currently running one,
and maintains the aggregates both policies need: CFS's monotonic
``min_vruntime`` and EEVDF's load-weighted average vruntime.

The queue is small in every experiment (a handful of tasks), so a plain
list with linear scans is clearer and plenty fast; the policy modules
select via explicit key functions rather than a heap.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.sched.task import Task, TaskState


class RunQueue:
    """Runnable tasks of one logical CPU."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.queued: List[Task] = []  # runnable, excluding `current`
        self.current: Optional[Task] = None
        self.min_vruntime: float = 0.0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add(self, task: Task) -> None:
        if task in self.queued:
            raise ValueError(f"{task} already queued on cpu{self.cpu}")
        task.cpu = self.cpu
        task.state = TaskState.RUNNABLE
        self.queued.append(task)

    def remove(self, task: Task) -> None:
        self.queued.remove(task)

    def all_tasks(self) -> Iterable[Task]:
        """Queued tasks plus the current one (if any)."""
        if self.current is not None:
            yield self.current
        yield from self.queued

    @property
    def nr_running(self) -> int:
        return len(self.queued) + (1 if self.current is not None else 0)

    @property
    def load(self) -> int:
        """Total load weight of runnable tasks (load-balancing metric)."""
        return sum(t.weight for t in self.all_tasks())

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def update_min_vruntime(self) -> None:
        """CFS: min_vruntime tracks the smallest runnable vruntime but
        never decreases (kernel semantics)."""
        # Charge-path hot spot: scan without materializing a list.
        current = self.current
        smallest = current.vruntime if current is not None else None
        for t in self.queued:
            v = t.vruntime
            if smallest is None or v < smallest:
                smallest = v
        if smallest is not None and smallest > self.min_vruntime:
            self.min_vruntime = smallest

    def avg_vruntime(self) -> float:
        """EEVDF: load-weighted average vruntime over runnable tasks."""
        tasks = (self.queued if self.current is None
                 else [self.current, *self.queued])
        if not tasks:
            return self.min_vruntime
        # Left to right on purpose: from 3.12 on, ``sum()`` adds floats
        # with compensated summation, which would make the EEVDF
        # schedule depend on the Python version (int weights add exactly).
        total_weight = 0
        weighted = 0.0
        for t in tasks:
            weight = t.weight
            total_weight += weight
            weighted += t.vruntime * weight
        return weighted / total_weight

    def leftmost(self) -> Optional[Task]:
        """Queued task with the smallest vruntime (stable tie-break)."""
        if not self.queued:
            return None
        return min(self.queued, key=lambda t: (t.vruntime, t.pid))

    def __repr__(self) -> str:
        cur = self.current.name if self.current else None
        return (
            f"RunQueue(cpu={self.cpu}, current={cur!r}, "
            f"queued={[t.name for t in self.queued]})"
        )
