"""Common interface both scheduling policies implement.

The kernel calls into the policy at exactly the points real Linux does:

* ``charge``          — account executed time to the current task
                        (``update_curr``).
* ``place_waking``    — assign a vruntime to a task leaving the
                        waitqueue (Scenario 2 placement).
* ``wants_wakeup_preempt`` — should the waking task preempt the current
                        one right now?  (Eq 2.2 / EEVDF pick.)
* ``tick_preempt``    — periodic-tick check on the current task
                        (Scenario 1).
* ``pick_next``       — choose the next task from the runqueue.
* ``on_dequeue_sleep``— bookkeeping when a task blocks (Scenario 3).
* ``migrate``         — renormalize a task's timebase when the load
                        balancer moves it between runqueues
                        (``migrate_task_rq_fair``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from repro.sched.features import SchedFeatures
from repro.sched.params import SchedParams
from repro.sched.runqueue import RunQueue
from repro.sched.task import (MAX_NICE, MIN_NICE, NICE_0_LOAD,
                              SCHED_PRIO_TO_WEIGHT, Task, nice_to_weight)


class SchedPolicy(ABC):
    """One scheduling policy (CFS or EEVDF)."""

    name: str = "base"

    def __init__(self, params: SchedParams, features: Optional[SchedFeatures] = None):
        self.params = params
        self.features = features or SchedFeatures.default()

    def charge(self, rq: RunQueue, task: Task, exec_ns: float) -> None:
        """Account ``exec_ns`` of CPU time to ``task`` (update_curr)."""
        if exec_ns < 0:
            raise ValueError(f"negative exec time {exec_ns}")
        # Task.vruntime_delta inlined (nice_to_weight raises out of range).
        nice = task.nice
        weight = (SCHED_PRIO_TO_WEIGHT[nice - MIN_NICE]
                  if MIN_NICE <= nice <= MAX_NICE else nice_to_weight(nice))
        task.vruntime += exec_ns * NICE_0_LOAD / weight
        task.sum_exec_runtime += exec_ns
        task.slice_exec += exec_ns
        rq.update_min_vruntime()

    @abstractmethod
    def place_waking(self, rq: RunQueue, task: Task) -> None:
        """Set the vruntime of a task entering the runqueue from sleep."""

    @abstractmethod
    def place_initial(self, rq: RunQueue, task: Task) -> None:
        """Set the vruntime of a newly forked task."""

    @abstractmethod
    def wants_wakeup_preempt(self, rq: RunQueue, curr: Task, wakee: Task) -> bool:
        """True if ``wakee`` should immediately preempt ``curr``."""

    @abstractmethod
    def tick_preempt(self, rq: RunQueue, curr: Task) -> bool:
        """True if the tick should deschedule ``curr`` (Scenario 1)."""

    @abstractmethod
    def pick_next(self, rq: RunQueue) -> Optional[Task]:
        """Choose the next queued task (does not dequeue it)."""

    def on_dequeue_sleep(self, rq: RunQueue, task: Task) -> None:
        """Bookkeeping when ``task`` blocks; default records the
        vruntime it slept at (right-hand argument of Eq 2.1)."""
        task.last_sleep_vruntime = task.vruntime

    def migrate(self, src_rq: RunQueue, dst_rq: RunQueue, task: Task) -> None:
        """Renormalize ``task``'s virtual timebase for a cross-CPU move.

        Each runqueue's vruntime clock is private, so an absolute
        vruntime is meaningless on another CPU; what must be preserved
        is the task's *relative* position.  The default implements the
        CFS rule (``migrate_task_rq_fair``): express the vruntime as a
        delta against the source's ``min_vruntime`` and rebase it onto
        the destination's.  Called with the task detached from both
        runqueues.  All of the task's timebase-relative state shifts by
        the same amount so Eq 2.1's sleep clamp stays meaningful.
        """
        delta = dst_rq.min_vruntime - src_rq.min_vruntime
        task.vruntime += delta
        task.last_sleep_vruntime += delta
        task.deadline += delta
