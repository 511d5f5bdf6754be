"""Task model and the kernel nice→weight table.

A task's vruntime advances as ``Δτ = Δt · (NICE_0_LOAD / weight)`` —
the paper's increment rate ρ.  The 40-entry weight table is copied from
the kernel's ``sched_prio_to_weight`` so nice-level experiments
(Fig 4.5) use the exact multiplicative steps (~1.25× per nice level)
real CFS uses.
"""

from __future__ import annotations

import enum
import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

NICE_0_LOAD = 1024

#: Kernel sched_prio_to_weight: index 0 is nice -20, index 39 is nice +19.
SCHED_PRIO_TO_WEIGHT = [
    88761, 71755, 56483, 46273, 36291,
    29154, 23254, 18705, 14949, 11916,
    9548, 7620, 6100, 4904, 3906,
    3121, 2501, 1991, 1586, 1277,
    1024, 820, 655, 526, 423,
    335, 272, 215, 172, 137,
    110, 87, 70, 56, 45,
    36, 29, 23, 18, 15,
]

MIN_NICE = -20
MAX_NICE = 19


def nice_to_weight(nice: int) -> int:
    """Load weight for a nice level; nice 0 → 1024."""
    if not MIN_NICE <= nice <= MAX_NICE:
        raise ValueError(f"nice must be in [-20, 19], got {nice}")
    return SCHED_PRIO_TO_WEIGHT[nice + 20]


class TaskState(enum.Enum):
    RUNNING = "running"  # currently on a CPU
    RUNNABLE = "runnable"  # on a runqueue, waiting
    SLEEPING = "sleeping"  # on the waitqueue (blocked)
    EXITED = "exited"


_pid_counter = itertools.count(1000)
#: Per-thread counter installed by :func:`fresh_pids`; while it is set it
#: numbers that thread's tasks instead of ``_pid_counter``.
_pid_scope = threading.local()


def _next_pid() -> int:
    counter = getattr(_pid_scope, "counter", None)
    return next(_pid_counter if counter is None else counter)


@contextmanager
def fresh_pids() -> Iterator[None]:
    """Number the tasks this thread creates inside the block from 1000,
    as a fresh process does.

    Results that record pids (LEASH's flagged pids) then do not depend
    on what ran earlier in the process.  The counter is per thread
    because one process can run several such blocks at once on
    different threads.
    """
    previous = getattr(_pid_scope, "counter", None)
    _pid_scope.counter = itertools.count(1000)
    try:
        yield
    finally:
        _pid_scope.counter = previous


@dataclass
class Task:
    """One schedulable thread.

    ``body`` is the behaviour object the kernel executes when the task
    runs (a :class:`repro.kernel.threads.ThreadBody`); the scheduler
    never looks inside it.  ``vruntime`` is in nanoseconds of weighted
    virtual time; EEVDF additionally uses ``deadline``/``vlag``/``slice``.
    """

    name: str
    body: Any = None
    nice: int = 0
    pid: int = field(default_factory=_next_pid)
    state: TaskState = TaskState.SLEEPING
    cpu: Optional[int] = None  # runqueue the task is on (or ran on last)
    allowed_cpus: Optional[frozenset] = None  # None = any CPU
    enclave: bool = False  # SGX: interrupts cause AEX (TLB flush)

    # CFS / shared accounting
    vruntime: float = 0.0
    sum_exec_runtime: float = 0.0
    last_sleep_vruntime: float = 0.0
    slice_exec: float = 0.0  # exec time since last schedule-in (S_min check)

    # EEVDF
    deadline: float = 0.0
    vlag: float = 0.0
    slice: float = 0.0  # request size (0 = use base_slice)

    # Kernel per-task state
    timer_slack: float = 50_000.0  # prctl(PR_SET_TIMERSLACK), ns
    #: Container/cgroup membership; mitigation policies (SchedGuard,
    #: PreFence) match on it, falling back to the task name when empty.
    cgroup: str = ""

    # Statistics maintained by the kernel
    preemptions_suffered: int = 0
    wakeups: int = 0
    migrations: int = 0

    @property
    def weight(self) -> int:
        return nice_to_weight(self.nice)

    def vruntime_delta(self, exec_ns: float) -> float:
        """Weighted vruntime increment for ``exec_ns`` of CPU time."""
        return exec_ns * NICE_0_LOAD / self.weight

    def can_run_on(self, cpu: int) -> bool:
        return self.allowed_cpus is None or cpu in self.allowed_cpus

    def pin_to(self, cpu: int) -> None:
        """sched_setaffinity to a single CPU."""
        self.allowed_cpus = frozenset({cpu})

    def __hash__(self) -> int:
        return self.pid

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Task) and other.pid == self.pid

    def __repr__(self) -> str:
        return (
            f"Task({self.name!r}, pid={self.pid}, state={self.state.value}, "
            f"cpu={self.cpu}, vruntime={self.vruntime:.0f})"
        )
