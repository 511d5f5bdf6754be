"""Actions a coroutine thread body can yield to the kernel.

Attacker code in this reproduction is written as a Python generator
that yields one :class:`Action` per logical step or per batch — a
userspace instruction sequence (a :class:`Batch` of loads, flushes,
rdtsc-timed loads or synthetic instructions; ALU work; a clock read)
or a syscall (nanosleep, pause, prctl, timer setup).  The kernel
executes the action against the machine state, charges its cost to the
simulated clock, and ``send``s the result back into the generator.
This keeps attack code readable top-to-bottom, exactly like the C it
models, while the simulator stays event-driven underneath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple


class Action:
    """Marker base class for everything a body may yield."""


# ----------------------------------------------------------------------
# Userspace work (executed inline, costs charged to the running task)
# ----------------------------------------------------------------------
@dataclass
class Compute(Action):
    """Burn ``ns`` of CPU time (serialized ALU work, loop overhead)."""

    ns: float


@dataclass
class Batch(Action):
    """One userspace operation over every element of ``items``.

    The receivers' probe loops (reload every monitored line, walk an
    eviction set, fetch from each congruent page) are tight userspace
    loops with no kernel entry between elements.  The body runs the
    elements in one loop and sends back one list of per-element
    results.  Interrupts are still taken at element boundaries: a
    window that ends inside a batch resumes it at the next element.

    ``walk`` belongs to the kernel: a load batch keeps there the walk
    (see :class:`repro.uarch.cache.LoadWalker`) and an ``ExecInsts``
    batch the fetch walk (see :meth:`repro.cpu.core.Core.fetch_walk`)
    resolved for the CPU, kernel and address space it last ran on, and
    a flush batch the flush walk (see
    :meth:`repro.uarch.cache.MemoryHierarchy.flush_walk`) resolved for
    the machine it last ran on, so a batch yielded again there skips
    the set lookups, and a one-shot batch drops its walk with itself.
    It is not an argument and takes no part in ``repr`` or comparison.
    """

    items: Tuple[Any, ...]
    walk: Any = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.items = tuple(self.items)


class Loads(Batch):
    """Data loads of the addresses in ``items``; each result is the
    access latency in cycles."""


class TimedLoads(Batch):
    """rdtscp-fenced timed loads; each result is the *measured* latency
    in cycles (true latency + timer overhead + measurement jitter)."""


class Flushes(Batch):
    """clflush of each address: evict its line from the whole hierarchy
    (results are None)."""


class ExecInsts(Batch):
    """Execute synthetic instructions in the attacker's own address
    space (BTB gadget priming/probing, iTLB eviction-set fetches).
    Each result is the instruction's cost in ns.  The instructions are
    fetches and control transfers only: the attacker's loads are
    ``Loads``/``TimedLoads``, and a LOAD or STORE here raises
    TypeError when the batch runs."""


@dataclass
class GetTime(Action):
    """Read the clock (rdtsc); result is current time in ns."""


# ----------------------------------------------------------------------
# Syscalls (block or reconfigure; kernel handles at the yield point)
# ----------------------------------------------------------------------
@dataclass
class Nanosleep(Action):
    """Block for ``ns`` nanoseconds (one-shot hrtimer; Method 1)."""

    ns: float


@dataclass
class Pause(Action):
    """Block until a signal (timer expiry) wakes the task (Method 2)."""


@dataclass
class SetTimerSlack(Action):
    """prctl(PR_SET_TIMERSLACK, ns) — unprivileged."""

    ns: float


@dataclass
class TimerCreate(Action):
    """timer_create + timer_settime: a periodic timer firing every
    ``interval_ns`` starting ``first_after_ns`` from now, delivering a
    signal that wakes the task from Pause (Method 2)."""

    interval_ns: float
    first_after_ns: Optional[float] = None


@dataclass
class TimerCancel(Action):
    """Disarm this task's periodic timer."""


@dataclass
class SignalTask(Action):
    """Send a wake-up signal to another task (kill/tgkill): if the
    target is blocked in Pause, it wakes through the normal Scenario 2
    path (placement + preemption check).  No result."""

    target_pid: int


@dataclass
class Exit(Action):
    """Terminate the task."""


#: Result type sent back into generators (latency, timestamp, or None).
ActionResult = Any
