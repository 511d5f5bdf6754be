"""Kernel tracing — the reproduction's eBPF stand-in.

The paper measures its primitive with an eBPF program that records the
victim PC at every schedule-in, and counts preemptions by recording the
(vruntime, PID) of every kernel→userspace transition.  The tracer below
records exactly those events; analysis code consumes the records and
never reaches into kernel internals.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import List, Optional

from repro.obs.ring import RingBuffer

#: Frozen record dataclass; slotted where ``dataclass`` supports it
#: (Python 3.10+), which keeps long record streams small.
_record = (dataclass(frozen=True, slots=True) if sys.version_info >= (3, 10)
           else dataclass(frozen=True))


@_record
class SwitchRecord:
    """One context switch decision."""

    time: float
    cpu: int
    prev_pid: Optional[int]
    next_pid: Optional[int]
    reason: str  # 'block' | 'preempt_wakeup' | 'tick' | 'exit' | 'idle'
    prev_vruntime: float = 0.0
    next_vruntime: float = 0.0


@_record
class ExitToUserRecord:
    """Kernel returned control to userspace for `pid`.

    Emitted both when a task is scheduled in and when an interrupt
    returns to the interrupted task without a switch (the failed-
    preemption case that signals budget exhaustion).  ``pc`` and
    ``retired`` are populated for trace-program tasks — the eBPF
    measurement of §4.3.
    """

    time: float
    cpu: int
    pid: int
    pc: Optional[int] = None
    retired: Optional[int] = None


@_record
class WakeupRecord:
    """A task left the waitqueue (Scenario 2)."""

    time: float
    cpu: int
    pid: int
    placed_vruntime: float
    curr_pid: Optional[int]
    curr_vruntime: float
    preempted: bool


@_record
class MigrationRecord:
    """The load balancer moved a task to another CPU (sched_migrate_task)."""

    time: float
    src_cpu: int
    dst_cpu: int
    pid: int
    vruntime_before: float = 0.0
    vruntime_after: float = 0.0


@_record
class VruntimeSample:
    """Periodic vruntime snapshot (drives Fig 4.6)."""

    time: float
    pid: int
    vruntime: float


class KernelTracer:
    """Collects scheduling events for offline analysis.

    Analysis consumes whole record streams, so they are unbounded.
    Each is a :class:`repro.obs.ring.RingBuffer` rather than a list
    only because ``bench/layers.py`` reads ``switches.dropped``.
    """

    def __init__(self, *, sample_vruntime: bool = False):
        self.switches: RingBuffer = RingBuffer()
        self.exits: RingBuffer = RingBuffer()
        self.wakeups: RingBuffer = RingBuffer()
        self.migrations: RingBuffer = RingBuffer()
        self.vruntime_samples: RingBuffer = RingBuffer()
        self.sample_vruntime = sample_vruntime

    # ------------------------------------------------------------------
    # Recording (called by the kernel)
    # ------------------------------------------------------------------
    def record_switch(self, record: SwitchRecord) -> None:
        self.switches.append(record)

    def record_exit(self, record: ExitToUserRecord) -> None:
        self.exits.append(record)

    def record_wakeup(self, record: WakeupRecord) -> None:
        self.wakeups.append(record)

    def record_migration(self, record: MigrationRecord) -> None:
        self.migrations.append(record)

    def record_vruntime(self, time: float, pid: int, vruntime: float) -> None:
        if self.sample_vruntime:
            self.vruntime_samples.append(VruntimeSample(time, pid, vruntime))

    # ------------------------------------------------------------------
    # Queries (used by analysis and tests)
    # ------------------------------------------------------------------
    def exits_for(self, pid: int) -> List[ExitToUserRecord]:
        return [e for e in self.exits if e.pid == pid]

    def retired_per_preemption(self, victim_pid: int, attacker_pid: int) -> List[int]:
        """Victim instructions retired between consecutive attacker
        interleavings — the paper's temporal-resolution metric.

        Walks the kernel-exit stream; every time the victim regains
        userspace after the attacker ran, the victim's retired-counter
        delta since its previous appearance is one histogram sample.
        """
        samples: List[int] = []
        last_victim_retired: Optional[int] = None
        attacker_ran_since = False
        for record in self.exits:
            if record.pid == attacker_pid:
                attacker_ran_since = True
            elif record.pid == victim_pid and record.retired is not None:
                if last_victim_retired is not None and attacker_ran_since:
                    samples.append(record.retired - last_victim_retired)
                last_victim_retired = record.retired
                attacker_ran_since = False
        return samples

    def consecutive_preemptions(self, victim_pid: int, attacker_pid: int) -> int:
        """Count attacker preemptions until the attacker loses the CPU.

        Implements the paper's stop rule: monitor kernel exits starting
        from the attacker's first appearance and stop at two consecutive
        exits to the victim with no attacker exit in between.
        """
        count = 0
        victim_streak = 0
        started = False
        for record in self.exits:
            if record.pid == attacker_pid:
                started = True
                count += 1
                victim_streak = 0
            elif started and record.pid == victim_pid:
                victim_streak += 1
                if victim_streak >= 2:
                    break
        return count

    def preemption_switches(self, attacker_pid: int) -> List[SwitchRecord]:
        """Switches where the attacker preempted someone via wakeup."""
        return [
            s
            for s in self.switches
            if s.next_pid == attacker_pid and s.reason == "preempt_wakeup"
        ]
