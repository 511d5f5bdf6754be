"""Kernel façade: syscalls, hrtimers, context switches, dispatch loop.

:class:`repro.kernel.kernel.Kernel` is the orchestrator the attacks run
against.  It owns the simulator, the machine, one runqueue per logical
CPU, a scheduling policy (CFS or EEVDF), the hrtimer list and the cost
model, and it executes thread bodies the way Linux executes threads:
pick → context-switch (with cost) → run until the next interrupt or
block → account vruntime → repeat.
"""

from repro.kernel.actions import (
    Compute,
    ExecInsts,
    Exit,
    Flushes,
    GetTime,
    Loads,
    Nanosleep,
    Pause,
    SetTimerSlack,
    TimedLoads,
    TimerCreate,
)
from repro.kernel.costs import CostModel
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.threads import ComputeBody, CoroutineBody, ProgramBody
from repro.kernel.tracing import KernelTracer

__all__ = [
    "Compute",
    "ExecInsts",
    "Exit",
    "Flushes",
    "GetTime",
    "Loads",
    "Nanosleep",
    "Pause",
    "SetTimerSlack",
    "TimedLoads",
    "TimerCreate",
    "CostModel",
    "Kernel",
    "KernelConfig",
    "ComputeBody",
    "CoroutineBody",
    "ProgramBody",
    "KernelTracer",
]
