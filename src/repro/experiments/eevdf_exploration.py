"""EEVDF exploration (the paper's §4.5 future work).

The paper characterizes EEVDF just enough to show transferability and
leaves "an in-depth exploration … as a future work".  One EEVDF-specific
attacker knob worth exploring: unlike the CFS, EEVDF lets an
*unprivileged* task change its own request size (``sched_setattr``'s
slice).  A smaller slice means an earlier virtual deadline — more
aggressive scheduling — but also a smaller wake-up placement deficit,
i.e. a smaller preemption budget.

This experiment sweeps the attacker's slice request and measures the
repeated-preemption count.  The finding (beyond the paper): the budget
grows linearly with the requested slice **only up to the victim's own
slice**, then saturates — wakeup preemption needs the attacker's
deadline (vruntime + slice) to beat the victim's, so a large slice
stops helping once the deadline gate, not eligibility, binds.  The
default base slice is therefore already near-optimal for the attack,
and shrinking it for scheduling latency costs budget one-for-one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.primitive import ControlledPreemption, PreemptionConfig
from repro.cpu.program import StraightlineProgram
from repro.experiments.setup import build_env
from repro.kernel.threads import ProgramBody
from repro.parallel import starmap_kwargs
from repro.sched.task import Task

MS = 1_000_000


@dataclass
class SliceSweepPoint:
    slice_ns: float
    preemptions: int
    budget_model: float  # slice / drift


def _slice_cell(
    *, slice_ms: float, extra_compute_ns: float, seed: int
) -> SliceSweepPoint:
    """One (slice request → preemption count) measurement."""
    env = build_env("eevdf", n_cores=1, seed=seed)
    victim = Task("victim", body=ProgramBody(StraightlineProgram()))
    attacker = ControlledPreemption(
        PreemptionConfig(
            nap_ns=900.0,
            rounds=20_000,
            hibernate_ns=5e9,
            extra_compute_ns=extra_compute_ns,
            stop_on_exhaustion=True,
        )
    )
    attacker.task.slice = slice_ms * MS  # sched_setattr request
    env.kernel.spawn(victim, cpu=0)
    attacker.launch(env.kernel, 0)
    attacker.run(env.kernel, max_time=60e9)
    count = env.tracer.consecutive_preemptions(victim.pid, attacker.task.pid)
    drift = extra_compute_ns  # Iv ≈ 0 for the straightline victim
    return SliceSweepPoint(
        slice_ns=slice_ms * MS,
        preemptions=count,
        budget_model=slice_ms * MS / drift,
    )


def run_slice_sweep(
    *,
    slice_values_ms: Sequence[float] = (0.75, 1.5, 3.0, 6.0),
    extra_compute_ns: float = 15_000.0,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> List[SliceSweepPoint]:
    """Repeated preemptions vs the attacker's EEVDF slice request."""
    return starmap_kwargs(
        _slice_cell,
        [
            dict(slice_ms=slice_ms, extra_compute_ns=extra_compute_ns, seed=seed)
            for slice_ms in slice_values_ms
        ],
        jobs=jobs,
    )


def budget_grows_then_saturates(
    points: Sequence[SliceSweepPoint], victim_slice_ns: float = 3 * MS
) -> bool:
    """The finding: counts grow with the requested slice below the
    victim's slice and plateau above it (deadline gating)."""
    ordered = sorted(points, key=lambda p: p.slice_ns)
    below = [p for p in ordered if p.slice_ns <= victim_slice_ns]
    above = [p for p in ordered if p.slice_ns >= victim_slice_ns]
    growing = all(
        a.preemptions < b.preemptions for a, b in zip(below, below[1:])
    )
    flat = all(
        abs(a.preemptions - b.preemptions) <= 0.15 * max(a.preemptions, 1)
        for a, b in zip(above, above[1:])
    )
    return growing and flat
