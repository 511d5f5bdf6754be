"""Round-robin multi-thread budget extension (§4.3).

A single attacker thread is limited to ⌈budget/(Ia−Iv)⌉ preemptions.
Borrowing the multi-thread idea from prior work — but needing only as
many threads as budget *refills*, not one per preemption — the attacker
launches n well-slept threads A1…An.  A1 preempts until its budget is
nearly spent, then **signals A2 and hibernates**; A2 takes over with a
fresh budget (its long sleep re-arms the Eq 2.1 placement credit), and
so on.  Because each thread sleeps while its siblings work, rotating
through the ring yields an effectively infinite budget.

Two hand-off mechanisms are provided:

* ``handoff="signal"`` (default) — the active thread sends a wake-up
  signal to the next one the moment its own exhaustion is detected
  (the paper's "the attacker wakes up A2").
* ``handoff="timed"`` — each thread's hibernation is pre-sized from the
  budget arithmetic; no inter-thread communication at all (the approach
  of the prior-work espionage networks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.core.primitive import ControlledPreemption, PreemptionConfig, Sample
from repro.kernel.kernel import Kernel


@dataclass
class RoundRobinConfig:
    """Per-thread preemption config plus the rotation plan."""

    base: PreemptionConfig
    n_threads: int
    rounds_per_thread: int
    #: "signal": explicit wake-up hand-off; "timed": pre-sized sleeps.
    handoff: str = "signal"
    #: Estimated wall time one thread spends on its share (timed mode).
    per_thread_ns: Optional[float] = None

    def slot_duration(self) -> float:
        if self.per_thread_ns is not None:
            return self.per_thread_ns
        per_round = self.base.nap_ns + self.base.gap_floor_ns
        return self.rounds_per_thread * per_round


class RoundRobinAttack:
    """n Controlled-Preemption threads rotating through the budget."""

    def __init__(
        self,
        config: RoundRobinConfig,
        *,
        measurer_factory=None,
        degrader: Any = None,
    ):
        self.config = config
        self.attackers: List[ControlledPreemption] = []
        for i in range(config.n_threads):
            thread_cfg = PreemptionConfig(
                nap_ns=config.base.nap_ns,
                rounds=config.rounds_per_thread,
                hibernate_ns=self._hibernate_for(i),
                method=config.base.method,
                timer_slack_ns=config.base.timer_slack_ns,
                extra_compute_ns=config.base.extra_compute_ns,
                gap_factor=config.base.gap_factor,
                gap_floor_ns=config.base.gap_floor_ns,
                stop_on_exhaustion=True,
            )
            measurer = measurer_factory() if measurer_factory else None
            self.attackers.append(ControlledPreemption(
                thread_cfg, measurer=measurer, degrader=degrader,
                name=f"attacker{i}",
            ))
        if config.handoff == "signal":
            # After its hibernation, each thread but the first waits for
            # its predecessor's signal.
            for current, successor in zip(self.attackers,
                                          self.attackers[1:]):
                current.successor_pid = successor.task.pid
                successor.await_signal = True

    def _hibernate_for(self, index: int) -> float:
        if self.config.handoff == "signal":
            return self.config.base.hibernate_ns
        return self.config.base.hibernate_ns + index * self.config.slot_duration()

    def launch(self, kernel: Kernel, cpu: int) -> None:
        for attacker in self.attackers:
            attacker.launch(kernel, cpu)

    @property
    def samples(self) -> List[Sample]:
        """All threads' samples merged in time order."""
        merged: List[Sample] = []
        for attacker in self.attackers:
            merged.extend(attacker.useful_samples)
        merged.sort(key=lambda s: s.time)
        return merged

    @property
    def total_preemptions(self) -> int:
        return sum(len(a.useful_samples) for a in self.attackers)
