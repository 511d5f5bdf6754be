"""The Controlled Preemption attacker (§4.1–§4.3).

:class:`ControlledPreemption` builds a single unprivileged attacker
thread that, once colocated with the victim:

1. shrinks its timer slack to 1 ns (Method 1 only);
2. *hibernates* (sleeps > 2·S_bnd) so its wake-up placement takes the
   left arm of Eq 2.1, a full ``S_slack`` behind the victim;
3. on each wake-up — which preempts the victim via Eq 2.2 — runs the
   side-channel measurement, optionally a performance-degradation step,
   then *naps* for τ, handing the CPU back to the victim for a few
   instructions.

The loop repeats until the preemption budget is spent (detected by a
wake-to-wake gap far exceeding τ), a caller-supplied stop condition
fires, or ``rounds`` is reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional

from repro.kernel import actions as act
from repro.kernel.kernel import Kernel
from repro.kernel.threads import CoroutineBody
from repro.core.wakeup import WakeupMethod
from repro.obs import get_obs
from repro.sched.task import Task, TaskState


@dataclass
class PreemptionConfig:
    """Tuning of one Controlled Preemption run.

    ``nap_ns``           — τ, the nanosleep/timer interval (§4.2).
    ``rounds``           — maximum preemption attempts.
    ``hibernate_ns``     — initial sleep; must exceed 2·S_bnd (48 ms on
                           the evaluated machine); the paper uses 5 s.
    ``extra_compute_ns`` — artificial padding of I_attacker (the
                           serialized cache-miss knob of Fig 4.4).
    ``gap_factor``       — a wake-to-wake gap above
                           ``gap_factor · (nap + round trip)`` marks the
                           budget as exhausted.
    ``stop_on_exhaustion`` — end the attack at that point (else keep
                           attempting; useful for characterization).
    ``seek_tau_ns``      — when set (and a ``seeker`` is attached), run
                           a seek phase first: nap this much per round,
                           probing only the landmark, until the seeker
                           reports the victim is about to enter the
                           sensitive code.  Seek rounds let the victim
                           run far more than the attacker measures, so
                           they do not drain the budget.
    """

    nap_ns: float
    rounds: int = 1000
    hibernate_ns: float = 5e9
    method: WakeupMethod = WakeupMethod.NANOSLEEP
    timer_slack_ns: float = 1.0
    extra_compute_ns: float = 0.0
    gap_factor: float = 4.0
    gap_floor_ns: float = 30_000.0
    stop_on_exhaustion: bool = True
    seek_tau_ns: Optional[float] = None
    max_seek_rounds: int = 4000
    #: One-shot sleep after the seek phase fires — §5.2's "start
    #: preempting when the victim is halfway through" trick, expressed
    #: as victim wall time to let pass unattacked.
    post_seek_delay_ns: float = 0.0


@dataclass
class Sample:
    """One attacker wake-up."""

    index: int
    time: float  # measurement start (ns, simulated)
    gap_ns: float  # time since the previous wake-up
    data: Any = None  # the measurer's result
    budget_exhausted: bool = False


class ControlledPreemption:
    """Single-thread Controlled Preemption attacker.

    ``measurer`` is any object with a ``measure()`` generator method
    (see :mod:`repro.channels`) whose return value becomes the sample
    payload; ``degrader`` any object with a ``degrade()`` generator
    (see :mod:`repro.core.degradation`) run after the measurement, just
    before napping.

    Two attributes chain threads into a ring (§4.3,
    :class:`repro.core.multithread.RoundRobinAttack`): with
    ``await_signal`` set the thread waits in ``pause()`` after its
    hibernation until another thread signals it, and a thread whose
    ``successor_pid`` is set signals that task right before it exits.
    """

    def __init__(
        self,
        config: PreemptionConfig,
        *,
        measurer: Optional[Any] = None,
        degrader: Optional[Any] = None,
        seeker: Optional[Any] = None,
        on_sample: Optional[Callable[[Sample], None]] = None,
        name: str = "attacker",
        nice: int = 0,
    ):
        self.config = config
        self.measurer = measurer
        self.degrader = degrader
        self.seeker = seeker
        self.on_sample = on_sample
        self.samples: List[Sample] = []
        self.exhausted_at: Optional[int] = None
        self.seek_rounds_used = 0
        self.await_signal = False
        self.successor_pid: Optional[int] = None
        metrics = get_obs().metrics
        self._m_samples = metrics.counter("attack.samples")
        self._m_exhausted = metrics.counter("attack.budget_exhausted")
        self._m_seek_rounds = metrics.counter("attack.seek_rounds")
        # Count-flavoured buckets: preemptions won inside one attack
        # window range from a handful (budget-starved) to ~1e5 (full
        # amplification sweep).
        self._h_preemptions = metrics.histogram(
            "attack.preemptions_per_window",
            buckets=(1, 10, 100, 1_000, 10_000, 100_000),
        )
        self.task = Task(name, body=CoroutineBody(self._body()), nice=nice)

    # ------------------------------------------------------------------
    def launch(self, kernel: Kernel, cpu: int) -> Task:
        """Pin the attacker to the victim's logical core and start it."""
        self.task.pin_to(cpu)
        return kernel.spawn(self.task, cpu=cpu)

    def wake_time(self, kernel: Kernel, cpu: int, *, within: float) -> float:
        """Run ``kernel`` until the hibernation timer is armed on ``cpu``
        (for at most ``within`` ns) and return its expiry: the wake-up
        that lands the first preemption."""
        st = kernel.cpus[cpu]
        task = self.task
        # The kernel rebinds ``st.timers`` as timers fire: read it anew.
        kernel.run_until(
            predicate=lambda: any(t.task is task for t in st.timers),
            max_time=kernel.now + within,
        )
        for timer in st.timers:
            if timer.task is task:
                return timer.expiry
        raise RuntimeError("attacker failed to hibernate")

    def run(self, kernel: Kernel, *, max_time: float) -> None:
        """Run ``kernel`` until the attacker exits (or ``max_time``)."""
        task = self.task
        kernel.run_until(predicate=lambda: task.state is TaskState.EXITED,
                         max_time=max_time)

    # ------------------------------------------------------------------
    def _body(self) -> Iterator[act.Action]:
        cfg = self.config
        if cfg.method.needs_timer_slack:
            yield act.SetTimerSlack(cfg.timer_slack_ns)
        yield act.Nanosleep(cfg.hibernate_ns)
        if self.await_signal:
            yield act.Pause()
        if self.seeker is not None and cfg.seek_tau_ns is not None:
            # Seek phase: cheap landmark probes with a longer nap until
            # the victim approaches the sensitive code.
            for _ in range(cfg.max_seek_rounds):
                found = yield from self.seeker.measure()
                self.seek_rounds_used += 1
                self._m_seek_rounds.inc()
                if found:
                    break
                yield act.Nanosleep(cfg.seek_tau_ns)
            if cfg.post_seek_delay_ns > 0:
                yield act.Nanosleep(cfg.post_seek_delay_ns)
        if cfg.method is WakeupMethod.TIMER:
            yield act.TimerCreate(cfg.nap_ns)
            yield act.Pause()
        prev_wake: Optional[float] = None
        round_trip = cfg.nap_ns + cfg.gap_floor_ns
        for index in range(cfg.rounds):
            now = yield act.GetTime()
            gap = (now - prev_wake) if prev_wake is not None else cfg.nap_ns
            prev_wake = now
            data = None
            if self.measurer is not None:
                data = yield from self.measurer.measure()
            if self.degrader is not None:
                yield from self.degrader.degrade()
            if cfg.extra_compute_ns > 0:
                yield act.Compute(cfg.extra_compute_ns)
            exhausted = index > 0 and gap > max(
                cfg.gap_factor * round_trip, cfg.gap_floor_ns
            )
            sample = Sample(index, now, gap, data, exhausted)
            self.samples.append(sample)
            self._m_samples.inc()
            if self.on_sample is not None:
                self.on_sample(sample)
            if exhausted and self.exhausted_at is None:
                self.exhausted_at = index
                self._m_exhausted.inc()
                if cfg.stop_on_exhaustion:
                    break
            if cfg.method is WakeupMethod.NANOSLEEP:
                yield act.Nanosleep(cfg.nap_ns)
            else:
                yield act.Pause()
        if cfg.method is WakeupMethod.TIMER:
            yield act.TimerCancel()
        self._h_preemptions.observe(len(self.samples))
        if self.successor_pid is not None:
            yield act.SignalTask(self.successor_pid)
        yield act.Exit()

    # ------------------------------------------------------------------
    @property
    def useful_samples(self) -> List[Sample]:
        """Samples collected before budget exhaustion."""
        if self.exhausted_at is None:
            return self.samples
        return self.samples[: self.exhausted_at]
