"""Kernel path-cost model.

These constants set the "Goldilocks zone" of §4.2: the sum of the
syscall-exit, timer-interrupt and context-switch costs is the scheduling
overhead that a nanosleep interval τ races against.  τ smaller than the
overhead produces zero steps; τ slightly larger lands inside the
victim's first (deliberately slowed) instruction and produces single
steps.

Values are calibrated to measured Linux figures on Coffee Lake desktops
(a few hundred ns of IRQ entry, ~1–2 µs for a full sleep→wake→switch
round trip).  Every draw is jittered through a dedicated RNG stream so
experiments see realistic spread but remain reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.sim.rng import RngStreams


@dataclass(frozen=True)
class CostParams:
    """Mean/σ (ns) for each kernel path."""

    syscall_entry_mean: float = 180.0
    syscall_entry_sd: float = 12.0

    irq_entry_mean: float = 650.0
    irq_entry_sd: float = 20.0

    # One direction of a context switch (schedule() + switch_to + return
    # to user).  A full sleep→wake round trip pays roughly
    # syscall + switch + irq + switch ≈ 2.2 µs on the modelled machine.
    # The σ values are small: the nap→wake path is the same warm kernel
    # code every round, and its determinism is what gives the paper its
    # Goldilocks window (an attacker picks τ at ~10 ns granularity).
    switch_mean: float = 700.0
    switch_sd: float = 14.0

    # Extra latency between hrtimer expiry and the wakeup being
    # processed (hrtimer softirq path), beyond the programmed slack.
    timer_fire_mean: float = 120.0
    timer_fire_sd: float = 10.0

    signal_delivery_mean: float = 350.0
    signal_delivery_sd: float = 25.0

    # SGX transitions: an Asynchronous Enclave Exit (interrupt while the
    # enclave runs) and the subsequent ERESUME are far heavier than a
    # plain context switch and include the hardware TLB flush.
    # Like the rest of the wake path these are warm, fixed code paths;
    # their spread must stay well under the stepping window for
    # SGX-Step-style attacks to work at all (and it does, on hardware).
    aex_mean: float = 1100.0
    aex_sd: float = 18.0
    eresume_mean: float = 1900.0
    eresume_sd: float = 25.0


def _bound_draw(rng: RngStreams, stream: str, mean: float,
                sd: float) -> Callable[[], float]:
    """One path's draw, ``max(gauss(mean, sd), 0.25 * mean)`` on its own
    stream, with ``gauss``, mean, σ and floor bound once and ``max``
    written as a compare that returns the same float."""
    gauss = rng.stream(stream).gauss
    floor = mean * 0.25

    def draw() -> float:
        value = gauss(mean, sd)
        # Costs are physically positive; clamp the rare deep-left tail.
        return floor if floor > value else value

    return draw


class CostModel:
    """Draws jittered kernel-path costs from named RNG streams.

    Each path's draw is bound here once; streams are seeded by name, so
    binding them all up front changes no draw.
    """

    def __init__(self, rng: RngStreams, params: CostParams = CostParams()):
        self.params = p = params
        self.syscall_entry = _bound_draw(rng, "cost.syscall",
                                         p.syscall_entry_mean,
                                         p.syscall_entry_sd)
        self.irq_entry = _bound_draw(rng, "cost.irq", p.irq_entry_mean,
                                     p.irq_entry_sd)
        self.context_switch = _bound_draw(rng, "cost.switch", p.switch_mean,
                                          p.switch_sd)
        self.timer_fire = _bound_draw(rng, "cost.timer", p.timer_fire_mean,
                                      p.timer_fire_sd)
        self.signal_delivery = _bound_draw(rng, "cost.signal",
                                           p.signal_delivery_mean,
                                           p.signal_delivery_sd)
        self.aex = _bound_draw(rng, "cost.aex", p.aex_mean, p.aex_sd)
        self.eresume = _bound_draw(rng, "cost.eresume", p.eresume_mean,
                                   p.eresume_sd)
        self._slack_draw = rng.stream("cost.slack").uniform

    def timer_slack_draw(self, slack_ns: float) -> float:
        """Actual extra delay within the programmed timer slack window.

        The kernel may fire a timer anywhere in [expiry, expiry+slack]
        to batch wakeups; with the default 50 µs slack this dwarfs the
        attack's precision, which is why the attacker's first move is
        ``prctl(PR_SET_TIMERSLACK, 1)``.
        """
        if slack_ns <= 1.0:
            return 0.0
        return self._slack_draw(0.0, slack_ns)

    def expected_round_trip(self) -> float:
        """Mean overhead of one nap→wake→preempt cycle (no jitter);
        useful for tests and for choosing τ in examples."""
        p = self.params
        return (
            p.syscall_entry_mean
            + p.switch_mean
            + p.timer_fire_mean
            + p.irq_entry_mean
            + p.switch_mean
        )
