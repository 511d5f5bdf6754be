"""Temporal-resolution experiments (Fig 4.3 a/b/c and Fig 4.7).

The victim is the paper's same-byte-length instruction loop; resolution
is the victim's retired-instruction delta between attacker
interleavings, recorded by the tracer exactly like the paper's eBPF
probe.  One run per (wake-up method, degradation, τ) cell produces a
histogram; the figure functions sweep τ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.histogram import ResolutionStats, resolution_stats
from repro.core.degradation import TlbEvictor
from repro.core.primitive import ControlledPreemption, PreemptionConfig
from repro.core.wakeup import WakeupMethod
from repro.cpu.program import StraightlineProgram
from repro.experiments.setup import build_env
from repro.kernel.threads import ProgramBody
from repro.obs import get_obs
from repro.parallel import derive_seed, starmap_kwargs
from repro.sched.task import Task
from repro.victims.layout import ATTACKER_TLB_ARENA

#: τ values (ns) used for the figure sweeps.  Chosen the way the
#: paper's attacker chooses them: a fine sweep around the scheduling
#: overhead (the "Goldilocks" zone of §4.2).  Larger τ trades zero
#: steps for more victim progress per preemption.  Method 2's zone sits
#: ~2 µs higher: a periodic timer's interval must cover the full
#: signal-delivery round trip, or every expiry is an overrun.
FIG_4_3A_TAUS = (700.0, 720.0, 740.0, 760.0)
FIG_4_3B_TAUS = (740.0, 760.0, 780.0, 800.0)
FIG_4_3C_TAUS = (2720.0, 2740.0, 2760.0, 2780.0)


@dataclass
class ResolutionRun:
    """One histogram cell."""

    tau: float
    method: WakeupMethod
    degraded: bool
    scheduler: str
    samples: List[int]

    @property
    def stats(self) -> ResolutionStats:
        return resolution_stats(self.samples)


def run_resolution(
    tau: float,
    *,
    method: WakeupMethod = WakeupMethod.NANOSLEEP,
    degrade_itlb: bool = False,
    scheduler: str = "cfs",
    preemptions: int = 1000,
    seed: int = 0,
) -> ResolutionRun:
    """Measure instructions retired per preemption for one setting.

    The attacker re-hibernates as many times as needed (budget refills)
    until ``preemptions`` samples are collected; the paper's 80 000-
    preemption histograms are the aggregate of such episodes.
    """
    env = build_env(scheduler, n_cores=1, seed=seed)
    program = StraightlineProgram()
    victim = Task("victim", body=ProgramBody(program))
    degrader = (
        TlbEvictor(program.base_pc, ATTACKER_TLB_ARENA) if degrade_itlb else None
    )
    samples: List[int] = []
    env.kernel.spawn(victim, cpu=0)
    episode = 0
    m_episodes = get_obs().metrics.counter("attack.episodes")
    while len(samples) < preemptions and episode < 64:
        m_episodes.inc()
        attacker = ControlledPreemption(
            PreemptionConfig(
                nap_ns=tau,
                rounds=preemptions - len(samples),
                hibernate_ns=120e6,  # > 2·S_bnd; episodes refill the budget
                method=method,
                stop_on_exhaustion=True,
            ),
            degrader=degrader,
            name=f"attacker{episode}",
        )
        attacker.launch(env.kernel, 0)
        attacker.run(env.kernel, max_time=env.kernel.now + 10e9)
        new = env.tracer.retired_per_preemption(victim.pid, attacker.task.pid)
        # The first delta of an episode spans the hibernation (the victim
        # ran alone); the paper's measurement starts "from when the
        # attacker begins launching interrupts", so drop it.
        samples.extend(new[1:])
        episode += 1
    return ResolutionRun(
        tau=tau,
        method=method,
        degraded=degrade_itlb,
        scheduler=scheduler,
        samples=samples[:preemptions],
    )


def tau_sweep(
    taus: Sequence[float],
    *,
    method: WakeupMethod = WakeupMethod.NANOSLEEP,
    degrade_itlb: bool = False,
    scheduler: str = "cfs",
    preemptions: int = 1000,
    seed: int = 0,
    sweep_name: str = "tau_sweep",
    jobs: Optional[int] = None,
) -> List[ResolutionRun]:
    """One τ sweep: an independent :func:`run_resolution` cell per τ.

    Each cell's seed is ``derive_seed(seed, sweep_name, tau)`` — a
    stable function of the cell's identity, never of execution order —
    so a parallel sweep is bit-identical to a serial one.
    """
    cells = [
        dict(
            tau=tau,
            method=method,
            degrade_itlb=degrade_itlb,
            scheduler=scheduler,
            preemptions=preemptions,
            seed=derive_seed(seed, sweep_name, tau),
        )
        for tau in taus
    ]
    return starmap_kwargs(run_resolution, cells, jobs=jobs)


def figure_4_3(
    *,
    preemptions_per_tau: int = 1000,
    seed: int = 0,
    taus_a: Sequence[float] = FIG_4_3A_TAUS,
    taus_b: Sequence[float] = FIG_4_3B_TAUS,
    taus_c: Sequence[float] = FIG_4_3C_TAUS,
    jobs: Optional[int] = None,
) -> Dict[str, List[ResolutionRun]]:
    """All three panels of Fig 4.3 on the CFS.

    All cells across the three panels go through one parallel map so a
    pool is saturated even when individual panels are short.
    """
    plan = (
        [("a", dict(tau=tau, preemptions=preemptions_per_tau,
                    seed=derive_seed(seed, "fig4.3a", tau)))
         for tau in taus_a]
        + [("b", dict(tau=tau, degrade_itlb=True, preemptions=preemptions_per_tau,
                      seed=derive_seed(seed, "fig4.3b", tau)))
           for tau in taus_b]
        + [("c", dict(tau=tau, method=WakeupMethod.TIMER,
                      preemptions=preemptions_per_tau,
                      seed=derive_seed(seed, "fig4.3c", tau)))
           for tau in taus_c]
    )
    runs = starmap_kwargs(run_resolution, [kw for _, kw in plan], jobs=jobs)
    panels: Dict[str, List[ResolutionRun]] = {"a": [], "b": [], "c": []}
    for (panel, _), run in zip(plan, runs):
        panels[panel].append(run)
    return panels


def figure_4_7(
    *, preemptions_per_tau: int = 1000, seed: int = 0,
    taus: Sequence[float] = FIG_4_3B_TAUS,
    jobs: Optional[int] = None,
) -> List[ResolutionRun]:
    """Fig 4.7: the Fig 4.3b experiment on EEVDF."""
    return tau_sweep(
        taus,
        degrade_itlb=True,
        scheduler="eevdf",
        preemptions=preemptions_per_tau,
        seed=seed,
        sweep_name="fig4.7",
        jobs=jobs,
    )
