"""Core-colocation experiments (§4.4).

The positive case: with one idle core left by the attacker's pinned
dummies, the victim lands on it and the attacker, pinned alongside,
immediately achieves Controlled Preemption on that core.  The negative
case: on a fully loaded machine the technique has no idle core to
steer the victim to (the paper's stated limitation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.colocation import achieve_colocation, launch_dummies
from repro.core.primitive import ControlledPreemption, PreemptionConfig
from repro.cpu.program import StraightlineProgram
from repro.experiments.setup import build_env
from repro.kernel.threads import ComputeBody, ProgramBody
from repro.parallel import derive_seed, starmap_kwargs
from repro.sched.task import Task


@dataclass
class ColocationOutcome:
    landed_cpu: Optional[int]
    target_cpu: int
    colocated: bool
    victim_stayed: bool
    preemptions_on_target: int
    attacker_threads_used: int


def run_colocation(
    *, n_cores: int = 16, seed: int = 0, attack_rounds: int = 200
) -> ColocationOutcome:
    """Full §4.4 + §4.1 pipeline on a 16-core machine."""
    env = build_env("cfs", n_cores=n_cores, seed=seed)
    kernel = env.kernel

    def victim_factory() -> Task:
        return Task("victim", body=ProgramBody(StraightlineProgram()))

    result = achieve_colocation(kernel, victim_factory)
    landed = result.victim.cpu
    if not result.success:
        return ColocationOutcome(
            landed, result.target_cpu, False, False, 0, result.n_attacker_threads
        )
    attacker = ControlledPreemption(
        PreemptionConfig(nap_ns=900.0, rounds=attack_rounds, hibernate_ns=5e9,
                         extra_compute_ns=12_000.0)
    )
    attacker.launch(kernel, result.target_cpu)
    attacker.run(kernel, max_time=kernel.now + 10e9)
    preemptions = env.tracer.consecutive_preemptions(
        result.victim.pid, attacker.task.pid
    )
    stayed = result.victim.cpu == result.target_cpu
    return ColocationOutcome(
        landed,
        result.target_cpu,
        True,
        stayed,
        preemptions,
        result.n_attacker_threads,
    )


@dataclass
class ColocationCampaign:
    """Aggregate of many independent colocation trials (the REPTTACK-
    style statistic: how often does the steering technique land the
    victim next to the attacker?)."""

    n_trials: int
    successes: int
    stayed: int
    outcomes: List[ColocationOutcome] = field(repr=False)

    @property
    def success_rate(self) -> float:
        return self.successes / self.n_trials if self.n_trials else 0.0


def run_colocation_campaign(
    *,
    n_trials: int = 20,
    n_cores: int = 16,
    seed: int = 0,
    attack_rounds: int = 200,
    jobs: Optional[int] = None,
) -> ColocationCampaign:
    """Repeat :func:`run_colocation` over derived per-trial seeds.

    Trial ``i`` runs with ``derive_seed(seed, "colocation", i)``, so the
    campaign is reproducible and identical whether it runs serially or
    across a process pool.
    """
    cells = [
        dict(n_cores=n_cores, attack_rounds=attack_rounds,
             seed=derive_seed(seed, "colocation", trial))
        for trial in range(n_trials)
    ]
    outcomes = starmap_kwargs(run_colocation, cells, jobs=jobs)
    return ColocationCampaign(
        n_trials=n_trials,
        successes=sum(1 for o in outcomes if o.colocated),
        stayed=sum(1 for o in outcomes if o.victim_stayed),
        outcomes=outcomes,
    )


def run_fully_loaded_colocation(*, n_cores: int = 16, seed: int = 0) -> bool:
    """Negative control: every core already busy → the victim cannot be
    steered to a known idle core.  Returns True when the technique
    (correctly) fails to land the victim on the intended core."""
    env = build_env("cfs", n_cores=n_cores, seed=seed)
    kernel = env.kernel
    # Background load occupying every core, including the would-be
    # target, before the attacker's dummies arrive.
    for cpu in range(n_cores):
        other = Task(f"load{cpu}", body=ComputeBody())
        other.pin_to(cpu)
        kernel.spawn(other, cpu=cpu)
    target = n_cores - 1
    launch_dummies(kernel, leave_idle=target)
    kernel.run_until(max_time=kernel.now + 10e6)
    victim = Task("victim", body=ProgramBody(StraightlineProgram()))
    kernel.spawn(victim)
    # The attack premise — victim alone with the attacker on a
    # quiescent core — fails when the machine is fully loaded: wherever
    # the victim lands, a non-attacker thread shares the runqueue.
    rq = kernel.cpus[victim.cpu].rq
    competitors = [
        t
        for t in rq.all_tasks()
        if t is not victim and not t.name.startswith("dummy")
    ]
    return len(competitors) > 0
