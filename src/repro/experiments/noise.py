"""Scheduling-noise experiment (Fig 4.6).

A third compute-bound noise thread N shares the runqueue with the
attacker A and the victim V.  The experiment records every thread's
vruntime over time and verifies the paper's two-regime analysis:

* while the victim's vruntime trails the noise thread's, Controlled
  Preemption proceeds between A and V exactly as in the quiet case;
* once the two converge, the scheduler interleaves A with whichever of
  V/N is leftmost — the ``((V|N)A)+`` pattern — and per-round victim
  progress becomes unpredictable, which is why the attack needs the
  victim-presence oracle from §4.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.primitive import ControlledPreemption, PreemptionConfig
from repro.cpu.program import StraightlineProgram
from repro.experiments.setup import build_env
from repro.kernel.threads import ComputeBody, ProgramBody
from repro.sched.task import Task


@dataclass
class NoiseRun:
    """Fig 4.6's raw material plus regime statistics."""

    vruntime_series: Dict[str, List[Tuple[float, float]]]  # name → [(t, τ)]
    convergence_time: Optional[float]
    pattern_before: str
    pattern_after: str
    preemptions_before: int
    preemptions_after: int


def run_noise_experiment(
    *,
    victim_lag_ns: float = 250_000.0,
    extra_compute_ns: float = 12_000.0,
    tau: float = 900.0,
    rounds: int = 800,
    seed: int = 0,
) -> NoiseRun:
    """Run A + V + N on one core and analyse the two regimes.

    The noise thread preexists in the runqueue (the paper's expected
    case) and accumulates vruntime while the attacker hibernates.  The
    victim is *woken* just before the attack starts, placed via Eq 2.1
    ``victim_lag_ns`` of vruntime behind the noise thread, so the run
    begins in the quiet A↔V regime and converges mid-attack.
    """
    env = build_env("cfs", n_cores=1, seed=seed, sample_vruntime=True)
    kernel = env.kernel
    hibernate = 5e9
    noise = Task("noise", body=ComputeBody())
    victim = Task("victim", body=ProgramBody(StraightlineProgram()))
    attacker = ControlledPreemption(
        PreemptionConfig(
            nap_ns=tau,
            rounds=rounds,
            hibernate_ns=hibernate,
            extra_compute_ns=extra_compute_ns,
            stop_on_exhaustion=False,
        )
    )
    kernel.spawn(noise, cpu=0)
    attacker.launch(kernel, 0)
    # Read the hibernation timer once armed: the attacker's prologue can
    # be delayed by the busy noise thread, so the wake time must be
    # observed, not assumed.
    wake_time = attacker.wake_time(kernel, 0, within=1e9)

    def wake_victim() -> None:
        # Victim slept at a vruntime `victim_lag_ns` behind the noise
        # thread; Eq 2.1's max() keeps it there on wake-up.
        kernel.spawn(
            victim,
            cpu=0,
            wake_placement=True,
            sleep_vruntime=max(0.0, noise.vruntime - victim_lag_ns),
        )

    kernel.sim.call_at(wake_time - 2_000.0, wake_victim)
    attacker.run(kernel, max_time=30e9)

    pids = {victim.pid: "victim", noise.pid: "noise", attacker.task.pid: "attacker"}
    series: Dict[str, List[Tuple[float, float]]] = {n: [] for n in pids.values()}
    for sample in env.tracer.vruntime_samples:
        name = pids.get(sample.pid)
        if name:
            series[name].append((sample.time, sample.vruntime))

    convergence = _convergence_time(series)
    before, after = _exit_patterns(env, pids, convergence)
    return NoiseRun(
        vruntime_series=series,
        convergence_time=convergence,
        pattern_before=before,
        pattern_after=after,
        preemptions_before=before.count("A"),
        preemptions_after=after.count("A"),
    )


def _convergence_time(
    series: Dict[str, List[Tuple[float, float]]]
) -> Optional[float]:
    """First time the victim's vruntime reaches the noise thread's."""
    noise_points = series["noise"]
    victim_points = series["victim"]
    if not noise_points or not victim_points:
        return None
    noise_index = 0
    for time, victim_v in victim_points:
        while (
            noise_index + 1 < len(noise_points)
            and noise_points[noise_index + 1][0] <= time
        ):
            noise_index += 1
        if victim_v >= noise_points[noise_index][1]:
            return time
    return None


def _exit_patterns(env, pids, convergence) -> Tuple[str, str]:
    """Kernel-exit sequence as a V/N/A string, split at convergence."""
    letters = {"victim": "V", "noise": "N", "attacker": "A"}
    before: List[str] = []
    after: List[str] = []
    started = False
    for record in env.tracer.exits:
        name = pids.get(record.pid)
        if name is None:
            continue
        if name == "attacker":
            started = True
        if not started:
            continue  # pre-attack activity is not part of the analysis
        bucket = (
            after if convergence is not None and record.time >= convergence else before
        )
        bucket.append(letters[name])
    return "".join(before), "".join(after)


def pattern_matches_vn_a(pattern: str) -> bool:
    """Check the paper's ((V|N)A)+ claim on an exit pattern (ignoring
    leading/trailing partial groups)."""
    body = pattern.strip("A")
    if not body:
        return False
    groups = [g for g in body.split("A") if g]
    return all(set(g) <= {"V", "N"} for g in groups)
