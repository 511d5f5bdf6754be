"""Mitigation evaluation (§6).

Scheduler/system-level defences are evaluated with the same harness
the characterization uses, so their effect is directly comparable:

* ``NO_WAKEUP_PREEMPTION`` — the Linux security team's recommendation:
  the waking attacker cannot preempt mid-slice, so consecutive
  preemptions collapse to tick/S_min granularity.
* minimum scheduling interval (Varadarajan et al., applied to CFS) —
  wakeup preemption only lands after the victim has run a guaranteed
  slice, throttling the preemption *rate*.
* AEX-Notify (Constable et al.) — an SGX-side trusted prefetch handler
  guarantees the enclave makes significant progress per resume,
  destroying single-stepping while leaving coarse preemption intact.
* the active policies (:mod:`repro.mitigations` — LEASH, SchedGuard,
  PreFence) under the same single-stepping harness.  LEASH and
  SchedGuard attack the preemption count directly; PreFence does not
  (it blunts the prefetch *channel*, not the stepping — the row
  documents that honestly by matching the baseline).

Every cell is **plain data**: ``features``/``kernel_config`` travel as
kwargs dicts and ``mitigation`` as a policy spec (canonicalized where
the cell enters, by ``_run.__wire_canonical__``), so each
cell has a content-addressed cache key (live dataclass objects would
sanitize to an opaque ``repr`` and could never be cached or replayed)
and the ablation dedupes across runs and ``--jobs`` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.analysis.histogram import resolution_stats
from repro.core.primitive import ControlledPreemption, PreemptionConfig
from repro.cpu.program import StraightlineProgram
from repro.experiments.setup import build_env
from repro.kernel.kernel import KernelConfig
from repro.kernel.threads import ProgramBody
from repro.mitigations.policy import canonical_mitigation
from repro.parallel import starmap_kwargs
from repro.sched.features import SchedFeatures
from repro.sched.task import Task
from repro.victims.sgx import make_enclave_task


@dataclass
class MitigationResult:
    name: str
    consecutive_preemptions: int
    median_instructions_per_preemption: float
    single_step_fraction: float


def _run(
    name: str,
    *,
    features: Optional[Dict[str, Any]] = None,
    kernel_config: Optional[Dict[str, Any]] = None,
    mitigation: Optional[Dict[str, Any]] = None,
    enclave: bool = False,
    rounds: int = 400,
    tau: float = 740.0,
    seed: int = 0,
    scheduler: str = "cfs",
) -> MitigationResult:
    env = build_env(
        scheduler, n_cores=1, seed=seed,
        features=SchedFeatures(**features) if features else None,
        kernel_config=KernelConfig(**kernel_config) if kernel_config else None,
        mitigations=mitigation,
    )
    program = StraightlineProgram()
    if enclave:
        victim = make_enclave_task("victim", program)
    else:
        victim = Task("victim", body=ProgramBody(program))
    attacker = ControlledPreemption(
        PreemptionConfig(
            nap_ns=tau,
            rounds=rounds,
            hibernate_ns=5e9,
            extra_compute_ns=12_000.0,
            stop_on_exhaustion=False,
        )
    )
    env.kernel.spawn(victim, cpu=0)
    attacker.launch(env.kernel, 0)
    attacker.run(env.kernel, max_time=30e9)
    count = len(env.tracer.preemption_switches(attacker.task.pid))
    samples = env.tracer.retired_per_preemption(victim.pid, attacker.task.pid)[1:]
    if samples:
        stats = resolution_stats(samples)
        median = stats.median
        single = stats.single_fraction
    else:
        median, single = float("nan"), 0.0
    return MitigationResult(name, count, median, single)


_run.__wire_canonical__ = {  # type: ignore[attr-defined]
    "mitigation": canonical_mitigation,
}


def evaluate_mitigations(
    *, rounds: int = 400, seed: int = 0, jobs: Optional[int] = None
) -> List[MitigationResult]:
    """Baseline vs the §6 defences and the active policies.

    The cells share nothing (each builds its own environment from the
    same seed, exactly as the serial loop always did), so they fan out
    across the process pool and return in the fixed ablation order.
    """
    cells = [
        dict(name="baseline"),
        dict(name="no_wakeup_preemption",
             features=dict(wakeup_preemption=False)),
        dict(name="min_slice_1ms",
             features=dict(wakeup_min_slice_ns=1_000_000.0)),
        # EEVDF's RUN_TO_PARITY feature (real kernels ship it): a wakee
        # cannot preempt until the current task reaches its 0-lag
        # point — a built-in partial defence the CFS lacks.
        dict(name="eevdf_baseline", scheduler="eevdf"),
        dict(name="eevdf_run_to_parity", scheduler="eevdf",
             features=dict(run_to_parity=True)),
        # Active policies under the identical stepping harness.
        dict(name="leash", mitigation="leash"),
        dict(name="schedguard", mitigation="schedguard"),
        dict(name="prefence", mitigation="prefence"),
        # SGX τ values re-tuned the way an attacker would: AEX +
        # ERESUME inflate the scheduling overhead, and AEX-Notify's
        # warm-up handler inflates it further.
        dict(name="sgx_baseline", enclave=True, tau=2690.0),
        dict(name="sgx_aex_notify", enclave=True, tau=4700.0,
             kernel_config=dict(aex_notify_depth=80)),
    ]
    for cell in cells:
        cell.update(rounds=rounds, seed=seed)
    return starmap_kwargs(_run, cells, jobs=jobs)
