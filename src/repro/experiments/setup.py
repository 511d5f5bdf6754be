"""Shared experiment scaffolding.

``build_env`` assembles a machine + kernel for one experiment run.  The
scheduler *parameters* always come from the paper's 16-core testbed
(Table 2.1) even when the simulated machine has one core — quiescent
single-core runs are how the paper characterizes the primitive, while
the sysctl values are fixed by the physical machine's core count.

``scaled`` applies the global experiment scale factor: benchmarks run
scaled-down sample counts by default; set ``REPRO_SCALE=1.0`` (or more)
for full-fidelity runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.cpu.machine import Machine, MachineConfig
from repro.kernel.kernel import Kernel, KernelConfig
from repro.kernel.tracing import KernelTracer
from repro.sched.base import SchedPolicy
from repro.sched.cfs import CfsScheduler
from repro.sched.eevdf import EevdfScheduler
from repro.sched.features import SchedFeatures
from repro.sched.params import SchedParams
from repro.sim.rng import RngStreams

#: The paper's testbed: a 16-core i9-9900K.
PAPER_CORE_COUNT = 16

_DEFAULT_SCALE = 0.05


def scale_factor() -> float:
    """Global experiment scale (fraction of the paper's sample counts).

    Controlled by ``REPRO_SCALE``; the default keeps the whole benchmark
    suite in CI-friendly time while preserving every distributional
    shape (the experiments are i.i.d. repetitions).
    """
    return float(os.environ.get("REPRO_SCALE", _DEFAULT_SCALE))


def scaled(full_count: int, minimum: int = 20) -> int:
    """Scale a paper sample count, keeping a statistically usable floor."""
    return max(minimum, int(full_count * scale_factor()))


@dataclass
class ExperimentEnv:
    """One assembled simulation environment."""

    machine: Machine
    kernel: Kernel
    policy: SchedPolicy
    params: SchedParams
    rng: RngStreams

    @property
    def tracer(self) -> KernelTracer:
        return self.kernel.tracer


def make_policy(
    scheduler: str,
    params: Optional[SchedParams] = None,
    features: Optional[SchedFeatures] = None,
) -> SchedPolicy:
    params = params or SchedParams.for_cores(PAPER_CORE_COUNT)
    if scheduler == "cfs":
        return CfsScheduler(params, features)
    if scheduler == "eevdf":
        return EevdfScheduler(params, features)
    raise ValueError(f"unknown scheduler {scheduler!r} (use 'cfs' or 'eevdf')")


def build_env(
    scheduler: str = "cfs",
    *,
    n_cores: int = 1,
    seed: int = 0,
    features: Optional[SchedFeatures] = None,
    params: Optional[SchedParams] = None,
    machine_config: Optional[MachineConfig] = None,
    kernel_config: Optional[KernelConfig] = None,
    sample_vruntime: bool = False,
    mitigations=None,
) -> ExperimentEnv:
    """Assemble a fresh machine + kernel for one experiment run.

    ``mitigations`` installs a scheduler-side defense: a
    :class:`~repro.mitigations.policy.MitigationStack` (hand-built
    around live policies) or a wire spec (``"leash"`` /
    ``{"policy": ..., **kwargs}``), built by
    :func:`~repro.mitigations.policy.build_stack`.  ``None`` (the
    default) leaves the kernel's zero-cost path untouched.
    """
    machine = Machine(machine_config or MachineConfig(n_cores=n_cores))
    policy = make_policy(scheduler, params, features)
    rng = RngStreams(seed=seed)
    tracer = KernelTracer(sample_vruntime=sample_vruntime)
    if mitigations is not None:
        # Local import: the mitigations package re-exports experiment
        # evaluators, so a top-level import would be circular.
        from repro.mitigations.policy import build_stack
        mitigations = build_stack(mitigations)
    kernel = Kernel(
        machine,
        policy,
        rng,
        tracer=tracer,
        config=kernel_config,
        mitigations=mitigations,
    )
    return ExperimentEnv(
        machine=machine, kernel=kernel, policy=policy, params=policy.params,
        rng=rng,
    )
