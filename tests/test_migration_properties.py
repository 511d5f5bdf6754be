"""Migrated tasks neither starve nor monopolize (Hypothesis).

The cross-CPU renormalization (``migrate_task_rq_fair``) preserves a
task's *relative* position: after the move, the magnitude of its lag
against the destination's fairness baseline must not exceed the lag it
had against the source's.  A task arriving far behind the destination
clock would monopolize that CPU; far ahead, it would starve.

The properties here drive the imbalance-forcing workload generator
under both schedulers and assert the bound directly on the balancer's
enriched :class:`~repro.sched.loadbalance.Migration` records —
independent of the validate-layer oracles, which check the same thing
inside ``run_case`` (covered by the second property, across the
feature grid).
"""

from dataclasses import replace

from hypothesis import given, settings

from repro.cpu.machine import Machine, MachineConfig
from repro.kernel.kernel import Kernel
from repro.kernel.tracing import KernelTracer
from repro.sim.rng import RngStreams
from repro.validate.harness import make_validate_policy, run_case
from repro.validate.invariants import ref_migrate_delta
from repro.validate.workload import (
    FEATURE_VARIANTS,
    generate_workload,
    spawn_tasks,
)
from tests.strategies import (
    FEATURE_VARIANT_NAMES,
    feature_variant_names,
    schedulers,
    workload_seeds,
)

_LAG_EPS = 1e-3


def test_strategy_variants_match_source_of_truth():
    assert set(FEATURE_VARIANT_NAMES) == set(FEATURE_VARIANTS)


def _run_kernel(spec, scheduler):
    """Run one workload bare (no probes) and return the kernel."""
    policy = make_validate_policy(scheduler, spec.features)
    machine = Machine(MachineConfig(n_cores=spec.n_cpus))
    kernel = Kernel(machine, policy, RngStreams(seed=spec.seed),
                    tracer=KernelTracer())
    spawn_tasks(kernel, spec)
    kernel.run_until(max_time=spec.horizon_ns)
    return kernel


@settings(max_examples=25, deadline=None)
@given(seed=workload_seeds, scheduler=schedulers)
def test_migrations_preserve_relative_lag(seed, scheduler):
    spec = generate_workload(seed, n_cpus=2, profile="imbalance")
    kernel = _run_kernel(spec, scheduler)
    for m in kernel.balancer.migrations:
        if scheduler == "eevdf":
            lag_before = m.src_avg_vruntime - m.vruntime_before
            lag_after = m.dst_avg_vruntime - m.vruntime_after
        else:
            lag_before = m.src_min_vruntime - m.vruntime_before
            lag_after = m.dst_min_vruntime - m.vruntime_after
        # Neither starvation nor monopoly: relative lag is bounded.
        assert abs(lag_after) <= abs(lag_before) + _LAG_EPS, m
        # And the shift is exactly the policy's renormalization.
        expected = m.vruntime_before + ref_migrate_delta(
            scheduler, m.src_min_vruntime, m.dst_min_vruntime,
            m.src_avg_vruntime, m.dst_avg_vruntime)
        assert abs(m.vruntime_after - expected) <= _LAG_EPS, m
        # Idle-pull preconditions hold for every recorded move.
        assert m.src_nr_running > 1, m
        assert not m.was_current, m
        assert m.task.can_run_on(m.dst_cpu), m


@settings(max_examples=20, deadline=None)
@given(seed=workload_seeds, scheduler=schedulers,
       variant=feature_variant_names)
def test_imbalance_mixes_hold_invariants_across_grid(seed, scheduler,
                                                     variant):
    """Every oracle (migration ones included) across the feature grid.

    Cross-policy flags are harmless: a CFS run ignores the EEVDF-only
    knobs and vice versa, exactly as the fuzzer's own variant draw.
    """
    spec = generate_workload(seed, n_cpus=2, profile="imbalance",
                             feature_variants=False)
    spec = replace(spec, features=dict(FEATURE_VARIANTS[variant]))
    outcome = run_case(spec, scheduler)
    assert outcome.ok, outcome.violations


def test_properties_are_not_vacuous():
    """The imbalance profile must actually produce migrations — a lag
    bound over zero migrations would prove nothing."""
    total = 0
    for seed in range(12):
        spec = generate_workload(seed, n_cpus=2, profile="imbalance")
        total += len(_run_kernel(spec, "cfs").balancer.migrations)
    assert total > 0
