"""Pull-based metric collection from engine and μarch state.

The per-instruction hot paths (cache/TLB lookups, BTB updates,
instruction retirement) already maintain plain integer counters for the
channel-noise accounting the attacks depend on.  Rather than pushing a
metrics call into those loops — which would blow the ≤5 % disabled-mode
overhead budget — this module *pulls* them into gauges at snapshot
time (:meth:`repro.obs.Observability.publish`), so always-on metrics
cost the simulation nothing between snapshots.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    return hits / total if total else 0.0


def publish_kernel_metrics(kernel, metrics: MetricsRegistry) -> None:
    """Publish engine/μarch/task gauges for ``kernel``'s environment."""
    if not metrics.enabled:
        return
    sim = kernel.sim
    metrics.gauge("sim.events_fired").set(sim.events_fired)
    metrics.gauge("sim.events_scheduled").set(sim._seq)
    metrics.gauge("sim.heap_depth").set(len(sim._heap))
    metrics.gauge("sim.pending_events").set(sim.pending_count())
    metrics.gauge("sim.now_ns").set(sim.now)
    metrics.gauge("sim.heap_compactions").set(sim.compactions)

    machine = kernel.machine
    hierarchy = machine.hierarchy
    for label, levels in (
        ("l1i", hierarchy.l1i),
        ("l1d", hierarchy.l1d),
        ("l2", hierarchy.l2),
        ("llc", [hierarchy.llc]),
    ):
        hits = sum(level.hits for level in levels)
        misses = sum(level.misses for level in levels)
        evictions = sum(level.evictions for level in levels)
        metrics.gauge(f"uarch.{label}.hits").set(hits)
        metrics.gauge(f"uarch.{label}.misses").set(misses)
        metrics.gauge(f"uarch.{label}.hit_rate").set(_rate(hits, misses))
        metrics.gauge(f"uarch.{label}.evictions").set(evictions)

    tlbs = machine.tlbs
    for label, levels in (("itlb", tlbs.itlb), ("stlb", tlbs.stlb)):
        hits = sum(level.hits for level in levels)
        misses = sum(level.misses for level in levels)
        metrics.gauge(f"uarch.{label}.hits").set(hits)
        metrics.gauge(f"uarch.{label}.misses").set(misses)
        metrics.gauge(f"uarch.{label}.hit_rate").set(_rate(hits, misses))
        metrics.gauge(f"uarch.{label}.evictions").set(
            sum(level.evictions for level in levels)
        )

    metrics.gauge("uarch.btb.allocations").set(
        sum(btb.allocations for btb in machine.btbs)
    )
    metrics.gauge("uarch.btb.invalidations").set(
        sum(btb.invalidations for btb in machine.btbs)
    )
    metrics.gauge("uarch.btb.mispredicts").set(
        sum(core.stats.mispredicts for core in machine.cores)
    )
    metrics.gauge("cpu.instructions_retired").set(
        sum(core.stats.instructions_retired for core in machine.cores)
    )
    metrics.gauge("cpu.speculative_issues").set(
        sum(core.stats.speculative_issues for core in machine.cores)
    )
    metrics.gauge("cpu.spec_early_outs").set(
        sum(core.stats.spec_early_outs for core in machine.cores)
    )

    # Fast-forward introspection: how much of the instruction stream the
    # certified fast paths absorbed, and which path did the absorbing.
    stats = [core.stats for core in machine.cores]
    for field, name in (
        ("ff_steady_windows", "ff.windows.steady"),
        ("ff_warmup_windows", "ff.windows.warmup"),
        ("ff_uniform_bulk_retires", "ff.uniform_bulk_retires"),
        ("ff_insts_fast_forwarded", "ff.insts_fast_forwarded"),
    ):
        metrics.gauge(name).set(sum(getattr(s, field) for s in stats))
    # Paths deleted as never firing; bench/layers.py still reads both.
    metrics.gauge("ff.windows.periodic").set(0)
    metrics.gauge("ff.windows.loop").set(0)
    retired = sum(s.instructions_retired for s in stats)
    fast = sum(s.ff_insts_fast_forwarded for s in stats)
    metrics.gauge("ff.coverage").set(fast / retired if retired else 0.0)

    # Batched-access accounting.
    metrics.gauge("uarch.access_many.calls").set(hierarchy.batch_calls)
    metrics.gauge("uarch.access_many.addrs").set(hierarchy.batch_addrs)
    metrics.gauge("kernel.tasks").set(len(kernel.tasks))
