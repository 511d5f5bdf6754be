"""Pull-based counts from engine and μarch state.

The per-instruction hot paths (cache/TLB lookups, BTB updates,
instruction retirement) already maintain plain integer counters for the
channel-noise accounting the attacks depend on.  Rather than pushing a
metrics call into those loops — which would blow the ≤5 % disabled-mode
overhead budget — :func:`kernel_counts` reads them, and every
:meth:`repro.kernel.kernel.Kernel.run_until` folds their growth into
the metrics registry as counters, so metrics cost the simulation
nothing between folds.  Ratios (hit rates, fast-forward coverage) are
not recorded: ``repro report`` derives them from these counts.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.metrics import MetricsRegistry


def kernel_counts(kernel) -> Dict[str, float]:
    """Cumulative engine, μarch, CPU and fast-forward counts of
    ``kernel``'s environment (``sim.now_ns`` is the one float)."""
    sim = kernel.sim
    machine = kernel.machine
    hierarchy = machine.hierarchy
    tlbs = machine.tlbs
    counts: Dict[str, float] = {
        "sim.events_fired": sim.events_fired,
        "sim.events_scheduled": sim._seq,
        "sim.now_ns": sim.now,
        "sim.heap_compactions": sim.compactions,
    }
    for label, levels in (
        ("l1i", hierarchy.l1i),
        ("l1d", hierarchy.l1d),
        ("l2", hierarchy.l2),
        ("llc", [hierarchy.llc]),
        ("itlb", tlbs.itlb),
        ("stlb", tlbs.stlb),
    ):
        for field in ("hits", "misses", "evictions"):
            counts[f"uarch.{label}.{field}"] = sum(
                getattr(level, field) for level in levels)
    counts["uarch.btb.allocations"] = sum(
        btb.allocations for btb in machine.btbs)
    counts["uarch.btb.invalidations"] = sum(
        btb.invalidations for btb in machine.btbs)

    # Per-core counts, with the fast-forward introspection: how much of
    # the instruction stream the certified fast paths absorbed, and
    # which path did the absorbing.
    stats = [core.stats for core in machine.cores]
    for field, name in (
        ("mispredicts", "uarch.btb.mispredicts"),
        ("instructions_retired", "cpu.instructions_retired"),
        ("speculative_issues", "cpu.speculative_issues"),
        ("spec_early_outs", "cpu.spec_early_outs"),
        ("ff_steady_windows", "ff.windows.steady"),
        ("ff_warmup_windows", "ff.windows.warmup"),
        ("ff_uniform_bulk_retires", "ff.uniform_bulk_retires"),
        ("ff_insts_fast_forwarded", "ff.insts_fast_forwarded"),
    ):
        counts[name] = sum(getattr(s, field) for s in stats)
    # Paths deleted as never firing; bench/layers.py still reads both.
    counts["ff.windows.periodic"] = 0
    counts["ff.windows.loop"] = 0

    # Batched-access accounting.
    counts["uarch.access_many.calls"] = hierarchy.batch_calls
    counts["uarch.access_many.addrs"] = hierarchy.batch_addrs
    counts["kernel.tasks"] = len(kernel.tasks)
    return counts


def publish_kernel_metrics(kernel, metrics: MetricsRegistry) -> None:
    """Add ``kernel``'s cumulative counts to ``metrics`` as counters."""
    for name, value in kernel_counts(kernel).items():
        metrics.counter(name).inc(value)
