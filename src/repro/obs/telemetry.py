"""Run-health telemetry: per-cell scoping, deterministic aggregation,
``telemetry.json`` and OpenMetrics export.

The metrics registry (:mod:`repro.obs.metrics`) answers "what happened
in this process"; this module answers "what happened in this *run*",
where a run may have fanned its cells out over any number of
:mod:`repro.parallel` workers.  Three pieces:

**Per-cell scoping** (:func:`cell_metrics_scope`).  Every simulated
quantity in this repo is a pure function of ``(params, seed)``, so a
cell's counters are as replayable as its result — but only if they are
*scoped to the cell*.  A process-wide registry accumulates across
whichever cells happen to share the process, which is exactly the
``--jobs``-dependent state the determinism contract forbids.  The scope
swaps a fresh enabled registry into the default :class:`Observability`
for the duration of one cell, snapshots it into the cell manifest, and
folds the numbers back into the parent registry afterwards (so
process-wide ``--metrics`` tables still show run totals).

**Deterministic aggregation** (:func:`aggregate_run_dir`,
:func:`write_telemetry`).  The per-cell snapshots recorded in the cell
manifests are folded into one registry by the rule that folds a cell's
registry back into its process's (counters add, histograms
bucket-merge), in sorted-manifest-name order, which depends only on
each cell's identity (experiment, params, seed), never on pool
scheduling.  The ``exact`` section of the resulting ``telemetry.json``
is therefore **bit-identical for any ``--jobs``**; wall-clock
quantities, which are genuinely nondeterministic, are quarantined in a
separate ``timing`` section as percentiles.

**Export**.  :func:`render_openmetrics` dumps a registry in OpenMetrics
text format (``repro stats --format openmetrics``);
:func:`render_report` renders the human run-health report behind
``repro report <run-dir>`` (events/s, fast-forward coverage, cache hit
rates, per-phase timing, per-experiment summary).

The CLI's ``--telemetry`` exports ``REPRO_METRICS=1``, so workers
record snapshots at all, and writes ``telemetry.json`` after the run.
Cells served from the content-addressed cache are *not* re-simulated
and therefore contribute no counters; run the determinism check with
the cache off (the bundled test does).
"""

from __future__ import annotations

import glob
import json
import os
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import Counter, Histogram, MetricsRegistry

__all__ = [
    "TELEMETRY_SCHEMA",
    "TELEMETRY_FILENAME",
    "cell_metrics_scope",
    "percentile_summary",
    "aggregate_manifests",
    "aggregate_run_dir",
    "write_telemetry",
    "render_openmetrics",
    "render_report",
    "report_health",
]

TELEMETRY_SCHEMA = 1
TELEMETRY_FILENAME = "telemetry.json"


# ----------------------------------------------------------------------
# Per-cell scoping
# ----------------------------------------------------------------------
def _fold_registry(parent: MetricsRegistry, cell: MetricsRegistry) -> None:
    """Fold one cell's instruments back into the parent registry.

    Counters add and histograms bucket-merge — the same semantics a
    shared registry would have produced, so a serial ``--metrics``
    table is unchanged by scoping.
    """
    if not parent.enabled:
        return
    for name in cell.names():
        metric = cell.get(name)
        if isinstance(metric, Counter):
            parent.counter(name).inc(metric.value)
        elif isinstance(metric, Histogram):
            parent.histogram(name, metric.bounds).merge(metric)


@contextmanager
def cell_metrics_scope():
    """Swap a fresh enabled registry into the default observability for
    the duration of one cell.

    Yields the fresh registry (or None when metrics are disabled — the
    scope is then a no-op, preserving the null-instrument fast path).
    On exit the parent registry is restored and the cell's numbers are
    folded into it.
    """
    from repro.obs import get_obs

    obs = get_obs()
    parent = obs.metrics
    if not parent.enabled:
        yield None
        return
    fresh = MetricsRegistry(enabled=True)
    obs.metrics = fresh
    try:
        yield fresh
    finally:
        obs.metrics = parent
        _fold_registry(parent, fresh)


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------
def _is_histogram_dict(value: Any) -> bool:
    return isinstance(value, dict) and "buckets" in value and "count" in value


def _registry_of(snapshot: Dict[str, Any]) -> MetricsRegistry:
    """The registry a manifest's metrics snapshot was taken from (the
    inverse of :meth:`MetricsRegistry.snapshot`), so snapshots merge by
    :func:`_fold_registry`'s rule; values that are neither a number
    nor a histogram are skipped."""
    registry = MetricsRegistry(enabled=True)
    for name, value in snapshot.items():
        if _is_histogram_dict(value):
            finite = sorted((float(bucket[len("le_"):]), count)
                            for bucket, count in value["buckets"].items()
                            if bucket != "inf")
            histogram = registry.histogram(name, [b for b, _ in finite])
            histogram.counts = ([count for _, count in finite]
                                + [value["buckets"].get("inf", 0)])
            histogram.count = value["count"]
            histogram.sum = value["sum"]
            histogram.min = value["min"]
            histogram.max = value["max"]
        elif isinstance(value, (int, float)):
            registry.counter(name).inc(value)
    return registry


def percentile_summary(values: Sequence[float]) -> Dict[str, Any]:
    """Nearest-rank percentile summary (deterministic for given values)."""
    if not values:
        return {"n": 0}
    ordered = sorted(values)
    n = len(ordered)

    def rank(p: float) -> float:
        index = max(0, min(n - 1, int(round(p / 100.0 * (n - 1)))))
        return ordered[index]

    return {
        "n": n,
        "total": round(sum(ordered), 6),
        "mean": round(sum(ordered) / n, 6),
        "p0": round(ordered[0], 6),
        "p50": round(rank(50), 6),
        "p90": round(rank(90), 6),
        "p100": round(ordered[-1], 6),
    }


# ----------------------------------------------------------------------
# Run-directory aggregation
# ----------------------------------------------------------------------
def _load_manifest_dicts(run_dir: str,
                         skipped: Optional[List[str]] = None
                         ) -> List[Tuple[str, dict]]:
    """``(basename, manifest_dict)`` pairs, sorted by basename.

    Manifest names are deterministic functions of the cell identity
    (experiment, params, seed), so this order is independent of pool
    scheduling and wall time.  Unreadable or truncated manifests are
    skipped — a partial run dir (crashed sweep, torn write) still
    aggregates — and, when ``skipped`` is given, reported into it."""
    pairs: List[Tuple[str, dict]] = []
    for kind in ("run", "cell"):
        for path in glob.glob(os.path.join(run_dir, f"{kind}-*.json")):
            try:
                with open(path) as fh:
                    data = json.load(fh)
            except (OSError, ValueError) as exc:
                if skipped is not None:
                    skipped.append(
                        f"skipped manifest {os.path.basename(path)}: {exc}")
                continue
            if isinstance(data, dict) and "experiment" in data:
                pairs.append((os.path.basename(path), data))
            elif skipped is not None:
                skipped.append(
                    f"skipped manifest {os.path.basename(path)}: "
                    "not a manifest object")
    pairs.sort(key=lambda pair: pair[0])
    return pairs


def aggregate_manifests(manifests: Sequence[dict]) -> dict:
    """Aggregate a sequence of manifest dicts into one telemetry dict.

    Counters and wall time come from the **cell** manifests when any
    exist (cells carry per-cell scoped registries, the deterministic
    unit); a run with no parallel cells falls back to its run
    manifests.  A run manifest already spans its cells, so taking
    either from both would count the cells twice.
    """
    cells = [m for m in manifests if m.get("kind") == "cell"]
    runs = [m for m in manifests if m.get("kind") != "cell"]
    source = cells if cells else runs
    merged = MetricsRegistry(enabled=True)
    for m in source:
        _fold_registry(merged, _registry_of(m.get("metrics") or {}))
    snapshot = merged.snapshot()
    wall = [m["wall_time_s"] for m in source
            if isinstance(m.get("wall_time_s"), (int, float))]
    experiments: Dict[str, int] = {}
    for m in manifests:
        name = m.get("experiment", "?")
        experiments[name] = experiments.get(name, 0) + 1
    versions = sorted({m.get("version", "") for m in manifests if
                       m.get("version")})
    return {
        "schema": TELEMETRY_SCHEMA,
        "version": versions[0] if len(versions) == 1 else versions,
        "cells": len(cells),
        "runs": len(runs),
        "counter_source": "cells" if cells else "runs",
        "experiments": {k: experiments[k] for k in sorted(experiments)},
        "exact": {
            "counters": {name: value for name, value in snapshot.items()
                         if not isinstance(value, dict)},
            "histograms": {name: value for name, value in snapshot.items()
                           if isinstance(value, dict)},
        },
        "timing": {
            "wall_time_s": percentile_summary(wall),
        },
    }


def aggregate_run_dir(run_dir: str,
                      skipped: Optional[List[str]] = None) -> dict:
    """Aggregate every manifest under ``run_dir`` (non-recursive)."""
    pairs = _load_manifest_dicts(run_dir, skipped)
    telemetry = aggregate_manifests([data for _, data in pairs])
    telemetry["run_dir"] = os.path.basename(os.path.abspath(run_dir))
    return telemetry


def write_telemetry(run_dir: str, out_path: Optional[str] = None) -> str:
    """Write ``telemetry.json`` beside the run manifests; returns the
    path.  Keys are sorted so identical aggregates are identical bytes."""
    telemetry = aggregate_run_dir(run_dir)
    path = out_path or os.path.join(run_dir, TELEMETRY_FILENAME)
    with open(path, "w") as fh:
        json.dump(telemetry, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ----------------------------------------------------------------------
# OpenMetrics export
# ----------------------------------------------------------------------
def _om_name(name: str) -> str:
    """Metric name sanitized to the OpenMetrics charset."""
    cleaned = "".join(
        ch if (ch.isascii() and (ch.isalnum() or ch == "_")) else "_"
        for ch in name
    )
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] == "_"):
        cleaned = "_" + cleaned
    return "repro_" + cleaned


def _om_value(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_openmetrics(registry: MetricsRegistry) -> str:
    """The registry in OpenMetrics text format (counters get the
    mandated ``_total`` suffix, histograms classic ``le`` buckets)."""
    lines: List[str] = []
    for name in registry.names():
        metric = registry.get(name)
        om = _om_name(name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {om} counter")
            lines.append(f"{om}_total {_om_value(metric.value)}")
        elif isinstance(metric, Histogram):
            lines.append(f"# TYPE {om} histogram")
            cumulative = 0
            for bound, count in zip(metric.bounds, metric.counts):
                cumulative += count
                lines.append(f'{om}_bucket{{le="{bound:g}"}} {cumulative}')
            lines.append(f'{om}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{om}_count {metric.count}")
            lines.append(f"{om}_sum {_om_value(metric.sum)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Run-health report
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> Optional[float]:
    return numerator / denominator if denominator else None


def _fmt_pct(value: Optional[float]) -> str:
    return f"{value:.1%}" if value is not None else "n/a"


def _fmt_count(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:,.1f}"
    return f"{value:,}"


def _hit_rate(counters: Dict[str, Any], prefix: str) -> Optional[float]:
    hits = counters.get(f"{prefix}.hits", 0)
    misses = counters.get(f"{prefix}.misses", 0)
    return _ratio(hits, hits + misses)


def _shape_ok(telemetry: Any) -> bool:
    """Whether a loaded telemetry dict has the aggregate shape the
    report reads (truncated/corrupt files routinely do not)."""
    if not isinstance(telemetry, dict):
        return False
    exact = telemetry.get("exact", {})
    timing = telemetry.get("timing", {})
    return (isinstance(exact, dict)
            and isinstance(exact.get("counters", {}), dict)
            and isinstance(exact.get("histograms", {}), dict)
            and isinstance(timing, dict)
            and isinstance(timing.get("wall_time_s", {}), dict))


def report_health(run_dir: str) -> Tuple[str, List[str]]:
    """``(report_text, warnings)`` for ``repro report <run-dir>``.

    The manifests are the record: whenever the dir holds any, the
    report aggregates them, so a ``telemetry.json`` an earlier run
    wrote cannot hide the runs after it.  Only a dir without manifests
    (an exported CI artifact) is read from its ``telemetry.json``.

    Degrades instead of tracebacking: unreadable manifests are
    skipped, a truncated or wrong-shaped ``telemetry.json`` leaves the
    empty aggregate, and every degradation is reported as a warning —
    a crashed sweep's run dir still yields the partial picture it can
    support.
    """
    warnings: List[str] = []
    telemetry = aggregate_run_dir(run_dir, skipped=warnings)
    path = os.path.join(run_dir, TELEMETRY_FILENAME)
    # So far ``warnings`` only names the manifests that were skipped.
    holds_manifests = telemetry["runs"] or telemetry["cells"] or warnings
    if not holds_manifests and os.path.exists(path):
        try:
            with open(path) as fh:
                loaded = json.load(fh)
            if not _shape_ok(loaded):
                raise ValueError("not a telemetry aggregate")
            telemetry = loaded
        except (OSError, ValueError) as exc:
            warnings.append(f"{TELEMETRY_FILENAME} unreadable ({exc})")
    return render_report(run_dir, telemetry), warnings


def render_report(run_dir: str,
                  telemetry: Optional[dict] = None) -> str:
    """Human-readable run-health report for ``repro report <run-dir>``.

    Aggregates the manifests (or, for a dir without any, reads
    ``telemetry.json``) and summarizes throughput, fast-forward
    coverage, cache behaviour, per-phase timing and the per-experiment
    manifest record.
    """
    if telemetry is None:
        text, _warnings = report_health(run_dir)
        return text
    counters = telemetry.get("exact", {}).get("counters", {})
    histograms = telemetry.get("exact", {}).get("histograms", {})
    wall = telemetry.get("timing", {}).get("wall_time_s", {})
    lines: List[str] = []
    out = lines.append
    out(f"run health — {telemetry.get('run_dir', run_dir)}")
    out(f"  manifests: {telemetry.get('runs', 0)} run(s), "
        f"{telemetry.get('cells', 0)} cell(s)  "
        f"[counters from {telemetry.get('counter_source', '?')}]")
    experiments = telemetry.get("experiments", {})
    if experiments:
        summary = ", ".join(f"{name}×{count}"
                            for name, count in experiments.items())
        out(f"  experiments: {summary}")

    # Throughput: simulated events over measured wall time.
    events = counters.get("sim.events_fired")
    total_wall = wall.get("total")
    out("")
    out("engine")
    if events is not None:
        out(f"  events fired        {_fmt_count(events)}")
        if total_wall:
            out(f"  events/s (wall)     {events / total_wall:,.0f}")

    retired = counters.get("cpu.instructions_retired")
    fast = counters.get("ff.insts_fast_forwarded")
    if retired is not None or fast is not None:
        out("")
        out("fast-forward")
        if retired:
            out(f"  instructions        {_fmt_count(retired)}")
        if fast is not None:
            out(f"  fast-forwarded      {_fmt_count(fast)}  "
                f"(coverage {_fmt_pct(_ratio(fast or 0, retired or 0))})")
        for key, label in (
            ("ff.windows.steady", "steady windows"),
            ("ff.windows.warmup", "warm-up windows"),
            ("ff.uniform_bulk_retires", "uniform bulk retires"),
            ("cpu.spec_early_outs", "speculation early-outs"),
        ):
            if key in counters:
                out(f"  {label:<19} {_fmt_count(counters[key])}")

    cache_keys = [k for k in counters if k.startswith("cellcache.")]
    uarch_rates = [(label, _hit_rate(counters, f"uarch.{label}"))
                   for label in ("l1i", "l1d", "l2", "llc", "itlb", "stlb")]
    uarch_rates = [(label, rate) for label, rate in uarch_rates
                   if rate is not None]
    if cache_keys or uarch_rates:
        out("")
        out("caches")
        for label, rate in uarch_rates:
            out(f"  {label:<6} hit rate     {_fmt_pct(rate)}")
        if cache_keys:
            hits = counters.get("cellcache.hits", 0)
            hits += counters.get("cellcache.hit", 0)
            misses = counters.get("cellcache.misses", 0)
            out(f"  cell cache          {hits} hit(s), {misses} miss(es), "
                f"{counters.get('cellcache.stores', 0)} store(s)")

    attack_keys = [k for k in sorted(counters) if k.startswith("attack.")]
    if attack_keys or "attack.preemptions_per_window" in histograms:
        out("")
        out("attack")
        for key in attack_keys:
            out(f"  {key.split('.', 1)[1]:<19} {_fmt_count(counters[key])}")
        window = histograms.get("attack.preemptions_per_window")
        if window and window.get("count"):
            out(f"  preemptions/window  mean {window['mean']:,.1f}  "
                f"min {window['min']:g}  max {window['max']:g}  "
                f"({window['count']} window(s))")
        for key in ("kernel.switch.preempt_wakeup", "kernel.migrations"):
            if key in counters:
                out(f"  {key:<19} {_fmt_count(counters[key])}")

    if wall.get("n"):
        out("")
        out("timing (wall clock, nondeterministic)")
        out(f"  cells timed         {wall['n']}")
        out(f"  total               {wall['total']:.3f} s")
        out(f"  p50/p90/p100        {wall['p50']:.3f} / {wall['p90']:.3f} / "
            f"{wall['p100']:.3f} s")
    if not counters and not wall.get("n"):
        out("")
        out("(no metrics recorded — run with --telemetry or --metrics "
            "so manifests carry counter snapshots)")
    return "\n".join(lines)
