"""BENCH_*.json trajectory analysis: speedup curve and regression gate.

``benchmarks/BENCH_<date>.json`` files accumulate one per perf-report
run (see ``benchmarks/perf_report.py``); until now nothing read them
back.  This module parses the whole trajectory, renders the speedup
curve behind ``repro bench compare``, and implements the CI regression
gate (``benchmarks/bench_history.py --check``): the newest point must
not fall more than a threshold below the **best prior comparable
point**.

"Comparable" means same ``cpu_count`` and same ``uarch_backend`` — the
two stamps ``perf_report.py`` records exactly so that a CI runner with
a different core count (or a point from the since-removed array
backend) is never graded against a dev-machine dict-backend record.  A
point with no comparable predecessor passes trivially, with a note.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "BenchPoint",
    "RegressionCheck",
    "load_history",
    "render_curve",
    "check_regression",
    "DEFAULT_METRIC",
    "DEFAULT_THRESHOLD",
]

#: The gated metric: raw engine throughput is present in every report
#: (including ``--smoke`` CI points) and is the substrate number every
#: other speedup stands on.
DEFAULT_METRIC = "engine_events_per_sec"

#: Fail when the newest point drops more than this fraction below the
#: best prior comparable point (ISSUE: >20 % events/s drop).
DEFAULT_THRESHOLD = 0.20


@dataclass
class BenchPoint:
    """One BENCH_*.json report, flattened to what the trajectory needs."""

    path: str
    date: str
    git_commit: str = "unknown"
    uarch_backend: str = "dict"
    cpu_count: Optional[int] = None
    optimized: Dict[str, Any] = field(default_factory=dict)
    speedup: Dict[str, Any] = field(default_factory=dict)

    @property
    def basename(self) -> str:
        return os.path.basename(self.path)

    def metric(self, name: str = DEFAULT_METRIC) -> Optional[float]:
        value = self.optimized.get(name)
        return float(value) if isinstance(value, (int, float)) else None

    def comparable_to(self, other: "BenchPoint") -> bool:
        """Same hardware class and backend — gradeable against each
        other."""
        return (self.cpu_count == other.cpu_count
                and self.uarch_backend == other.uarch_backend)


def load_history(bench_dir: str) -> List[BenchPoint]:
    """Every parseable ``BENCH_*.json`` under ``bench_dir``, oldest
    first (by the recorded ``date``, then filename for stability)."""
    points: List[BenchPoint] = []
    for path in glob.glob(os.path.join(bench_dir, "BENCH_*.json")):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            continue
        if not isinstance(data, dict):
            continue
        optimized = data.get("optimized")
        if not isinstance(optimized, dict):
            continue
        points.append(BenchPoint(
            path=path,
            date=str(data.get("date", "")),
            git_commit=str(data.get("git_commit", "unknown") or "unknown"),
            uarch_backend=str(data.get("uarch_backend", "dict") or "dict"),
            cpu_count=(data["cpu_count"]
                       if isinstance(data.get("cpu_count"), int) else None),
            optimized=optimized,
            speedup=(data.get("speedup")
                     if isinstance(data.get("speedup"), dict) else {}),
        ))
    points.sort(key=lambda p: (p.date, p.basename))
    return points


def render_curve(points: Sequence[BenchPoint],
                 metric: str = DEFAULT_METRIC) -> str:
    """Human-readable trajectory table with a bar per point.

    The bar scales against the best value in the history, so the curve
    reads as "fraction of peak" at a glance; points missing the metric
    still appear (as ``n/a``) so the record stays complete.
    """
    if not points:
        return "(no BENCH_*.json history found)"
    values = [p.metric(metric) for p in points]
    peak = max((v for v in values if v is not None), default=None)
    lines = [f"bench trajectory — {metric} ({len(points)} point(s))"]
    width = 30
    for point, value in zip(points, values):
        stamp = point.git_commit[:10]
        backend = point.uarch_backend
        cpus = point.cpu_count if point.cpu_count is not None else "?"
        if value is None or not peak:
            lines.append(f"  {point.date}  {stamp:<10} "
                         f"{backend}/{cpus}cpu  n/a")
            continue
        bar = "#" * max(1, int(round(width * value / peak)))
        lines.append(f"  {point.date}  {stamp:<10} {backend}/{cpus}cpu  "
                     f"{value:>12,.0f}  {bar}")
    if peak:
        lines.append(f"  peak: {peak:,.0f}")
    best_speedups = [p for p in points if p.speedup]
    if best_speedups:
        latest = best_speedups[-1]
        summary = ", ".join(
            f"{key}={value}" for key, value in sorted(latest.speedup.items())
        )
        lines.append(f"  vs seed ({latest.date}): {summary}")
    return "\n".join(lines)


@dataclass
class RegressionCheck:
    """Outcome of gating the newest point against the history."""

    ok: bool
    message: str
    newest: Optional[BenchPoint] = None
    baseline: Optional[BenchPoint] = None
    drop: Optional[float] = None


def check_regression(points: Sequence[BenchPoint],
                     metric: str = DEFAULT_METRIC,
                     threshold: float = DEFAULT_THRESHOLD) -> RegressionCheck:
    """Gate the newest point: fail on a ``> threshold`` fractional drop
    of ``metric`` below the best *prior comparable* point."""
    if not points:
        return RegressionCheck(True, "no history — nothing to gate")
    newest = points[-1]
    value = newest.metric(metric)
    if value is None:
        return RegressionCheck(
            False,
            f"newest point {newest.basename} has no {metric!r}",
            newest=newest,
        )
    comparable = [p for p in points[:-1]
                  if p.comparable_to(newest) and p.metric(metric) is not None]
    if not comparable:
        return RegressionCheck(
            True,
            f"{newest.basename}: no prior comparable point "
            f"(cpu_count={newest.cpu_count}, "
            f"backend={newest.uarch_backend}) — pass by default",
            newest=newest,
        )
    baseline = max(comparable, key=lambda p: p.metric(metric))
    best = baseline.metric(metric)
    drop = (best - value) / best if best else 0.0
    if drop > threshold:
        return RegressionCheck(
            False,
            f"REGRESSION: {metric} {value:,.0f} is {drop:.1%} below the "
            f"best comparable point {best:,.0f} "
            f"({baseline.basename}, commit {baseline.git_commit[:10]}) — "
            f"threshold {threshold:.0%}",
            newest=newest, baseline=baseline, drop=drop,
        )
    word = "above" if drop <= 0 else "below"
    return RegressionCheck(
        True,
        f"ok: {metric} {value:,.0f} is {abs(drop):.1%} {word} the best "
        f"comparable point {best:,.0f} ({baseline.basename})",
        newest=newest, baseline=baseline, drop=drop,
    )
