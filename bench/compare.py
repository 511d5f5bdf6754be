#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 bench/compare.py A.json B.json

``A`` is the reference (the parent commit), ``B`` the change; each file
holds ``{"runs": [...]}`` as ``bench/run.py --out`` appends them.  For
every workload and end-to-end metric this prints each side's median and
quartiles over its untraced runs, and labels the change with the
metric's bound from ``BENCHMARK.json``:

* ``unresolved`` — a side's spread (quartile distance over median) is
  wider than the bound, and neither side reads better on every run; or
  the two sides cannot be compared (below);
* ``worse`` — B's median is worse than A's by more than the bound;
* ``improved`` — B's median is better than A's by more than A's spread;
* ``unchanged`` — otherwise.

Per workload it also prints each side's median host-speed scale
(``info.scale``, see ``bench/speed.py``).  When the medians differ by
more than the spread of A's scales, the scaled times rest on the probe's
tracking a changed host, so every time metric of that workload is
``unresolved``.  When the runs measured different numbers of sets (runs
with another ``--seconds``), every metric of the workload is.

When both files hold traced runs it then lists, per workload, how each
layer's self time per set moved, largest change first.  The exit code
is 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: str) -> List[dict]:
    with open(path) as fh:
        return json.load(fh)["runs"]


def by_metric(runs: List[dict], traced: bool) -> Dict[Tuple[str, str], List[float]]:
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        if run["trace"] != traced:
            continue
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(
                metric["value"])
    return values


def by_info(runs: List[dict], key: str) -> Dict[str, List[float]]:
    """``info[key]`` of the untraced runs, per workload."""
    values: Dict[str, List[float]] = {}
    for run in runs:
        if not run["trace"]:
            values.setdefault(run["workload"], []).append(run["info"][key])
    return values


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def label(a: List[float], b: List[float], bound: float, lower: bool) -> str:
    """The verdict for one metric (see the module docstring)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = (med_b - med_a) / med_a if med_a else 0.0
    if not lower:
        worse_by = -worse_by
    sign = 1 if lower else -1
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    if max(spread(a), spread(b)) > bound:
        return "improved" if all_better else "worse" if all_worse \
            else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > spread(a):
        return "improved"
    return "unchanged"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs_a, runs_b = load_runs(argv[0]), load_runs(argv[1])
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: (m["bound"], m["better"] == "lower", m["unit"])
              for m in spec["end_to_end"]}
    a, b = by_metric(runs_a, False), by_metric(runs_b, False)
    scale_a, scale_b = by_info(runs_a, "scale"), by_info(runs_b, "scale")
    sets_a, sets_b = by_info(runs_a, "sets"), by_info(runs_b, "sets")
    # Per workload: why its time metrics, or all its metrics, cannot be
    # compared.
    doubt_times: Dict[str, str] = {}
    doubt_all: Dict[str, str] = {}
    for workload in sorted(set(scale_a) & set(scale_b)):
        qa, qb = quartiles(scale_a[workload]), quartiles(scale_b[workload])
        moved = abs(qb[1] - qa[1]) / qa[1]
        print(f"{workload:10s} scale        A {qa[1]:.4g} [{qa[0]:.4g}, "
              f"{qa[2]:.4g}]  B {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]")
        if moved > spread(scale_a[workload]):
            doubt_times[workload] = (f"scale moved {moved:.1%}, more than "
                                     f"A's spread")
        sets = set(sets_a[workload]) | set(sets_b[workload])
        if len(sets) > 1:
            doubt_all[workload] = f"runs measured {sorted(sets)} sets"
    any_worse = False
    for key in sorted(set(a) & set(b)):
        workload, name = key
        if name not in bounds:
            continue
        bound, lower, unit = bounds[name]
        doubt = doubt_all.get(workload) or (
            doubt_times.get(workload) if unit == "s" else None)
        verdict = f"unresolved: {doubt}" if doubt \
            else label(a[key], b[key], bound, lower)
        any_worse |= verdict == "worse"
        qa, qb = quartiles(a[key]), quartiles(b[key])
        delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
        print(f"{workload:10s} {name:12s} "
              f"A {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}] n={len(a[key])}  "
              f"B {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] n={len(b[key])}  "
              f"{delta:+.1%}  {verdict} (bound {bound:.0%})")
    ta, tb = by_metric(runs_a, True), by_metric(runs_b, True)
    workloads = sorted({w for w, n in ta if n.endswith(".self_s")}
                       & {w for w, n in tb if n.endswith(".self_s")})
    for workload in workloads:
        print(f"\n{workload}: layer self time per set (traced runs)")
        rows = []
        for (w, name), values in ta.items():
            if w != workload or not name.endswith(".self_s") \
                    or (w, name) not in tb:
                continue
            med_a = statistics.median(values)
            med_b = statistics.median(tb[(w, name)])
            rows.append((abs(med_b - med_a), name, med_a, med_b))
        for _, name, med_a, med_b in sorted(rows, reverse=True):
            rel = f"{(med_b - med_a) / med_a:+7.1%}" if med_a else "    n/a"
            print(f"  {name:20s} {med_a:10.4f}s -> {med_b:10.4f}s "
                  f"({med_b - med_a:+.4f}s, {rel})")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
