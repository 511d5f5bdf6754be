#!/usr/bin/env python3
"""End-to-end benchmark of the controlled-preemption reproduction.

    python3 bench/run.py [--workload W ...] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out FILE]

Every workload runs in fresh child processes with every ``REPRO_*``
variable cleared.  The child is launched eleven times; each launch
reports "ready" once its modules are imported and its first set of
inputs is built (on ``serve``, once its service answers a ping), which
gives ``setup_s``.  The last launch then runs a fixed number of sets of
operations, as many as take ``--seconds`` at the reference speed
(:func:`sets_per_run`), and reports them.  ``--trace 1`` runs every set
twice, untraced and then with the layer wrappers of ``bench/layers.py``
installed, and reports per-layer self time and counts instead of the
end-to-end metrics.  Times are scaled to a fixed host speed measured in
the same run (``bench/speed.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero if
any operation failed or any check did not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = BENCH / "out"
GOLDEN = BENCH / "golden.json"

WORKLOAD_NAMES = ("resolution", "budget", "attacks", "serve")
SETUP_LAUNCHES = 11
CHILD_TIMEOUT_S = 170.0
#: ``run_seconds`` of BENCHMARK.json, passed to every run as ``--seconds``.
DEFAULT_SECONDS = 16
#: A traced set costs its untraced pass plus the traced one, which takes
#: about 1.4-1.7 times as long.
TRACED_SET_COST = 2.5

#: End-to-end metrics: name → unit.  Bounds live in BENCHMARK.json.
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_s.p50": "s",
              "peak_rss_mb": "MB"}


def sets_per_run(workload: str, seconds: float, trace: bool = False) -> int:
    """The number of sets one run measures: as many as take ``seconds``
    at the reference speed.  It depends on the arguments only, so every
    run with the same ``seconds`` does the same work on any host."""
    from workloads import WORKLOADS

    set_s = WORKLOADS[workload].SET_S * (TRACED_SET_COST if trace else 1.0)
    return max(1, round(seconds / set_s))


def per_layer_metrics() -> Dict[str, str]:
    """Per-layer metrics: name → unit."""
    from layers import LAYERS

    metrics: Dict[str, str] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = "s"
        metrics[f"{layer}.calls"] = "count"
    for name in ("sim.events_fired", "kernel.switches",
                 "cpu.instructions_retired", "ff.windows.steady",
                 "ff.windows.warmup", "ff.windows.periodic",
                 "ff.windows.loop", "uarch.btb.mispredicts",
                 "journal.records", "mitigations.denials"):
        metrics[name] = "count"
    for name in ("ff.coverage", "uarch.l1i.hit_rate", "uarch.l1d.hit_rate",
                 "uarch.llc.hit_rate", "uarch.itlb.hit_rate",
                 "uarch.stlb.hit_rate", "cellcache.hit_frac",
                 "trace.overhead"):
        metrics[name] = "ratio"
    return metrics


# ----------------------------------------------------------------------
# Child: one workload in one process
# ----------------------------------------------------------------------
def _load_golden(workload: str, seed: int) -> Dict[str, str]:
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    return golden["workloads"].get(workload, {}) if seed == golden["seed"] \
        else {}


def _check_records(records, golden: Dict[str, str]) -> List[List[str]]:
    """``[label, problem]`` for every record that failed a check."""
    problems = []
    for rec in records:
        if rec.problem is not None:
            problems.append([rec.label, rec.problem])
        elif rec.label in golden and golden[rec.label] != rec.digest:
            problems.append([rec.label, f"digest {rec.digest} differs from "
                                        f"golden {golden[rec.label]}"])
    return problems


def child_main(args) -> int:
    from speed import SpeedProbe
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](
        args.seed, str(OUT_DIR / f"state-{os.getpid()}"))
    try:
        golden = _load_golden(args.workload, args.seed)
        ops = workload.plan(0)
        workload.begin_set(0)
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        probe = SpeedProbe()
        probe.sample()
        n_sets = sets_per_run(args.workload, args.seconds, bool(args.trace))
        if args.trace:
            result = _measure_traced(workload, ops, n_sets, args, golden,
                                     probe)
        else:
            result = _measure(workload, ops, n_sets, golden, probe)
    finally:
        workload.close()
    result["scale"] = probe.scale
    result["probe_samples"] = len(probe.samples)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024 - probe.footprint_mb
    print(json.dumps(result), flush=True)
    return 0


def _measure(workload, ops, n_sets: int, golden, probe) -> Dict[str, Any]:
    from workloads import run_ops

    sets = []
    for k in range(n_sets):
        if k:
            ops = workload.plan(k)
            workload.begin_set(k)
        try:
            sets.append(run_ops(ops, probe))
        finally:
            workload.end_set()
    # Each operation's time at the reference speed measured around it.
    scaled = [[r.seconds * probe.scale_at(r.mid) for r in recs]
              for recs in sets]
    records = [r for recs in sets for r in recs]
    scores = [r.score for r in records if r.score is not None]
    return {
        "ops": len(records),
        "problems": _check_records(records, golden),
        "golden_checked": sum(r.label in golden for r in records),
        "op_s": [t for times in scaled for t in times],
        "set_s": [sum(times) for times in scaled],
        "score": statistics.fmean(scores) if scores else None,
    }


def _measure_traced(workload, ops, n_sets: int, args, golden,
                    probe) -> Dict[str, Any]:
    from layers import LayerTracer
    from workloads import run_ops

    from repro.obs import validate_chrome_trace

    tracer = LayerTracer()
    untraced_s, traced_s = 0.0, 0.0
    problems: List[List[str]] = []
    n_ops = 0
    for k in range(n_sets):
        if k:
            ops = workload.plan(k)
            workload.begin_set(k)
        # The untraced pass runs first, so every module a cell imports
        # lazily is loaded before the wrappers rebind module attributes.
        try:
            plain = run_ops(ops, probe)
        finally:
            workload.end_set()
        workload.begin_set(k)
        ops = workload.plan(k)
        tracer.install()
        try:
            traced = run_ops(ops, probe)
        finally:
            tracer.uninstall()
            workload.end_set()
        for a, b in zip(plain, traced):
            if a.digest != b.digest:
                problems.append([a.label, f"traced digest {b.digest} != "
                                          f"untraced {a.digest}"])
        problems += _check_records(plain + traced, golden)
        n_ops += len(plain) + len(traced)
        untraced_s += sum(r.seconds for r in plain)
        traced_s += sum(r.seconds for r in traced)
    trace = tracer.chrome_trace()
    problems += [["chrome-trace", p] for p in validate_chrome_trace(trace)]
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_path, "w") as fh:
        json.dump(trace, fh)
    report = tracer.report()
    return {
        "ops": n_ops,
        "problems": problems,
        "sets": n_sets,
        "layers": report["layers"],
        "counts": report["counts"],
        "root_s": report["root_s"],
        "overhead": traced_s / untraced_s if untraced_s else 0.0,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }


# ----------------------------------------------------------------------
# Parent: launches, metrics, report
# ----------------------------------------------------------------------
class BenchError(RuntimeError):
    """A child process did not start, finish or report as it must."""


def _child_env() -> Dict[str, str]:
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def _launch(workload: str, seed: int, seconds: float, trace: bool,
            go: bool, probe) -> tuple:
    """One child launch: ``(scaled setup seconds, result or None)``.

    The setup time is scaled by reference-kernel samples taken just
    before the launch and while the ready child waits.
    """
    from speed import scale_of

    window = [probe.sample(), probe.sample()]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=_child_env(), cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    out = ""
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        window += [probe.sample(), probe.sample()]
        setup_s *= scale_of(window)
        try:
            proc.stdin.write("go\n" if go else "quit\n")
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the child already exited; its return code says why
        out = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload}: child exited with {proc.returncode} "
                         f"(first line {ready.strip()!r})")
    if not go:
        return setup_s, None
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: child printed no result")
    return setup_s, json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> Dict[str, Any]:
    """Launch, measure and summarize one workload."""
    from speed import SpeedProbe

    probe = SpeedProbe()
    setups = []
    result: Optional[Dict[str, Any]] = None
    for i in range(SETUP_LAUNCHES):
        setup_s, result = _launch(workload, seed, seconds, trace,
                                  go=i == SETUP_LAUNCHES - 1, probe=probe)
        setups.append(setup_s)
    assert result is not None
    scale = result["scale"]
    info: Dict[str, Any] = {"ops": result["ops"],
                            "problems": result["problems"][:20],
                            "scale": scale,
                            "probe_samples": result["probe_samples"]}
    if trace:
        from layers import derived_counts

        units = per_layer_metrics()
        sets = result["sets"]
        metrics: Dict[str, float] = {}
        for layer, totals in result["layers"].items():
            metrics[f"{layer}.self_s"] = totals["self_s"] * scale / sets
            metrics[f"{layer}.calls"] = totals["calls"] / sets
        for name, value in derived_counts(result["counts"]).items():
            metrics[name] = value if units[name] == "ratio" else value / sets
        metrics["trace.overhead"] = result["overhead"]
        layer_sum = sum(t["self_s"] for t in result["layers"].values())
        info.update(sets=sets, trace_file=result["trace_file"],
                    root_s=result["root_s"], layer_self_sum_s=layer_sum)
    else:
        op_s = result["op_s"]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.fmean(result["set_s"]),
            "op_s.p50": statistics.median(op_s),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        # The p90 mixes cost clusters on most workloads, so it is kept
        # for reading, not as a gated metric.
        info.update(sets=len(result["set_s"]), setup_runs_s=setups,
                    op_s_p90=statistics.quantiles(op_s, n=10)[-1]
                    if len(op_s) > 1 else op_s[0],
                    golden_checked=result["golden_checked"],
                    attack_accuracy=result["score"])
        units = END_TO_END
    failed = len({label for label, _ in result["problems"]})
    return {
        "workload": workload,
        "correct": failed == 0,
        "attempted": result["ops"],
        "failed": min(failed, result["ops"]),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "info": info,
    }


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _append_out(path: str, records: List[Dict[str, Any]]) -> None:
    """Append this invocation's records to the result file at ``path``."""
    runs: List[Dict[str, Any]] = []
    if os.path.exists(path):
        with open(path) as fh:
            runs = json.load(fh)["runs"]
    with open(path, "w") as fh:
        json.dump({"runs": runs + records}, fh, indent=1)
        fh.write("\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="size of a run: the sets that take this long "
                        "at the reference speed")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer pass instead of "
                        "end-to-end metrics")
    parser.add_argument("--out", help="append the result records (JSON) here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: {SRC / 'repro'} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.child:
        if not args.workload or len(args.workload) != 1:
            print("bench: --child takes exactly one --workload", file=sys.stderr)
            return 2
        args.workload = args.workload[0]
        return child_main(args)

    workloads = args.workload or list(WORKLOAD_NAMES)
    stamp = {"commit": _commit(), "python": platform.python_version(),
             "cpu_count": os.cpu_count(), "seed": args.seed,
             "seconds": args.seconds, "trace": bool(args.trace)}
    records = []
    for workload in workloads:
        try:
            record = run_workload(workload, args.seed, args.seconds,
                                  bool(args.trace))
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        records.append(dict(stamp, **record))
        for label, problem in record["info"]["problems"]:
            print(f"{workload} FAILED {label}: {problem}", file=sys.stderr)
        for name, metric in record["metrics"].items():
            print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    if args.out:
        _append_out(args.out, records)
    single = len(records) == 1
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(name if single else f"{r['workload']}/{name}"): metric
                    for r in records for name, metric in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
