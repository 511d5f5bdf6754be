"""Command-line interface: ``python -m repro <command>``.

Gives downstream users one-line access to the paper's experiments
without writing harness code:

    python -m repro resolution --tau 740 --degrade
    python -m repro sweep --taus 440,740,1040 --jobs 4
    python -m repro budget --extra 12000 --scheduler eevdf
    python -m repro aes --keys 5 --jobs 4
    python -m repro sgx
    python -m repro btb --pairs 5
    python -m repro colocation --trials 20
    python -m repro mitigations
    python -m repro --trace trace.json resolution --preemptions 150
    python -m repro stats resolution
    python -m repro replay runs/run-resolution-s0-xxxxxxxxxx.json
    python -m repro serve --port 7341 &
    python -m repro submit resolution --port 7341 \\
        --grid tau=700,740,780 --param preemptions=200

``repro serve`` turns the same experiment registry into an async
service: batches of cells are deduped by their content-addressed
manifest key against the cell cache *and* against work already in
flight, so overlapping grids submitted by many clients simulate each
unique cell once (docs/SERVICE.md).

``--jobs N`` fans independent trials out over a process pool; ``--jobs
0`` means "all cores" (``os.cpu_count()``).  Results are bit-identical
to a serial run regardless of N — every trial derives its seed from the
root ``--seed`` and a stable identity, never from execution order.

Observability (see docs/OBSERVABILITY.md):

* every experiment run writes a JSON **run manifest** under
  ``--manifest-dir`` (default ``runs/``; suppress with ``--no-manifest``)
  from which ``repro replay`` re-executes it bit-identically;
* ``--metrics`` prints a metrics table after the run; ``--trace FILE``
  writes a Perfetto-loadable Chrome trace of the schedule (a traced
  command runs its cells in this process, with the cell cache off);
* ``--progress`` shows live per-cell progress for parallel sweeps;
* repeated cells are served from a content-addressed result cache under
  ``<manifest-dir>/cellcache`` (every experiment is a pure function of
  its recorded params, so a key hit is bit-identical to a recompute);
  ``--no-cell-cache`` forces recomputation, ``--cell-cache-dir DIR``
  relocates the store, and ``repro replay`` always bypasses it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from typing import List, Optional


# ----------------------------------------------------------------------
# Argument validation
# ----------------------------------------------------------------------
def _jobs_type(value: str) -> int:
    """``--jobs``: a non-negative integer (0 = all cores)."""
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer worker count, got {value!r}"
        )
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"worker count must be >= 0 (0 = all cores), got {jobs}"
        )
    return jobs


def _tau_list(value: str) -> List[float]:
    """``--taus``: comma-separated positive finite ns values."""
    taus: List[float] = []
    for entry in value.split(","):
        entry = entry.strip()
        if not entry:
            raise argparse.ArgumentTypeError(
                f"empty entry in τ list {value!r} (expected e.g. 440,740,1040)"
            )
        try:
            tau = float(entry)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"τ entry {entry!r} is not a number"
            )
        if not math.isfinite(tau) or tau <= 0:
            raise argparse.ArgumentTypeError(
                f"τ entry {entry!r} must be a positive finite ns value"
            )
        taus.append(tau)
    return taus


# ----------------------------------------------------------------------
# Manifest-recorded execution
# ----------------------------------------------------------------------
def _run(args: argparse.Namespace, experiment: str, params: dict,
         extra_kwargs: Optional[dict] = None):
    """Run a registry experiment through the manifest recorder.

    The manifest lands in ``--manifest-dir`` (stderr notes the path so
    stdout stays parseable); ``--no-manifest`` skips the write but still
    runs through the same code path.
    """
    from repro.obs.manifest import run_recorded

    out_dir = None if args.no_manifest else args.manifest_dir
    result, _manifest, path = run_recorded(
        experiment, params, out_dir=out_dir, extra_kwargs=extra_kwargs
    )
    if path:
        print(f"[manifest] {path}", file=sys.stderr)
    return result


def _cmd_resolution(args: argparse.Namespace) -> None:
    from repro.analysis.histogram import ascii_histogram

    run = _run(args, "resolution", dict(
        tau=args.tau,
        degrade_itlb=args.degrade,
        scheduler=args.scheduler,
        preemptions=args.preemptions,
        seed=args.seed,
    ))
    print(f"τ = {args.tau:.0f} ns on {args.scheduler}"
          + (" + iTLB eviction" if args.degrade else ""))
    print(ascii_histogram(run.samples))
    print(run.stats.describe())


def _cmd_sweep(args: argparse.Namespace) -> None:
    runs = _run(args, "sweep", dict(
        taus=args.taus,
        degrade_itlb=args.degrade,
        scheduler=args.scheduler,
        preemptions=args.preemptions,
        seed=args.seed,
    ), extra_kwargs=dict(jobs=args.jobs))
    print(f"τ sweep on {args.scheduler}"
          + (" + iTLB eviction" if args.degrade else "")
          + f" ({len(args.taus)} cells, jobs={args.jobs}):")
    for run in runs:
        print(f"τ={run.tau:7.0f} ns  {run.stats.describe()}")


def _cmd_budget(args: argparse.Namespace) -> None:
    run = _run(args, "budget", dict(
        extra_compute_ns=args.extra,
        scheduler=args.scheduler,
        victim_nice=args.nice,
        seed=args.seed,
    ))
    print(f"I_attacker − I_victim ≈ {run.drift_ns / 1000:.1f} µs "
          f"(victim nice {args.nice}, {args.scheduler})")
    print(f"consecutive preemptions: {run.preemptions} "
          f"(model: {run.expected:.0f})")


def _cmd_aes(args: argparse.Namespace) -> None:
    result = _run(args, "aes", dict(
        n_keys=args.keys, n_traces=args.traces,
        scheduler=args.scheduler, seed=args.seed,
    ), extra_kwargs=dict(jobs=args.jobs))
    print(f"AES first-round attack, {args.keys} keys × {args.traces} traces "
          f"({args.scheduler}):")
    print(f"mean upper-nibble accuracy: {result.mean_accuracy:.1%} "
          f"(paper: 98.9 % CFS / 98.1 % EEVDF)")


def _cmd_sgx(args: argparse.Namespace) -> None:
    result = _run(args, "sgx", dict(bits=1024, seed=args.seed))
    print(f"SGX base64 attack on a fresh RSA-1024 PEM "
          f"({result.char_count} chars):")
    print(f"single run : {result.single_run_coverage:6.1%} coverage, "
          f"{result.single_run_accuracy:6.2%} accuracy "
          f"(paper: 61.5 % @ 99.2 %)")
    print(f"two runs   : {result.stitched_coverage:6.1%} coverage, "
          f"{result.stitched_accuracy:6.2%} accuracy "
          f"(paper: 100 % @ 98.9 %)")


def _cmd_btb(args: argparse.Namespace) -> None:
    results = _run(args, "btb", dict(n_pairs=args.pairs, seed=args.seed),
                   extra_kwargs=dict(jobs=args.jobs))
    mean = statistics.mean(r.accuracy for r in results)
    for r in results:
        print(f"gcd({r.a}, {r.b}): {r.iterations} iterations, "
              f"{r.accuracy:.1%} branch accuracy")
    print(f"mean accuracy over {args.pairs} pairs: {mean:.1%} "
          f"(paper: 97.3 %)")


def _cmd_colocation(args: argparse.Namespace) -> None:
    if args.trials > 1:
        campaign = _run(args, "colocation-campaign", dict(
            n_trials=args.trials, n_cores=args.cores, seed=args.seed,
        ), extra_kwargs=dict(jobs=args.jobs))
        print(f"{args.cores}-core machine, {args.trials} independent trials:")
        print(f"colocated on the target core: {campaign.successes}"
              f"/{campaign.n_trials} ({campaign.success_rate:.0%})")
        print(f"stayed colocated through the attack: {campaign.stayed}"
              f"/{campaign.n_trials}")
        return
    outcome = _run(args, "colocation", dict(n_cores=args.cores, seed=args.seed))
    print(f"{args.cores}-core machine, {args.cores - 1} pinned dummies:")
    print(f"victim landed on cpu{outcome.landed_cpu} "
          f"(target cpu{outcome.target_cpu}) — "
          f"{'colocated' if outcome.colocated else 'missed'}")
    print(f"preemptions on the shared core: {outcome.preemptions_on_target}")


def _cmd_mitigations(args: argparse.Namespace) -> None:
    results = _run(args, "mitigations", dict(rounds=args.rounds, seed=args.seed),
                   extra_kwargs=dict(jobs=args.jobs))
    for r in results:
        print(f"{r.name:<22} preemptions={r.consecutive_preemptions:<6} "
              f"median insts/preempt="
              f"{r.median_instructions_per_preemption:,.0f}")


def _axis_list(text: str) -> list:
    """Comma-separated axis values; a ``{...}`` entry is parsed as a
    JSON mitigation spec, so only commas outside its brackets and
    strings separate entries.  Defense names, ``none`` included, pass
    as given: the grid canonicalizes every spelling."""
    decode = json.JSONDecoder().raw_decode
    out, i = [], 0
    while i < len(text):
        if text[i] == "," or text[i].isspace():
            i += 1
        elif text[i] == "{":
            spec, i = decode(text, i)
            if not text[i:].lstrip().startswith(",") and text[i:].strip():
                raise ValueError(f"text after a JSON spec: {text[i:]!r}")
            out.append(spec)
        else:
            end = (text + ",").index(",", i)
            out.append(text[i:end].strip())
            i = end
    return out


def _cmd_defense_grid(args: argparse.Namespace) -> None:
    from repro.experiments.defense_grid import format_defense_grid
    from repro.obs.manifest import result_digest

    result = _run(args, "defense-grid", dict(
        workloads=tuple(args.workloads),
        defenses=tuple(args.defenses),
        schedulers=tuple(args.schedulers),
        seed=args.seed,
    ), extra_kwargs=dict(jobs=args.jobs))
    if args.json:
        from dataclasses import asdict

        print(json.dumps(asdict(result), indent=2, sort_keys=True))
    else:
        print(format_defense_grid(result))
    print(f"[digest] {result_digest(result)}", file=sys.stderr)


# ----------------------------------------------------------------------
# Observability verbs
# ----------------------------------------------------------------------
def _traceable_params(args: argparse.Namespace) -> dict:
    """Small-run parameters for the ``stats`` demonstration verb."""
    if args.experiment == "resolution":
        return dict(tau=args.tau, preemptions=args.preemptions,
                    seed=args.seed)
    return dict(extra_compute_ns=12_000.0, seed=args.seed)  # budget


def _cmd_stats(args: argparse.Namespace) -> None:
    import repro.obs as obs_mod

    os.environ["REPRO_METRICS"] = "1"
    obs_mod.reset()
    try:
        _run(args, args.experiment, _traceable_params(args))
        obs = obs_mod.get_obs()
        if args.format == "openmetrics":
            from repro.obs.telemetry import render_openmetrics

            sys.stdout.write(render_openmetrics(obs.metrics))
        else:
            print(obs.metrics.render())
    finally:
        os.environ.pop("REPRO_METRICS", None)
        obs_mod.reset()


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import report_health, write_telemetry

    if not os.path.isdir(args.run_dir):
        print(f"no such run directory: {args.run_dir}", file=sys.stderr)
        return 1
    if args.write:
        path = write_telemetry(args.run_dir)
        print(f"[telemetry] {path}", file=sys.stderr)
    # A crashed sweep leaves truncated telemetry/manifests behind; the
    # report degrades to whatever partial picture the run dir supports
    # and only --strict turns the degradation into a failing exit code.
    text, warnings = report_health(args.run_dir)
    for warning in warnings:
        print(f"[report] warning: {warning}", file=sys.stderr)
    print(text)
    if warnings and args.strict:
        return 1
    return 0


def _duration_s(value: str) -> float:
    """``--older-than``: seconds, or a number suffixed s/m/h/d."""
    value = value.strip().lower()
    factor = 1.0
    suffixes = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    if value and value[-1] in suffixes:
        factor = suffixes[value[-1]]
        value = value[:-1]
    try:
        seconds = float(value) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a duration like 3600, 30m, 12h or 7d, got {value!r}"
        )
    if seconds < 0:
        raise argparse.ArgumentTypeError("duration must be >= 0")
    return seconds


def _cache_dir_for(args: argparse.Namespace) -> str:
    cache_dir = getattr(args, "cell_cache_dir", None)
    if cache_dir is None:
        cache_dir = os.path.join(args.manifest_dir, "cellcache")
    return cache_dir


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    from repro.obs.cellcache import CellCache

    cache_dir = _cache_dir_for(args)
    if not os.path.isdir(cache_dir):
        print(f"cell cache {cache_dir}: empty (directory does not exist)")
        return 0
    stats = CellCache(cache_dir).stats()
    print(f"cell cache {stats['directory']}")
    print(f"  entries  {stats['entries']:,}")
    print(f"  bytes    {stats['bytes']:,}")
    if stats["entries"]:
        import time

        now = time.time()
        print(f"  oldest   {now - stats['oldest_mtime']:,.0f} s ago")
        print(f"  newest   {now - stats['newest_mtime']:,.0f} s ago")
    return 0


def _cmd_cache_prune(args: argparse.Namespace) -> int:
    from repro.obs.cellcache import CellCache

    cache_dir = _cache_dir_for(args)
    if not os.path.isdir(cache_dir):
        print(f"cell cache {cache_dir}: nothing to prune")
        return 0
    outcome = CellCache(cache_dir).prune(args.older_than)
    print(f"pruned {outcome['removed']} entr"
          f"{'y' if outcome['removed'] == 1 else 'ies'} "
          f"({outcome['removed_bytes']:,} bytes); "
          f"{outcome['kept']} kept")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.validate.harness import run_validate

    out_dir = None if args.no_manifest else args.manifest_dir
    report = run_validate(
        cases=args.cases,
        seed=args.seed,
        cpus=args.cpus,
        scheduler=args.sched,
        bug=args.inject_bug,
        jobs=args.jobs,
        shrink=not args.no_shrink,
        out_dir=out_dir,
        max_tasks=args.max_tasks,
        profile=args.profile,
        differential=args.differential,
        uarch_cases=args.uarch_cases,
        ff_cases=args.ff_cases,
    )
    total = args.cases * len(report.schedulers)
    print(f"{total} cases on {'/'.join(report.schedulers)} "
          f"({args.cpus} CPUs, seed {args.seed}, "
          f"profile {args.profile}): "
          f"{report.n_switches} switches, {report.n_wakeups} wakeups, "
          f"{report.n_preempt_grants} wakeup preemptions, "
          f"{report.n_migrations} migrations")
    if args.uarch_cases:
        print(f"plus {args.uarch_cases} scripted cache/TLB differential "
              "case(s)")
    if args.ff_cases:
        print(f"plus {args.ff_cases} fast-forward certification case(s)")
    print(f"campaign digest: {report.digest[:16]}…")
    if report.ok:
        if args.inject_bug:
            print(f"injected bug {args.inject_bug!r} was NOT caught "
                  "by any invariant", file=sys.stderr)
            return 1
        print("all invariants held")
        return 0
    print(f"{len(report.failures)} violating case(s):")
    for failure in report.failures:
        print(f"  [{failure.scheduler}] seed {failure.case_seed}: "
              f"{', '.join(failure.invariants)} "
              f"(shrunk to {failure.shrunk_tasks} task(s))")
        if failure.reproducer_path:
            print(f"    reproducer: {failure.reproducer_path} "
                  "(re-run with `python -m repro replay`)")
        for line in failure.differential:
            print(f"    differential: {line}")
    if args.inject_bug:
        print(f"injected bug {args.inject_bug!r} caught, as expected")
        return 0
    return 1


# ----------------------------------------------------------------------
# Experiment service (``repro serve`` / ``repro submit``)
# ----------------------------------------------------------------------
def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the async experiment service until SIGINT/SIGTERM (or a
    client ``drain``), then finish in-flight cells and exit."""
    import asyncio
    import signal

    from repro.parallel import resolve_jobs
    from repro.service.server import ExperimentService, ServiceConfig

    manifest_dir = None if args.no_manifest else args.manifest_dir
    cache_dir = None if args.no_cell_cache else _cache_dir_for(args)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=resolve_jobs(args.jobs),
        queue_limit=args.queue_limit,
        cell_timeout_s=args.cell_timeout,
        max_retries=args.cell_retries,
        cache_dir=cache_dir,
        manifest_dir=manifest_dir,
        journal_dir=args.journal_dir,
    )
    service = ExperimentService(config)

    async def _main() -> None:
        await service.start()
        print(f"[serve] listening on {config.host}:{service.port} "
              f"({config.workers} worker(s), queue limit "
              f"{config.queue_limit}, cache "
              f"{cache_dir or 'disabled'})", flush=True)
        loop = asyncio.get_running_loop()

        def _request_drain() -> None:
            asyncio.ensure_future(service.drain())

        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, _request_drain)
            except (NotImplementedError, RuntimeError):
                pass
        await service.serve_until_stopped()
        print("[serve] drained, shutting down", file=sys.stderr)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


def _param_value(raw: str):
    """A ``--param``/``--grid`` value: JSON when it parses, else the
    raw string (so ``--param scheduler=cfs`` needs no quoting)."""
    import json

    try:
        return json.loads(raw)
    except ValueError:
        return raw


def _kv_pair(raw: str, flag: str):
    if "=" not in raw:
        raise argparse.ArgumentTypeError(
            f"{flag} expects name=value, got {raw!r}")
    name, value = raw.split("=", 1)
    return name.strip(), value


def _build_cells(args: argparse.Namespace):
    """The sweep-shaped cell list shared by ``submit`` and ``run``:
    ``--file batch.json``, or EXPERIMENT with ``--param``/``--grid``
    (cartesian product), times ``--repeat``.  None when neither form
    was given (the resume path reloads cells from ``sweep.json``)."""
    import json

    from repro.experiments.wire import cell_from_wire, grid_cells

    if getattr(args, "file", None):
        with open(args.file) as fh:
            data = json.load(fh)
        raw_cells = data["cells"] if isinstance(data, dict) else data
        cells = [cell_from_wire(obj) for obj in raw_cells]
    elif getattr(args, "experiment", None):
        base = dict(_kv_pair(p, "--param") for p in args.param or [])
        base = {k: _param_value(v) for k, v in base.items()}
        sweep = {}
        for raw in args.grid or []:
            name, values = _kv_pair(raw, "--grid")
            sweep[name] = [_param_value(v) for v in values.split(",")]
        cells = (grid_cells(args.experiment, sweep, base) if sweep
                 else [cell_from_wire({"experiment": args.experiment,
                                       "params": base})])
    else:
        return None
    return cells * max(1, getattr(args, "repeat", 1))


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.service import client

    if args.ping:
        print(json.dumps(client.ping(args.host, args.port), sort_keys=True))
        return 0
    if args.drain_server:
        print(json.dumps(client.drain(args.host, args.port), sort_keys=True))
        return 0
    if args.run_dir:
        def execute(cells, on_done) -> None:
            # A failed cell carries no digest: on_done(i, None).
            client.submit_batch(
                args.host, args.port, cells,
                max_attempts=args.send_retries + 1,
                on_cell=lambda cell: on_done(cell.index, cell.digest))

        return _sweep(args, "submit", executor=execute)
    cells = _build_cells(args)
    if args.resume:
        print("--resume needs --run-dir (the journal lives in the run "
              "directory)", file=sys.stderr)
        return 2
    if cells is None:
        print("submit needs an EXPERIMENT (with --param/--grid) or "
              "--file batch.json", file=sys.stderr)
        return 2
    result = client.submit_batch(
        args.host, args.port, cells, max_attempts=args.send_retries + 1)
    if args.json:
        print(json.dumps({
            "batch_id": result.batch_id,
            "summary": result.summary,
            "digests": result.digests,
            "statuses": [c.status for c in result.cells],
            "sources": [c.source for c in result.cells],
        }, sort_keys=True))
    else:
        for cell in result.cells:
            digest = (cell.digest or "")[:16]
            note = cell.error or f"digest {digest}…"
            print(f"  cell {cell.index:>4}  {cell.status:<8} "
                  f"[{cell.source}]  {note}")
        summary = ", ".join(f"{k}={v}"
                            for k, v in sorted(result.summary.items()))
        print(f"batch {result.batch_id}: {len(result.cells)} cell(s) — "
              f"{summary}")
    return 0 if result.ok else 1


def _cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: a crash-safe local sweep inside a run directory."""
    return _sweep(args, "run")


def _sweep(args: argparse.Namespace, verb: str, executor=None) -> int:
    """The journaled sweep behind ``repro run`` and ``repro submit
    --run-dir`` (``executor`` None → the local pool).

    SIGINT/SIGTERM set an abort flag that :func:`repro.sweeps.run_sweep`
    checks after each journaled cell; the journal is flushed before
    exit.  Exit codes: 130 interrupted (continue with ``--resume``, zero
    recomputation of journaled cells), 2 bad run dir, 1 a cell failed.
    """
    import json
    import signal

    from repro.chaos import ChaosAbort
    from repro.sweeps import SweepInterrupted, run_sweep

    cells = _build_cells(args)
    if cells is None and not args.resume:
        print(f"{verb} --run-dir needs an EXPERIMENT (with --param/--grid) "
              "or --file batch.json, or --resume on an existing run dir",
              file=sys.stderr)
        return 2

    flag = {"abort": False}

    def _request_abort(signum, frame) -> None:
        flag["abort"] = True

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _request_abort)
        except (ValueError, OSError):
            pass
    try:
        result = run_sweep(
            args.run_dir, cells, jobs=args.jobs, resume=args.resume,
            should_abort=lambda: flag["abort"], executor=executor)
    except (SweepInterrupted, ChaosAbort) as exc:
        print(f"[{verb}] {exc}; journal flushed — continue with --resume",
              file=sys.stderr)
        return 130
    except ValueError as exc:
        print(f"[{verb}] {exc}", file=sys.stderr)
        return 2
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass

    cells_total = len(result.outcomes) + result.failed
    if args.json:
        print(json.dumps({
            "run_dir": args.run_dir,
            "spec_digest": result.spec_digest,
            "digests": [o.digest for o in result.outcomes],
            "sweep_digest": result.digest,
            "journal_served": result.journal_served,
            "ran": result.ran,
            "errors": result.failed,
            "torn": result.torn,
            "cells": cells_total,
        }, sort_keys=True))
    else:
        for outcome in result.outcomes:
            print(f"  cell {outcome.index:>4}  [{outcome.source:<7}]  "
                  f"digest {outcome.digest[:16]}…")
        notes = (f", {result.failed} error(s)" if result.failed else "") + (
            " (journal had a torn final line)" if result.torn else "")
        print(f"sweep {args.run_dir}: {len(result.outcomes)}/{cells_total} "
              f"cell(s) — {result.journal_served} from journal, "
              f"{result.ran} computed{notes}")
        print(f"sweep digest: {result.digest[:16]}…")
    return 1 if result.failed else 0


def _cmd_chaos_plan(args: argparse.Namespace) -> int:
    """``repro chaos plan``: author a replayable fault schedule."""
    import json

    from repro.chaos import INJECTION_POINTS, ChaosSpec, FaultEvent

    rates: dict = {}
    for raw in args.rate or []:
        name, value = _kv_pair(raw, "--rate")
        if ":" not in name:
            print(f"--rate expects POINT:KIND=P, got {raw!r} "
                  f"(points: {sorted(INJECTION_POINTS)})", file=sys.stderr)
            return 2
        point, kind = name.split(":", 1)
        try:
            rates.setdefault(point.strip(), {})[kind.strip()] = float(value)
        except ValueError:
            print(f"--rate probability must be a number, got {value!r}",
                  file=sys.stderr)
            return 2
    events = []
    for raw in args.event or []:
        try:
            events.append(FaultEvent.from_dict(json.loads(raw)))
        except ValueError as exc:
            print(f"bad --event {raw!r}: {exc}", file=sys.stderr)
            return 2
    try:
        spec = ChaosSpec(seed=args.chaos_seed, rates=rates, events=events,
                         max_faults=args.max_faults)
    except ValueError as exc:
        print(f"[chaos] {exc}", file=sys.stderr)
        return 2
    path = spec.save(args.out)
    print(f"[chaos] wrote fault schedule to {path} "
          f"(activate with REPRO_CHAOS={path} or --chaos {path})",
          file=sys.stderr)
    print(path)
    return 0


def _cmd_chaos_show(args: argparse.Namespace) -> int:
    """``repro chaos show``: validate + pretty-print a schedule."""
    import json

    from repro.chaos import load_spec

    try:
        spec = load_spec(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"[chaos] unreadable schedule {args.manifest!r}: {exc}",
              file=sys.stderr)
        return 1
    print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.obs.manifest import load_manifest, replay

    manifest = load_manifest(args.manifest)
    print(f"replaying {manifest.kind} manifest: {manifest.experiment} "
          f"(seed {manifest.seed})")
    _result, ok = replay(manifest)
    if ok:
        print(f"digest match: {manifest.result_digest[:16]}… — "
              "run reproduced bit-identically")
        return 0
    print("DIGEST MISMATCH — the code or environment diverged from the "
          "recording", file=sys.stderr)
    return 1


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Controlled Preemption (ASPLOS 2025) reproduction",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=_jobs_type, default=0, metavar="N",
        help="worker processes for independent trials "
             "(0 = all cores, 1 = serial; default: all cores)",
    )
    parser.add_argument("--metrics", action="store_true",
                        help="collect metrics and print the table after the run")
    parser.add_argument("--telemetry", action="store_true",
                        help="collect per-cell metrics (implies --metrics "
                             "recording) and write telemetry.json beside "
                             "the run manifests")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="record a Chrome/Perfetto trace to FILE")
    parser.add_argument("--progress", action="store_true",
                        help="live per-cell progress on stderr for sweeps")
    parser.add_argument("--manifest-dir", default="runs", metavar="DIR",
                        help="where run manifests are written (default: runs/)")
    parser.add_argument("--no-manifest", action="store_true",
                        help="do not write a run manifest")
    parser.add_argument("--cell-cache-dir", default=None, metavar="DIR",
                        help="content-addressed cell-result cache location "
                             "(default: <manifest-dir>/cellcache)")
    parser.add_argument("--no-cell-cache", action="store_true",
                        help="always recompute cells, never serve them "
                             "from the cache")
    parser.add_argument("--chaos", default=None, metavar="FILE",
                        help="activate a chaos fault schedule (JSON from "
                             "`repro chaos plan`; exported as REPRO_CHAOS "
                             "so pool workers inherit it — docs/CHAOS.md)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("resolution", help="Fig 4.3/4.7 histogram cell")
    p.add_argument("--tau", type=float, default=740.0)
    p.add_argument("--degrade", action="store_true",
                   help="evict the victim's iTLB entry each round")
    p.add_argument("--scheduler", choices=("cfs", "eevdf"), default="cfs")
    p.add_argument("--preemptions", type=int, default=1000)
    p.set_defaults(func=_cmd_resolution)

    p = sub.add_parser("sweep", help="τ sweep (parallel resolution cells)")
    p.add_argument("--taus", type=_tau_list, default=_tau_list("440,590,740,890,1040"),
                   help="comma-separated τ values (ns)")
    p.add_argument("--degrade", action="store_true",
                   help="evict the victim's iTLB entry each round")
    p.add_argument("--scheduler", choices=("cfs", "eevdf"), default="cfs")
    p.add_argument("--preemptions", type=int, default=1000)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("budget", help="Fig 4.4/4.5 preemption count")
    p.add_argument("--extra", type=float, default=12_000.0,
                   help="attacker measurement padding (ns)")
    p.add_argument("--nice", type=int, default=0, help="victim nice value")
    p.add_argument("--scheduler", choices=("cfs", "eevdf"), default="cfs")
    p.set_defaults(func=_cmd_budget)

    p = sub.add_parser("aes", help="§5.1 AES first-round attack")
    p.add_argument("--keys", type=int, default=5)
    p.add_argument("--traces", type=int, default=5)
    p.add_argument("--scheduler", choices=("cfs", "eevdf"), default="cfs")
    p.set_defaults(func=_cmd_aes)

    p = sub.add_parser("sgx", help="§5.2 SGX base64 PEM attack")
    p.set_defaults(func=_cmd_sgx)

    p = sub.add_parser("btb", help="§5.3 BTB control-flow attack")
    p.add_argument("--pairs", type=int, default=5)
    p.set_defaults(func=_cmd_btb)

    p = sub.add_parser("colocation", help="§4.4 colocation technique")
    p.add_argument("--cores", type=int, default=16)
    p.add_argument("--trials", type=int, default=1,
                   help="independent colocation attempts (>1 → campaign "
                        "statistics over derived seeds)")
    p.set_defaults(func=_cmd_colocation)

    p = sub.add_parser("mitigations", help="§6 defence ablation")
    p.add_argument("--rounds", type=int, default=400)
    p.set_defaults(func=_cmd_mitigations)

    p = sub.add_parser(
        "defense-grid",
        help="defense arena: every attack × every mitigation policy × "
             "both schedulers (docs/MITIGATIONS.md)",
    )
    p.add_argument("--workloads", type=_axis_list,
                   default=_axis_list("aes,btb,sgx,benign"),
                   help="comma-separated workloads "
                        "(aes, btb, sgx, benign)")
    p.add_argument("--defenses", type=_axis_list,
                   default=_axis_list("none,leash,schedguard,prefence"),
                   help="comma-separated defenses: policy names, 'none', "
                        "or JSON specs like "
                        "'{\"policy\":\"leash\",\"flag_threshold\":8}'")
    p.add_argument("--schedulers", type=_axis_list,
                   default=_axis_list("cfs,eevdf"),
                   help="comma-separated schedulers (cfs, eevdf)")
    p.add_argument("--json", action="store_true",
                   help="emit the full grid as JSON instead of the table")
    p.set_defaults(func=_cmd_defense_grid)

    p = sub.add_parser(
        "stats", help="run a small experiment with metrics on and print "
                      "the metrics table",
    )
    p.add_argument("experiment", choices=("resolution", "budget"))
    p.add_argument("--tau", type=float, default=740.0)
    p.add_argument("--preemptions", type=int, default=300)
    p.add_argument("--format", choices=("table", "openmetrics"),
                   default="table",
                   help="output format: human table (default) or "
                        "OpenMetrics text exposition")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "report",
        help="render a run-health report (events/s, fast-forward "
             "coverage, cache hit rates, attack counters, timing) from "
             "a run directory's manifests",
    )
    p.add_argument("run_dir", help="directory holding run-*/cell-*.json "
                                   "manifests (e.g. runs/)")
    p.add_argument("--write", action="store_true",
                   help="also write/update telemetry.json in the run dir")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when the report had to degrade (missing/"
                        "truncated telemetry.json or unreadable "
                        "manifests); default is a partial report + "
                        "warnings on stderr")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "cache",
        help="inspect or prune the content-addressed cell-result cache",
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    c = cache_sub.add_parser("stats",
                             help="entry count, bytes on disk, age range")
    c.set_defaults(func=_cmd_cache_stats)
    c = cache_sub.add_parser("prune", help="age-based eviction")
    c.add_argument("--older-than", type=_duration_s, required=True,
                   metavar="AGE",
                   help="remove entries older than AGE "
                        "(seconds, or suffixed s/m/h/d, e.g. 7d)")
    c.set_defaults(func=_cmd_cache_prune)

    p = sub.add_parser(
        "validate",
        help="fuzz the simulated schedulers against invariant oracles "
             "(see docs/VALIDATION.md)",
    )
    p.add_argument("--cases", type=int, default=200,
                   help="random workloads per scheduler (default: 200)")
    p.add_argument("--cpus", type=int, default=2,
                   help="simulated CPUs per case (default: 2)")
    p.add_argument("--sched", choices=("cfs", "eevdf", "both"),
                   default="both")
    p.add_argument("--max-tasks", type=int, default=6,
                   help="max tasks per generated workload (default: 6)")
    from repro.validate.harness import BUG_NAMES as _bugs
    p.add_argument("--inject-bug", choices=_bugs, default=None,
                   help="plant a known scheduler bug to demonstrate the "
                        "oracles catch it (exit 0 iff caught)")
    p.add_argument("--profile", choices=("mixed", "imbalance", "classic"),
                   default="mixed",
                   help="workload family: 'imbalance' forces cross-CPU "
                        "migration mixes, 'classic' is the original "
                        "single-queue-heavy diet, 'mixed' draws per seed "
                        "(default)")
    p.add_argument("--differential", action="store_true",
                   help="re-run every failing seed across the CFS/EEVDF "
                        "feature grid and print the divergence summary")
    p.add_argument("--uarch-cases", type=int, default=0, metavar="N",
                   help="append N scripted cache/TLB differential cases "
                        "(machine vs brute-force reference model)")
    p.add_argument("--ff-cases", type=int, default=0, metavar="N",
                   help="append N fast-forward certification cases "
                        "(arithmetic fast paths vs the per-instruction "
                        "interpreter)")
    p.add_argument("--no-shrink", action="store_true",
                   help="skip minimizing failing cases")
    # Accept the global --seed/--jobs after the verb too (SUPPRESS keeps
    # the subparser from clobbering a value given before it).
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--jobs", type=_jobs_type, default=argparse.SUPPRESS,
                   metavar="N")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "serve",
        help="run the async experiment service: batches of cells in, "
             "manifest-keyed dedupe against the cell cache, worker-pool "
             "execution (see docs/SERVICE.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (default 0 = ephemeral; the chosen "
                        "port is printed on stdout)")
    p.add_argument("--queue-limit", type=int, default=256,
                   help="max admitted-but-unfinished cells before "
                        "submissions get backpressure (default: 256)")
    p.add_argument("--cell-timeout", type=float, default=120.0,
                   metavar="S",
                   help="per-cell wall-clock timeout; a timed-out cell "
                        "counts as a transport failure and is retried")
    p.add_argument("--cell-retries", type=int, default=2, metavar="N",
                   help="transport-failure retries per cell (the retried "
                        "cell is identical — never re-seeded; default: 2)")
    p.add_argument("--journal-dir", default=None, metavar="DIR",
                   help="append each completed cell's key+digest to a sweep "
                        "journal in DIR (survives crashes; clients can "
                        "also journal on their side with submit "
                        "--run-dir)")
    # Accept the global --jobs after the verb too.
    p.add_argument("--jobs", type=_jobs_type, default=argparse.SUPPRESS,
                   metavar="N")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit experiment cells to a running `repro serve` and "
             "stream per-cell results",
    )
    p.add_argument("experiment", nargs="?", default=None,
                   help="registry verb (e.g. resolution) or "
                        "repro.module:function path")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=False, default=7341)
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="fixed parameter (JSON value or bare string); "
                        "repeatable")
    p.add_argument("--grid", action="append", metavar="NAME=V1,V2,...",
                   help="sweep axis; repeated axes form the cartesian "
                        "product (the overlapping-grid shape the "
                        "service dedupes)")
    p.add_argument("--file", default=None, metavar="BATCH_JSON",
                   help="JSON file with a list of cells (or "
                        "{'cells': [...]}) instead of EXPERIMENT")
    p.add_argument("--repeat", type=int, default=1,
                   help="submit the batch's cells N times over "
                        "(duplicates exercise dedupe; default 1)")
    p.add_argument("--send-retries", type=int, default=4, metavar="N",
                   help="resubmissions to attempt when the server "
                        "answers queue-full backpressure (default: 4)")
    p.add_argument("--run-dir", default=None, metavar="DIR",
                   help="make the submit crash-safe: bind the batch to "
                        "DIR/sweep.json and journal each result frame "
                        "as it streams in (resume with --resume)")
    p.add_argument("--resume", action="store_true",
                   help="with --run-dir: replay the journal and resubmit "
                        "only unjournaled cells (zero recomputation)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable summary on stdout")
    p.add_argument("--ping", action="store_true",
                   help="just check liveness and print the pong")
    p.add_argument("--drain-server", action="store_true",
                   help="ask the server to finish queued work and shut "
                        "down")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "run",
        help="crash-safe local sweep: execute a cell grid inside a run "
             "directory with a write-ahead journal; --resume continues "
             "an interrupted sweep with zero recomputation",
    )
    p.add_argument("experiment", nargs="?", default=None,
                   help="registry verb (e.g. resolution) or "
                        "repro.module:function path")
    p.add_argument("--run-dir", required=True, metavar="DIR",
                   help="durable sweep directory (sweep.json + "
                        "journal.ndjson live here)")
    p.add_argument("--resume", action="store_true",
                   help="continue the sweep recorded in --run-dir "
                        "(journaled cells are served, never recomputed)")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="fixed parameter (JSON value or bare string); "
                        "repeatable")
    p.add_argument("--grid", action="append", metavar="NAME=V1,V2,...",
                   help="sweep axis; repeated axes form the cartesian "
                        "product")
    p.add_argument("--file", default=None, metavar="BATCH_JSON",
                   help="JSON file with a list of cells (or "
                        "{'cells': [...]}) instead of EXPERIMENT")
    p.add_argument("--repeat", type=int, default=1,
                   help="run the grid's cells N times over (default 1)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable summary on stdout")
    # Accept the global --jobs/--seed after the verb too.
    p.add_argument("--jobs", type=_jobs_type, default=argparse.SUPPRESS,
                   metavar="N")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "chaos",
        help="author and inspect deterministic fault schedules "
             "(docs/CHAOS.md)",
    )
    chaos_sub = p.add_subparsers(dest="chaos_command", required=True)
    c = chaos_sub.add_parser(
        "plan", help="write a chaos manifest from --rate/--event flags")
    c.add_argument("--chaos-seed", type=int, default=0,
                   help="root seed for the schedule's rate draws "
                        "(default: 0)")
    c.add_argument("--rate", action="append", metavar="POINT:KIND=P",
                   help="probabilistic fault, e.g. "
                        "cellcache.fetch:corrupt=0.05; repeatable")
    c.add_argument("--event", action="append", metavar="JSON",
                   help="scripted fault, e.g. '{\"point\":\"service.cell\","
                        "\"kind\":\"worker_kill\",\"match\":{\"seed\":123,"
                        "\"attempt\":0}}'; repeatable")
    c.add_argument("--max-faults", type=int, default=None, metavar="N",
                   help="per-process cap on executed faults "
                        "(default: unlimited)")
    c.add_argument("--out", default="chaos.json", metavar="FILE",
                   help="where to write the schedule (default: chaos.json)")
    c.set_defaults(func=_cmd_chaos_plan)
    c = chaos_sub.add_parser(
        "show", help="validate and pretty-print a chaos manifest")
    c.add_argument("manifest", help="path to a chaos schedule JSON")
    c.set_defaults(func=_cmd_chaos_show)

    p = sub.add_parser(
        "replay", help="re-execute a run manifest and verify bit-identity",
    )
    p.add_argument("manifest", help="path to a manifest JSON file")
    p.set_defaults(func=_cmd_replay)
    return parser


def _configure_obs(args: argparse.Namespace) -> None:
    """Install the run's observability config, via the environment so
    process-pool workers (fork or spawn) inherit it."""
    import repro.obs as obs_mod

    def _set(name: str, on: bool, value: str = "1") -> None:
        if on:
            os.environ[name] = value
        else:
            os.environ.pop(name, None)

    telemetry = bool(getattr(args, "telemetry", False))
    # A trace is built from the records of the kernels this process
    # runs, so a traced command computes every cell here: serially, and
    # never from the cell cache.
    tracing = args.trace is not None
    if tracing:
        args.jobs = 1
    # --telemetry needs the workers to record metric snapshots into
    # their cell manifests, so it implies metric *collection* (the
    # post-run table still prints only with an explicit --metrics).
    _set("REPRO_METRICS",
         bool(getattr(args, "metrics", False)) or telemetry)
    _set("REPRO_TRACE", tracing)
    _set("REPRO_PROGRESS", bool(getattr(args, "progress", False)))
    manifest_dir = None if args.no_manifest else args.manifest_dir
    _set("REPRO_MANIFEST_DIR", manifest_dir is not None, manifest_dir or "")
    # Cell cache rides with the manifests by default (same trust
    # domain, same directory tree); --no-cell-cache wins over both the
    # default and an explicit --cell-cache-dir.
    cache_dir = getattr(args, "cell_cache_dir", None)
    if cache_dir is None and manifest_dir is not None:
        cache_dir = os.path.join(manifest_dir, "cellcache")
    if getattr(args, "no_cell_cache", False) or tracing:
        cache_dir = None
    _set("REPRO_CELL_CACHE_DIR", cache_dir is not None, cache_dir or "")
    # Chaos rides the same env-var channel so pool workers (fork or
    # spawn) replay the exact same fault schedule as the parent.  An
    # externally exported REPRO_CHAOS is left alone when --chaos is not
    # given (the CI smoke sets it around the whole serve/submit pair).
    chaos = getattr(args, "chaos", None)
    if chaos is not None:
        os.environ["REPRO_CHAOS"] = chaos
        from repro.chaos import reset_active

        reset_active()
    obs_mod.reset()


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_obs(args)
    from repro.sched.task import fresh_pids

    # Tasks are numbered from 1000, as in a fresh process, so what a
    # command writes (a trace names tasks by pid) depends on its
    # arguments alone, also when main runs twice in one process.
    with fresh_pids():
        rc = args.func(args) or 0
    import repro.obs as obs_mod

    obs = obs_mod.get_obs()
    if getattr(args, "metrics", False) and obs.metrics.enabled:
        print(obs.metrics.render())
    if args.trace and obs.tracer.enabled:
        n = obs.tracer.export(args.trace)
        print(f"[trace] wrote {n} events to {args.trace}", file=sys.stderr)
    if (getattr(args, "telemetry", False) and not args.no_manifest
            and os.path.isdir(args.manifest_dir)):
        from repro.obs.telemetry import write_telemetry

        path = write_telemetry(args.manifest_dir)
        print(f"[telemetry] {path}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
