"""Run-health telemetry: per-cell scoping, deterministic aggregation,
OpenMetrics export, fast-path counters, and the zero-allocation
disabled mode."""

import json
import os
import tracemalloc

import pytest

import repro.obs as obs_mod
from repro.cli import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    aggregate_manifests,
    cell_metrics_scope,
    merge_histograms,
    merge_scalars,
    percentile_summary,
    render_openmetrics,
    render_report,
    write_telemetry,
)


@pytest.fixture(autouse=True)
def _fresh_obs():
    obs_mod.reset()
    yield
    obs_mod.reset()


# ----------------------------------------------------------------------
# Merging primitives
# ----------------------------------------------------------------------
class TestMerging:
    def test_scalars_sum_keywise_and_ints_stay_ints(self):
        merged = merge_scalars([{"a": 1, "b": 2.5}, {"a": 3, "c": True}])
        assert merged == {"a": 4, "b": 2.5, "c": 1}
        assert isinstance(merged["a"], int)

    def test_histogram_dicts_excluded_from_scalars(self):
        hist = {"count": 1, "sum": 2.0, "mean": 2.0, "min": 2.0,
                "max": 2.0, "buckets": {"inf": 1}}
        assert merge_scalars([{"h": hist, "a": 1}]) == {"a": 1}

    def test_histograms_bucket_merge(self):
        h1 = {"count": 2, "sum": 3.0, "mean": 1.5, "min": 1.0, "max": 2.0,
              "buckets": {"le_10": 2, "inf": 0}}
        h2 = {"count": 1, "sum": 50.0, "mean": 50.0, "min": 50.0,
              "max": 50.0, "buckets": {"le_10": 0, "inf": 1}}
        merged = merge_histograms([{"h": h1}, {"h": h2}])["h"]
        assert merged["count"] == 3
        assert merged["sum"] == 53.0
        assert merged["min"] == 1.0 and merged["max"] == 50.0
        assert merged["buckets"] == {"le_10": 2, "inf": 1}
        assert merged["mean"] == pytest.approx(53.0 / 3)

    def test_percentiles_nearest_rank(self):
        summary = percentile_summary([3.0, 1.0, 2.0, 4.0])
        assert summary["n"] == 4
        assert summary["p0"] == 1.0 and summary["p100"] == 4.0
        assert summary["total"] == 10.0
        assert percentile_summary([]) == {"n": 0}


# ----------------------------------------------------------------------
# Per-cell scoping
# ----------------------------------------------------------------------
class TestCellScope:
    def test_scope_isolates_and_folds_back(self):
        obs = obs_mod.configure(metrics=True)
        obs.metrics.counter("outer").inc(5)
        with cell_metrics_scope() as scoped:
            assert scoped is obs_mod.get_obs().metrics
            reg = obs_mod.get_obs().metrics
            assert reg.get("outer") is None  # fresh registry
            reg.counter("outer").inc(2)
            reg.histogram("h", buckets=(10.0,)).observe(3.0)
        # restored parent carries the folded numbers
        parent = obs_mod.get_obs().metrics
        assert parent.counter("outer").value == 7
        assert parent.get("h").count == 1

    def test_scope_noop_when_disabled(self):
        obs = obs_mod.configure(metrics=False)
        with cell_metrics_scope() as scoped:
            assert scoped is None
            assert obs_mod.get_obs().metrics is obs.metrics

    def test_scope_counts_every_kernel(self):
        """Each ``run_until`` folds its kernel's growth since the last
        fold, so a cell that builds two kernels counts both in full."""
        from repro.cpu.program import StraightlineProgram
        from repro.experiments.setup import build_env
        from repro.kernel.threads import ComputeBody, ProgramBody
        from repro.obs.collect import kernel_counts
        from repro.sched.task import Task

        obs_mod.configure(metrics=True)
        kernels = []
        with cell_metrics_scope() as scoped:
            for seed in (1, 2):
                kernel = build_env("cfs", n_cores=1, seed=seed).kernel
                kernel.spawn(Task("victim", body=ProgramBody(
                    StraightlineProgram())), cpu=0)
                kernel.spawn(Task("spin", body=ComputeBody()), cpu=0)
                kernel.run_until(max_time=2e6)
                kernel.run_until(max_time=4e6)
                kernels.append(kernel)
        for name in ("sim.events_fired", "cpu.instructions_retired",
                     "uarch.l1d.hits"):
            total = sum(kernel_counts(kernel)[name] for kernel in kernels)
            assert total > 0
            assert scoped.get(name).value == total


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _manifest(kind, experiment, metrics, wall=0.1):
    return {"kind": kind, "experiment": experiment, "metrics": metrics,
            "wall_time_s": wall, "version": "1.0"}


class TestAggregation:
    def test_cells_preferred_over_runs(self):
        telemetry = aggregate_manifests([
            _manifest("run", "sweep", {"a": 100}),
            _manifest("cell", "res", {"a": 1}),
            _manifest("cell", "res", {"a": 2}),
        ])
        assert telemetry["counter_source"] == "cells"
        assert telemetry["exact"]["counters"] == {"a": 3}
        assert telemetry["cells"] == 2 and telemetry["runs"] == 1
        assert telemetry["experiments"] == {"res": 2, "sweep": 1}

    def test_runs_used_when_no_cells(self):
        telemetry = aggregate_manifests([_manifest("run", "sgx", {"a": 7})])
        assert telemetry["counter_source"] == "runs"
        assert telemetry["exact"]["counters"] == {"a": 7}

    def test_wall_time_from_the_counter_source(self):
        """A run manifest already spans its cells' wall time; timing it
        as well would count the cells twice."""
        telemetry = aggregate_manifests([
            _manifest("run", "sweep", {}, wall=1.0),
            _manifest("cell", "res", {"sim.events_fired": 100}, wall=0.25),
            _manifest("cell", "res", {"sim.events_fired": 100}, wall=0.25),
        ])
        assert telemetry["timing"]["wall_time_s"]["n"] == 2
        assert "events/s (wall)     400\n" in render_report("runs", telemetry)

    def test_wall_time_quarantined_outside_exact(self):
        telemetry = aggregate_manifests([
            _manifest("cell", "res", {"a": 1}, wall=0.25),
            _manifest("cell", "res", {"a": 1}, wall=0.75),
        ])
        assert telemetry["timing"]["wall_time_s"]["n"] == 2
        assert "wall" not in json.dumps(telemetry["exact"])


# ----------------------------------------------------------------------
# The acceptance criterion: telemetry.json exact section bit-identical
# across --jobs {1, 2, 4}
# ----------------------------------------------------------------------
class TestJobsInvariance:
    @pytest.mark.slow
    def test_exact_section_bit_identical_jobs_1_2_4(self, tmp_path, capsys):
        blobs = {}
        for jobs in (1, 2, 4):
            run_dir = tmp_path / f"jobs{jobs}"
            # Cache off: a cache-served cell is not re-simulated and
            # contributes no counters, which would make the comparison
            # depend on execution history rather than --jobs.
            assert main([
                "--telemetry", "--no-cell-cache",
                "--manifest-dir", str(run_dir), "--jobs", str(jobs),
                "sweep", "--taus", "440,740,1040",
                "--preemptions", "40",
            ]) == 0
            capsys.readouterr()
            telemetry = json.loads((run_dir / "telemetry.json").read_text())
            blobs[jobs] = json.dumps(telemetry["exact"], sort_keys=True)
            assert telemetry["cells"] == 3
            assert telemetry["counter_source"] == "cells"
        assert blobs[1] == blobs[2] == blobs[4]

    def test_exact_section_identical_serial_vs_pool(self, tmp_path, capsys):
        """Tier-1 variant of the acceptance check: one small sweep,
        jobs 1 vs 2, byte-compared exact sections."""
        blobs = {}
        for jobs in (1, 2):
            run_dir = tmp_path / f"j{jobs}"
            assert main([
                "--telemetry", "--no-cell-cache",
                "--manifest-dir", str(run_dir), "--jobs", str(jobs),
                "sweep", "--taus", "440,740", "--preemptions", "15",
            ]) == 0
            capsys.readouterr()
            blobs[jobs] = json.dumps(
                json.loads((run_dir / "telemetry.json").read_text())["exact"],
                sort_keys=True)
        assert blobs[1] == blobs[2]


# ----------------------------------------------------------------------
# Fast-path counters actually fire
# ----------------------------------------------------------------------
class TestCounterWiring:
    def test_telemetry_carries_ff_and_attack_counters(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main([
            "--telemetry", "--no-cell-cache",
            "--manifest-dir", str(run_dir), "--jobs", "1",
            "sweep", "--taus", "740", "--preemptions", "40",
        ]) == 0
        capsys.readouterr()
        telemetry = json.loads((run_dir / "telemetry.json").read_text())
        counters = telemetry["exact"]["counters"]
        assert counters["sim.events_fired"] > 0
        assert counters["ff.insts_fast_forwarded"] > 0
        assert counters["attack.samples"] == 40
        hist = telemetry["exact"]["histograms"][
            "attack.preemptions_per_window"]
        assert hist["count"] == 1
        assert hist["max"] == 40

    def test_switch_reasons_count_tasks_leaving_the_cpu(self):
        """``kernel.switch.<reason>`` counts why a running task left the
        CPU, once per departure; ``kernel.switches`` counts switch-ins.
        The kernel folds these and the wakeup, timer and migration
        counts from its records; the values are the ones its former
        per-event instruments counted."""
        from repro.attacks.btb_gcd import run_btb_gcd_attack
        from repro.experiments.preemption_count import run_budget_measurement
        from repro.experiments.resolution import run_resolution
        from repro.experiments.setup import build_env
        from repro.kernel.threads import ComputeBody
        from repro.sched.task import Task

        def migrating():
            kernel = build_env("cfs", n_cores=2, seed=1).kernel
            tasks = [kernel.spawn(Task(f"c{i}", body=ComputeBody(20e6)),
                                  cpu=0) for i in range(3)]
            kernel.run_until(lambda: all(map(kernel.task_exited, tasks)))

        names = ("switches", "switch.block", "switch.exit",
                 "switch.preempt_wakeup", "switch.tick", "switch.idle",
                 "wakeups", "timer_fires", "migrations")
        cells = [
            (lambda: run_resolution(tau=740.0, preemptions=200, seed=1),
             (405, 201, 1, 201, 1, 0, 201, 201, 0),
             (201, 0, 201, 2412000000.0)),
            (lambda: run_budget_measurement(extra_compute_ns=12_000.0,
                                            scheduler="eevdf", seed=0),
             (335, 166, 1, 165, 2, 0, 166, 166, 0),
             (165, 1, 166, 344367133.1675005)),
            (lambda: run_btb_gcd_attack(1071, 462, seed=3, rounds=200,
                                        polluter=True),
             (447, 227, 2, 217, 0, 12, 227, 227, 0),
             (217, 0, 217, 2561198462.502289)),
            (migrating, (10, 0, 3, 0, 7, 3, 0, 0, 2), (0, 0, 0, 0.0)),
        ]
        for run, counts, wakeup_preempts in cells:
            metrics = obs_mod.configure(metrics=True).metrics
            run()
            assert tuple(metrics.get(f"kernel.{name}").value
                         for name in names) == counts
            lag = metrics.get("sched.wakeup_lag_ns")
            assert (metrics.get("sched.wakeup_preempt.granted").value,
                    metrics.get("sched.wakeup_preempt.denied").value,
                    lag.count, lag.sum) == wakeup_preempts

    def test_stepped_run_folds_each_record_once(self):
        """A kernel stepped through many ``run_until`` calls folds the
        same scheduling counts as one call, and registers every one of
        them, zeros included."""
        from repro.experiments.setup import build_env
        from repro.kernel import actions as act
        from repro.kernel.threads import ComputeBody, CoroutineBody
        from repro.sched.task import Task

        def napper():
            for _ in range(50):
                yield act.Compute(20_000.0)
                yield act.Nanosleep(100_000.0)

        def run(step_ns):
            metrics = obs_mod.configure(metrics=True).metrics
            kernel = build_env("cfs", n_cores=2, seed=1).kernel
            kernel.spawn(Task("hog", body=ComputeBody(20e6)), cpu=0)
            kernel.spawn(Task("napper", body=CoroutineBody(napper())), cpu=0)
            end = 0.0
            while end < 30e6:
                end += step_ns
                kernel.run_until(max_time=end)
            return {name: value for name, value in metrics.snapshot().items()
                    if name.startswith(("kernel.", "sched."))}

        stepped = run(250_000.0)
        assert stepped == run(30e6)
        assert sorted(stepped) == sorted(
            ["kernel.switches", "kernel.tasks", "kernel.wakeups",
             "kernel.timer_fires", "kernel.migrations",
             "sched.wakeup_preempt.granted", "sched.wakeup_preempt.denied",
             "sched.wakeup_lag_ns"]
            + [f"kernel.switch.{reason}" for reason in
               ("block", "exit", "idle", "preempt_wakeup", "tick")])
        assert stepped["kernel.wakeups"] == stepped["kernel.timer_fires"] > 0
        assert stepped["sched.wakeup_lag_ns"]["count"] > 0

    def test_run_counts_every_cell_and_records_no_ratios(self, tmp_path,
                                                         capsys):
        run_dir = tmp_path / "run"
        assert main([
            "--telemetry", "--no-cell-cache",
            "--manifest-dir", str(run_dir), "--jobs", "1",
            "sweep", "--taus", "440,740,1040", "--preemptions", "15",
        ]) == 0
        capsys.readouterr()
        counters = json.loads(
            (run_dir / "telemetry.json").read_text())["exact"]["counters"]
        assert [k for k in counters
                if k.endswith(("hit_rate", "coverage"))] == []
        assert "sim.heap_depth" not in counters
        assert "sim.pending_events" not in counters
        cells = [json.loads(p.read_text()) for p in run_dir.glob("cell-*")]
        (run,) = [json.loads(p.read_text()) for p in run_dir.glob("run-*")]
        assert len(cells) == 3
        assert run["metrics"]["sim.events_fired"] == sum(
            cell["metrics"]["sim.events_fired"] for cell in cells)
        # The report derives the ratios from the counts.
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        for level in ("l1i", "l1d", "l2", "llc", "itlb", "stlb"):
            assert f"  {level:<6} hit rate" in out
        assert "(coverage " in out


# ----------------------------------------------------------------------
# Export formats
# ----------------------------------------------------------------------
class TestOpenMetrics:
    def test_counter_gauge_histogram_rendering(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("kernel.switches").inc(3)
        hist = registry.histogram("lat", buckets=(10.0, 100.0))
        hist.observe(5.0)
        hist.observe(50.0)
        text = render_openmetrics(registry)
        assert "# TYPE repro_kernel_switches counter" in text
        assert "repro_kernel_switches_total 3" in text
        assert 'repro_lat_bucket{le="10"} 1' in text
        assert 'repro_lat_bucket{le="100"} 2' in text
        assert 'repro_lat_bucket{le="+Inf"} 2' in text
        assert "repro_lat_count 2" in text
        assert text.endswith("# EOF\n")

    def test_stats_verb_openmetrics_format(self, capsys):
        assert main(["--no-manifest", "stats", "resolution",
                     "--preemptions", "20", "--format", "openmetrics"]) == 0
        out = capsys.readouterr().out
        assert "# EOF" in out
        assert "repro_attack_samples_total 20" in out


class TestCounterTracks:
    def test_publish_emits_counter_track_events(self, capsys):
        import repro.obs as obs

        observability = obs.configure(metrics=True, trace=True)
        from repro.experiments.resolution import run_resolution

        run_resolution(740.0, preemptions=20, seed=1)
        trace = observability.tracer.to_chrome()
        counter_events = [e for e in trace["traceEvents"]
                          if e["ph"] == "C"]
        assert counter_events, "run_until should emit counter tracks"
        names = {e["name"] for e in counter_events}
        assert "sim.events_fired" in names
        for event in counter_events:
            assert "value" in event["args"]
        from repro.obs import validate_chrome_trace

        assert validate_chrome_trace(trace) == []


# ----------------------------------------------------------------------
# Report rendering
# ----------------------------------------------------------------------
class TestReport:
    def test_report_reads_run_dir(self, tmp_path, capsys):
        run_dir = tmp_path / "runs"
        assert main([
            "--telemetry", "--no-cell-cache",
            "--manifest-dir", str(run_dir), "--jobs", "1",
            "sweep", "--taus", "740", "--preemptions", "30",
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "run health" in out
        assert "fast-forward" in out
        assert "coverage" in out

    def test_report_missing_dir_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 1

    def test_render_report_without_metrics_hints(self, tmp_path):
        report = render_report(str(tmp_path))
        assert "no metrics recorded" in report

    def test_write_telemetry_is_stable_bytes(self, tmp_path):
        manifest = _manifest("cell", "res", {"a": 1})
        path = tmp_path / "cell-res-s0-aaaa.json"
        path.write_text(json.dumps(manifest))
        first = write_telemetry(str(tmp_path), str(tmp_path / "t1.json"))
        second = write_telemetry(str(tmp_path), str(tmp_path / "t2.json"))
        assert (open(first).read().replace("t1", "")
                == open(second).read().replace("t2", ""))


# ----------------------------------------------------------------------
# Disabled mode: zero allocations from the obs layer on the hot loop
# ----------------------------------------------------------------------
class TestDisabledOverhead:
    def test_disabled_telemetry_allocates_nothing_in_obs(self):
        """With observability off, running the engine hot loop must not
        allocate a single object attributable to repro/obs/*.py — the
        null-instrument design means disabled telemetry is free."""
        from repro.sim.engine import Simulator

        obs_mod.configure(metrics=False, trace=False)
        obs_dir = os.path.dirname(obs_mod.__file__)

        def hot_loop():
            sim = Simulator()
            fired = [0]

            def tick():
                fired[0] += 1
                if fired[0] < 5000:
                    sim.call_after(10.0, tick)

            sim.call_at(0.0, tick)
            sim.drain()
            return fired[0]

        hot_loop()  # warm-up outside the snapshot window
        tracemalloc.start(10)
        try:
            hot_loop()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        obs_allocs = [
            stat for stat in snapshot.statistics("filename")
            if os.path.normpath(os.path.dirname(stat.traceback[0].filename))
            == os.path.normpath(obs_dir)
        ]
        assert obs_allocs == [], (
            f"disabled-mode obs allocations: {obs_allocs}"
        )
