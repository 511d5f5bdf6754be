"""Perfetto trace derived from the kernels' records: spans and instants,
Chrome-trace schema, traced CLI commands, and the end-to-end check that
a traced resolution run shows attacker preemption spans."""

import json
from collections import defaultdict
from types import SimpleNamespace

import pytest

import repro.obs as obs_mod
from repro.kernel.tracing import (
    ExitToUserRecord,
    KernelTracer,
    SwitchRecord,
    WakeupRecord,
)
from repro.obs.trace import EventTracer, REQUIRED_FIELDS, validate_chrome_trace


@pytest.fixture(autouse=True)
def _fresh_obs_default():
    """Keep the process-wide obs default out of these tests' way."""
    obs_mod.reset()
    yield
    obs_mod.reset()


def _schedule():
    """One CPU's records: the victim (pid 7) runs, a denied-preemption
    return, the attacker (pid 8) preempts it on wakeup, blocks, and
    the victim is switched back in."""
    records = KernelTracer()
    records.record_switch(SwitchRecord(0.0, 0, None, 7, "block"))
    records.record_exit(ExitToUserRecord(700.0, 0, 7))
    records.record_exit(ExitToUserRecord(1200.0, 0, 7))
    records.record_wakeup(WakeupRecord(1500.0, 0, 8, 5.0, 7, 9.0, True))
    records.record_switch(SwitchRecord(2150.0, 0, 7, 8, "preempt_wakeup"))
    records.record_exit(ExitToUserRecord(2850.0, 0, 8))
    records.record_switch(SwitchRecord(3000.0, 0, 8, None, "block"))
    records.record_switch(SwitchRecord(3180.0, 0, None, 7, "block"))
    records.record_exit(ExitToUserRecord(3880.0, 0, 7))
    tasks = [SimpleNamespace(pid=7, name="victim"),
             SimpleNamespace(pid=8, name="attacker")]
    tracer = EventTracer()
    tracer.register(records, tasks, 1)
    return tracer


@pytest.fixture(scope="module")
def traced_resolution():
    """``(KernelTracer, tasks, exported trace)`` of one traced cell."""
    from repro.experiments.resolution import run_resolution

    obs = obs_mod.configure(trace=True)
    try:
        run_resolution(740.0, preemptions=60, seed=1)
    finally:
        obs_mod.reset()
    ((records, tasks, _),) = obs.tracer.kernels
    return records, tasks, obs.tracer.to_chrome()


def _pid(tasks, prefix):
    (pid,) = [task.pid for task in tasks if task.name.startswith(prefix)]
    return pid


def _assert_spans_closed(trace):
    """Each ``(cpu, pid)`` track alternates ``B``/``E``, ends closed,
    and no span ends before it begins; returns the tracks."""
    tracks = defaultdict(list)
    for event in trace["traceEvents"]:
        if event["ph"] in "BE":
            tracks[(event["pid"], event["tid"])].append(event)
    for events in tracks.values():
        phases = "".join(e["ph"] for e in events)
        assert phases == "BE" * (len(phases) // 2)
        assert all(b["ts"] <= e["ts"]
                   for b, e in zip(events[::2], events[1::2]))
    return tracks


class TestRecording:
    def test_span_and_instant_events(self):
        events = [(e["ph"], e["name"], e["ts"], e["tid"], e.get("args"))
                  for e in _schedule().to_chrome()["traceEvents"]
                  if e["ph"] != "M"]
        assert events == [
            ("B", "victim", 0.7, 7, None),
            ("i", "wakeup pid8", 1.5, 8,
             {"preempted": True, "placed_vruntime": 5.0}),
            ("E", "victim", 2.15, 7, {"reason": "preempt_wakeup"}),
            ("i", "preempt pid8", 2.15, 8, {"prev_pid": 7}),
            ("B", "attacker", 2.85, 8, None),
            # The block's span ends where the syscall does.
            ("E", "attacker", 3.18, 8, {"reason": "block"}),
            ("B", "victim", 3.88, 7, None),
        ]

    def test_disabled_records_nothing(self):
        tracer = EventTracer(enabled=False)
        tracer.register(KernelTracer(), [], 1)
        tracer.counter("sim.events_fired", 1.0, 0, 1)
        assert tracer.kernels == []
        assert tracer.to_chrome()["traceEvents"] == []

    def test_nothing_registers_while_tracing_is_disabled(self):
        from repro.experiments.resolution import run_resolution

        run_resolution(740.0, preemptions=5, seed=1)
        assert obs_mod.get_obs().tracer.kernels == []

    def test_every_span_is_closed(self, traced_resolution):
        _, _, trace = traced_resolution
        assert len(_assert_spans_closed(trace)) == 2

    def test_spans_follow_migrated_tasks_across_cpus(self):
        from repro.experiments.setup import build_env
        from repro.kernel.threads import ComputeBody
        from repro.sched.task import Task

        obs = obs_mod.configure(trace=True)
        kernel = build_env("cfs", n_cores=2, seed=1).kernel
        tasks = [kernel.spawn(Task(f"c{i}", body=ComputeBody(20e6)), cpu=0)
                 for i in range(3)]
        kernel.run_until(lambda: all(map(kernel.task_exited, tasks)))
        assert len(kernel.tracer.migrations) == 2
        tracks = _assert_spans_closed(obs.tracer.to_chrome())
        assert {cpu for cpu, _ in tracks} == {0, 1}
        assert sum(len(events) for events in tracks.values()) == 2 * sum(
            s.next_pid is not None for s in kernel.tracer.switches)

    def test_one_preempt_instant_per_preemption_switch(self,
                                                       traced_resolution):
        records, tasks, trace = traced_resolution
        attacker = _pid(tasks, "attacker")
        switches = records.preemption_switches(attacker)
        preempts = [e for e in trace["traceEvents"]
                    if e["name"] == f"preempt pid{attacker}"]
        assert len(switches) >= 60
        assert [(e["ph"], e["ts"], e["tid"]) for e in preempts] == [
            ("i", s.time / 1000.0, attacker) for s in switches]

    def test_one_wakeup_instant_per_wakeup_record(self, traced_resolution):
        records, _, trace = traced_resolution
        wakeups = [e for e in trace["traceEvents"]
                   if e["name"].startswith("wakeup")]
        assert len(records.wakeups) > 0
        assert [(e["ts"], e["pid"], e["tid"], e["args"]["preempted"])
                for e in wakeups] == [
            (w.time / 1000.0, w.cpu, w.pid, w.preempted)
            for w in records.wakeups]

    def test_block_span_ends_at_the_cpus_next_switch_record(
            self, traced_resolution):
        records, _, trace = traced_resolution
        ends = {(e["ts"], e["tid"]) for e in trace["traceEvents"]
                if e["ph"] == "E" and e["args"]["reason"] == "block"}
        switches = list(records.switches)
        expected = {(after.time / 1000.0, block.prev_pid)
                    for block, after in zip(switches, switches[1:])
                    if block.reason == "block" and block.prev_pid is not None}
        assert len(expected) > 60
        assert ends == expected


class TestChromeExport:
    def test_schema_fields_and_units(self):
        tracer = _schedule()
        tracer.counter("sim.events_fired", 4000.0, 0, 12)
        chrome = tracer.to_chrome()
        assert validate_chrome_trace(chrome) == []
        by_ph = {e["ph"]: e for e in chrome["traceEvents"]}
        assert by_ph["B"]["ts"] == 3.88  # ns → µs
        assert by_ph["i"]["s"] == "t"
        assert by_ph["E"]["args"] == {"reason": "block"}
        assert by_ph["C"]["args"] == {"value": 12}
        names = {(e["pid"], e["tid"]): e["args"]["name"]
                 for e in chrome["traceEvents"] if e["ph"] == "M"}
        assert names == {(0, 0): "cpu0", (0, 7): "victim (pid 7)",
                         (0, 8): "attacker (pid 8)"}

    def test_export_writes_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        n = _schedule().export(str(path))
        trace = json.loads(path.read_text())
        assert n == len(trace["traceEvents"]) == 3 + 7
        assert validate_chrome_trace(trace) == []

    def test_validator_flags_bad_events(self):
        problems = validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "B"}]}
        )
        assert any("missing" in p for p in problems)
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]


class TestEndToEnd:
    """Acceptance criterion: a traced run produces valid Chrome JSON
    showing the attacker's preemption spans."""

    def test_traced_resolution_run(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "trace.json"
        assert main(["--no-manifest", "trace", "resolution",
                     "--preemptions", "60", "--out", str(out)]) == 0
        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        for event in events:
            for field in REQUIRED_FIELDS:
                assert field in event
        # Attacker schedule-in spans exist and are preemption-marked.
        attacker_spans = [e for e in events
                         if e["ph"] == "B" and e["name"].startswith("attacker")]
        assert attacker_spans, "no attacker spans in trace"
        preempts = [e for e in events
                    if e["ph"] == "i" and e["name"].startswith("preempt")]
        assert preempts, "no preemption markers in trace"
        # Victim lane exists too, on the same simulated CPU.
        assert any(e["ph"] == "B" and e["name"] == "victim" for e in events)

    def test_trace_determinism(self, tmp_path):
        """Tracing must not perturb results: same seed, same samples."""
        from repro.experiments.resolution import run_resolution

        baseline = run_resolution(740.0, preemptions=40, seed=3).samples
        obs_mod.configure(trace=True)
        try:
            traced = run_resolution(740.0, preemptions=40, seed=3).samples
        finally:
            obs_mod.reset()
        assert traced == baseline


class TestTracedCommands:
    """A traced command computes its cells in this process, so its trace
    is whole on a warm cell cache and at any ``--jobs``."""

    @staticmethod
    def _events(path):
        """The trace's ``(ph, ts, cpu)`` events (task PIDs count up
        across runs in one process)."""
        trace = json.loads(path.read_text())
        assert validate_chrome_trace(trace) == []
        events = [(e["ph"], e["ts"], e["pid"]) for e in trace["traceEvents"]]
        assert [e for e in events if e[0] == "B"]
        return events

    def test_traced_commands_ignore_a_warm_cell_cache(self, tmp_path):
        from repro.cli import main

        runs, out = str(tmp_path / "runs"), tmp_path / "trace.json"
        for argv in (["--trace", str(out), "resolution"],
                     ["trace", "resolution", "--out", str(out)]):
            argv = ["--manifest-dir", runs, *argv, "--preemptions", "30"]
            assert main(argv) == 0
            cold = self._events(out)
            assert main(argv) == 0
            assert self._events(out) == cold

    def test_traced_sweep_runs_every_cell_here_at_any_jobs(self, tmp_path,
                                                           capsys):
        from repro.cli import main

        traces = []
        for jobs in ("1", "2"):
            out = tmp_path / f"trace-{jobs}.json"
            assert main(["--no-manifest", "--trace", str(out),
                         "--jobs", jobs, "sweep", "--taus", "700,740",
                         "--preemptions", "20"]) == 0
            traces.append(self._events(out))
        assert traces[0] == traces[1]
        assert "(2 cells, jobs=1)" in capsys.readouterr().out
