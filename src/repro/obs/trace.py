"""Perfetto trace of the schedule, built from the kernels' own records.

Each kernel built while tracing is on registers its
:class:`~repro.kernel.tracing.KernelTracer`, its task list and its CPU
count here; nothing is recorded on the kernel's event paths.  At export
the switch, exit and wakeup records become Chrome trace-event JSON [1]
— load the file in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing`` to see per-CPU timelines of victim/attacker
scheduling, wakeups and preemption markers:

* a ``B`` span opens at the ``ExitToUserRecord`` of each switched-in
  task and closes (``E``, with the leaving reason) at the CPU's next
  switch record — for a blocking syscall, the record written when the
  syscall ends;
* ``wakeup`` instants mark every wakeup record, ``preempt`` instants
  every ``preempt_wakeup`` switch;
* ``C`` points on counter tracks carry the running totals each
  ``Kernel.run_until`` folds into the metrics registry.

Track layout follows the kernel's shape: the trace-event ``pid`` is the
simulated CPU (one "process" per logical CPU) and the ``tid`` is the
simulated task's PID, so each CPU shows one lane per task that ran on
it.  Simulated time is nanoseconds; Chrome's ``ts`` field is
microseconds, so timestamps are divided by 1000 on export (Perfetto
renders fractional µs fine).

[1] https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

#: Fields every exported trace event must carry (the schema the tests
#: and the acceptance criterion validate).
REQUIRED_FIELDS = ("name", "ph", "ts", "pid", "tid")

#: One event before export: ``(ph, name, ts_ns, pid, tid, args)``.
_Event = Tuple[str, str, float, int, int, Optional[dict]]


class EventTracer:
    """Registry of traced kernels plus the folded counter points.

    ``register`` and ``counter`` are no-ops when ``enabled`` is False.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        #: ``(KernelTracer, tasks, n_cpus)`` of every traced kernel.
        self.kernels: List[Tuple[object, Sequence, int]] = []
        self._counters: List[_Event] = []

    def register(self, records, tasks: Sequence, n_cpus: int) -> None:
        """Trace one kernel: its ``KernelTracer``, its (growing) task
        list and its CPU count."""
        if self.enabled:
            self.kernels.append((records, tasks, n_cpus))

    def counter(self, name: str, ts_ns: float, pid: int,
                value: float) -> None:
        """One point on a Perfetto counter track (``C`` event).

        Counter tracks render as stepped line charts under the process
        lane — each ``Kernel.run_until`` emits its folded counters'
        running totals here, so engine, cache and fast-forward counts
        are visible on the same timeline as the scheduling spans."""
        if self.enabled:
            self._counters.append(("C", name, ts_ns, pid, 0,
                                   {"value": value}))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome(self) -> dict:
        """The trace as a Chrome trace-event JSON object."""
        process_names: Dict[int, str] = {}
        thread_names: Dict[Tuple[int, int], str] = {}
        raw: List[_Event] = []
        for records, tasks, n_cpus in self.kernels:
            for cpu in range(n_cpus):
                process_names[cpu] = f"cpu{cpu}"
            names = {task.pid: task.name for task in tasks}
            for event in _schedule_events(records, names):
                raw.append(event)
                if event[0] == "B":
                    _, name, _, cpu, pid, _ = event
                    thread_names[(cpu, pid)] = f"{name} (pid {pid})"
        raw.extend(self._counters)
        raw.sort(key=lambda event: event[2])
        events: List[dict] = []
        for pid, pname in sorted(process_names.items()):
            events.append({"name": "process_name", "ph": "M", "ts": 0,
                           "pid": pid, "tid": 0, "args": {"name": pname}})
        for (pid, tid), tname in sorted(thread_names.items()):
            events.append({"name": "thread_name", "ph": "M", "ts": 0,
                           "pid": pid, "tid": tid, "args": {"name": tname}})
        for ph, name, ts_ns, pid, tid, args in raw:
            event = {"name": name, "ph": ph, "ts": ts_ns / 1000.0,
                     "pid": pid, "tid": tid}
            if ph == "i":
                event["s"] = "t"  # thread-scoped instant
            if args:
                event["args"] = args
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    def export(self, path: str) -> int:
        """Write Chrome trace JSON to ``path``; returns event count."""
        trace = self.to_chrome()
        with open(path, "w") as fh:
            json.dump(trace, fh)
            fh.write("\n")
        return len(trace["traceEvents"])


def _schedule_events(records, names: Dict[int, str]) -> List[_Event]:
    """Spans and instants of one kernel, derived from its records."""
    events: List[_Event] = []
    switches: Dict[int, list] = {}
    exits: Dict[int, list] = {}
    for record in records.switches:
        switches.setdefault(record.cpu, []).append(record)
    for record in records.exits:
        exits.setdefault(record.cpu, []).append(record)
    for cpu, cpu_switches in switches.items():
        cpu_exits = exits.get(cpu, [])
        j = 0
        for i, record in enumerate(cpu_switches):
            prev, incoming = record.prev_pid, record.next_pid
            if prev is not None:
                # A blocked task holds the CPU until its syscall ends,
                # where the kernel writes the CPU's next switch record.
                end = cpu_switches[i + 1] if record.reason == "block" \
                    else record
                events.append(("E", names[prev], end.time, cpu, prev,
                               {"reason": record.reason}))
            if incoming is None:
                continue
            if record.reason == "preempt_wakeup":
                events.append(("i", f"preempt pid{incoming}", record.time,
                               cpu, incoming, {"prev_pid": prev}))
            # The switch completes (context-switch cost > 0 later) with
            # the first exit to userspace of the incoming task on this
            # CPU; earlier exits there are interrupted-task returns.
            while j < len(cpu_exits) and not (
                    cpu_exits[j].pid == incoming
                    and cpu_exits[j].time > record.time):
                j += 1
            if j < len(cpu_exits):
                events.append(("B", names[incoming], cpu_exits[j].time,
                               cpu, incoming, None))
                j += 1
    for record in records.wakeups:
        events.append(("i", f"wakeup pid{record.pid}", record.time,
                       record.cpu, record.pid,
                       {"preempted": record.preempted,
                        "placed_vruntime": record.placed_vruntime}))
    return events


def validate_chrome_trace(trace: dict) -> List[str]:
    """Schema check used by tests and the CLI: every event must carry
    ``name``/``ph``/``ts``/``pid``/``tid`` (plus ``dur`` for ``X``).
    Returns a list of problems; empty means valid."""
    problems: List[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, event in enumerate(events):
        for field in REQUIRED_FIELDS:
            if field not in event:
                problems.append(f"event {i} missing {field!r}: {event}")
        if event.get("ph") == "X" and "dur" not in event:
            problems.append(f"complete event {i} missing 'dur'")
        if not isinstance(event.get("ts", 0), (int, float)):
            problems.append(f"event {i} has non-numeric ts")
    return problems
