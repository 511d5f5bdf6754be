"""Bounded event tracer with Chrome trace-event JSON export.

The tracer records *spans* (``B``/``E`` duration events) and *instants*
(``i``) into a :class:`~repro.obs.ring.RingBuffer` and exports the
Chrome trace-event format [1] — load the file in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing`` to see per-CPU
timelines of victim/attacker scheduling, wakeups and preemption
markers.

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
from typing import Dict, List, Optional, Tuple

from repro.obs.ring import RingBuffer

#: Default event capacity — ~8 events per preemption round keeps a
#: full 80 000-preemption characterization run inside the window.
DEFAULT_CAPACITY = 1 << 19

#: Fields every exported trace event must carry (the schema the tests
#: and the acceptance criterion validate).
REQUIRED_FIELDS = ("name", "ph", "ts", "pid", "tid")


class EventTracer:
    """Ring-buffered span/instant recorder.

    All recording methods are no-ops when ``enabled`` is False; callers
    on warm paths should additionally guard with ``tracer.enabled`` to
    skip argument construction entirely.
    """

    def __init__(self, enabled: bool = True,
                 capacity: Optional[int] = DEFAULT_CAPACITY):
        self.enabled = enabled
        self.events: RingBuffer = RingBuffer(capacity)
        self._thread_names: Dict[Tuple[int, int], str] = {}
        self._process_names: Dict[int, str] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, name: str, ts_ns: float, pid: int, tid: int,
              args: Optional[dict] = None) -> None:
        """Open a span on track (pid, tid)."""
        if self.enabled:
            self.events.append(("B", name, ts_ns, pid, tid, args))

    def end(self, name: str, ts_ns: float, pid: int, tid: int,
            args: Optional[dict] = None) -> None:
        """Close the innermost open span on track (pid, tid)."""
        if self.enabled:
            self.events.append(("E", name, ts_ns, pid, tid, args))

    def complete(self, name: str, ts_ns: float, dur_ns: float, pid: int,
                 tid: int, args: Optional[dict] = None) -> None:
        """A whole span in one record (``X`` event)."""
        if self.enabled:
            self.events.append(("X", name, ts_ns, pid, tid, args, dur_ns))

    def instant(self, name: str, ts_ns: float, pid: int, tid: int,
                args: Optional[dict] = None) -> None:
        """A zero-duration marker (wakeup, preemption, exhaustion)."""
        if self.enabled:
            self.events.append(("i", name, ts_ns, pid, tid, args))

    def counter(self, name: str, ts_ns: float, pid: int,
                value: float) -> None:
        """One point on a Perfetto counter track (``C`` event).

        Counter tracks render as stepped line charts under the process
        lane — each ``Kernel.run_until`` emits its folded counters'
        running totals here, so engine, cache and fast-forward counts
        are visible on the same timeline as the scheduling spans."""
        if self.enabled:
            self.events.append(("C", name, ts_ns, pid, 0,
                                {"value": value}))

    def thread_name(self, pid: int, tid: int, name: str) -> None:
        """Label track (pid, tid); survives ring wraparound."""
        if self.enabled:
            self._thread_names[(pid, tid)] = name

    def process_name(self, pid: int, name: str) -> None:
        """Label the process track (one per simulated CPU)."""
        if self.enabled:
            self._process_names[pid] = name

    def clear(self) -> None:
        self.events.clear()
        self._thread_names.clear()
        self._process_names.clear()

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome(self) -> dict:
        """The trace as a Chrome trace-event JSON object."""
        events: List[dict] = []
        for pid, pname in sorted(self._process_names.items()):
            events.append({"name": "process_name", "ph": "M", "ts": 0,
                           "pid": pid, "tid": 0, "args": {"name": pname}})
        for (pid, tid), tname in sorted(self._thread_names.items()):
            events.append({"name": "thread_name", "ph": "M", "ts": 0,
                           "pid": pid, "tid": tid, "args": {"name": tname}})
        for record in self.events:
            ph, name, ts_ns, pid, tid, args = record[:6]
            event = {"name": name, "ph": ph, "ts": ts_ns / 1000.0,
                     "pid": pid, "tid": tid}
            if ph == "X":
                event["dur"] = record[6] / 1000.0
            if ph == "i":
                event["s"] = "t"  # thread-scoped instant
            if args:
                event["args"] = args
            events.append(event)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {"dropped_events": self.events.dropped},
        }

    def export(self, path: str) -> int:
        """Write Chrome trace JSON to ``path``; returns event count."""
        trace = self.to_chrome()
        with open(path, "w") as fh:
            json.dump(trace, fh)
            fh.write("\n")
        return len(trace["traceEvents"])


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
