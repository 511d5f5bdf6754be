"""Event-heap simulator core.

The simulator keeps a binary heap of ``(time, priority, seq, event)``
tuples.  ``seq`` is a monotonically increasing integer, so events
scheduled at the same instant run in scheduling order, which makes the
whole simulation deterministic.  Ordering lives in the tuple — never in
:class:`Event` itself — so a heap sift compares machine ints and floats
instead of calling back into Python attribute lookups; this is the
single hottest comparison in the whole simulation.

An :class:`Event` is a callback with a fixed priority and its own
handle, in the heap at most once.  ``call_at`` builds one and arms it;
a resident event (the kernel keeps two per CPU, its dispatch and its
switch completion, and one for load balancing) is built once and
re-armed with :meth:`Simulator.arm`, which replaces its heap entry.
Nothing stale is ever left in the heap.  Events fire in one place,
:meth:`Simulator.drain`.

Time is a ``float`` number of nanoseconds since simulation start.  All
kernel and scheduler quantities in this project are expressed in
nanoseconds; microarchitectural quantities are expressed in cycles and
converted through :data:`repro.uarch.timing.CPU_FREQ_GHZ`.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple


class Event:
    """A scheduled callback, doubling as its own handle.

    Events run in ``(time, priority, seq)`` order.  Lower priority
    values run first among events at the same timestamp; the default
    priority of 0 is fine for nearly everything.  ``entry`` is the
    event's heap entry while it is armed, else None.
    """

    __slots__ = ("callback", "priority", "cancelled", "entry", "_sim")

    def __init__(self, sim: "Simulator", callback: Callable[[], None], *,
                 priority: int = 0) -> None:
        self.callback = callback
        self.priority = priority
        self.cancelled = False
        self.entry: Optional[_HeapEntry] = None
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent.  The heap entry
        goes at once, in O(n): nothing on a hot path cancels."""
        self.cancelled = True
        if self.entry is not None:
            self._sim._disarm(self)


_HeapEntry = Tuple[float, int, int, Event]


class Simulator:
    """Deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.call_at(10.0, lambda: fired.append(sim.now))
    >>> _ = sim.call_after(5.0, lambda: fired.append(sim.now))
    >>> tick = Event(sim, lambda: fired.append(sim.now))
    >>> sim.arm(tick, 12.0)
    >>> sim.arm(tick, 7.0)
    >>> sim.drain()
    3
    >>> fired
    [5.0, 7.0, 10.0]
    """

    __slots__ = ("now", "_heap", "_seq", "events_fired")

    def __init__(self) -> None:
        #: Current simulated time in nanoseconds, the time of the event
        #: running or last run: a slot only :meth:`drain` writes.
        self.now: float = 0.0
        self._heap: List[_HeapEntry] = []
        self._seq = 0
        #: Events executed so far — the engine-throughput numerator for
        #: the obs layer (events/s over wall time).  One integer add per
        #: event; everything else obs needs is pulled from existing
        #: state at snapshot time.
        self.events_fired = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` to run at absolute time ``time``.

        Scheduling in the past is an error: it would silently reorder
        history and mask bugs in the caller.
        """
        event = Event(self, callback, priority=priority)
        self.arm(event, time)
        return event

    def call_after(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.call_at(self.now + delay, callback, priority=priority)

    def arm(self, event: Event, time: float) -> None:
        """Run ``event`` at absolute time ``time``, and not at any time
        it was armed at before.  It takes a fresh ``seq``, as a
        ``call_at`` does.  :meth:`drain` disarms an event just before
        running it, so a callback may re-arm its own event."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} ns; simulation time is "
                f"already {self.now} ns"
            )
        if event.entry is not None:
            self._disarm(event)
        seq = self._seq
        self._seq = seq + 1
        event.entry = entry = (time, event.priority, seq, event)
        heappush(self._heap, entry)

    def _disarm(self, event: Event) -> None:
        self._heap.remove(event.entry)
        heapify(self._heap)
        event.entry = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek_next_time(self) -> Optional[float]:
        """Time of the next pending event, or None."""
        return self._heap[0][0] if self._heap else None

    def drain(
        self,
        stop: Optional[Callable[[], bool]] = None,
        *,
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events in order until ``stop()`` holds (checked before
        each event), the heap drains, the next event lies past
        ``max_time``, or ``max_events`` events have run.  Returns the
        number of events run.

        Events at exactly ``max_time`` run.  The clock stays at the last
        event run; it never advances to ``max_time`` on its own.
        """
        count = 0
        heap = self._heap
        while (stop is None or not stop()) and heap:
            if max_time is not None and heap[0][0] > max_time:
                break
            time, _, _, event = heappop(heap)
            event.entry = None
            self.events_fired += 1
            self.now = time
            event.callback()
            count += 1
            if max_events is not None and count >= max_events:
                break
        return count

    def pending_count(self) -> int:
        """Number of events still queued."""
        return len(self._heap)
