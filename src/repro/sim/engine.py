"""Event-heap simulator core.

The simulator keeps a binary heap of ``(time, priority, seq, event)``
tuples.  ``seq`` is a monotonically increasing integer, so events
scheduled at the same instant run in scheduling order, which makes the
whole simulation deterministic.  Ordering lives in the tuple — never in
:class:`Event` itself — so a heap sift compares machine ints and floats
instead of calling back into Python attribute lookups; this is the
single hottest comparison in the whole simulation.

The :class:`Event` is its own handle: ``call_at`` returns the event it
pushed, and the event's ``cancel()`` marks it so that it never runs.
Events fire in one place, :meth:`Simulator.drain`.

Time is a ``float`` number of nanoseconds since simulation start.  All
kernel and scheduler quantities in this project are expressed in
nanoseconds; microarchitectural quantities are expressed in cycles and
converted through :data:`repro.uarch.timing.CPU_FREQ_GHZ`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple


class Event:
    """A single scheduled callback, doubling as its own cancel handle.

    Events run in ``(time, priority, seq)`` order.  Lower priority
    values run first among events at the same timestamp; the default
    priority of 0 is fine for nearly everything.  Interrupt delivery
    uses a negative priority so that a timer firing at exactly the
    instant a task would block is handled interrupt-first, as on real
    hardware.

    Events have no ``__init__``: only :meth:`Simulator.call_at` and
    :meth:`Simulator.call_after` build them, slot by slot.
    """

    __slots__ = ("time", "callback", "cancelled")

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent.

        Deletion is lazy: the entry stays in the heap until it reaches
        the top, where :meth:`Simulator.drain` and
        :meth:`Simulator.peek_next_time` pop it unrun."""
        self.cancelled = True


_HeapEntry = Tuple[float, int, int, Event]

#: Hoisted allocator: ``object.__new__`` bound once, looked up never.
_new_event = object.__new__


class Simulator:
    """Deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.call_at(10.0, lambda: fired.append(sim.now))
    >>> _ = sim.call_after(5.0, lambda: fired.append(sim.now))
    >>> sim.drain()
    2
    >>> fired
    [5.0, 10.0]
    """

    __slots__ = ("_now", "_heap", "_seq", "events_fired")

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[_HeapEntry] = []
        self._seq = 0
        #: Events executed so far — the engine-throughput numerator for
        #: the obs layer (events/s over wall time).  One integer add per
        #: event; everything else obs needs is pulled from existing
        #: state at snapshot time.
        self.events_fired = 0

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

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
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time} ns; simulation time is "
                f"already {self._now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        # Build the event slot by slot, with no __init__ frame: this is
        # the hottest allocation in the simulation (every timer re-arm
        # and every dispatch passes through here).
        event = _new_event(Event)
        event.time = time
        event.callback = callback
        event.cancelled = False
        heappush(self._heap, (time, priority, seq, event))
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
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = _new_event(Event)
        event.time = time
        event.callback = callback
        event.cancelled = False
        heappush(self._heap, (time, priority, seq, event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek_next_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

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
        Cancelled entries at the top are popped before each check, as
        :meth:`peek_next_time` pops them.
        """
        count = 0
        heap = self._heap
        while stop is None or not stop():
            while heap and heap[0][3].cancelled:
                heappop(heap)
            if not heap or (max_time is not None and heap[0][0] > max_time):
                break
            event = heappop(heap)[3]
            self.events_fired += 1
            self._now = event.time
            event.callback()
            count += 1
            if max_events is not None and count >= max_events:
                break
        return count

    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for entry in self._heap if not entry[3].cancelled)
