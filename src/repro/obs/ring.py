"""Bounded ring buffer — the storage primitive of the obs layer.

Both the event tracer and :class:`repro.kernel.tracing.KernelTracer`
store their records in a :class:`RingBuffer`.  With ``capacity=None``
(every ``KernelTracer`` stream) the buffer is unbounded and ``append``
is literally ``list.append`` (bound once in ``__init__``), so
analysis-grade tracing pays nothing over the plain lists it replaced.
With a capacity (the event tracer), the buffer keeps the **most
recent** ``capacity`` items, overwriting the oldest in place —
O(run-length) memory becomes O(capacity) for long traced runs, and
``dropped`` counts what was overwritten so consumers can tell a full
window from a truncated one.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, TypeVar

T = TypeVar("T")


class RingBuffer:
    """Append-only sequence keeping the newest ``capacity`` items.

    Iteration and indexing run oldest → newest, exactly like the list
    this replaces; equality compares element-wise against any sequence
    so existing ``records == []`` style assertions keep working.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.dropped = 0  # items overwritten by wraparound
        self._items: List[T] = []
        self._head = 0  # oldest slot once the buffer has wrapped
        if capacity is None:
            # Unbounded: bypass the Python-level method entirely.
            self.append = self._items.append  # type: ignore[assignment]

    def append(self, item: T) -> None:  # bounded path only (see __init__)
        items = self._items
        if len(items) < self.capacity:  # type: ignore[operator]
            items.append(item)
        else:
            items[self._head] = item
            self._head = (self._head + 1) % self.capacity  # type: ignore[operator]
            self.dropped += 1

    def extend(self, items: Sequence[T]) -> None:
        for item in items:
            self.append(item)

    def clear(self) -> None:
        self._items.clear()
        self._head = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[T]:
        if self._head == 0:
            return iter(self._items)
        return iter(self._items[self._head:] + self._items[: self._head])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        n = len(self._items)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("RingBuffer index out of range")
        return self._items[(self._head + index) % n if self._head else index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RingBuffer):
            return list(self) == list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        bound = "∞" if self.capacity is None else str(self.capacity)
        return (f"RingBuffer(len={len(self._items)}, capacity={bound}, "
                f"dropped={self.dropped})")
