"""Append-only record stream of :class:`repro.kernel.tracing.KernelTracer`.

``append`` is literally ``list.append`` (bound once in ``__init__``),
so analysis-grade tracing pays nothing over a plain list.  Nothing is
ever dropped; ``dropped`` stays 0 and is kept because the benchmark
reads it.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, TypeVar

T = TypeVar("T")


class RingBuffer:
    """Unbounded append-only sequence.

    Iteration and indexing run oldest → newest, exactly like a list;
    equality compares element-wise against any sequence so existing
    ``records == []`` style assertions keep working.
    """

    def __init__(self):
        self.dropped = 0
        self._items: List[T] = []
        self.append = self._items.append

    def extend(self, items: Sequence[T]) -> None:
        self._items.extend(items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __getitem__(self, index):
        return self._items[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (RingBuffer, list, tuple)):
            return self._items == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"RingBuffer(len={len(self._items)})"
