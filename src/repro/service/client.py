"""``repro submit``: client for the experiment service.

Thin by design: build wire cells (:mod:`repro.experiments.wire`), send
one ``submit`` frame, stream the per-cell results back, and honor
backpressure — a ``queue_full`` rejection raises
:class:`Backpressure`, and the sync wrapper :func:`submit_batch` turns
that into sleep-and-resubmit: it sleeps the server's ``retry_after_s``
hint (capped at :data:`MAX_SLEEP_S`) between at most ``max_attempts``
submissions.  Rejection is whole-batch (nothing was enqueued), so a
resubmission can never double-simulate.

``on_cell`` fires per result frame *as it streams in* — the hook
``repro submit --run-dir`` uses to journal completed cells before the
batch (or the client process) finishes.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Iterable, List, Optional, Union

from repro.experiments.wire import WireCell, cell_to_wire
from repro.service import protocol
from repro.service.protocol import BatchResult, CellResult

__all__ = [
    "Backpressure",
    "ServiceError",
    "submit_batch",
    "submit_batch_async",
    "ping",
    "stats",
    "drain",
]

#: Longest sleep between two submissions of a rejected batch.
MAX_SLEEP_S = 5.0


class ServiceError(RuntimeError):
    """The server rejected the request or the stream ended early."""


class Backpressure(ServiceError):
    """Batch rejected because the queue is full (or draining);
    resubmit after ``retry_after_s``."""

    def __init__(self, reason: str, retry_after_s: float, detail: str = ""):
        super().__init__(
            f"{reason} (retry after {retry_after_s}s)"
            + (f": {detail}" if detail else ""))
        self.reason = reason
        self.retry_after_s = retry_after_s


def _wire_cells(cells: Iterable[Union[WireCell, Dict[str, Any]]]
                ) -> List[Dict[str, Any]]:
    wire: List[Dict[str, Any]] = []
    for cell in cells:
        wire.append(cell_to_wire(cell) if isinstance(cell, WireCell)
                    else dict(cell))
    return wire


async def submit_batch_async(
    host: str,
    port: int,
    cells: Iterable[Union[WireCell, Dict[str, Any]]],
    *,
    on_cell: Optional[Callable[[CellResult], None]] = None,
) -> BatchResult:
    """Submit once; raises :class:`Backpressure` on rejection.

    ``on_cell`` fires for each result frame as it arrives (completion
    order, not index order) — journal there and a dropped connection
    costs only undelivered cells.
    """
    wire = _wire_cells(cells)
    reader, writer = await asyncio.open_connection(
        host, port, limit=protocol.MAX_LINE_BYTES)
    try:
        await protocol.write_message(writer, {"op": "submit", "batch": wire})
        head = await protocol.read_message(reader)
        if head is None:
            raise ServiceError("connection closed before acceptance")
        if head.get("type") == "rejected":
            reason = str(head.get("reason", "rejected"))
            if reason in ("queue_full", "draining"):
                raise Backpressure(reason,
                                   float(head.get("retry_after_s", 0.1)),
                                   str(head.get("detail", "")))
            raise ServiceError(
                f"batch rejected: {reason}: {head.get('detail', '')}")
        if head.get("type") != "accepted":
            raise ServiceError(f"unexpected response {head!r}")
        result = BatchResult(batch_id=str(head.get("batch_id", "")))
        expected = int(head.get("cells", len(wire)))
        received: List[CellResult] = []
        while True:
            message = await protocol.read_message(reader)
            if message is None:
                raise ServiceError(
                    f"stream ended after {len(received)}/{expected} cells")
            if message.get("type") == "cell":
                cell_result = CellResult.from_wire(message)
                received.append(cell_result)
                if on_cell is not None:
                    on_cell(cell_result)
            elif message.get("type") == "done":
                result.summary = dict(message.get("summary", {}))
                break
            else:
                raise ServiceError(f"unexpected frame {message!r}")
        received.sort(key=lambda cell: cell.index)
        result.cells = received
        return result
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def submit_batch(
    host: str,
    port: int,
    cells: Iterable[Union[WireCell, Dict[str, Any]]],
    *,
    max_attempts: int = 1,
    on_cell: Optional[Callable[[CellResult], None]] = None,
) -> BatchResult:
    """Synchronous submit with backpressure retry.

    ``max_attempts`` counts submissions: 1 means fail fast on a full
    queue, N>1 resubmits after each ``retry_after_s`` hint (capped at
    :data:`MAX_SLEEP_S`).  The last :class:`Backpressure` propagates
    when every permitted attempt is rejected.
    """
    cells = list(cells)

    def once():
        return submit_batch_async(host, port, cells, on_cell=on_cell)

    async def _run() -> BatchResult:
        for _ in range(max_attempts - 1):
            try:
                return await once()
            except Backpressure as exc:
                await asyncio.sleep(
                    min(MAX_SLEEP_S, max(0.0, exc.retry_after_s)))
        return await once()

    return asyncio.run(_run())


async def _roundtrip(host: str, port: int,
                     request: Dict[str, Any]) -> Dict[str, Any]:
    reader, writer = await asyncio.open_connection(
        host, port, limit=protocol.MAX_LINE_BYTES)
    try:
        await protocol.write_message(writer, request)
        message = await protocol.read_message(reader)
        if message is None:
            raise ServiceError("connection closed without a reply")
        return message
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def ping(host: str, port: int) -> Dict[str, Any]:
    return asyncio.run(_roundtrip(host, port, {"op": "ping"}))


def stats(host: str, port: int) -> Dict[str, Any]:
    return asyncio.run(_roundtrip(host, port, {"op": "stats"}))


def drain(host: str, port: int) -> Dict[str, Any]:
    """Ask a server to finish queued work and shut down."""
    return asyncio.run(_roundtrip(host, port, {"op": "drain"}))
