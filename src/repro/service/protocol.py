"""NDJSON wire protocol shared by ``repro serve`` and ``repro submit``.

One JSON object per ``\\n``-terminated UTF-8 line, in both directions.
The protocol is deliberately small — the interesting contracts live in
the *semantics* (dedupe, backpressure, retry, determinism; see
docs/SERVICE.md), not in the framing.

Client → server requests (``op`` discriminates):

* ``{"op": "submit", "batch": [cell...]}`` — ``cell`` is the
  :mod:`repro.experiments.wire` shape ``{"experiment": ...,
  "params": {...}}``; each result comes back as its digest.
* ``{"op": "ping"}`` / ``{"op": "stats"}`` — liveness / counters.
* ``{"op": "drain"}`` — stop accepting work, finish what is queued,
  reply ``{"type": "drained"}``, and shut the server down.

Server → client for one submit (streamed as cells finish, not in
index order — every cell message carries its batch ``index``):

* ``{"type": "accepted", "batch_id": ..., "cells": N}`` or
  ``{"type": "rejected", "reason": "queue_full"|"draining"|
  "bad_request", "retry_after_s": ..., "detail": ...}`` — rejection is
  whole-batch and means *nothing* was enqueued; honor
  ``retry_after_s`` and resubmit.
* ``{"type": "cell", "index": i, "status": "cached"|"computed"|
  "failed"|"retried", "source": "cache"|"inflight"|"fresh", "key":
  ..., "digest": ..., "attempts": n, ...}``
* ``{"type": "done", "batch_id": ..., "summary": {...}}``
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "MAX_LINE_BYTES",
    "ProtocolError",
    "CellResult",
    "BatchResult",
    "encode",
    "decode",
    "read_message",
    "write_message",
]

#: Stream limit for one protocol line.  Batches are many small cells,
#: not one huge blob; a large submitted batch is the biggest
#: legitimate line.
MAX_LINE_BYTES = 32 * 1024 * 1024

#: Cell terminal statuses, in the order summaries report them.
CELL_STATUSES = ("cached", "computed", "retried", "failed")


class ProtocolError(ValueError):
    """A malformed frame (non-JSON line, non-object payload)."""


def encode(message: Dict[str, Any]) -> bytes:
    """One wire frame: compact sorted-key JSON plus the newline."""
    return (json.dumps(message, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(message).__name__}")
    return message


async def read_message(
        reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """The next frame, or None at EOF."""
    line = await reader.readline()
    if not line:
        return None
    return decode(line)


async def write_message(writer: asyncio.StreamWriter,
                        message: Dict[str, Any]) -> None:
    writer.write(encode(message))
    await writer.drain()


# ----------------------------------------------------------------------
# Client-side result shapes
# ----------------------------------------------------------------------
@dataclass
class CellResult:
    """One served cell, as seen by the client."""

    index: int
    status: str            # cached | computed | retried | failed
    source: str = "fresh"  # cache | inflight | fresh
    key: Optional[str] = None
    digest: Optional[str] = None
    attempts: int = 1
    error: Optional[str] = None

    @classmethod
    def from_wire(cls, message: Dict[str, Any]) -> "CellResult":
        return cls(
            index=int(message.get("index", -1)),
            status=str(message.get("status", "failed")),
            source=str(message.get("source", "fresh")),
            key=message.get("key"),
            digest=message.get("digest"),
            attempts=int(message.get("attempts", 1)),
            error=message.get("error"),
        )


@dataclass
class BatchResult:
    """One completed batch: per-cell results in submission order."""

    batch_id: str
    cells: List[CellResult] = field(default_factory=list)
    summary: Dict[str, Any] = field(default_factory=dict)

    @property
    def digests(self) -> List[Optional[str]]:
        return [cell.digest for cell in self.cells]

    @property
    def ok(self) -> bool:
        return bool(self.cells) and all(
            cell.status != "failed" for cell in self.cells)

    def count(self, status: str) -> int:
        return sum(1 for cell in self.cells if cell.status == status)
