"""``repro serve``: the async experiment service.

An asyncio front-end absorbs batches of experiment cells over the
NDJSON protocol (:mod:`repro.service.protocol`) and a process worker
pool executes them; between the two sits the layer this module exists
for — **manifest-keyed dedupe**:

* every admitted cell is keyed by its content-addressed manifest digest
  (:meth:`repro.obs.cellcache.CellCache.key_for` over the normalized
  cell from :mod:`repro.experiments.wire`);
* a key with a **completed** result in the cell cache is served from
  disk (``status: cached, source: cache``) — digest-verified, so a
  corrupt entry is rejected (``service.cache_rejects``) and recomputed,
  never returned;
* a key already **in flight** — the common case when many users sweep
  overlapping grids — attaches to the existing computation's future
  (``status: cached, source: inflight``; counted in
  ``service.dedupe_hits``) instead of simulating twice;
* only a genuinely novel key reaches the worker pool
  (``status: computed``, or ``retried`` when transport failed along
  the way).

Robustness contract (exercised end-to-end by the service test battery):

* **bounded queue + backpressure** — admission is all-or-nothing per
  batch; when ``pending + batch > queue_limit`` the batch is rejected
  with a ``retry_after_s`` hint and *nothing* is enqueued (a batch
  larger than ``queue_limit`` could never fit, so it is a
  ``bad_request`` instead);
* **per-cell timeout and bounded retry** — timeouts, worker deaths
  (``BrokenProcessPool``, answered by replacing the pool) and other
  transport failures re-execute the *identical* cell up to
  ``max_retries`` times.  A retry never re-derives the simulation seed
  — the cell is a pure function of its params and re-seeding would
  change its digest; only the attempt counter varies.  Exceptions
  raised *inside* the experiment are deterministic — the same cell
  would fail identically forever — so they fail fast, without retry;
* **graceful drain** — ``drain()`` stops admission (rejections say
  ``draining``), lets every in-flight cell finish, then shuts the pool
  and listener down.

Telemetry: ``service.*`` counters (``submitted``, ``batches``,
``cached``, ``computed``, ``failed``, ``retries``, ``dedupe_hits``,
``cache_rejects``, ``backpressure_rejects``, ``pool_replacements``) on
the process registry, plus the usual per-cell manifests/metrics
recorded by the workers.  Queue depth, in-flight count and hit rate
are answered by the ``stats`` op.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.wire import WireCell, WireError, cell_from_wire
from repro.obs import count
from repro.obs.cellcache import CellCache
from repro.service import protocol

__all__ = [
    "ServiceConfig",
    "ExperimentService",
    "InjectedTransportFailure",
    "execute_cell",
]


class InjectedTransportFailure(ConnectionError):
    """Fault-injection stand-in for a worker death in inline mode."""


#: Pause before transport retry ``n`` is ``n`` times this.
RETRY_BACKOFF_S = 0.05


@dataclass
class ServiceConfig:
    host: str = "127.0.0.1"
    port: int = 0                      # 0 → ephemeral, see .port after start
    workers: int = 2                   # 0 → inline (thread executor, no pool)
    queue_limit: int = 256             # max admitted-but-unfinished cells
    cell_timeout_s: float = 120.0
    max_retries: int = 2               # transport retries per cell
    cache_dir: Optional[str] = None    # cell cache root (None → no dedupe
    #                                    against completed work, in-flight
    #                                    dedupe still applies)
    manifest_dir: Optional[str] = None  # per-cell manifests (record_cell)
    # When set, completed cells are journaled (key + digest) to this
    # run directory's ``journal.ndjson`` — the server-side half of the
    # crash-safe sweep story (clients journal too; the server journal
    # additionally survives clients that vanish mid-batch).
    journal_dir: Optional[str] = None


# ----------------------------------------------------------------------
# Worker-side execution (module-level: must pickle for spawn pools)
# ----------------------------------------------------------------------
def execute_cell(
    wire_cell: Dict[str, Any],
    cache_dir: Optional[str],
    manifest_dir: Optional[str],
    fault: Optional[Dict[str, Any]],
    inline: bool,
) -> Dict[str, Any]:
    """Run one cell inside a worker; returns a JSON-safe outcome.

    ``{"ok": True, "digest": ..., "repr": ...}`` on success;
    ``{"ok": False, "error": ...}`` when the experiment itself raised
    (a *deterministic* failure — the server will not retry it).
    Transport-class failures (injected death, timeout) surface as
    exceptions/pool breakage, not as a return value.

    ``fault`` is a chaos ``service.cell`` descriptor
    (:func:`repro.chaos.service_fault`): ``{"sleep_s": x}`` delays the
    worker; ``{"die": True}`` kills the worker process mid-cell
    (``os._exit``), exactly what a real OOM kill looks like to the
    pool — or, inline, raises :class:`InjectedTransportFailure`.
    """
    if fault:
        if fault.get("sleep_s"):
            time.sleep(float(fault["sleep_s"]))
        if fault.get("die"):
            if inline:
                raise InjectedTransportFailure("injected worker death")
            os._exit(1)  # a real mid-cell worker kill, as the pool sees it
    try:
        cell = cell_from_wire(wire_cell)
        from repro.obs.manifest import resolve_experiment, result_digest

        fn = resolve_experiment(cell.experiment)
        if manifest_dir:
            from repro.obs.manifest import record_cell

            result = record_cell(fn, dict(cell.params), manifest_dir)
        else:
            result = fn(**cell.params)
    except InjectedTransportFailure:
        raise
    except Exception as exc:  # deterministic: same cell → same failure
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    if cache_dir:
        cache = CellCache(cache_dir)
        key = cache.key_for(cell.experiment, cell.params)
        if key is not None:
            cache.store(key, cell.experiment, result)
    return {"ok": True, "digest": result_digest(result),
            "repr": repr(result)}


# ----------------------------------------------------------------------
# Service
# ----------------------------------------------------------------------
@dataclass
class _Tally:
    """Served-cell accounting behind the summary and the ``stats`` op."""

    cached: int = 0
    computed: int = 0
    retried: int = 0
    failed: int = 0
    dedupe_hits: int = 0

    @property
    def served(self) -> int:
        return self.cached + self.computed + self.retried + self.failed

    @property
    def hit_rate(self) -> float:
        served = self.served
        return (self.cached / served) if served else 0.0


class ExperimentService:
    """One running ``repro serve`` instance (see module docstring)."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        self.cache = (CellCache(self.config.cache_dir)
                      if self.config.cache_dir else None)
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_generation = 0
        self._pool_lock: Optional[asyncio.Lock] = None
        self._inflight: Dict[str, asyncio.Future] = {}
        self._pending = 0
        self._idle: Optional[asyncio.Event] = None
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._batch_counter = 0
        self._tally = _Tally()
        self._pool_replacements = 0
        self._journal = None
        if self.config.journal_dir:
            from repro.obs.journal import SweepJournal

            self._journal = SweepJournal(self.config.journal_dir)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def inline(self) -> bool:
        return self.config.workers <= 0

    async def start(self) -> None:
        self._pool_lock = asyncio.Lock()
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        if not self.inline:
            self._pool = ProcessPoolExecutor(
                max_workers=self.config.workers)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_stopped(self) -> None:
        assert self._stopped is not None
        await self._stopped.wait()

    async def drain(self) -> None:
        """Stop admission, finish in-flight work, shut everything down.

        Every in-flight cell is journaled as it completes (the normal
        path), so by the time the idle event fires the journal holds
        everything that finished; flushing it *before* the listener
        closes is what makes a SIGTERM'd server resumable.
        """
        self._draining = True
        assert self._idle is not None and self._stopped is not None
        await self._idle.wait()
        if self._journal is not None:
            self._journal.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._stopped.set()

    def _adjust_pending(self, delta: int) -> None:
        self._pending += delta
        assert self._idle is not None
        if self._pending <= 0:
            self._idle.set()
        else:
            self._idle.clear()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    message = await protocol.read_message(reader)
                except protocol.ProtocolError as exc:
                    await protocol.write_message(writer, {
                        "type": "rejected", "reason": "bad_request",
                        "detail": str(exc)})
                    break
                if message is None:
                    break
                op = message.get("op")
                if op == "submit":
                    await self._handle_submit(message, writer)
                elif op == "ping":
                    await protocol.write_message(writer, {
                        "type": "pong", "draining": self._draining,
                        "pending": self._pending})
                elif op == "stats":
                    await protocol.write_message(writer, self._stats())
                elif op == "drain":
                    await self.drain()
                    await protocol.write_message(writer, {"type": "drained"})
                    break
                else:
                    await protocol.write_message(writer, {
                        "type": "rejected", "reason": "bad_request",
                        "detail": f"unknown op {op!r}"})
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-stream; nothing to unwind
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _stats(self) -> Dict[str, Any]:
        tally = self._tally
        return {
            "type": "stats",
            "pending": self._pending,
            "inflight": len(self._inflight),
            "draining": self._draining,
            "served": tally.served,
            "cached": tally.cached,
            "computed": tally.computed,
            "retried": tally.retried,
            "failed": tally.failed,
            "dedupe_hits": tally.dedupe_hits,
            "hit_rate": round(tally.hit_rate, 6),
            "pool_replacements": self._pool_replacements,
        }

    # ------------------------------------------------------------------
    # Submit
    # ------------------------------------------------------------------
    def _retry_after_s(self) -> float:
        workers = max(1, self.config.workers)
        backlog_rounds = self._pending / workers if workers else self._pending
        return round(min(5.0, max(0.05, 0.05 * backlog_rounds)), 3)

    async def _handle_submit(self, message: Dict[str, Any],
                             writer: asyncio.StreamWriter) -> None:
        batch = message.get("batch")
        if not isinstance(batch, list) or not batch:
            await protocol.write_message(writer, {
                "type": "rejected", "reason": "bad_request",
                "detail": "'batch' must be a non-empty list of cells"})
            return
        if self._draining:
            await protocol.write_message(writer, {
                "type": "rejected", "reason": "draining",
                "retry_after_s": 1.0})
            return
        if len(batch) > self.config.queue_limit:
            await protocol.write_message(writer, {
                "type": "rejected", "reason": "bad_request",
                "detail": f"batch of {len(batch)} cells exceeds the queue "
                          f"limit of {self.config.queue_limit}"})
            return
        if self._pending + len(batch) > self.config.queue_limit:
            count("service.backpressure_rejects")
            await protocol.write_message(writer, {
                "type": "rejected", "reason": "queue_full",
                "retry_after_s": self._retry_after_s(),
                "detail": f"{self._pending} cell(s) pending, "
                          f"limit {self.config.queue_limit}"})
            return
        # Normalize every cell before admitting any: a batch with a
        # malformed cell is rejected whole, so admission stays
        # all-or-nothing and nothing half-simulates.
        cells: List[WireCell] = []
        try:
            for wire_dict in batch:
                cells.append(cell_from_wire(wire_dict))
        except WireError as exc:
            await protocol.write_message(writer, {
                "type": "rejected", "reason": "bad_request",
                "detail": str(exc)})
            return
        self._batch_counter += 1
        batch_id = str(message.get("batch_id")
                       or f"b{self._batch_counter:06d}")
        want_repr = message.get("return") == "repr"
        count("service.batches")
        count("service.submitted", len(cells))
        self._adjust_pending(len(cells))
        await protocol.write_message(writer, {
            "type": "accepted", "batch_id": batch_id, "cells": len(cells)})
        tasks = [
            asyncio.ensure_future(
                self._serve_cell_tracked(index, cell, want_repr))
            for index, cell in enumerate(cells)
        ]
        summary = {status: 0 for status in protocol.CELL_STATUSES}
        summary["dedupe_hits"] = 0
        for done in asyncio.as_completed(tasks):
            cell_message = await done
            summary[cell_message["status"]] += 1
            if cell_message.get("source") == "inflight":
                summary["dedupe_hits"] += 1
            await protocol.write_message(writer, cell_message)
        await protocol.write_message(writer, {
            "type": "done", "batch_id": batch_id, "summary": summary})

    async def _serve_cell_tracked(self, index: int, cell: WireCell,
                                  want_repr: bool) -> Dict[str, Any]:
        """Serve one cell, releasing its queue slot as *it* finishes
        (not when its whole batch does) so backpressure tracks real
        occupancy even while a slow sibling cell is still running."""
        try:
            return await self._serve_cell(index, cell, want_repr)
        finally:
            self._adjust_pending(-1)

    # ------------------------------------------------------------------
    # Per-cell serving: cache → in-flight dedupe → compute
    # ------------------------------------------------------------------
    async def _serve_cell(self, index: int, cell: WireCell,
                          want_repr: bool) -> Dict[str, Any]:
        key = (self.cache.key_for(cell.experiment, cell.params)
               if self.cache is not None else None)
        base: Dict[str, Any] = {"type": "cell", "index": index, "key": key}
        if key is not None:
            status, result = self.cache.fetch_outcome(key)
            if status == "hit":
                from repro.obs.manifest import result_digest

                self._tally.cached += 1
                count("service.cached")
                message = dict(base, status="cached", source="cache",
                               digest=result_digest(result), attempts=0)
                if want_repr:
                    message["result_repr"] = repr(result)
                self._journal_cell(key, message["digest"], cell.experiment)
                return message
            if status == "corrupt":
                count("service.cache_rejects")
            inflight = self._inflight.get(key)
            if inflight is not None:
                self._tally.dedupe_hits += 1
                count("service.dedupe_hits")
                outcome = await asyncio.shield(inflight)
                if outcome["ok"]:
                    self._tally.cached += 1
                    count("service.cached")
                else:
                    self._tally.failed += 1
                    count("service.failed")
                message = dict(base, source="inflight",
                               attempts=0, **self._outcome_fields(
                                   outcome, want_repr))
                message["status"] = ("cached" if outcome["ok"] else "failed")
                return message
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        if key is not None:
            self._inflight[key] = future
        try:
            outcome, attempts = await self._compute(cell)
            future.set_result(outcome)
        except BaseException as exc:
            future.set_exception(exc)
            future.exception()  # consume: waiters re-raise, we re-raise below
            raise
        finally:
            if key is not None and self._inflight.get(key) is future:
                del self._inflight[key]
        if not outcome["ok"]:
            self._tally.failed += 1
            count("service.failed")
        elif attempts > 1:
            self._tally.retried += 1
            count("service.computed")
        else:
            self._tally.computed += 1
            count("service.computed")
        message = dict(base, source="fresh", attempts=attempts,
                       **self._outcome_fields(outcome, want_repr))
        if not outcome["ok"]:
            message["status"] = "failed"
        else:
            message["status"] = "retried" if attempts > 1 else "computed"
            self._journal_cell(key, message.get("digest"), cell.experiment)
        return message

    def _journal_cell(self, key: Optional[str], digest: Optional[str],
                      experiment: str) -> None:
        """Journal one successfully computed cell (no-op when the
        server has no journal, or the cell has no content key)."""
        if self._journal is None or key is None or digest is None:
            return
        try:
            self._journal.record(key, digest, experiment=experiment)
        except OSError:
            pass  # durability must never fail the serving path

    @staticmethod
    def _outcome_fields(outcome: Dict[str, Any],
                        want_repr: bool) -> Dict[str, Any]:
        fields: Dict[str, Any] = {}
        if outcome.get("ok"):
            fields["digest"] = outcome.get("digest")
            if want_repr:
                fields["result_repr"] = outcome.get("repr")
        else:
            fields["error"] = outcome.get("error")
        return fields

    async def _compute(
            self, cell: WireCell) -> Tuple[Dict[str, Any], int]:
        """Execute one novel cell with timeout + bounded transport retry.

        Returns ``(worker outcome, attempts_used)``.  Deterministic
        experiment failures return immediately (``ok: False``);
        transport failures retry the *identical* cell — never a
        re-seeded one — up to ``max_retries`` times.
        """
        from repro.experiments.wire import cell_to_wire

        wire_dict = cell_to_wire(cell)
        last_error = "unknown transport failure"
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                count("service.retries")
                await asyncio.sleep(RETRY_BACKOFF_S * attempt)
            fault = None
            if os.environ.get("REPRO_CHAOS", "").strip():
                from repro.chaos import service_fault

                fault = service_fault(cell.experiment, cell.params, attempt)
            generation = self._pool_generation
            try:
                # Submitting to a pool that a worker death has already
                # broken raises here, not from the future.
                exec_future = asyncio.get_running_loop().run_in_executor(
                    self._pool, execute_cell, wire_dict,
                    self.config.cache_dir, self.config.manifest_dir,
                    fault, self.inline)
                # Not wait_for(): an executor call cannot be cancelled
                # once running, and wait_for would block on the
                # cancellation until the slow worker finished — the
                # opposite of a timeout.  wait() lets us abandon the
                # stuck future (its eventual result/exception is
                # consumed silently) and move straight to the retry.
                done, _ = await asyncio.wait(
                    {exec_future}, timeout=self.config.cell_timeout_s)
                if not done:
                    exec_future.add_done_callback(
                        lambda f: f.cancelled() or f.exception())
                    last_error = (f"cell timeout after "
                                  f"{self.config.cell_timeout_s}s")
                    continue
                return exec_future.result(), attempt + 1
            except (BrokenProcessPool, InjectedTransportFailure,
                    OSError, EOFError) as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                if isinstance(exc, BrokenProcessPool):
                    await self._replace_pool(generation)
        return {"ok": False,
                "error": f"transport retries exhausted: {last_error}"}, \
            self.config.max_retries + 1

    async def _replace_pool(self, seen_generation: int) -> None:
        """Swap a broken pool for a fresh one (once per breakage, even
        when many cells observe the same corpse concurrently)."""
        if self.inline:
            return
        assert self._pool_lock is not None
        async with self._pool_lock:
            if self._pool_generation != seen_generation:
                return  # another cell already replaced it
            old, self._pool = self._pool, ProcessPoolExecutor(
                max_workers=self.config.workers)
            old.shutdown(wait=False)
            self._pool_generation += 1
            self._pool_replacements += 1
            count("service.pool_replacements")
