"""Crash-safe sweeps: a run directory that survives being killed.

A *sweep* here is the repo's universal workload shape — a list of
normalized experiment cells (:class:`repro.experiments.wire.WireCell`)
executed for their result digests.  This module binds a sweep to a
**run directory** so that progress is durable:

* ``sweep.json`` — the sweep spec: the full cell list in wire encoding,
  saved before the first cell runs.  Its digest pins what the journal
  belongs to, so ``--resume`` of a run dir with a *different* grid is
  an error, never a silent mixture of two sweeps;
* ``journal.ndjson`` — the write-ahead log
  (:mod:`repro.obs.journal`): each completed cell's content key and
  result digest, appended in completion order;
* the usual manifest/cellcache artifacts when enabled.

:func:`run_sweep` is the only code that runs a journaled sweep.  What
computes the pending cells is its *executor*: a callable
``executor(cells, on_done)`` that calls ``on_done(position, digest)``
as each cell completes (``digest=None`` for a cell it reports failed).
The default executor is the local pool (:mod:`repro.parallel`);
``repro submit --run-dir`` passes one that streams the cells through a
running ``repro serve``.  Either way :func:`run_sweep` journals each
cell, consults the chaos ``runner.tick`` point and checks for an abort
right after the journal record, so both stop at the same point.

``resume`` replays the journal and serves journaled cells from it —
zero recomputation — then runs only the remainder.  Because every cell
is a pure function of its params, a digest recorded before a crash is
byte-identical to the digest an uninterrupted run would have produced,
so the resumed sweep's final digests (and the combined sweep digest)
are indistinguishable from a run that never died, for any ``--jobs``.

Cells whose params do not survive manifest sanitization have no
content key; they cannot be journaled and always recompute — the same
rule the cell cache and the service dedupe already apply.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.experiments.wire import WireCell, cell_from_wire, cell_to_wire
from repro.obs.cellcache import cell_key
from repro.obs.journal import JournalReplay, SweepJournal, replay
from repro.obs.manifest import resolve_experiment, result_digest
from repro.parallel import map_payloads_completions

__all__ = [
    "SWEEP_SPEC_NAME",
    "SWEEP_SCHEMA",
    "SweepSpec",
    "CellOutcome",
    "SweepResult",
    "SweepInterrupted",
    "Executor",
    "load_spec",
    "prepare_run_dir",
    "run_sweep",
    "combined_digest",
]

#: ``executor(cells, on_done)``: compute ``cells``, calling
#: ``on_done(position, digest)`` as each completes (``None`` = failed).
Executor = Callable[[List[WireCell], Callable[[int, Optional[str]], None]],
                    None]

SWEEP_SPEC_NAME = "sweep.json"
SWEEP_SCHEMA = 1


@dataclass
class SweepSpec:
    """The durable identity of one sweep: its ordered cell list."""

    cells: List[WireCell] = field(default_factory=list)
    schema: int = SWEEP_SCHEMA

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "cells": [cell_to_wire(cell) for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        if not isinstance(data, dict) or not isinstance(
                data.get("cells"), list):
            raise ValueError("sweep spec must be {'schema':…,'cells':[…]}")
        return cls(
            cells=[cell_from_wire(c) for c in data["cells"]],
            schema=int(data.get("schema", SWEEP_SCHEMA)),
        )

    def digest(self) -> str:
        """Content digest of the spec (pins journal ↔ sweep binding)."""
        material = json.dumps(self.to_dict(), sort_keys=True,
                              separators=(",", ":"))
        return hashlib.sha256(material.encode()).hexdigest()

    # ------------------------------------------------------------------
    def save(self, run_dir: str) -> str:
        os.makedirs(run_dir, exist_ok=True)
        path = os.path.join(run_dir, SWEEP_SPEC_NAME)
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def load_spec(run_dir: str) -> SweepSpec:
    path = os.path.join(run_dir, SWEEP_SPEC_NAME)
    with open(path) as fh:
        return SweepSpec.from_dict(json.load(fh))


@dataclass
class CellOutcome:
    """How one cell of the sweep was satisfied."""

    index: int
    experiment: str
    key: Optional[str]
    digest: str
    source: str  # 'journal' (resumed, not recomputed) | 'ran'


@dataclass
class SweepResult:
    outcomes: List[CellOutcome]
    digest: str           # combined sweep digest over per-cell digests
    spec_digest: str
    journal_served: int   # cells satisfied from the journal
    ran: int              # cells executed this invocation
    torn: bool            # resumed journal had a torn final line
    failed: int = 0       # cells the executor reported failed


class SweepInterrupted(RuntimeError):
    """A sweep stopped before completing every cell.

    Raised by :func:`run_sweep` when its ``should_abort`` callback
    turns true (SIGTERM/SIGINT handlers set exactly that flag) — *after*
    the cell that just completed was journaled.  ``completed`` counts
    the cells this invocation completed.
    """

    def __init__(self, message: str, completed: int = 0):
        super().__init__(message)
        self.completed = completed


def combined_digest(digests: List[str]) -> str:
    """One digest for the whole sweep: SHA-256 over the newline-joined
    per-cell digests in sweep order — byte-identical iff every cell
    digest is."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def prepare_run_dir(run_dir: str, cells: Optional[List[WireCell]],
                    resume: bool) -> "tuple[SweepSpec, JournalReplay]":
    """Bind (or re-bind) the run dir to its spec and replay the journal."""
    spec_path = os.path.join(run_dir, SWEEP_SPEC_NAME)
    if resume:
        if not os.path.exists(spec_path):
            raise ValueError(
                f"cannot resume {run_dir!r}: no {SWEEP_SPEC_NAME} "
                "(was this directory ever a sweep run dir?)")
        saved = load_spec(run_dir)
        if cells is not None:
            fresh = SweepSpec(cells=list(cells))
            if fresh.digest() != saved.digest():
                raise ValueError(
                    f"cannot resume {run_dir!r}: the requested grid does "
                    "not match the recorded sweep.json (resume re-runs "
                    "the *same* sweep; use a new run dir for a new grid)")
        spec = saved
    else:
        spec = SweepSpec(cells=list(cells or []))
        if os.path.exists(spec_path):
            saved = load_spec(run_dir)
            if saved.digest() != spec.digest():
                raise ValueError(
                    f"{run_dir!r} already holds a different sweep; "
                    "use --resume to continue it or a new run dir")
        if len(replay(os.path.join(run_dir, "journal.ndjson"))):
            raise ValueError(
                f"{run_dir!r} already has journaled progress; pass "
                "--resume to continue it (a fresh run would recompute "
                "journaled cells)")
        spec.save(run_dir)
    jreplay = replay(os.path.join(run_dir, "journal.ndjson"))
    if (jreplay.spec_digest is not None
            and jreplay.spec_digest != spec.digest()):
        raise ValueError(
            f"journal in {run_dir!r} belongs to a different sweep "
            f"(spec digest mismatch); refusing to mix runs")
    return spec, jreplay


def _chaos_tick(completed: int) -> None:
    """``runner.tick`` injection point: consulted after every completed
    cell when a chaos schedule is active (no-op otherwise)."""
    if not os.environ.get("REPRO_CHAOS", "").strip():
        return
    from repro.chaos import ChaosAbort, chaos_point

    fault = chaos_point("runner.tick", completed=completed)
    if fault is None:
        return
    if fault["kind"] == "abort":
        raise ChaosAbort(f"chaos abort after {completed} completed cells")
    if fault["kind"] == "sigterm":
        import signal

        os.kill(os.getpid(), signal.SIGTERM)


def _pool_executor(jobs: Optional[int]) -> Executor:
    """The local executor: the cells on :mod:`repro.parallel`'s pool."""

    def execute(cells: List[WireCell],
                on_done: Callable[[int, Optional[str]], None]) -> None:
        payloads = [(resolve_experiment(cell.experiment), cell.params)
                    for cell in cells]
        map_payloads_completions(
            payloads, jobs=jobs,
            on_result=lambda pos, result: on_done(pos, result_digest(result)))

    return execute


def run_sweep(
    run_dir: str,
    cells: Optional[List[WireCell]] = None,
    *,
    jobs: Optional[int] = None,
    resume: bool = False,
    should_abort: Optional[Callable[[], bool]] = None,
    executor: Optional[Executor] = None,
) -> SweepResult:
    """Execute (or resume) a sweep inside ``run_dir``.

    Fresh runs require ``cells``; ``resume=True`` reloads them from the
    saved spec (passing cells too merely cross-checks the digest).
    Journaled cells are served from the journal — **never recomputed**
    — and ``executor`` computes the rest (default: the local pool with
    ``jobs``), each completion journaled
    (fsync-batched) as it is reported.

    After each journal record the chaos ``runner.tick`` point is
    consulted and ``should_abort`` polled; a true flag raises
    :class:`SweepInterrupted`.  On any interruption the journal is
    flushed and closed before the exception propagates, leaving the run
    dir resumable.
    """
    spec, jreplay = prepare_run_dir(run_dir, cells, resume)
    sweep_cells = spec.cells
    keys = [cell_key(c.experiment, c.params) for c in sweep_cells]

    outcomes: List[Optional[CellOutcome]] = [None] * len(sweep_cells)
    pending: List[int] = []
    for index, (cell, key) in enumerate(zip(sweep_cells, keys)):
        digest = jreplay.digest_for(key) if key is not None else None
        if digest is not None:
            outcomes[index] = CellOutcome(
                index=index, experiment=cell.experiment, key=key,
                digest=digest, source="journal")
        else:
            pending.append(index)

    journal_served = len(sweep_cells) - len(pending)
    completed = failed = 0
    if pending:
        journal = SweepJournal(run_dir, spec_digest=spec.digest())

        def on_done(position: int, digest: Optional[str]) -> None:
            nonlocal completed, failed
            index = pending[position]
            cell = sweep_cells[index]
            if digest is None:
                failed += 1
            else:
                if keys[index] is not None:
                    journal.record(keys[index], digest, index=index,
                                   experiment=cell.experiment)
                outcomes[index] = CellOutcome(
                    index=index, experiment=cell.experiment,
                    key=keys[index], digest=digest, source="ran")
            completed += 1
            _chaos_tick(completed)
            if should_abort is not None and should_abort():
                raise SweepInterrupted(
                    f"sweep interrupted after {completed} cells", completed)

        try:
            (executor or _pool_executor(jobs))(
                [sweep_cells[index] for index in pending], on_done)
        finally:
            # Crash/interrupt path included: everything that completed
            # is durably journaled before the exception leaves here.
            journal.close()

    done = [o for o in outcomes if o is not None]
    return SweepResult(
        outcomes=done,
        digest=combined_digest([o.digest for o in done]),
        spec_digest=spec.digest(),
        journal_served=journal_served,
        ran=completed - failed,
        torn=jreplay.torn,
        failed=failed,
    )
