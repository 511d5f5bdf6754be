"""Append-only sweep journal: the crash-recovery write-ahead log.

A sweep that dies — OOM kill, SIGTERM from a batch scheduler, a chaos
fault, a laptop lid — should cost only the cells in flight, not the
whole grid.  The journal is the mechanism: one NDJSON file
(``journal.ndjson``) in the run directory, appended as cells
*complete*, recording each finished cell's content key (the same
``CellCache.key_for`` digest that keys the cache and the service
dedupe) and its ``result_digest``.  On ``--resume`` the runner replays
the journal, skips every journaled cell, and reassembles their digests
without recomputing — final sweep digests are byte-identical to an
uninterrupted run because the digest of a pure cell does not depend on
*when* it was computed.

Durability model:

* records are appended in completion order and fsynced every
  ``fsync_every`` records (and on :meth:`flush`/:meth:`close`), so a
  crash loses at most the last unflushed batch — those cells simply
  recompute on resume;
* a crash *mid-append* can tear the final line.  :func:`replay`
  tolerates exactly that: it stops at the first unparseable or
  truncated line and reports the journal as torn — a torn tail is a
  normal crash artifact, not corruption of the records before it;
* the file is opened in append mode, so resume continues the same
  journal — one file tells the whole (possibly multi-attempt) story of
  the sweep.

The journal stores *digests*, not results; the CellCache (when
enabled) stores the results themselves.  Resume therefore never needs
the cache to reproduce the sweep's digest output, and uses the cache
only when full result objects are required.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import count

__all__ = [
    "JOURNAL_NAME",
    "JOURNAL_SCHEMA",
    "SweepJournal",
    "JournalReplay",
    "replay",
    "journal_path",
]

JOURNAL_NAME = "journal.ndjson"
JOURNAL_SCHEMA = 1


def journal_path(run_dir: str) -> str:
    return os.path.join(run_dir, JOURNAL_NAME)


class JournalReplay:
    """The recovered state of a journal: records, header, torn tail."""

    def __init__(self, header: Optional[Dict[str, Any]],
                 records: List[Dict[str, Any]], torn: bool):
        self.header = header
        self.records = records
        self.torn = torn
        #: key → record, last write wins (idempotent re-journaling of
        #: the same cell across attempts is harmless by construction —
        #: a pure cell always re-digests identically).
        self.by_key: Dict[str, Dict[str, Any]] = {
            rec["key"]: rec for rec in records if "key" in rec
        }

    def __contains__(self, key: str) -> bool:
        return key in self.by_key

    def __len__(self) -> int:
        return len(self.by_key)

    def digest_for(self, key: str) -> Optional[str]:
        rec = self.by_key.get(key)
        return None if rec is None else rec.get("digest")

    @property
    def spec_digest(self) -> Optional[str]:
        return None if self.header is None else self.header.get("spec_digest")


def replay(path: str) -> JournalReplay:
    """Recover a journal, tolerating a torn final line.

    Reads line-records until the first line that is incomplete
    (missing its newline) or fails to parse; everything before the
    tear is trusted, the tear itself marks the journal ``torn`` and is
    discarded.  A missing file replays as empty — resume of a run dir
    that never started is a fresh run.
    """
    header: Optional[Dict[str, Any]] = None
    records: List[Dict[str, Any]] = []
    torn = False
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return JournalReplay(None, [], False)
    lines = raw.split(b"\n")
    # split() always yields a final element: empty iff the file ended
    # with a newline.  A non-empty final element is a torn append.
    if lines[-1]:
        torn = True
    first = True
    for line in lines[:-1]:
        if not line:
            continue
        try:
            rec = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            torn = True
            break
        if not isinstance(rec, dict):
            torn = True
            break
        if first and rec.get("type") == "header":
            header = rec
        elif "key" in rec and "digest" in rec:
            records.append(rec)
        # Records missing key/digest (future schema additions) are
        # skipped, not fatal: forward compatibility.
        first = False
    return JournalReplay(header, records, torn)


class SweepJournal:
    """Append-only NDJSON writer for one run directory.

    One record per *completed* cell::

        {"key": <cache key>, "digest": <result digest>,
         "index": <position in the sweep>, "experiment": <id>}

    plus a leading header line (written once per file) binding the
    journal to its sweep spec.  Appends are a single ``write`` of one
    newline-terminated line — on POSIX an ``O_APPEND`` write of that
    size is effectively atomic, and :func:`replay` cleans up the one
    case (mid-write crash) where it is not.
    """

    def __init__(self, run_dir: str, *, spec_digest: Optional[str] = None,
                 fsync_every: int = 8):
        os.makedirs(run_dir, exist_ok=True)
        self.path = journal_path(run_dir)
        self.fsync_every = max(1, int(fsync_every))
        self._pending = 0
        fresh = not os.path.exists(self.path) or \
            os.path.getsize(self.path) == 0
        self._fh = open(self.path, "ab")
        if fresh:
            self._write_line({
                "type": "header",
                "schema": JOURNAL_SCHEMA,
                "spec_digest": spec_digest,
            })
            self.flush()

    # ------------------------------------------------------------------
    def _write_line(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        self._fh.write(line.encode("utf-8"))
        self._pending += 1

    def record(self, key: str, digest: str, *, index: Optional[int] = None,
               experiment: Optional[str] = None) -> None:
        """Journal one completed cell (appended, batched fsync)."""
        rec: Dict[str, Any] = {"key": key, "digest": digest}
        if index is not None:
            rec["index"] = index
        if experiment is not None:
            rec["experiment"] = experiment
        self._write_line(rec)
        if self._pending >= self.fsync_every:
            self.flush()
        count("journal.records")

    def flush(self) -> None:
        if self._fh.closed:
            return
        self._fh.flush()
        try:
            os.fsync(self._fh.fileno())
        except OSError:
            pass
        self._pending = 0

    def close(self) -> None:
        if not self._fh.closed:
            self.flush()
            self._fh.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
