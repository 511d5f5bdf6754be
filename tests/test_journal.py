"""The sweep journal: append-only WAL with torn-tail tolerant replay.

The durability contract: every record is one newline-terminated
O_APPEND write; a crash can at worst tear the final line, and
:func:`repro.obs.journal.replay` must treat that tear as a normal
crash artifact — trust everything before it, report ``torn``, never
raise.
"""

import json
import os

from repro.obs.journal import (
    JOURNAL_SCHEMA,
    SweepJournal,
    journal_path,
    replay,
)


def test_missing_journal_replays_empty(tmp_path):
    recovered = replay(journal_path(str(tmp_path)))
    assert len(recovered) == 0
    assert not recovered.torn
    assert recovered.spec_digest is None


def test_records_round_trip_with_header(tmp_path):
    with SweepJournal(str(tmp_path), spec_digest="abc123") as journal:
        journal.record("k1", "d1", index=0, experiment="resolution")
        journal.record("k2", "d2", index=1, experiment="resolution")
    recovered = replay(journal_path(str(tmp_path)))
    assert recovered.spec_digest == "abc123"
    assert recovered.header["schema"] == JOURNAL_SCHEMA
    assert not recovered.torn
    assert "k1" in recovered and "k2" in recovered
    assert recovered.digest_for("k1") == "d1"
    assert recovered.digest_for("missing") is None


def test_last_write_wins_on_rejournaled_key(tmp_path):
    with SweepJournal(str(tmp_path)) as journal:
        journal.record("k1", "d1")
        journal.record("k1", "d1")  # idempotent re-append across attempts
    recovered = replay(journal_path(str(tmp_path)))
    assert len(recovered) == 1
    assert recovered.digest_for("k1") == "d1"


def test_torn_final_line_is_tolerated(tmp_path):
    with SweepJournal(str(tmp_path), spec_digest="s") as journal:
        journal.record("k1", "d1")
        journal.record("k2", "d2")
    # A crash mid-append: the final line lost its newline (and half its
    # bytes).  Everything before the tear must replay intact.
    with open(journal_path(str(tmp_path)), "ab") as fh:
        fh.write(b'{"key": "k3", "dig')
    recovered = replay(journal_path(str(tmp_path)))
    assert recovered.torn
    assert recovered.digest_for("k1") == "d1"
    assert recovered.digest_for("k2") == "d2"
    assert "k3" not in recovered


def test_garbage_interior_line_stops_replay_at_the_tear(tmp_path):
    path = journal_path(str(tmp_path))
    with SweepJournal(str(tmp_path)) as journal:
        journal.record("k1", "d1")
    with open(path, "ab") as fh:
        fh.write(b"\x00\xff garbage line\n")
        fh.write(json.dumps({"key": "k2", "digest": "d2"}).encode() + b"\n")
    recovered = replay(path)
    assert recovered.torn
    # Records *before* the tear are trusted; after it, nothing is.
    assert recovered.digest_for("k1") == "d1"
    assert "k2" not in recovered


def test_reopen_appends_without_a_second_header(tmp_path):
    with SweepJournal(str(tmp_path), spec_digest="run1") as journal:
        journal.record("k1", "d1")
    with SweepJournal(str(tmp_path), spec_digest="ignored") as journal:
        journal.record("k2", "d2")
    with open(journal_path(str(tmp_path)), "rb") as fh:
        raw = fh.read()
    headers = [line for line in raw.splitlines() if b'"header"' in line]
    assert len(headers) == 1
    recovered = replay(journal_path(str(tmp_path)))
    assert recovered.spec_digest == "run1"
    assert len(recovered) == 2


def test_forward_compatible_records_are_skipped_not_fatal(tmp_path):
    path = journal_path(str(tmp_path))
    with SweepJournal(str(tmp_path)) as journal:
        journal.record("k1", "d1")
    with open(path, "ab") as fh:
        fh.write(json.dumps({"type": "checkpoint", "note": "v2"}).encode()
                 + b"\n")
        fh.write(json.dumps({"key": "k2", "digest": "d2"}).encode() + b"\n")
    recovered = replay(path)
    assert not recovered.torn
    assert recovered.digest_for("k2") == "d2"


def test_flush_survives_close_and_fsync_batching(tmp_path):
    journal = SweepJournal(str(tmp_path), fsync_every=100)
    for i in range(10):
        journal.record(f"k{i}", f"d{i}")
    # Unflushed batch is still visible to replay (OS buffers flush on
    # close); fsync batching only bounds what a *power* failure loses.
    journal.close()
    recovered = replay(journal_path(str(tmp_path)))
    assert len(recovered) == 10
