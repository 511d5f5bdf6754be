"""Fault injection against a live service: the robustness contract.

Each test opens one of the failure modes the server must absorb
without digest drift:

* a worker process killed mid-cell (a real ``os._exit`` → real
  ``BrokenProcessPool``) — the cell retries on a replaced pool and the
  batch completes with unchanged digests;
* a slow worker overruns the per-cell timeout — the stuck future is
  abandoned and the retry lands on a free worker;
* transport retries exhaust — the cell fails cleanly, the batch still
  completes;
* a deterministic in-experiment exception — fails fast, never retried
  (re-running a pure function cannot help);
* a corrupt on-disk cache entry — rejected (``service.cache_rejects``)
  and recomputed, never served;
* a full queue — whole-batch backpressure rejection, and the client's
  resubmit loop eventually lands the batch; a batch larger than the
  queue could never fit and is a bad request;
* a drain — the server journal holds every cell that completed.

Worker kills and slow workers are scripted chaos schedules on the
``service.cell`` point (:func:`chaos`), matched on the cell's ``seed``
and the execution ``attempt`` — the same surface ``repro serve`` honors
under ``REPRO_CHAOS``.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.obs.cellcache import CellCache
from repro.obs.journal import journal_path, replay
from repro.service.client import Backpressure, ServiceError
from tests.service_harness import (
    ServiceHarness,
    chaos,
    corrupt_cache_entry,
    resolution_cells,
)
from tests.test_service_determinism import serial_digests

pytestmark = pytest.mark.service


# ----------------------------------------------------------------------
# Worker death (real BrokenProcessPool)
# ----------------------------------------------------------------------
class TestWorkerDeath:
    def test_killed_worker_retries_and_digests_hold(self, tmp_path):
        cells = resolution_cells(3, seed=10)
        expected = serial_digests(cells)
        target_seed = cells[0].params["seed"]
        chaos(tmp_path, ("worker_kill",
                         {"seed": target_seed, "attempt": 0}, {}))

        with ServiceHarness(cache_dir=str(tmp_path / "cc"),
                            workers=2) as harness:
            batch = harness.submit(cells)
            assert batch.ok
            # The killed cell re-executed the *identical* cell and
            # reports the retry; pool breakage may have swept sibling
            # cells into a retry too, but nobody's digest moved.
            assert batch.cells[0].status == "retried"
            assert batch.cells[0].attempts == 2
            assert all(c.status in ("computed", "retried")
                       for c in batch.cells)
            assert batch.digests == expected
            assert harness.metric("service.retries") >= 1

    def test_cell_sent_to_an_already_broken_pool_retries(self, tmp_path):
        """A worker death breaks the pool for every cell submitted
        before the replacement; such a cell retries like any other
        transport failure instead of failing its batch."""
        warm, fresh = resolution_cells(2, seed=37)
        with ServiceHarness(cache_dir=str(tmp_path / "cc"),
                            workers=1) as harness:
            assert harness.submit([warm]).ok  # the pool's worker is up
            pool = harness.service._pool
            for pid in list(pool._processes):
                os.kill(pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not pool._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool._broken
            batch = harness.submit([fresh])
            assert batch.ok
            assert batch.cells[0].status == "retried"
            assert batch.digests == serial_digests([fresh])
            assert harness.stats()["pool_replacements"] == 1

    def test_inline_transport_failure_retries(self, tmp_path):
        """Inline mode surfaces the same retry classification without
        a pool (the injected death raises instead of exiting)."""
        cells = resolution_cells(1, seed=11)
        expected = serial_digests(cells)
        chaos(tmp_path, ("worker_kill", {"attempt": 0}, {}))

        with ServiceHarness(cache_dir=str(tmp_path / "cc"),
                            workers=0) as harness:
            batch = harness.submit(cells)
        assert batch.ok
        assert batch.cells[0].status == "retried"
        assert batch.cells[0].attempts == 2
        assert batch.digests == expected

    def test_exhausted_retries_fail_the_cell_not_the_batch(self, tmp_path):
        good, bad = resolution_cells(2, seed=12)
        chaos(tmp_path, ("worker_kill", {"seed": bad.params["seed"]}, {}))

        with ServiceHarness(cache_dir=str(tmp_path / "cc"), workers=0,
                            max_retries=1) as harness:
            batch = harness.submit([good, bad])
            assert not batch.ok
            assert batch.cells[0].status in ("computed", "retried")
            assert batch.cells[1].status == "failed"
            assert batch.cells[1].attempts == 2  # max_retries + 1
            assert "transport retries exhausted" in batch.cells[1].error
            assert harness.metric("service.failed") == 1


# ----------------------------------------------------------------------
# Slow worker / per-cell timeout
# ----------------------------------------------------------------------
class TestSlowWorker:
    def test_timeout_abandons_stuck_worker_and_retries(self, tmp_path):
        cells = resolution_cells(1, seed=13)
        expected = serial_digests(cells)
        chaos(tmp_path, ("timeout", {"attempt": 0}, {"sleep_s": 1.5}))

        start = time.monotonic()
        with ServiceHarness(cache_dir=str(tmp_path / "cc"), workers=2,
                            cell_timeout_s=0.25) as harness:
            batch = harness.submit(cells)
            assert batch.ok
            assert batch.cells[0].status == "retried"
            assert batch.cells[0].attempts == 2
            assert batch.digests == expected
            # The retry did not wait for the sleeper to finish: it ran
            # on the pool's other worker as soon as the timeout fired.
            assert time.monotonic() - start < 1.5


# ----------------------------------------------------------------------
# Deterministic experiment failures: fail fast, never retry
# ----------------------------------------------------------------------
class TestDeterministicFailure:
    def test_experiment_exception_is_not_retried(self, tmp_path):
        bad = {"experiment": "resolution",
               "params": {"tau": 740.0, "scheduler": "nosuch"}}
        with ServiceHarness(cache_dir=str(tmp_path / "cc"),
                            workers=0) as harness:
            batch = harness.submit([bad])
            assert batch.cells[0].status == "failed"
            assert batch.cells[0].attempts == 1  # no retry
            assert "unknown scheduler" in batch.cells[0].error
            assert harness.metric("service.retries") == 0
            # A deterministic failure is not cached either: nothing to
            # serve, and the next submission fails identically.
            again = harness.submit([bad])
            assert again.cells[0].status == "failed"
        assert CellCache(str(tmp_path / "cc")).stats()["entries"] == 0


# ----------------------------------------------------------------------
# Corrupt cache entries
# ----------------------------------------------------------------------
class TestCorruptCache:
    def test_corrupt_entry_is_rejected_and_recomputed(self, tmp_path):
        cache_dir = str(tmp_path / "cc")
        cells = resolution_cells(2, seed=14)
        with ServiceHarness(cache_dir=cache_dir, workers=2) as harness:
            cold = harness.submit(cells)
            assert cold.ok
            corrupt_cache_entry(cache_dir, harness.key_for(cells[0]))
            warm = harness.submit(cells)
            assert warm.ok
            # The torn entry was detected, counted, and recomputed —
            # the intact sibling still came from disk.
            assert warm.cells[0].status == "computed"
            assert warm.cells[0].source == "fresh"
            assert warm.cells[1].status == "cached"
            assert warm.cells[1].source == "cache"
            assert warm.digests == cold.digests
            assert harness.metric("service.cache_rejects") == 1
            assert harness.metric("cellcache.corrupt") == 1
            # The recompute repaired the entry: third pass is all-cache.
            third = harness.submit(cells)
            assert [c.status for c in third.cells] == ["cached", "cached"]
            assert third.digests == cold.digests


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_queue_full_rejects_whole_batch_then_retry_succeeds(
            self, tmp_path):
        slow = resolution_cells(3, seed=15)
        fast = resolution_cells(2, seed=16)
        expected = serial_digests(fast)
        chaos(tmp_path, *(("timeout", {"seed": cell.params["seed"]},
                           {"sleep_s": 0.6}) for cell in slow))

        with ServiceHarness(cache_dir=str(tmp_path / "cc"), workers=2,
                            queue_limit=3) as harness:
            filler_results = []
            filler = threading.Thread(target=lambda: filler_results.append(
                harness.submit(slow)))
            filler.start()
            try:
                deadline = time.monotonic() + 10
                while (harness.stats()["pending"] < 3
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert harness.stats()["pending"] == 3
                # Queue is at its limit: the new batch is rejected
                # whole, with a retry hint — nothing was enqueued.
                with pytest.raises(Backpressure) as excinfo:
                    harness.submit(fast, max_attempts=1)
                assert excinfo.value.reason == "queue_full"
                assert excinfo.value.retry_after_s > 0
                assert harness.metric("service.backpressure_rejects") >= 1
                # The client's resubmit loop lands it once capacity
                # frees up, with untouched digests.
                batch = harness.submit(fast, max_attempts=50)
                assert batch.ok
                assert batch.digests == expected
            finally:
                filler.join(timeout=30)
            assert filler_results and filler_results[0].ok

    def test_batch_larger_than_the_queue_is_a_bad_request(self, tmp_path):
        # Two cells can never fit a queue of one: the batch is refused
        # on the first attempt instead of being told to retry.
        cells = resolution_cells(2, seed=19)
        with ServiceHarness(cache_dir=str(tmp_path / "cc"), workers=0,
                            queue_limit=1) as harness:
            with pytest.raises(ServiceError) as excinfo:
                harness.submit(cells, max_attempts=3)
            assert not isinstance(excinfo.value, Backpressure)
            assert "bad_request" in str(excinfo.value)
            assert "batch of 2 cells exceeds the queue limit of 1" in str(
                excinfo.value)
            assert harness.metric("service.backpressure_rejects") == 0
            assert harness.stats()["served"] == 0

    def test_draining_server_rejects_new_batches(self, tmp_path):
        cells = resolution_cells(1, seed=17)
        with ServiceHarness(cache_dir=str(tmp_path / "cc"),
                            workers=0) as harness:
            loop = harness._loop
            loop.call_soon_threadsafe(
                setattr, harness.service, "_draining", True)
            time.sleep(0.05)
            with pytest.raises(Backpressure) as excinfo:
                harness.submit(cells, max_attempts=1)
            assert excinfo.value.reason == "draining"
            loop.call_soon_threadsafe(
                setattr, harness.service, "_draining", False)
            time.sleep(0.05)
            assert harness.submit(cells).ok


# ----------------------------------------------------------------------
# Bad requests
# ----------------------------------------------------------------------
class TestBadRequests:
    def test_malformed_cell_rejects_batch_before_any_work(self, tmp_path):
        good = resolution_cells(1, seed=18)[0]
        bad = {"experiment": "resolution",
               "params": {"tau": 740.0, "typo_param": 1}}
        with ServiceHarness(cache_dir=str(tmp_path / "cc"),
                            workers=0) as harness:
            with pytest.raises(ServiceError, match="unknown parameter"):
                harness.submit([good, bad])
            # All-or-nothing admission: the good cell did not run.
            assert harness.stats()["served"] == 0
            assert harness.metric("service.submitted") == 0


# ----------------------------------------------------------------------
# Server journal
# ----------------------------------------------------------------------
class TestServerJournal:
    def test_drain_flushes_completed_cells_to_the_journal(self, tmp_path):
        journal_dir = str(tmp_path / "server-run")
        cells = resolution_cells(3, seed=35)
        with ServiceHarness(cache_dir=str(tmp_path / "cc"), workers=1,
                            journal_dir=journal_dir) as harness:
            batch = harness.submit(cells)
            assert batch.ok
            keys = [harness.key_for(cell) for cell in cells]
        # Harness exit drains the service; drain closes (flushes) the
        # journal before the listener goes away.
        recovered = replay(journal_path(journal_dir))
        assert not recovered.torn
        for key, digest in zip(keys, batch.digests):
            assert recovered.digest_for(key) == digest

    def test_cache_hits_are_journaled_too(self, tmp_path):
        journal_dir = str(tmp_path / "server-run")
        cells = resolution_cells(1, seed=36)
        with ServiceHarness(cache_dir=str(tmp_path / "cc"), workers=1,
                            journal_dir=journal_dir) as harness:
            first = harness.submit(cells)
            second = harness.submit(cells)  # served from cache
            assert second.cells[0].status == "cached"
            key = harness.key_for(cells[0])
        recovered = replay(journal_path(journal_dir))
        assert recovered.digest_for(key) == first.digests[0]
