"""End-to-end determinism contract for ``repro serve``.

The service is only allowed to exist because it changes *nothing*
about the results: a cell served over the wire — cold, warm, deduped,
or retried — must produce the byte-identical result digest of the same
cell run by the serial ``repro run`` path, and the telemetry aggregated
from service-recorded cell manifests must match the run path's exact
counters for any ``--jobs``.  These tests drive a real server (live
asyncio listener, real process workers) through the in-process harness
and compare against ground truth computed in-process.
"""

from __future__ import annotations

import json
import os

import pytest

import repro.obs as obs_mod
from repro.experiments.resolution import run_resolution
from repro.obs.cellcache import CellCache
from repro.obs.manifest import result_digest
from repro.obs.telemetry import write_telemetry
from repro.parallel import starmap_kwargs

from tests.service_harness import ServiceHarness, chaos, resolution_cells

pytestmark = pytest.mark.service


def serial_digests(cells):
    """Ground truth: the serial run path, no cache, no service."""
    return [result_digest(run_resolution(**cell.params)) for cell in cells]


# ----------------------------------------------------------------------
# The acceptance batch: warm repeat of >= 64 cells, zero re-simulations
# ----------------------------------------------------------------------
class TestWarmRepeat:
    def test_warm_batch_of_64_serves_entirely_from_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cellcache")
        cells = resolution_cells(64)
        # Warm the cache through the ordinary run path (the same
        # starmap workers a ``repro run --jobs`` sweep uses), keeping
        # its results as the serial ground truth.
        os.environ["REPRO_CELL_CACHE_DIR"] = cache_dir
        results = starmap_kwargs(run_resolution,
                                 [dict(c.params) for c in cells], jobs=1)
        expected = [result_digest(r) for r in results]
        del os.environ["REPRO_CELL_CACHE_DIR"]

        with ServiceHarness(cache_dir=cache_dir, workers=2) as harness:
            batch = harness.submit(cells)
            # Every cell came from disk: no worker simulated anything.
            assert [c.status for c in batch.cells] == ["cached"] * 64
            assert [c.source for c in batch.cells] == ["cache"] * 64
            assert all(c.attempts == 0 for c in batch.cells)
            assert batch.summary["cached"] == 64
            assert batch.summary["computed"] == 0
            # ... and byte-identically what the serial path computed.
            assert batch.digests == expected
            assert harness.metric("service.computed") == 0
            assert harness.metric("service.cached") == 64
            # Every hit was digest-verified before being served.
            assert harness.metric("cellcache.digest_verifies") >= 64
            assert harness.stats()["hit_rate"] == 1.0


# ----------------------------------------------------------------------
# Cold batch with duplicates: in-flight dedupe
# ----------------------------------------------------------------------
class TestInflightDedupe:
    def test_duplicates_simulate_each_unique_cell_exactly_once(
            self, tmp_path):
        cache_dir = str(tmp_path / "cellcache")
        unique = resolution_cells(3, seed=1)
        batch_cells = unique * 4  # 12 submitted, 3 distinct
        expected = serial_digests(unique)
        # Hold each unique cell in flight until the server has taken
        # in every duplicate: a cell that finished first would be in
        # the cell cache, and its duplicates served from there.
        chaos(tmp_path, *(("timeout", {"seed": cell.params["seed"]},
                           {"sleep_s": 0.5}) for cell in unique))

        with ServiceHarness(cache_dir=cache_dir, workers=2) as harness:
            batch = harness.submit(batch_cells)
            assert batch.ok
            # 3 fresh computations, 9 riders on their futures.
            assert batch.summary["computed"] == 3
            assert batch.summary["cached"] == 9
            assert batch.summary["dedupe_hits"] == 9
            assert harness.metric("service.dedupe_hits") == 9
            assert harness.metric("service.computed") == 3
            riders = [c for c in batch.cells if c.source == "inflight"]
            assert len(riders) == 9
            assert all(c.status == "cached" for c in riders)
            # Submission order is preserved and every copy of a cell
            # reports the same (correct) digest.
            assert batch.digests == expected * 4
            stats = harness.stats()
            assert stats["served"] == 12
            assert stats["dedupe_hits"] == 9

        # Exactly one entry per unique cell landed on disk.
        assert CellCache(cache_dir).stats()["entries"] == 3


# ----------------------------------------------------------------------
# Serve path vs run path: digests and exact telemetry for any --jobs
# ----------------------------------------------------------------------
class TestServeMatchesRunPath:
    def test_digests_and_exact_telemetry_match_for_all_jobs(self, tmp_path):
        cells = resolution_cells(3, seed=2)
        kwargs_list = [dict(c.params) for c in cells]

        baseline_digests = None
        baseline_exact = None
        for jobs in (1, 2, 4):
            run_dir = tmp_path / f"run-j{jobs}"
            os.environ["REPRO_METRICS"] = "1"
            os.environ["REPRO_MANIFEST_DIR"] = str(run_dir)
            os.environ.pop("REPRO_CELL_CACHE_DIR", None)
            obs_mod.reset()
            try:
                results = starmap_kwargs(run_resolution, kwargs_list,
                                         jobs=jobs)
            finally:
                del os.environ["REPRO_MANIFEST_DIR"]
            digests = [result_digest(r) for r in results]
            with open(write_telemetry(str(run_dir))) as fh:
                telemetry = json.load(fh)
            assert telemetry["counter_source"] == "cells"
            if jobs == 1:
                baseline_digests = digests
                baseline_exact = telemetry["exact"]
            else:
                # The run path's own contract, restated as the floor
                # the service must clear.
                assert digests == baseline_digests
                assert telemetry["exact"] == baseline_exact

        served_dir = tmp_path / "served"
        with ServiceHarness(cache_dir=str(tmp_path / "cc"),
                            manifest_dir=str(served_dir),
                            workers=2) as harness:
            batch = harness.submit(cells)
        assert batch.ok
        assert [c.status for c in batch.cells] == ["computed"] * 3
        assert batch.digests == baseline_digests
        # The manifests the service workers recorded aggregate to the
        # same exact counters as the run path — bit-identical bytes.
        with open(write_telemetry(str(served_dir))) as fh:
            served_telemetry = json.load(fh)
        assert served_telemetry["counter_source"] == "cells"
        assert served_telemetry["cells"] == 3
        assert served_telemetry["exact"] == baseline_exact

    def test_cold_then_warm_round_trip_is_stable(self, tmp_path):
        """Same server, same batch twice: the second pass is 100%
        cache-served with the digests the first pass computed."""
        cells = resolution_cells(4, seed=3)
        with ServiceHarness(cache_dir=str(tmp_path / "cc"),
                            workers=2) as harness:
            cold = harness.submit(cells)
            warm = harness.submit(cells)
        assert cold.ok and warm.ok
        assert [c.status for c in cold.cells] == ["computed"] * 4
        assert [c.status for c in warm.cells] == ["cached"] * 4
        assert [c.source for c in warm.cells] == ["cache"] * 4
        assert warm.digests == cold.digests
