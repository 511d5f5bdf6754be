"""Client backpressure behaviour: ``max_attempts`` bounds the resubmit
loop.

``submit_batch`` has no deadline of its own; the only thing that stops
it resubmitting a batch the server keeps rejecting is
``max_attempts``.  With the queue held full, ``max_attempts=2`` makes
exactly two submissions and then raises the last rejection.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.chaos import ChaosSpec, FaultEvent, reset_active
from repro.service.client import Backpressure, submit_batch
from tests.service_harness import ServiceHarness, resolution_cells

pytestmark = pytest.mark.service


class TestDeadline:
    def test_without_deadline_attempts_bound_the_loop(self, tmp_path):
        slow = resolution_cells(1, seed=41)
        fast = resolution_cells(1, seed=42)
        # The slow cell holds the one queue slot while both submissions
        # of the fast batch are rejected.
        path = str(tmp_path / "chaos.json")
        ChaosSpec(events=[FaultEvent(
            point="service.cell", kind="timeout",
            match={"seed": slow[0].params["seed"]},
            params={"sleep_s": 2.0})]).save(path)
        os.environ["REPRO_CHAOS"] = path
        reset_active()

        with ServiceHarness(cache_dir=str(tmp_path / "cc"), workers=1,
                            queue_limit=1) as harness:
            filler_results = []
            filler = threading.Thread(target=lambda: filler_results.append(
                harness.submit(slow)))
            filler.start()
            try:
                deadline = time.monotonic() + 10
                while (harness.stats()["pending"] < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                assert harness.stats()["pending"] == 1
                with pytest.raises(Backpressure) as excinfo:
                    submit_batch(harness.host, harness.port, fast,
                                 max_attempts=2)
                assert excinfo.value.reason == "queue_full"
                assert harness.metric("service.backpressure_rejects") == 2
            finally:
                filler.join(timeout=30)
            assert filler_results and filler_results[0].ok
