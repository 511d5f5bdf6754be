"""In-process harness for the experiment-service test battery.

Runs a real :class:`repro.service.ExperimentService` — real asyncio
listener on an ephemeral loopback port, real worker pool — inside the
pytest process: the server's event loop lives on a daemon thread, the
test thread drives the synchronous client against it, and the service's
``service.*`` metrics land on the process-wide registry where
assertions can read them.

Worker kills and slow workers are injected the way ``repro serve``
takes them: a chaos schedule (``REPRO_CHAOS``) with ``service.cell``
events, which the server maps onto the fault descriptors
``execute_cell`` understands.  Cache corruption is a plain on-disk
byte edit (:func:`corrupt_cache_entry`) — exactly what a torn disk or
a tampering tenant would produce.
"""

from __future__ import annotations

import asyncio
import os
import threading
from typing import Any, Dict, Iterable, List, Optional, Union

import repro.obs as obs_mod
from repro.chaos import ChaosSpec, FaultEvent, reset_active
from repro.experiments.wire import WireCell, cell_from_wire
from repro.parallel import derive_seed
from repro.service import ExperimentService, ServiceConfig
from repro.service import client as service_client
from repro.service.protocol import BatchResult

__all__ = [
    "ServiceHarness",
    "chaos",
    "resolution_cells",
    "corrupt_cache_entry",
]


def chaos(tmp_path, *events):
    """Activate a chaos schedule of ``service.cell`` events, given as
    ``(kind, match, params)`` triples (the test's conftest restores the
    environment afterwards)."""
    path = str(tmp_path / "chaos.json")
    ChaosSpec(events=[
        FaultEvent(point="service.cell", kind=kind, match=match,
                   params=params)
        for kind, match, params in events]).save(path)
    os.environ["REPRO_CHAOS"] = path
    reset_active()


async def _settle(timeout: float) -> None:
    """Wait up to ``timeout`` s for the loop's other tasks to finish."""
    others = asyncio.all_tasks() - {asyncio.current_task()}
    if others:
        await asyncio.wait(others, timeout=timeout)


class ServiceHarness:
    """Context manager: a live service on an ephemeral loopback port.

    ``metrics=True`` (default) exports ``REPRO_METRICS=1`` *before* the
    worker pool exists, so worker processes inherit it and per-cell
    manifests carry metric snapshots; the tests' conftest restores the
    environment afterwards.
    """

    def __init__(self, *, metrics: bool = True, **config_kwargs: Any):
        self.config = ServiceConfig(**config_kwargs)
        self._metrics = metrics
        self.service: Optional[ExperimentService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> "ServiceHarness":
        if self._metrics:
            os.environ["REPRO_METRICS"] = "1"
            obs_mod.reset()
            obs_mod.get_obs()  # materialize the enabled registry now
        self.service = ExperimentService(self.config)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="service-harness",
            daemon=True)
        self._thread.start()
        asyncio.run_coroutine_threadsafe(
            self.service.start(), self._loop).result(timeout=60)
        return self

    def stop(self) -> None:
        if self._loop is None:
            return
        if self.service is not None:
            asyncio.run_coroutine_threadsafe(
                self.service.drain(), self._loop).result(timeout=120)
        # Connection handlers may still be closing their transports
        # (``writer.wait_closed()``); a loop stopped under them leaks
        # the sockets.
        asyncio.run_coroutine_threadsafe(
            _settle(timeout=10.0), self._loop).result(timeout=30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        assert self._thread is not None
        self._thread.join(timeout=30)
        self._loop.close()
        self._loop = None

    def __enter__(self) -> "ServiceHarness":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        assert self.service is not None and self.service.port is not None
        return self.service.port

    @property
    def host(self) -> str:
        return self.config.host

    def submit(self, cells: Iterable[Union[WireCell, Dict[str, Any]]],
               **kwargs: Any) -> BatchResult:
        return service_client.submit_batch(
            self.host, self.port, cells, **kwargs)

    def stats(self) -> Dict[str, Any]:
        return service_client.stats(self.host, self.port)

    def metric(self, name: str) -> Any:
        """Current value of one counter on the process registry (0 when
        the counter never fired)."""
        registry = obs_mod.get_obs().metrics
        if name not in registry.names():
            return 0
        return registry.get(name).value

    def key_for(self, cell: WireCell) -> Optional[str]:
        assert self.service is not None and self.service.cache is not None
        return self.service.cache.key_for(cell.experiment, cell.params)


# ----------------------------------------------------------------------
# Cell builders / fixtures
# ----------------------------------------------------------------------
def resolution_cells(n: int, *, preemptions: int = 5, seed: int = 0,
                     tau0: float = 700.0,
                     scheduler: str = "cfs") -> List[WireCell]:
    """``n`` small, distinct, fast resolution cells.

    Each cell's seed derives from ``(seed, 'service-battery', i)`` —
    the same stable-identity scheme the parallel runner uses — so the
    same ``(n, seed)`` always names the same cells, and a serial
    ``starmap_kwargs`` run of the returned params is the ground truth
    a served batch must match bit-for-bit.
    """
    return [
        cell_from_wire({
            "experiment": "resolution",
            "params": {
                "tau": tau0 + 5.0 * i,
                "preemptions": preemptions,
                "scheduler": scheduler,
                "seed": derive_seed(seed, "service-battery", i),
            },
        })
        for i in range(n)
    ]


def corrupt_cache_entry(cache_dir: str, key: str) -> str:
    """Overwrite the tail of a stored entry with garbage (unpicklable
    → the cache must classify it ``corrupt`` and recompute)."""
    from repro.obs.cellcache import CellCache

    path = CellCache(cache_dir)._path(key)
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.seek(max(0, size - 16))
        fh.write(b"\xde\xad\xbe\xef" * 4)
    return path
