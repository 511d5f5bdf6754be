"""Process-pool experiment runner with deterministic seed derivation.

Every figure and table in this reproduction is the aggregate of many
*independent* simulation trials (τ-sweep cells, per-key attack runs,
repeated-preemption episodes) — the same embarrassingly parallel shape
as SGX-Step's 2²⁰-trial loops or REPTTACK's co-location campaigns.
This module fans those trials out over a process pool while keeping
results **bit-identical** to a serial run:

* each trial derives its own seed with :func:`derive_seed` from the
  root seed and a stable trial identity (never from pool scheduling
  order or worker id);
* each trial builds its entire environment (machine, kernel, RNG
  streams) from that seed inside the worker, so no state is shared;
* results are reassembled in submission order, regardless of which
  worker finished first.

``jobs`` semantics, everywhere in this repo:

* ``jobs=None`` — read ``REPRO_JOBS`` from the environment; unset means
  serial (libraries never surprise callers with a pool);
* ``jobs=0`` or negative — use ``os.cpu_count()``;
* ``jobs=1`` — serial in-process execution (no pool, no pickling);
* ``jobs>1`` — a :class:`concurrent.futures.ProcessPoolExecutor` with
  that many workers.

The CLI (`python -m repro --jobs N`) defaults to ``os.cpu_count()``.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, TypeVar

from repro.obs import _env_flag

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "derive_seed",
    "resolve_jobs",
    "parallel_map",
    "starmap_kwargs",
    "map_payloads_completions",
]


class _Progress:
    """Live per-cell progress line on stderr (``--progress``).

    One ``\\r``-rewritten line: completed/total cells, throughput, and
    elapsed wall time.  Deliberately stderr so piped stdout output stays
    machine-readable.
    """

    def __init__(self, total: int):
        self.total = total
        self.done = 0
        self.start = time.perf_counter()

    def update(self, n: int = 1) -> None:
        self.done += n
        elapsed = time.perf_counter() - self.start
        rate = self.done / elapsed if elapsed > 0 else 0.0
        sys.stderr.write(
            f"\r[repro] {self.done}/{self.total} cells · "
            f"{rate:5.2f} cells/s · {elapsed:6.1f}s"
        )
        sys.stderr.flush()

    def finish(self) -> None:
        if self.done:
            sys.stderr.write("\n")
            sys.stderr.flush()


def derive_seed(root_seed: int, *identity: object) -> int:
    """Derive a 63-bit trial seed from ``root_seed`` and a stable identity.

    The identity is whatever names the trial — an index, a τ value, a
    panel letter — **not** anything about how or where it executes.
    Two properties matter:

    * deterministic: the same (root, identity) always yields the same
      seed, so parallel and serial schedules agree bit-for-bit;
    * independent: distinct identities yield unrelated seeds (SHA-256),
      so neighbouring trials do not share RNG structure the way
      ``seed + i`` schedules can.
    """
    material = "\x1f".join([repr(root_seed), *(repr(part) for part in identity)])
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a ``jobs`` argument to a concrete worker count (>= 1)."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        jobs = int(env)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def parallel_map(
    fn: Callable[[T], R], items: Sequence[T], *, jobs: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, optionally across a process pool.

    Results come back in input order whatever the completion order, so
    the output is indistinguishable from ``[fn(x) for x in items]`` as
    long as each call is self-contained (all our trial functions are:
    they build their own environment from their own seed).

    ``fn`` and every item must be picklable when ``jobs > 1`` (i.e. a
    module-level function and plain-data arguments).

    ``REPRO_PROGRESS=1`` renders a live completed/total + throughput
    line on stderr as cells finish.
    """
    return _map(fn, list(items), jobs)


def _map(fn: Callable[[T], R], items: List[T], jobs: Optional[int],
         on_result: Optional[Callable[[int, R], None]] = None) -> List[R]:
    """The one loop behind every map here: serial or pooled, with the
    progress meter (``REPRO_PROGRESS``, read with the same rule as
    ``REPRO_METRICS``), reporting ``on_result(index, result)`` in
    completion order and returning results in input order."""
    jobs = resolve_jobs(jobs)
    results: List[Any] = [None] * len(items)
    meter = (_Progress(len(items))
             if len(items) > 1 and _env_flag("REPRO_PROGRESS") else None)

    def finish(index: int, result: Any) -> None:
        results[index] = result
        if on_result is not None:
            on_result(index, result)
        if meter is not None:
            meter.update()

    pool = None
    try:
        if jobs > 1 and len(items) > 1:
            try:
                pool = ProcessPoolExecutor(max_workers=min(jobs, len(items)))
                futures = {pool.submit(fn, item): index
                           for index, item in enumerate(items)}
            except OSError:
                # Sandboxes without fork/semaphore support degrade to
                # serial — same results, just slower.
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
                pool = None
        if pool is None:
            for index, item in enumerate(items):
                finish(index, fn(item))
        else:
            for future in as_completed(futures):
                finish(futures[future], future.result())
            pool.shutdown()
    except BaseException:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        raise
    finally:
        if meter is not None:
            meter.finish()
    return results


def _invoke_kwargs(payload: Any) -> Any:
    fn, kwargs = payload
    cache = key = None
    if os.environ.get("REPRO_CELL_CACHE_DIR", "").strip():
        # Content-addressed cell cache (repro.obs.cellcache): cells are
        # pure functions of their kwargs, so a key hit — same code
        # version, same experiment, same sanitized params — returns the
        # stored result without simulating.  Workers inherit the env
        # var, so serial and pooled schedules share one cache and a
        # warm run is digest-identical to a cold one for any ``jobs``.
        from repro.obs.cellcache import cell_cache

        cache = cell_cache()
        if cache is not None:
            key = cache.key_for(f"{fn.__module__}:{fn.__qualname__}", kwargs)
            if key is not None:
                hit, result = cache.fetch(key)
                if hit:
                    return result
    manifest_dir = os.environ.get("REPRO_MANIFEST_DIR", "").strip()
    if manifest_dir:
        # Runs inside pool workers too: workers inherit the env var, so
        # every parallel cell leaves the same manifest a serial cell
        # would.  Import is lazy to keep the pickling path light.
        from repro.obs.manifest import record_cell

        result = record_cell(fn, kwargs, manifest_dir)
    else:
        result = fn(**kwargs)
    if key is not None:
        cache.store(key, f"{fn.__module__}:{fn.__qualname__}", result)
    return result


def starmap_kwargs(
    fn: Callable[..., R],
    kwargs_list: Iterable[Dict[str, Any]],
    *,
    jobs: Optional[int] = None,
) -> List[R]:
    """``[fn(**kw) for kw in kwargs_list]`` with optional parallelism.

    This is the shape every experiment sweep in :mod:`repro.experiments`
    reduces to: a list of per-cell keyword dictionaries (each carrying
    its own derived seed) applied to one module-level cell function.
    Each cell is normalized here, where it enters
    (:func:`repro.experiments.wire.normalize_params`), and runs, keys
    and records with the normalized params, so a figure's partial
    kwargs and the same cell sent over the wire share one cache entry.
    """
    from repro.experiments.wire import normalize_params

    payloads = [(fn, normalize_params(fn, kw)) for kw in kwargs_list]
    return _map(_invoke_kwargs, payloads, jobs)


def map_payloads_completions(
    payloads: Sequence[Any],
    *,
    jobs: Optional[int] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List[Any]:
    """:func:`starmap_kwargs` over explicit ``(fn, kwargs)`` payloads,
    reporting each cell in completion order.

    ``on_result(index, result)`` fires as each cell *finishes* —
    whatever order the pool finishes them in — which is what a
    write-ahead journal needs; an exception it raises stops the map
    and cancels the cells not yet started.  Each payload names its own
    callable, so cache/manifest identity stays the cell's own
    ``module:qualname``; its params are keyed as given, so pass them
    normalized (a :class:`repro.experiments.wire.WireCell`'s are).
    Results still return in submission order.
    """
    payloads = [(fn_i, dict(kw)) for fn_i, kw in payloads]
    return _map(_invoke_kwargs, payloads, jobs, on_result)

