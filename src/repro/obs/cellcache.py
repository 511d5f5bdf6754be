"""Content-addressed cache of experiment cell results.

Every experiment in this repo is a pure function of ``(params, seed)``
— that is what makes run manifests replayable (:mod:`repro.obs.
manifest`).  Purity also means a repeated cell is pure waste: a τ-sweep
re-run after an unrelated code tweak, a perf-report baseline pass, or a
notebook re-execution recomputes cells whose inputs are byte-for-byte
identical to a previous run.  This module serves those repeats from
disk.

The cache is **content-addressed over inputs**: the key is the SHA-256
of the canonical JSON of ``(schema, package version, experiment id,
sanitized params)`` — the same sanitized-parameter view the manifest
writer records, so *anything a manifest could replay, the cache can
key*.  Parameters that do not survive sanitization (``{"__repr__":
...}`` placeholders — live objects, callbacks) make the cell
non-replayable and therefore non-cacheable; such cells are skipped, and
counted, rather than mis-keyed.

Safety properties:

* the package version participates in the key, so a code change that
  bumps the version cold-starts the cache rather than serving stale
  results;
* every stored entry carries the :func:`repro.obs.manifest.
  result_digest` of its result, and :meth:`CellCache.fetch` re-digests
  the unpickled result on every hit — a corrupt or tampered entry is a
  miss, never a wrong answer (:meth:`CellCache.fetch_outcome`
  additionally distinguishes the two, so the experiment service can
  count rejected entries);
* writes are atomic (temp file + ``os.replace``) **and single-writer**:
  a per-key lock file (``O_CREAT|O_EXCL``) elects one winner among
  concurrent processes computing the same cell, so racing workers
  neither interleave partial writes nor double-count ``bytes_written``
  — the losers skip the store (counted as ``store_contended``) and a
  stale lock (a crashed writer) expires after
  :data:`CellCache.LOCK_STALE_S`;
* ``prune`` retires an entry by **rename-then-unlink**: the entry
  leaves the namespace atomically (a concurrent :meth:`fetch` either
  read the complete old bytes or sees a clean miss and recomputes —
  never a torn file), and entries whose writer currently holds the
  lock are never pruned mid-write;
* entries are pickles, so the cache directory is trusted input — it
  lives next to the run manifests the same trust already covers
  (``runs/cellcache/`` by default).  ``repro replay`` of any manifest
  bypasses the cache entirely and remains the ground-truth check.

Enabled by ``REPRO_CELL_CACHE_DIR`` (exported by the CLI so pool
workers inherit it, like ``REPRO_MANIFEST_DIR``); the CLI's
``--no-cell-cache`` clears it.  Hit/miss/store/skip counts surface as
``cellcache.*`` metrics when ``--metrics`` is on.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from typing import Any, Dict, Optional, Tuple

from repro.obs import count
from repro.obs.manifest import _package_version, _sanitize, result_digest

__all__ = ["CellCache", "cell_cache", "cell_key", "CACHE_ENV",
           "CACHE_SCHEMA"]

CACHE_ENV = "REPRO_CELL_CACHE_DIR"
CACHE_SCHEMA = 1

#: Memoized caches keyed by directory, so repeated cells in one process
#: share one instance (and one ``makedirs`` check).
_instances: Dict[str, "CellCache"] = {}


def cell_cache() -> Optional["CellCache"]:
    """The process-wide cache configured by ``REPRO_CELL_CACHE_DIR``,
    or None when caching is disabled."""
    path = os.environ.get(CACHE_ENV, "").strip()
    if not path:
        return None
    cache = _instances.get(path)
    if cache is None:
        cache = _instances[path] = CellCache(path)
    return cache


def cell_key(experiment: str, params: Dict[str, Any]) -> Optional[str]:
    """Content key for one cell, independent of any cache instance.

    This is the identity shared by the cell cache, the service dedupe
    map, and the sweep journal: SHA-256 over ``(schema, package
    version, experiment id, sanitized params)``.  Returns None when
    the params contain a value that does not survive manifest
    sanitization — such a cell is not replayable, so nothing may key
    on it.
    """
    sanitized = {k: _sanitize(v) for k, v in params.items()}
    if _has_unsanitizable(sanitized):
        return None
    material = json.dumps(
        [CACHE_SCHEMA, _package_version(), experiment, sanitized],
        sort_keys=True,
    )
    return hashlib.sha256(material.encode()).hexdigest()


def _has_unsanitizable(value: Any) -> bool:
    """True if a sanitized parameter tree contains a repr placeholder
    (a live object the manifest could not replay either)."""
    if isinstance(value, dict):
        if set(value) == {"__repr__"}:
            return True
        return any(_has_unsanitizable(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_unsanitizable(v) for v in value)
    return False


class CellCache:
    """Pickle store of cell results under one directory."""

    #: A store lock older than this is considered abandoned (its writer
    #: crashed between acquire and release) and is broken by the next
    #: writer.  The lock is held only while one already-pickled entry
    #: is written, so a live writer never holds it this long.
    LOCK_STALE_S = 60.0

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        #: Test-only injection points: ``{point_name: callable}``,
        #: invoked (when set) at the named interleaving points —
        #: ``store.locked`` (lock held, before the write),
        #: ``store.before_replace`` (temp written, before publish),
        #: ``fetch.after_read`` (bytes read, before verify),
        #: ``prune.before_unlink`` (entry renamed, before removal).
        #: Race regression tests use these to force the exact
        #: interleavings the locking must survive.
        self._hooks: Dict[str, Any] = {}

    def _hook(self, point: str) -> None:
        fn = self._hooks.get(point)
        if fn is not None:
            fn()

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def key_for(self, experiment: str, params: Dict[str, Any]) -> Optional[str]:
        """Content key for one cell, or None when ``params`` contain a
        value that does not survive manifest sanitization (those cells
        are not replayable, so they must not be cache-served)."""
        key = cell_key(experiment, params)
        if key is None:
            count("cellcache.skipped")
        return key

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"cell-{key}.pkl")

    def _lock_path(self, key: str) -> str:
        return os.path.join(self.directory, f".cell-{key}.lock")

    # ------------------------------------------------------------------
    # Store lock (single writer per key)
    # ------------------------------------------------------------------
    def _acquire_lock(self, key: str) -> bool:
        """Try to become the single writer for ``key``.

        ``O_CREAT|O_EXCL`` is atomic on every platform we care about;
        a lock whose mtime is older than :data:`LOCK_STALE_S` belongs
        to a crashed writer and is broken (once) before retrying.
        """
        lock = self._lock_path(key)
        for _attempt in range(2):
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                with os.fdopen(fd, "w") as fh:
                    fh.write(str(os.getpid()))
                return True
            except FileExistsError:
                try:
                    age = time.time() - os.stat(lock).st_mtime
                except OSError:
                    continue  # holder released between EXCL and stat
                if age <= self.LOCK_STALE_S:
                    return False
                try:  # abandoned lock: break it and retry the acquire
                    os.unlink(lock)
                except OSError:
                    pass
            except OSError:
                return False
        return False

    def _release_lock(self, key: str) -> None:
        try:
            os.unlink(self._lock_path(key))
        except OSError:
            pass

    def _lock_is_live(self, path: str) -> bool:
        """True when ``path``'s entry has a fresh writer lock."""
        name = os.path.basename(path)
        if not (name.startswith("cell-") and name.endswith(".pkl")):
            return False
        lock = os.path.join(
            self.directory, "." + name[: -len(".pkl")] + ".lock")
        try:
            return time.time() - os.stat(lock).st_mtime <= self.LOCK_STALE_S
        except OSError:
            return False

    # ------------------------------------------------------------------
    # Fetch / store
    # ------------------------------------------------------------------
    def fetch(self, key: str) -> Tuple[bool, Any]:
        """``(True, result)`` on a verified hit, else ``(False, None)``.

        A hit requires the stored result to re-digest to the recorded
        digest; anything else (missing file, unpickle failure, digest
        mismatch) is a miss and the cell recomputes.
        """
        status, result = self.fetch_outcome(key)
        return (status == "hit"), result

    def fetch_outcome(self, key: str) -> Tuple[str, Any]:
        """``(status, result_or_None)`` with status ``hit`` / ``miss``
        / ``corrupt``.

        ``corrupt`` means an entry *exists* but failed digest
        verification (or did not unpickle) — the experiment service
        counts those as ``service.cache_rejects`` and recomputes, while
        a plain ``miss`` is just cold cache.  Both recompute; neither
        can ever return a wrong answer.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            count("cellcache.misses")
            return "miss", None
        self._hook("fetch.after_read")
        data = self._chaos_fetch(key, data)
        try:
            entry = pickle.loads(data)
            result = entry["result"]
            count("cellcache.digest_verifies")
            if result_digest(result) != entry["digest"]:
                raise ValueError("digest mismatch")
        except ValueError:
            count("cellcache.corrupt")
            return "corrupt", None
        except (pickle.UnpicklingError, KeyError, EOFError, AttributeError,
                ImportError, IndexError, TypeError):
            count("cellcache.corrupt")
            return "corrupt", None
        count("cellcache.hits")
        count("cellcache.bytes_read", len(data))
        return "hit", result

    def store(self, key: str, experiment: str, result: Any) -> Optional[str]:
        """Atomically persist one cell result; returns the path.

        Returns None when nothing was written: the result cannot be
        pickled, the directory is read-only, or another process holds
        the write lock for this key (it is computing the *same pure
        cell*, so its entry is as good as ours — skipping keeps
        ``bytes_written`` equal to the bytes actually on disk instead
        of double-counting racing writers).
        """
        entry = {
            "schema": CACHE_SCHEMA,
            "experiment": experiment,
            "digest": result_digest(result),
            "result": result,
        }
        try:
            data = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError):
            # Unpicklable results simply do not cache; the computed
            # result is still returned upstream.
            return None
        if not self._acquire_lock(key):
            count("cellcache.store_contended")
            return None
        path = self._path(key)
        try:
            self._hook("store.locked")
            self._chaos_store(key)
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=".cell-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                self._hook("store.before_replace")
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return None
        finally:
            self._release_lock(key)
        count("cellcache.stores")
        # Count the bytes we serialized, not a post-replace stat: the
        # stat could race a concurrent prune, and under contention it
        # would bill every writer for the one file that survived.
        count("cellcache.bytes_written", len(data))
        return path

    def digest_of(self, key: str) -> Optional[str]:
        """Recorded result digest for ``key`` (None when absent) —
        lets callers compare a cached cell against a fresh recompute
        without unpickling the whole result."""
        try:
            with open(self._path(key), "rb") as fh:
                entry = pickle.load(fh)
            return entry["digest"]
        except (OSError, pickle.UnpicklingError, KeyError, EOFError,
                AttributeError, ImportError, IndexError):
            return None

    # ------------------------------------------------------------------
    # Introspection / maintenance (``repro cache stats`` / ``prune``)
    # ------------------------------------------------------------------
    def _entries(self):
        """Yield ``(path, stat)`` for every committed cache entry.

        In-flight temp files (``.cell-*.tmp``) are skipped; entries that
        vanish mid-scan (a concurrent prune) are silently dropped."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in sorted(names):
            if not (name.startswith("cell-") and name.endswith(".pkl")):
                continue
            path = os.path.join(self.directory, name)
            try:
                yield path, os.stat(path)
            except OSError:
                continue

    def stats(self) -> Dict[str, Any]:
        """Entry count, bytes on disk, and entry-age range in seconds."""
        entries = 0
        total_bytes = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        for _path, st in self._entries():
            entries += 1
            total_bytes += st.st_size
            if oldest is None or st.st_mtime < oldest:
                oldest = st.st_mtime
            if newest is None or st.st_mtime > newest:
                newest = st.st_mtime
        return {
            "directory": self.directory,
            "entries": entries,
            "bytes": total_bytes,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
        }

    def prune(self, older_than_s: float, *,
              now: Optional[float] = None) -> Dict[str, int]:
        """Remove entries whose mtime is more than ``older_than_s``
        seconds old.

        Removal is **rename-then-unlink**: the entry is first renamed
        to a hidden ``.cell-*.doomed`` name (atomic — it leaves the
        key's namespace in one step, so a concurrent :meth:`fetch`
        either already read the complete old bytes or sees a clean
        miss), then the doomed file is unlinked.  Entries whose writer
        currently holds the store lock are skipped — a cell being
        (re)written is by definition not stale.  Entries already gone
        count as removed, not errors.
        """
        cutoff = (time.time() if now is None else now) - older_than_s
        removed = 0
        removed_bytes = 0
        kept = 0
        for path, st in self._entries():
            if st.st_mtime >= cutoff:
                kept += 1
                continue
            if self._lock_is_live(path):
                kept += 1
                continue
            doomed = os.path.join(
                self.directory,
                "." + os.path.basename(path)[: -len(".pkl")] + ".doomed",
            )
            try:
                os.rename(path, doomed)
            except FileNotFoundError:
                removed += 1  # a concurrent prune beat us to it
                removed_bytes += st.st_size
                continue
            except OSError:
                kept += 1
                continue
            self._hook("prune.before_unlink")
            try:
                os.unlink(doomed)
            except OSError:
                pass
            removed += 1
            removed_bytes += st.st_size
        return {"removed": removed, "removed_bytes": removed_bytes,
                "kept": kept}

    # ------------------------------------------------------------------
    # Chaos injection (repro.chaos; no-ops unless REPRO_CHAOS is set)
    # ------------------------------------------------------------------
    @staticmethod
    def _chaos_fetch(key: str, data: bytes) -> bytes:
        """``cellcache.fetch``/``corrupt``: flip a byte in the entry
        *after* the read, so the digest-verification path (which
        classifies the entry ``corrupt`` and recomputes) is what the
        fault exercises — exactly the on-disk bit-rot it defends
        against."""
        if not os.environ.get("REPRO_CHAOS", "").strip():
            return data
        from repro.chaos import chaos_point

        fault = chaos_point("cellcache.fetch", key=key)
        if fault is not None and fault["kind"] == "corrupt" and data:
            mid = len(data) // 2
            data = data[:mid] + bytes([data[mid] ^ 0xFF]) + data[mid + 1:]
        return data

    @staticmethod
    def _chaos_store(key: str) -> None:
        """``cellcache.store``/``stall``: sleep while holding the store
        lock, simulating a slow or wedged writer so lock-contention and
        stale-expiry behaviour can be exercised under schedule."""
        if not os.environ.get("REPRO_CHAOS", "").strip():
            return
        from repro.chaos import chaos_point

        fault = chaos_point("cellcache.store", key=key)
        if fault is not None and fault["kind"] == "stall":
            time.sleep(float(fault.get("sleep_s", 0.0)))
