"""Store-lock staleness (``CellCache.LOCK_STALE_S``): a lock older than
the window is an abandoned writer's and is broken, and a lock within
it is a live writer's and is never broken out from under it.  The
tests widen the window on the instance to age a live lock past the
60 s default.
"""

from __future__ import annotations

import os
import time

from repro.obs.cellcache import CellCache


def _patient_cache(directory) -> CellCache:
    cache = CellCache(str(directory))
    cache.LOCK_STALE_S = 3600.0
    return cache


class TestSlowWriterProtection:
    def test_live_slow_writer_keeps_its_lock(self, tmp_path):
        """A long-running store's lock is aged past the *default*
        staleness but within the configured one: a second writer must
        back off (store_contended), not break the lock."""
        cache = _patient_cache(tmp_path)
        key = cache.key_for("demo", {"seed": 1})

        # Simulate the slow writer: lock held, aged 120 s — stale by
        # the 60 s default, fresh under the configured hour.
        assert cache._acquire_lock(key)
        lock = cache._lock_path(key)
        old = time.time() - 120.0
        os.utime(lock, (old, old))

        contender = _patient_cache(tmp_path)
        assert contender.store(key, "demo", {"value": 1}) is None
        # The holder's lock file is still there, untouched.
        assert os.path.exists(lock)
        assert abs(os.stat(lock).st_mtime - old) < 1.0

        # The holder finishes its own store normally... release first
        # (store acquires the lock itself).
        cache._release_lock(key)
        assert cache.store(key, "demo", {"value": 1}) is not None
        assert cache.fetch(key) == (True, {"value": 1})

    def test_default_staleness_still_breaks_abandoned_locks(self, tmp_path):
        cache = CellCache(str(tmp_path))
        key = cache.key_for("demo", {"seed": 2})
        assert cache._acquire_lock(key)
        lock = cache._lock_path(key)
        old = time.time() - 120.0  # well past the 60 s default
        os.utime(lock, (old, old))
        # A crashed writer's lock must not wedge the key forever.
        assert cache.store(key, "demo", {"value": 2}) is not None
        assert cache.fetch(key) == (True, {"value": 2})

    def test_prune_respects_configured_staleness(self, tmp_path):
        cache = _patient_cache(tmp_path)
        key = cache.key_for("demo", {"seed": 3})
        cache.store(key, "demo", {"value": 3})
        # Entry is old; its writer lock is 120 s old — live under the
        # configured staleness, so prune must skip it.
        path = cache._path(key)
        ancient = time.time() - 10_000.0
        os.utime(path, (ancient, ancient))
        assert cache._acquire_lock(key)
        lock = cache._lock_path(key)
        old = time.time() - 120.0
        os.utime(lock, (old, old))
        outcome = cache.prune(older_than_s=1.0)
        assert outcome["removed"] == 0 and outcome["kept"] == 1
        cache._release_lock(key)
        outcome = cache.prune(older_than_s=1.0)
        assert outcome["removed"] == 1
