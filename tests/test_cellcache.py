"""Content-addressed cell cache: correctness and identity guarantees.

The cache may only ever be an invisible accelerator: a warm run must be
digest-identical to a cold run for any ``jobs``, unsanitizable cells
must never be cache-keyed, corruption must read as a miss, and
``--no-cell-cache`` must force recomputation.
"""

from __future__ import annotations

import json
import os
import pickle

from repro.experiments.wire import cell_from_wire
from repro.obs.cellcache import CACHE_ENV, CellCache, cell_cache, cell_key
from repro.obs.manifest import result_digest, run_recorded
from repro.parallel import starmap_kwargs


def _cell(tau: float, seed: int) -> dict:
    """Deterministic stand-in for an experiment cell."""
    return {"tau": tau, "seed": seed, "value": tau * 3 + seed}


#: Call counter so tests can tell a served cell from a recomputed one.
_calls = {"n": 0}


def _counting_cell(tau: float, seed: int) -> dict:
    _calls["n"] += 1
    return _cell(tau, seed)


class TestKeying:
    def test_key_stable_and_param_sensitive(self, tmp_path):
        cache = CellCache(str(tmp_path))
        a = cache.key_for("repro.x:cell", {"tau": 740.0, "seed": 1})
        b = cache.key_for("repro.x:cell", {"tau": 740.0, "seed": 1})
        c = cache.key_for("repro.x:cell", {"tau": 741.0, "seed": 1})
        d = cache.key_for("repro.y:cell", {"tau": 740.0, "seed": 1})
        assert a == b
        assert len({a, c, d}) == 3

    def test_unsanitizable_kwargs_are_not_keyed(self, tmp_path):
        cache = CellCache(str(tmp_path))
        assert cache.key_for("repro.x:cell", {"cb": lambda: None}) is None
        assert cache.key_for("repro.x:cell",
                             {"nested": {"obj": object()}}) is None

    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        assert cell_cache() is None


class TestStoreFetch:
    def test_round_trip_preserves_digest(self, tmp_path):
        cache = CellCache(str(tmp_path))
        result = _cell(740.0, 1)
        key = cache.key_for("repro.x:cell", {"tau": 740.0, "seed": 1})
        cache.store(key, "repro.x:cell", result)
        hit, cached = cache.fetch(key)
        assert hit
        assert result_digest(cached) == result_digest(result)
        assert cache.digest_of(key) == result_digest(result)

    def test_absent_key_misses(self, tmp_path):
        cache = CellCache(str(tmp_path))
        assert cache.fetch("0" * 64) == (False, None)
        assert cache.digest_of("0" * 64) is None

    def test_corrupt_entry_is_a_miss_not_a_wrong_answer(self, tmp_path):
        cache = CellCache(str(tmp_path))
        key = cache.key_for("repro.x:cell", {"tau": 740.0, "seed": 1})
        cache.store(key, "repro.x:cell", _cell(740.0, 1))
        path = cache._path(key)
        # Tampered result: digest no longer matches.
        with open(path, "rb") as fh:
            entry = pickle.load(fh)
        entry["result"]["value"] = -1
        with open(path, "wb") as fh:
            pickle.dump(entry, fh)
        assert cache.fetch(key) == (False, None)
        # Truncated pickle: unreadable.
        with open(path, "wb") as fh:
            fh.write(b"\x80")
        assert cache.fetch(key) == (False, None)


class TestPipelineIntegration:
    CELLS = [{"tau": 440.0, "seed": 1}, {"tau": 830.0, "seed": 2}]

    def test_warm_equals_cold_for_any_jobs(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        monkeypatch.delenv("REPRO_MANIFEST_DIR", raising=False)
        _calls["n"] = 0
        cold = starmap_kwargs(_counting_cell, self.CELLS, jobs=1)
        assert _calls["n"] == 2
        warm_serial = starmap_kwargs(_counting_cell, self.CELLS, jobs=1)
        warm_pooled = starmap_kwargs(_counting_cell, self.CELLS, jobs=2)
        assert _calls["n"] == 2  # serial warm run computed nothing
        assert result_digest(warm_serial) == result_digest(cold)
        assert result_digest(warm_pooled) == result_digest(cold)

    def test_no_env_recomputes(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        monkeypatch.delenv("REPRO_MANIFEST_DIR", raising=False)
        _calls["n"] = 0
        starmap_kwargs(_counting_cell, self.CELLS, jobs=1)
        starmap_kwargs(_counting_cell, self.CELLS, jobs=1)
        assert _calls["n"] == 4

    def test_run_recorded_hit_marks_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "cc"))
        out = str(tmp_path / "runs")
        params = dict(tau=740.0, degrade_itlb=True, preemptions=40, seed=3)
        _r1, m1, _ = run_recorded("resolution", params, out_dir=out)
        _r2, m2, _ = run_recorded("resolution", params, out_dir=out)
        assert m1.result_digest == m2.result_digest
        assert m1.metrics.get("cellcache.hit") is None
        assert m2.metrics.get("cellcache.hit") == 1


class TestCli:
    ARGS = ["--jobs", "1", "--seed", "3", "sweep", "--taus", "440,830",
            "--preemptions", "40"]

    @staticmethod
    def _digest(manifest_dir):
        (path,) = [p for p in os.listdir(manifest_dir)
                   if p.startswith("run-")]
        with open(os.path.join(manifest_dir, path)) as fh:
            data = json.load(fh)
        return data["result_digest"], data["metrics"].get("cellcache.hit")

    def test_cold_warm_and_escape_hatch(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        cc = str(tmp_path / "cc")
        assert main(["--manifest-dir", "a", "--cell-cache-dir", cc,
                     *self.ARGS]) == 0
        assert main(["--manifest-dir", "b", "--cell-cache-dir", cc,
                     *self.ARGS]) == 0
        assert main(["--manifest-dir", "c", "--cell-cache-dir", cc,
                     "--no-cell-cache", *self.ARGS]) == 0
        cold, cold_hit = self._digest(tmp_path / "a")
        warm, warm_hit = self._digest(tmp_path / "b")
        fresh, fresh_hit = self._digest(tmp_path / "c")
        assert cold == warm == fresh
        assert cold_hit is None and fresh_hit is None
        assert warm_hit == 1
        # Replay bypasses the cache and still verifies bit-identity.
        (manifest,) = [p for p in os.listdir(tmp_path / "a")
                       if p.startswith("run-")]
        assert main(["--no-manifest", "replay",
                     str(tmp_path / "a" / manifest)]) == 0

    def test_cached_digest_matches_recompute(self, tmp_path, monkeypatch):
        """The fuzz-smoke contract: a cached cell's stored digest equals
        a from-scratch recompute of the same cell."""
        from repro.experiments.resolution import run_resolution

        monkeypatch.setenv(CACHE_ENV, str(tmp_path))
        params = dict(tau=740.0, degrade_itlb=True, preemptions=40, seed=3)
        run_recorded("resolution", params)
        cache = cell_cache()
        cell = cell_from_wire({"experiment": "resolution", "params": params})
        key = cache.key_for(cell.experiment, cell.params)
        monkeypatch.delenv(CACHE_ENV, raising=False)
        fresh = run_resolution(**params)
        assert cache.digest_of(key) == result_digest(fresh)


class TestStatsAndPrune:
    def _populate(self, tmp_path, n):
        cache = CellCache(str(tmp_path))
        keys = []
        for i in range(n):
            key = cache.key_for("cell", {"i": i})
            cache.store(key, "cell", _cell(float(i), i))
            keys.append(key)
        return cache, keys

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache, _keys = self._populate(tmp_path, 3)
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert stats["oldest_mtime"] <= stats["newest_mtime"]

    def test_stats_empty_directory(self, tmp_path):
        cache = CellCache(str(tmp_path))
        stats = cache.stats()
        assert stats["entries"] == 0 and stats["bytes"] == 0
        assert stats["oldest_mtime"] is None

    def test_stats_skips_inflight_tmp_files(self, tmp_path):
        cache, _keys = self._populate(tmp_path, 1)
        (tmp_path / ".cell-xyz.tmp").write_bytes(b"partial")
        assert cache.stats()["entries"] == 1

    def test_prune_by_age(self, tmp_path):
        import time

        cache, keys = self._populate(tmp_path, 3)
        # Backdate the first two entries far past any cutoff.
        now = time.time()
        for key in keys[:2]:
            os.utime(cache._path(key), (now - 1000, now - 1000))
        outcome = cache.prune(500.0, now=now)
        assert outcome == {"removed": 2,
                           "removed_bytes": outcome["removed_bytes"],
                           "kept": 1}
        assert outcome["removed_bytes"] > 0
        assert cache.stats()["entries"] == 1
        hit, _result = cache.fetch(keys[2])
        assert hit

    def test_prune_keeps_young_entries(self, tmp_path):
        cache, keys = self._populate(tmp_path, 2)
        assert cache.prune(3600.0) == {"removed": 0, "removed_bytes": 0,
                                       "kept": 2}
        for key in keys:
            assert cache.fetch(key)[0]

    def test_fetch_counts_digest_verifies_and_bytes(self, tmp_path,
                                                    monkeypatch):
        import repro.obs as obs_mod

        cache, keys = self._populate(tmp_path, 1)
        observability = obs_mod.configure(metrics=True)
        try:
            assert cache.fetch(keys[0])[0]
            metrics = observability.metrics
            assert metrics.counter("cellcache.digest_verifies").value == 1
            assert metrics.counter("cellcache.bytes_read").value > 0
        finally:
            obs_mod.reset()


class TestOneKeyPerCell:
    """A cell has one form and one key whichever entry point it came
    through: a figure's fan-out, a CLI verb, ``repro run`` or the
    service."""

    PREEMPTIONS = 30

    def test_every_entry_point_is_served_from_one_entry(self, tmp_path,
                                                        monkeypatch):
        from repro.experiments.resolution import run_resolution
        from repro.parallel import derive_seed
        from repro.sweeps import run_sweep

        from tests.service_harness import ServiceHarness

        cache_dir = str(tmp_path / "cc")
        monkeypatch.setenv(CACHE_ENV, cache_dir)
        monkeypatch.delenv("REPRO_MANIFEST_DIR", raising=False)
        n = self.PREEMPTIONS
        # One Fig 4.3a cell, spelled as ``figure_4_3`` spells it, and
        # one cell a CLI verb computed.
        fig_seed = derive_seed(0, "fig4.3a", 740.0)
        (fig,) = starmap_kwargs(
            run_resolution, [dict(tau=740.0, preemptions=n, seed=fig_seed)],
            jobs=1)
        verb, _manifest, _path = run_recorded(
            "resolution", dict(tau=760.0, preemptions=n, seed=5))
        expected = [result_digest(fig), result_digest(verb)]

        def entries():
            return [name for name in os.listdir(cache_dir)
                    if name.startswith("cell-") and name.endswith(".pkl")]

        assert len(entries()) == 2

        statuses = []
        fetch_outcome = CellCache.fetch_outcome

        def counting_fetch_outcome(cache, key):
            status, result = fetch_outcome(cache, key)
            statuses.append(status)
            return status, result

        monkeypatch.setattr(CellCache, "fetch_outcome",
                            counting_fetch_outcome)
        # The same two cells with int-spelled taus, as the wire and
        # ``repro run --param tau=740`` spell them.
        cells = [cell_from_wire({"experiment": "resolution", "params": {
                     "tau": tau, "preemptions": n, "seed": seed}})
                 for tau, seed in ((740, fig_seed), (760, 5))]
        swept = run_sweep(str(tmp_path / "run"), cells, jobs=1)
        assert [o.digest for o in swept.outcomes] == expected
        assert statuses == ["hit", "hit"]
        with ServiceHarness(cache_dir=cache_dir, workers=0) as harness:
            batch = harness.submit(cells)
        assert [(c.status, c.source) for c in batch.cells] == [
            ("cached", "cache")] * 2
        assert batch.digests == expected
        assert statuses == ["hit"] * 4
        assert len(entries()) == 2

        # An int tau keys and runs as the float: it hits the float
        # entry, and a fresh run with the cache off agrees with it.
        int_hit, manifest, _path = run_recorded(
            "resolution", dict(tau=760, preemptions=n, seed=5))
        assert manifest.metrics == {"cellcache.hit": 1}
        monkeypatch.delenv(CACHE_ENV)
        int_fresh, _manifest, _path = run_recorded(
            "resolution", dict(tau=760, preemptions=n, seed=5))
        assert result_digest(int_hit) == result_digest(int_fresh) \
            == expected[1]
        assert len(entries()) == 2

    def test_int_taus_key_and_run_like_the_sweep_verb(self, tmp_path,
                                                      monkeypatch, capsys):
        from repro.cli import main
        from repro.obs.manifest import _restore, load_manifest
        from repro.sweeps import run_sweep

        runs = tmp_path / "runs"
        assert main(["--jobs", "1", "--seed", "1", "--manifest-dir",
                     str(runs), "sweep", "--taus", "440,740",
                     "--preemptions", str(self.PREEMPTIONS)]) == 0
        capsys.readouterr()
        (path,) = runs.glob("run-sweep-*.json")
        verb = load_manifest(str(path))
        verb_params = {k: _restore(v) for k, v in verb.params.items()}
        cache_dir = runs / "cellcache"
        assert len(list(cache_dir.glob("cell-*.pkl"))) == 3  # sweep + 2

        cell = cell_from_wire({"experiment": "sweep", "params": {
            "taus": [440, 740], "preemptions": self.PREEMPTIONS,
            "seed": 1}})
        assert cell.params == verb_params
        assert cell.params["taus"] == [440.0, 740.0]
        assert all(isinstance(t, float) for t in cell.params["taus"])
        key = cell_key(cell.experiment, cell.params)
        assert key == cell_key(cell.experiment, verb_params)
        assert (cache_dir / f"cell-{key}.pkl").exists()

        # Served from the verb's entry, and run afresh with the same
        # digest.
        monkeypatch.delenv("REPRO_MANIFEST_DIR", raising=False)
        monkeypatch.setenv(CACHE_ENV, str(cache_dir))
        served = run_sweep(str(tmp_path / "served"), [cell], jobs=1)
        monkeypatch.delenv(CACHE_ENV)
        fresh = run_sweep(str(tmp_path / "fresh"), [cell], jobs=1)
        assert [o.digest for o in served.outcomes] == [verb.result_digest]
        assert [o.digest for o in fresh.outcomes] == [verb.result_digest]
        assert len(list(cache_dir.glob("cell-*.pkl"))) == 3

    def test_jobs_in_a_wire_cell_changes_neither_params_nor_key(self):
        params = {"taus": [440.0, 740.0], "preemptions": 30, "seed": 1}
        plain = cell_from_wire({"experiment": "sweep", "params": params})
        pooled = cell_from_wire({"experiment": "sweep",
                                 "params": {**params, "jobs": 2}})
        assert "jobs" not in plain.params
        assert pooled == plain
        assert (cell_key(pooled.experiment, pooled.params)
                == cell_key(plain.experiment, plain.params))

    def test_defense_grid_spellings_share_one_key(self, tmp_path, capsys):
        from repro.cli import main

        runs = tmp_path / "runs"
        assert main(["--jobs", "1", "--seed", "1", "--manifest-dir",
                     str(runs), "defense-grid", "--workloads", "benign",
                     "--defenses", "none,leash", "--schedulers", "cfs"]) == 0
        capsys.readouterr()
        cache_dir = runs / "cellcache"
        assert len(list(cache_dir.glob("cell-*.pkl"))) == 3  # grid + 2
        keys = set()
        for defenses in (["none", "leash"], [None, {"policy": "leash"}]):
            cell = cell_from_wire({"experiment": "defense-grid", "params": {
                "workloads": ["benign"], "defenses": defenses,
                "schedulers": ["cfs"], "seed": 1}})
            keys.add(cell_key(cell.experiment, cell.params))
        (key,) = keys
        assert (cache_dir / f"cell-{key}.pkl").exists()  # the verb's key

    def test_figure_4_3_int_taus_key_like_floats(self):
        def figure(taus):
            return cell_from_wire({
                "experiment": "repro.experiments.resolution:figure_4_3",
                "params": {"taus_a": taus, "seed": 1}})

        ints, floats = figure([700, 740]), figure([700.0, 740.0])
        assert all(isinstance(t, float) for t in ints.params["taus_a"])
        assert ints == floats
        assert (cell_key(ints.experiment, ints.params)
                == cell_key(floats.experiment, floats.params))

    def test_service_without_a_cache_dedupes_in_flight(self, tmp_path):
        from repro.obs.journal import journal_path, replay

        from tests.service_harness import ServiceHarness, resolution_cells

        (cell,) = resolution_cells(1, seed=4)
        journal_dir = str(tmp_path / "server-run")
        with ServiceHarness(workers=0, journal_dir=journal_dir) as harness:
            batch = harness.submit([cell] * 3)
            assert sorted((c.status, c.source) for c in batch.cells) == [
                ("cached", "inflight"), ("cached", "inflight"),
                ("computed", "fresh")]
            assert harness.metric("service.dedupe_hits") == 2
            assert harness.metric("service.computed") == 1
            assert len(set(batch.digests)) == 1
        key = batch.cells[0].key
        assert key is not None
        assert replay(journal_path(journal_dir)).digest_for(key) \
            == batch.digests[0]
