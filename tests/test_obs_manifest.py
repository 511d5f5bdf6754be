"""Run manifests: recording, replay bit-identity, per-cell provenance."""

import json
import os

import pytest

import repro.obs as obs_mod
from repro.obs.manifest import (
    EXPERIMENTS,
    RunManifest,
    load_manifest,
    replay,
    resolve_experiment,
    result_digest,
    run_recorded,
)


@pytest.fixture(autouse=True)
def _fresh_obs_default():
    obs_mod.reset()
    yield
    obs_mod.reset()


class TestResolve:
    def test_registry_verbs_resolve(self):
        for verb in EXPERIMENTS:
            assert callable(resolve_experiment(verb))

    def test_module_path_resolves(self):
        fn = resolve_experiment("repro.experiments.resolution:run_resolution")
        from repro.experiments.resolution import run_resolution

        assert fn is run_resolution

    def test_non_repro_module_refused(self):
        with pytest.raises(ValueError):
            resolve_experiment("os:system")

    def test_unknown_verb(self):
        with pytest.raises(KeyError):
            resolve_experiment("frobnicate")


class TestRunRecorded:
    def test_manifest_written_and_replayable(self, tmp_path):
        params = dict(tau=740.0, preemptions=30, seed=5)
        result, manifest, path = run_recorded(
            "resolution", params, out_dir=str(tmp_path)
        )
        assert path is not None and os.path.exists(path)
        assert manifest.kind == "run"
        assert manifest.seed == 5
        assert manifest.result_digest == result_digest(result)
        assert manifest.wall_time_s > 0

        loaded = load_manifest(path)
        assert loaded.params == manifest.params
        replayed, ok = replay(loaded)
        assert ok, "replay diverged from the recorded digest"
        assert replayed.samples == result.samples

    def test_extra_kwargs_excluded_from_manifest(self, tmp_path):
        _result, manifest, _path = run_recorded(
            "sweep",
            dict(taus=[700.0, 740.0], preemptions=20, seed=0),
            out_dir=str(tmp_path),
            extra_kwargs=dict(jobs=1),
        )
        assert "jobs" not in manifest.params

    def test_no_out_dir_skips_write(self):
        _result, manifest, path = run_recorded(
            "resolution", dict(tau=740.0, preemptions=20, seed=0)
        )
        assert path is None
        assert manifest.result_digest

    def test_manifest_json_is_plain(self, tmp_path):
        _r, _m, path = run_recorded(
            "resolution", dict(tau=740.0, preemptions=20, seed=0),
            out_dir=str(tmp_path),
        )
        with open(path) as fh:
            data = json.load(fh)
        assert data["schema"] == 1
        assert data["experiment"] == "resolution"
        assert data["params"]["tau"] == 740.0


class TestCellManifests:
    def test_parallel_cells_leave_manifests(self, tmp_path, monkeypatch):
        from repro.experiments.resolution import tau_sweep

        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        runs = tau_sweep([700.0, 740.0], preemptions=20, seed=0, jobs=1)
        cells = [f for f in os.listdir(tmp_path) if f.startswith("cell-")]
        assert len(cells) == 2
        manifest = load_manifest(str(tmp_path / sorted(cells)[0]))
        assert manifest.kind == "cell"
        assert manifest.experiment.startswith("repro.experiments.resolution:")
        # The recorded derived seed replays the cell bit-identically.
        replayed, ok = replay(manifest)
        assert ok
        assert replayed.samples in [r.samples for r in runs]

    def test_no_env_no_manifests(self, tmp_path, monkeypatch):
        from repro.experiments.resolution import tau_sweep

        monkeypatch.delenv("REPRO_MANIFEST_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        tau_sweep([740.0], preemptions=20, seed=0, jobs=1)
        assert not any(f.endswith(".json") for f in os.listdir(tmp_path))


class TestMetricsInManifest:
    def test_snapshot_recorded_when_enabled(self, tmp_path):
        obs_mod.configure(metrics=True)
        try:
            _r, manifest, _p = run_recorded(
                "resolution", dict(tau=740.0, preemptions=20, seed=0),
                out_dir=str(tmp_path),
            )
        finally:
            obs_mod.reset()
        assert manifest.metrics.get("kernel.switches", 0) > 0
        assert manifest.metrics.get("attack.samples", 0) > 0
