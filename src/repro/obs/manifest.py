"""Run manifests: every experiment run leaves a reproducible record.

A manifest is a small JSON file naming the experiment, its parameters
(including the seed and, for parallel cells, the derived seed), the
package version, wall time, a metrics snapshot, and a digest of the
result.  Because every experiment in this repo is a pure function of
``(params, seed)``, a manifest is sufficient to re-execute the run
bit-identically: :func:`replay` re-runs it and verifies the digest.

Two manifest kinds share the schema:

* **run manifests** — one per CLI/experiment invocation, written by
  :func:`run_recorded`;
* **cell manifests** — one per parallel trial, written by the process-
  pool runner (:mod:`repro.parallel`) inside the worker that executed
  the cell, so a sharded campaign leaves a complete provenance trail.

Experiment names resolve through :data:`EXPERIMENTS` (the CLI verbs) or
a ``module:qualname`` path restricted to this package, so replaying a
manifest never imports arbitrary code.
"""

from __future__ import annotations

import enum
import hashlib
import importlib
import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

MANIFEST_SCHEMA = 1

#: Replayable experiment registry: CLI verb → (module, callable).
EXPERIMENTS: Dict[str, Tuple[str, str]] = {
    "resolution": ("repro.experiments.resolution", "run_resolution"),
    "sweep": ("repro.experiments.resolution", "tau_sweep"),
    "budget": ("repro.experiments.preemption_count", "run_budget_measurement"),
    "aes": ("repro.attacks.aes_first_round", "run_aes_accuracy_experiment"),
    "sgx": ("repro.attacks.sgx_base64", "run_sgx_pem_experiment"),
    "btb": ("repro.attacks.btb_gcd", "run_btb_accuracy_experiment"),
    "colocation": ("repro.experiments.colocation", "run_colocation"),
    "colocation-campaign": ("repro.experiments.colocation",
                            "run_colocation_campaign"),
    "mitigations": ("repro.experiments.mitigations", "evaluate_mitigations"),
    "defense-grid": ("repro.experiments.defense_grid", "run_defense_grid"),
    "defense-cell": ("repro.experiments.defense_grid", "run_defense_cell"),
}


def resolve_experiment(name: str) -> Callable[..., Any]:
    """Resolve a registry verb or a ``repro.*`` ``module:qualname``."""
    if name in EXPERIMENTS:
        module_name, attr = EXPERIMENTS[name]
    elif ":" in name:
        module_name, attr = name.split(":", 1)
    else:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)} "
            f"or a 'repro.module:function' path"
        )
    if not module_name.startswith("repro."):
        raise ValueError(f"refusing to import {module_name!r} (not repro.*)")
    fn = importlib.import_module(module_name)
    for part in attr.split("."):
        fn = getattr(fn, part)
    if not callable(fn):
        raise TypeError(f"{name!r} resolved to non-callable {fn!r}")
    return fn


def result_digest(result: Any) -> str:
    """Stable digest of an experiment result.

    Every experiment result here is a plain dataclass (or list of
    them) of ints/floats/strings/bytes, whose ``repr`` is canonical —
    float ``repr`` is exact in Python 3 — so hashing the repr captures
    bit-identity without a bespoke serializer per result type.
    """
    return hashlib.sha256(repr(result).encode()).hexdigest()


def _sanitize(value: Any) -> Any:
    """JSON-safe view of a parameter value (repr fallback)."""
    if isinstance(value, enum.Enum):
        # e.g. WakeupMethod — record the class path (repro.* only, see
        # _restore) and the member value.
        cls = type(value)
        return {"__enum__": f"{cls.__module__}:{cls.__qualname__}",
                "value": _sanitize(value.value)}
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    return {"__repr__": repr(value)}


def _restore(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"__bytes__"}:
            return bytes.fromhex(value["__bytes__"])
        if set(value) == {"__enum__", "value"}:
            module_name, qual = value["__enum__"].split(":", 1)
            if not module_name.startswith("repro."):
                raise ValueError(f"refusing to import {module_name!r}")
            cls = importlib.import_module(module_name)
            for part in qual.split("."):
                cls = getattr(cls, part)
            return cls(_restore(value["value"]))
        if set(value) == {"__repr__"}:
            raise ValueError(
                f"parameter {value['__repr__']!r} is not replayable"
            )
        return {k: _restore(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_restore(v) for v in value]
    return value


@dataclass
class RunManifest:
    """One recorded experiment run (or parallel cell)."""

    experiment: str
    params: Dict[str, Any]
    seed: Optional[int] = None
    kind: str = "run"  # 'run' | 'cell'
    version: str = ""
    python: str = ""
    platform: str = ""
    started_at: str = ""
    wall_time_s: float = 0.0
    result_digest: str = ""
    metrics: Dict[str, Any] = field(default_factory=dict)
    schema: int = MANIFEST_SCHEMA

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "kind": self.kind,
            "experiment": self.experiment,
            "params": self.params,
            "seed": self.seed,
            "version": self.version,
            "python": self.python,
            "platform": self.platform,
            "started_at": self.started_at,
            "wall_time_s": self.wall_time_s,
            "result_digest": self.result_digest,
            "metrics": self.metrics,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        return cls(**{k: v for k, v in data.items() if k in known})

    def save(self, out_dir: str) -> str:
        """Write to ``out_dir`` under a deterministic name; returns the
        path."""
        os.makedirs(out_dir, exist_ok=True)
        tag = hashlib.sha256(
            json.dumps([self.experiment, self.params], sort_keys=True).encode()
        ).hexdigest()[:10]
        safe = self.experiment.replace(":", "_").replace(".", "_")
        name = f"{self.kind}-{safe}-s{self.seed}-{tag}.json"
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def load_manifest(path: str) -> RunManifest:
    with open(path) as fh:
        return RunManifest.from_dict(json.load(fh))


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
def _package_version() -> str:
    try:
        from repro import __version__

        return __version__
    except Exception:
        return "unknown"


def _manifest(experiment: str, params: Dict[str, Any], result: Any, *,
              kind: str, started_at: str, wall_time_s: float,
              metrics: Dict[str, Any]) -> RunManifest:
    """The manifest of one finished ``experiment(**params)``."""
    return RunManifest(
        experiment=experiment,
        params={k: _sanitize(v) for k, v in params.items()},
        seed=params.get("seed") if isinstance(params.get("seed"), int) else None,
        kind=kind,
        version=_package_version(),
        python=platform.python_version(),
        platform=platform.platform(),
        started_at=started_at,
        wall_time_s=wall_time_s,
        result_digest=result_digest(result),
        metrics=metrics,
    )


def _capture(experiment: str, params: Dict[str, Any], fn: Callable[[], Any],
             *, kind: str):
    """Time ``fn``, snapshot metrics, and build the manifest."""
    from repro.obs import get_obs

    started = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    metrics = get_obs().metrics
    manifest = _manifest(
        experiment, params, result, kind=kind, started_at=started,
        wall_time_s=round(wall, 6),
        metrics=metrics.snapshot() if metrics.enabled else {},
    )
    return result, manifest


def run_recorded(
    experiment: str,
    params: Dict[str, Any],
    *,
    out_dir: Optional[str] = None,
    extra_kwargs: Optional[Dict[str, Any]] = None,
) -> Tuple[Any, RunManifest, Optional[str]]:
    """Run ``experiment(**params, **extra_kwargs)`` and record it.

    ``params`` are normalized first (:func:`repro.experiments.wire.
    normalize_params`: defaults filled, ints coerced where the
    signature says float), and the experiment runs, keys its cell-cache
    entry and records its manifest with exactly those params, so a
    cache hit is bit-identical to a recompute whichever entry point
    stored it.  The entry is keyed as ``module:qualname``, the cell's
    one identity; the manifest keeps the name it was called by.

    ``extra_kwargs`` are execution-only knobs (``jobs``) that do not
    affect the result: normalization leaves ``jobs`` out of the
    params, so they stay out of the key and the manifest — the
    recorded ``params`` alone must re-create the result, and a
    ``--jobs 8`` re-run hits the entry a serial run stored.
    Returns ``(result, manifest, manifest_path_or_None)``.
    """
    from repro.experiments.wire import normalize_params

    fn = resolve_experiment(experiment)
    extra = extra_kwargs or {}
    params = normalize_params(fn, params)
    canonical = f"{fn.__module__}:{fn.__qualname__}"
    cache = key = None
    if os.environ.get("REPRO_CELL_CACHE_DIR", "").strip():
        from repro.obs.cellcache import cell_cache

        cache = cell_cache()
        key = cache.key_for(canonical, params)
        if key is not None:
            hit, result = cache.fetch(key)
            if hit:
                manifest = _manifest(
                    experiment, params, result, kind="run",
                    started_at=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                    wall_time_s=0.0, metrics={"cellcache.hit": 1},
                )
                path = manifest.save(out_dir) if out_dir else None
                return result, manifest, path
    result, manifest = _capture(
        experiment, params, lambda: fn(**params, **extra), kind="run"
    )
    if key is not None:
        cache.store(key, canonical, result)
    path = manifest.save(out_dir) if out_dir else None
    return result, manifest, path


def record_cell(fn: Callable[..., Any], kwargs: Dict[str, Any],
                out_dir: str) -> Any:
    """Run one parallel cell and drop its manifest in ``out_dir``.

    Called inside the worker process, so the manifest reflects the
    cell's own derived seed and the worker's metrics registry.
    """
    # The cell runs against a *fresh* metrics registry (folded back into
    # the process registry afterwards), so its manifest snapshots only
    # what this cell did.  Without the scope the snapshot would be the
    # worker's cumulative registry — a function of how the pool packed
    # cells onto workers — and cross-job telemetry aggregation
    # (:mod:`repro.obs.telemetry`) could never be ``--jobs``-invariant.
    from repro.obs.telemetry import cell_metrics_scope

    experiment = f"{fn.__module__}:{fn.__qualname__}"
    with cell_metrics_scope():
        result, manifest = _capture(
            experiment, kwargs, lambda: fn(**kwargs), kind="cell"
        )
    try:
        manifest.save(out_dir)
    except OSError:
        pass  # provenance must never fail the science
    return result


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def replay(manifest: RunManifest) -> Tuple[Any, bool]:
    """Re-execute a manifest's run serially and verify bit-identity.

    Returns ``(result, digest_matches)``.  The re-run derives
    everything from the recorded params — same seed, same code — so a
    digest mismatch means the environment (package version, code)
    diverged from the recording.
    """
    fn = resolve_experiment(manifest.experiment)
    params = {k: _restore(v) for k, v in manifest.params.items()}
    result = fn(**params)
    return result, result_digest(result) == manifest.result_digest
