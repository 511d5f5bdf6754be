"""The chaos engine: seeded fault schedules and their injection points.

A schedule (:class:`ChaosSpec`) is replayable the same way a
``repro.validate`` case is: it serializes to a small JSON manifest, and
every fault decision is a pure function of ``(spec.seed, injection
point, call identity)`` — two runs with the same schedule inject the
same faults at the same logical points no matter how the pool packed
cells onto workers or how the event loop interleaved batches.

Two fault sources compose:

* **events** — explicit ``(point, kind, match)`` triples that fire when
  the call identity matches (e.g. *kill the worker computing the cell
  with seed 123 on attempt 0*).  This is the scripted form the CI
  chaos-smoke job and the regression tests use;
* **rates** — per ``(point, kind)`` probabilities drawn from a
  derived-seed RNG keyed by the call identity, for broad randomized
  campaigns (*corrupt 5 % of cache fetches*).  The draw depends only on
  the identity, so a retry (whose identity includes the attempt
  counter) redraws while a re-run of the same schedule replays
  identically.

Injection points (see docs/CHAOS.md for the full catalogue):

========================  ====================  =========================
point                     kinds                 identity
========================  ====================  =========================
``service.cell``          worker_kill, timeout  experiment, seed, attempt
``runner.tick``           abort, sigterm        completed (cell count)
``cellcache.fetch``       corrupt               key
``cellcache.store``       stall                 key
========================  ====================  =========================

``runner.tick`` fires inside :func:`repro.sweeps.run_sweep`, after each
journaled cell, so it interrupts ``repro run`` and ``repro submit
--run-dir`` alike.

Faults fired are counted as ``chaos.injected`` plus a per-point/kind
counter when metrics are on, so a chaos campaign's telemetry records
exactly what was injected alongside what the system did about it.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import count
from repro.parallel import derive_seed

__all__ = [
    "CHAOS_ENV",
    "CHAOS_SCHEMA",
    "INJECTION_POINTS",
    "ChaosAbort",
    "ChaosEngine",
    "ChaosSpec",
    "FaultEvent",
    "active_engine",
    "chaos_point",
    "load_spec",
    "reset_active",
    "service_fault",
]

CHAOS_ENV = "REPRO_CHAOS"
CHAOS_SCHEMA = 1

#: Injection-point catalogue: point name → fault kinds it understands.
INJECTION_POINTS: Dict[str, Tuple[str, ...]] = {
    "service.cell": ("worker_kill", "timeout"),
    "runner.tick": ("abort", "sigterm"),
    "cellcache.fetch": ("corrupt",),
    "cellcache.store": ("stall",),
}

#: Default fault parameters, overridable per-spec (``params``) and
#: per-event (``FaultEvent.params``).
DEFAULT_PARAMS: Dict[str, float] = {
    "timeout_sleep_s": 1.0,   # how long a 'timeout' fault stalls the worker
    "stall_sleep_s": 0.2,     # how long a 'stall' fault holds the store lock
}


class ChaosAbort(RuntimeError):
    """A scheduled mid-sweep crash (``runner.tick``/``abort``) fired.

    The journaled runner flushes the sweep journal before raising, so
    the run directory is left exactly as resumable as a real crash
    would leave it — that is the point of the fault.
    """


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault: fires when ``match`` ⊆ the call identity."""

    point: str
    kind: str
    match: Dict[str, Any] = field(default_factory=dict)
    params: Dict[str, Any] = field(default_factory=dict)

    def matches(self, identity: Dict[str, Any]) -> bool:
        return all(identity.get(k) == v for k, v in self.match.items())

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"point": self.point, "kind": self.kind}
        if self.match:
            out["match"] = dict(self.match)
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultEvent":
        point = data.get("point")
        kind = data.get("kind")
        if point not in INJECTION_POINTS:
            raise ValueError(
                f"unknown injection point {point!r}; "
                f"known: {sorted(INJECTION_POINTS)}")
        if kind not in INJECTION_POINTS[point]:
            raise ValueError(
                f"point {point!r} does not inject {kind!r}; "
                f"kinds: {INJECTION_POINTS[point]}")
        match = data.get("match", {})
        params = data.get("params", {})
        if not isinstance(match, dict) or not isinstance(params, dict):
            raise ValueError("'match' and 'params' must be objects")
        return cls(point=point, kind=kind, match=dict(match),
                   params=dict(params))


@dataclass
class ChaosSpec:
    """A replayable fault schedule (the chaos manifest, in memory)."""

    seed: int = 0
    rates: Dict[str, Dict[str, float]] = field(default_factory=dict)
    params: Dict[str, Any] = field(default_factory=dict)
    events: List[FaultEvent] = field(default_factory=list)
    max_faults: Optional[int] = None
    schema: int = CHAOS_SCHEMA

    def __post_init__(self) -> None:
        for point, kinds in self.rates.items():
            if point not in INJECTION_POINTS:
                raise ValueError(
                    f"unknown injection point {point!r}; "
                    f"known: {sorted(INJECTION_POINTS)}")
            for kind, rate in kinds.items():
                if kind not in INJECTION_POINTS[point]:
                    raise ValueError(
                        f"point {point!r} does not inject {kind!r}; "
                        f"kinds: {INJECTION_POINTS[point]}")
                if not (0.0 <= float(rate) <= 1.0):
                    raise ValueError(
                        f"rate for {point}/{kind} must be in [0, 1], "
                        f"got {rate!r}")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "seed": self.seed,
            "rates": {p: dict(k) for p, k in sorted(self.rates.items())},
            "params": dict(self.params),
            "events": [event.to_dict() for event in self.events],
            "max_faults": self.max_faults,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosSpec":
        if not isinstance(data, dict):
            raise ValueError("chaos manifest must be a JSON object")
        events = [FaultEvent.from_dict(e) for e in data.get("events", [])]
        return cls(
            seed=int(data.get("seed", 0)),
            rates={str(p): {str(k): float(r) for k, r in kinds.items()}
                   for p, kinds in (data.get("rates") or {}).items()},
            params=dict(data.get("params") or {}),
            events=events,
            max_faults=(None if data.get("max_faults") is None
                        else int(data["max_faults"])),
            schema=int(data.get("schema", CHAOS_SCHEMA)),
        )

    def save(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def load_spec(path: str) -> ChaosSpec:
    with open(path) as fh:
        return ChaosSpec.from_dict(json.load(fh))


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
def _identity_key(identity: Dict[str, Any]) -> str:
    """Canonical string form of a call identity (order-independent)."""
    return json.dumps(identity, sort_keys=True, default=repr)


class ChaosEngine:
    """Decides, deterministically, which faults fire where.

    One engine per process; the fired-fault counter (`max_faults` cap)
    is process-local — the *decisions* stay deterministic because they
    depend only on the spec and the call identity, while the cap merely
    bounds how much havoc one process will execute.
    """

    def __init__(self, spec: ChaosSpec):
        self.spec = spec
        self.fired = 0

    # ------------------------------------------------------------------
    def decide(self, point: str,
               identity: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The fault to inject at ``point`` for this call, or None.

        Scripted events take precedence over rate draws; at most one
        fault fires per call.
        """
        for event in self.spec.events:
            if event.point == point and event.matches(identity):
                return self._fire(point, event.kind, event.params)
        rates = self.spec.rates.get(point)
        if rates:
            ident = _identity_key(identity)
            for kind in sorted(rates):
                rate = rates[kind]
                if rate <= 0.0:
                    continue
                rng = random.Random(
                    derive_seed(self.spec.seed, "chaos", point, kind, ident))
                if rng.random() < rate:
                    return self._fire(point, kind, {})
        return None

    # ------------------------------------------------------------------
    def _fire(self, point: str, kind: str,
              overrides: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        cap = self.spec.max_faults
        if cap is not None and self.fired >= cap:
            return None
        self.fired += 1
        fault: Dict[str, Any] = {"kind": kind}
        if kind == "timeout":
            fault["sleep_s"] = float(overrides.get(
                "sleep_s", self.spec.params.get(
                    "timeout_sleep_s", DEFAULT_PARAMS["timeout_sleep_s"])))
        elif kind == "stall":
            fault["sleep_s"] = float(overrides.get(
                "sleep_s", self.spec.params.get(
                    "stall_sleep_s", DEFAULT_PARAMS["stall_sleep_s"])))
        count("chaos.injected")
        count(f"chaos.{point}.{kind}")
        return fault


# ----------------------------------------------------------------------
# Process-wide activation (REPRO_CHAOS=manifest path)
# ----------------------------------------------------------------------
_active: Tuple[str, Optional[ChaosEngine]] = ("", None)


def active_engine() -> Optional[ChaosEngine]:
    """The engine configured by ``REPRO_CHAOS``, or None.

    Memoized per manifest path, so repeated injection-point checks cost
    one environment lookup — cheap enough to sit on cache fetch/store
    paths.  An unreadable manifest disables chaos (and is remembered),
    never crashes the host process.
    """
    global _active
    path = os.environ.get(CHAOS_ENV, "").strip()
    if not path:
        return None
    cached_path, engine = _active
    if cached_path == path:
        return engine
    try:
        engine = ChaosEngine(load_spec(path))
    except (OSError, ValueError):
        engine = None
    _active = (path, engine)
    return engine


def reset_active() -> None:
    """Forget the memoized engine (tests; after swapping manifests)."""
    global _active
    _active = ("", None)


def chaos_point(point: str, **identity: Any) -> Optional[Dict[str, Any]]:
    """Consult the active schedule at one injection point.

    Returns the fault descriptor to execute, or None (no schedule, or
    no fault for this identity).  Call sites execute the fault
    themselves — the engine only ever *decides*.
    """
    engine = active_engine()
    if engine is None:
        return None
    return engine.decide(point, identity)


def service_fault(experiment: str, params: Dict[str, Any],
                  attempt: int) -> Optional[Dict[str, Any]]:
    """The ``service.cell`` fault for one execution attempt, or None.

    Maps the point onto the JSON-safe descriptors
    :func:`repro.service.server.execute_cell` understands, so a server
    started under ``REPRO_CHAOS`` injects without any test plumbing.
    """
    fault = chaos_point(
        "service.cell", experiment=experiment,
        seed=params.get("seed"), attempt=attempt)
    if fault is None:
        return None
    if fault["kind"] == "worker_kill":
        return {"die": True}
    if fault["kind"] == "timeout":
        return {"sleep_s": fault["sleep_s"]}
    return None
